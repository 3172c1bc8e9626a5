"""The repo's benchmark: six named workloads on the socket stack and the
in-process protocol floor, end-to-end and per-layer metrics.

Entry point: ``python3 perf/run.py`` (see ``perf/README.md``).
"""
