"""Smoke tests: the runnable examples must actually run.

Each example asserts its own expected outcome internally, so a zero exit
code means the scenario behaved (linearizable counts, cart contents,
bounded message growth).  The two long-running demos are exercised with
reduced parameters via environment-free subprocess knobs where possible
and are otherwise covered by the benchmarks that share their code paths.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name: str, timeout: float = 120.0) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "linearizable read: counter = 10" in out


def test_shopping_cart():
    out = run_example("shopping_cart.py")
    assert "espresso beans" in out
    assert "milk" in out


def test_gla_message_growth():
    out = run_example("gla_message_growth.py")
    assert "GLA" in out
    assert "stay bounded" not in out or "must stay bounded" not in out


def test_keyed_store():
    out = run_example("keyed_store.py")
    assert "tags:global" in out
    assert "linearizable" in out
    assert "hard-killed" in out
    assert "quorum refresh" in out


@pytest.mark.slow
def test_atomic_counter_service():
    out = run_example("atomic_counter_service.py", timeout=300.0)
    assert "linearizable read    : 150" in out


@pytest.mark.slow
def test_failure_resilience():
    out = run_example("failure_resilience.py", timeout=600.0)
    assert "no failover gap" in out


def test_sharded_store():
    out = run_example("sharded_store.py")
    assert "linearizable read of migrated key" in out
    assert "bounded rebalance" in out
    assert "grown group g2" in out
    assert "sharded store: OK" in out


def test_net_cluster():
    from repro.nemesis.process import sockets_available

    if not sockets_available():
        pytest.skip("loopback sockets unavailable in this sandbox")
    out = run_example("net_cluster.py")
    assert "linearizable read over real sockets: hits = 10" in out
    assert "SIGKILL r0: fail-over kept 5 increments flowing" in out
    assert (
        "restarted r0 answered the linearizable read: hits = 15 "
        "(including 5 it missed while dead)" in out
    )
    assert "four processes, one counter" in out


def test_nemesis_demo():
    out = run_example("nemesis_demo.py")
    assert "majority side still commits" in out
    assert "QuorumUnavailable" in out
    assert "nemesis healed" in out
    assert "automatic resumption: OK" in out
