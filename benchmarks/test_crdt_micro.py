"""Micro-benchmarks of the CRDT substrate and protocol primitives.

These are classic pytest-benchmark measurements (many iterations of a
small operation) covering the inner loops every experiment leans on:
merge/compare of the counter used in all figures, the bigger OR-Set
payloads, and one full protocol step of the acceptor.

The ``TestHotPathSpeedup`` class additionally *asserts* the digest/join
short-circuits deliver ≥2× over the naive two-pass implementations on the
query fast path's dominant shape: a 5-ack quorum of structurally equal
1000-element OR-Set payloads.
"""

from conftest import best_of_seconds, build_quorum_acks

from repro.core.acceptor import Acceptor
from repro.core.messages import Merge, Prepare
from repro.core.rounds import Round, RoundIdGenerator
from repro.crdt.base import join_all
from repro.crdt.gcounter import GCounter, Increment
from repro.crdt.orset import ORSet, ORSetAdd


def build_gcounter(slots: int = 3, value: int = 1000) -> GCounter:
    return GCounter.of({f"r{i}": value + i for i in range(slots)})


def build_orset(elements: int = 100) -> ORSet:
    state = ORSet.initial()
    for i in range(elements):
        state = state.with_add(f"item-{i}", f"r{i % 3}")
    return state


def test_gcounter_merge(benchmark):
    a = build_gcounter(value=1000)
    b = build_gcounter(value=2000)
    result = benchmark(a.merge, b)
    assert result.value() >= a.value()


def test_gcounter_compare(benchmark):
    a = build_gcounter(value=1000)
    b = a.merge(build_gcounter(value=2000))
    assert benchmark(a.compare, b)


def test_gcounter_increment(benchmark):
    state = build_gcounter()
    op = Increment()
    result = benchmark(op.apply, state, "r0")
    assert result.slot("r0") == state.slot("r0") + 1


def test_orset_merge(benchmark):
    a = build_orset(100)
    b = build_orset(100).with_add("extra", "r1")
    result = benchmark(a.merge, b)
    assert "extra" in result


def test_orset_add(benchmark):
    state = build_orset(100)
    op = ORSetAdd("new-item")
    result = benchmark(op.apply, state, "r2")
    assert "new-item" in result


def test_orset_join_all_quorum(benchmark):
    acks = build_quorum_acks()
    lub = benchmark(join_all, acks)
    assert lub is acks[0]  # copy-on-write: first ack adopted untouched


def test_orset_equivalent_vs_lub(benchmark):
    acks = build_quorum_acks()
    lub = join_all(acks)

    def fast_path_check():
        return all(state.equivalent(lub) for state in acks)

    assert benchmark(fast_path_check)


def _naive_join_all(states):
    iterator = iter(states)
    result = next(iterator)
    for state in iterator:
        result = result.merge(state)
    return result


def _best_of(fn):
    return best_of_seconds(fn, repeats=5, iters=20)


class TestHotPathSpeedup:
    """Acceptance gates for the digest/join short-circuits (this PR)."""

    def test_join_all_at_least_2x_over_naive_fold(self):
        acks = build_quorum_acks()
        fast = _best_of(lambda: join_all(acks))
        naive = _best_of(lambda: _naive_join_all(acks))
        assert join_all(acks).equivalent(_naive_join_all(acks))
        assert naive / fast >= 2.0, f"join_all speedup only {naive / fast:.1f}x"

    def test_equivalent_vs_lub_at_least_2x_over_two_pass(self):
        acks = build_quorum_acks()
        lub = join_all(acks)

        def fast():
            return all(state.equivalent(lub) for state in acks)

        def naive():
            return all(
                state.compare(lub) and lub.compare(state) for state in acks
            )

        assert fast() and naive()
        speedup = _best_of(naive) / _best_of(fast)
        assert speedup >= 2.0, f"equivalent-vs-LUB speedup only {speedup:.1f}x"


def test_acceptor_merge_step(benchmark):
    acceptor = Acceptor(build_gcounter())
    message = Merge(request_id="m", state=build_gcounter(value=5000))
    benchmark(acceptor.handle_merge, message)


def test_acceptor_prepare_step(benchmark):
    acceptor = Acceptor(build_gcounter())
    generator = RoundIdGenerator(0)

    def prepare_once():
        message = Prepare(
            request_id="q",
            attempt=1,
            round=Round.incremental(generator.fresh()),
        )
        return acceptor.handle_prepare(message)

    reply = benchmark(prepare_once)
    assert reply is not None
