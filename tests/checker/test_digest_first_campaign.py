"""Adversarial campaigns on the digest-first PREPARE path.

A G-Counter starting from 64 dormant (zero) slots encodes past the
codec's sized crossover, so every payload in the run travels as a
memoised blob and proposers state their payload by fingerprint — while
inclusion tags and validity bounds stay exactly those of the empty
counter.  The campaigns below are the §3.1 checks of
``test_property_campaign`` / ``test_explorer`` on that path, with
vacuity guards proving the path ran, and a mutation proof that the
checker catches a fingerprint that lies.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.checker.lattice_linearizability import check_all
from repro.checker.scheduler import InterleavingExplorer, KeyedInterleavingExplorer
from repro.core.acceptor import Acceptor
from repro.core.config import CrdtPaxosConfig
from repro.crdt.gcounter import GCounter
from repro.errors import HistoryViolation
from repro.wire import SIZED_CROSSOVER, encode_body

#: The empty counter, padded past the sized crossover with dormant slots.
PADDED = GCounter(tuple((f"dormant-{i:02d}", 0) for i in range(64)))

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def test_the_padded_counter_is_a_sized_payload_equivalent_to_bottom():
    encode_body(PADDED)
    assert len(PADDED.wire_blob()) >= SIZED_CROSSOVER
    assert PADDED.equivalent(GCounter.initial()) and PADDED.value() == 0


@pytest.fixture
def prepare_spy(monkeypatch):
    """Counts digest-first PREPAREs handled and those acked with a state."""
    counts = {"digest": 0, "mismatched": 0}
    handle = Acceptor.handle_prepare

    def spy(self, msg):
        reply = handle(self, msg)
        if type(msg.state) is bytes:
            counts["digest"] += 1
            counts["mismatched"] += reply.state is not None
        return reply

    monkeypatch.setattr(Acceptor, "handle_prepare", spy)
    return counts


def test_clean_seeds_take_every_digest_first_branch(prepare_spy):
    matched = vote_learns = 0
    for seed in range(10):
        report = InterleavingExplorer(seed=seed, initial=PADDED).run(
            n_ops=40, read_fraction=0.5
        )
        check_all(report.history)
        assert report.all_complete
        matched += report.prepares_matched
        vote_learns += sum(
            query.learned_via == "vote"
            for query in report.history.completed_queries()
        )
    # Vacuity guards: fingerprints matched, mismatched acks shipped a
    # state, and the vote phase ran on digest-first attempts too.
    assert matched > 0
    assert prepare_spy["mismatched"] > 0
    assert prepare_spy["digest"] == matched + prepare_spy["mismatched"]
    assert vote_learns > 0


def test_keyed_explorer_seed_on_the_digest_first_path():
    report = KeyedInterleavingExplorer(seed=0, n_keys=8, initial=PADDED).run(
        n_ops=60, read_fraction=0.4
    )
    for history in report.histories.values():
        check_all(history)
    assert report.all_complete
    assert report.evictions > 0 and report.prepares_matched > 0


def test_a_lying_fingerprint_fails_the_checker(monkeypatch):
    """Mutation proof: if every payload had the same fingerprint, an
    acceptor would ack "equal to what you stated" for any state and the
    proposer would fast-path learn its own, possibly stale, payload."""
    import repro.wire.digest

    monkeypatch.setattr(repro.wire.digest, "fingerprint", lambda state: bytes(16))
    report = InterleavingExplorer(seed=0, initial=PADDED).run(
        n_ops=40, read_fraction=0.5
    )
    with pytest.raises(HistoryViolation):
        check_all(report.history)


@_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n_ops=st.integers(5, 35),
    read_fraction=st.floats(0.0, 1.0),
    gla_stability=st.booleans(),
    delta_merge=st.booleans(),
    initial_prepare=st.sampled_from(["incremental", "fixed"]),
)
def test_clean_network_campaign_digest_first(
    seed, n_ops, read_fraction, gla_stability, delta_merge, initial_prepare
):
    config = CrdtPaxosConfig(
        gla_stability=gla_stability,
        delta_merge=delta_merge,
        initial_prepare=initial_prepare,
    )
    explorer = InterleavingExplorer(seed=seed, config=config, initial=PADDED)
    report = explorer.run(n_ops=n_ops, read_fraction=read_fraction)
    check_all(report.history, expect_gla_stability=gla_stability)
    assert report.all_complete


@_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n_ops=st.integers(5, 30),
    read_fraction=st.floats(0.1, 0.9),
    drop=st.floats(0.0, 0.2),
    duplicate=st.floats(0.0, 0.2),
    crash=st.floats(0.0, 0.02),
    n_replicas=st.sampled_from([3, 5]),
)
def test_faulty_network_campaign_digest_first(
    seed, n_ops, read_fraction, drop, duplicate, crash, n_replicas
):
    explorer = InterleavingExplorer(seed=seed, n_replicas=n_replicas, initial=PADDED)
    report = explorer.run(
        n_ops=n_ops,
        read_fraction=read_fraction,
        drop_probability=drop,
        duplicate_probability=duplicate,
        crash_probability=crash,
    )
    check_all(report.history)


@pytest.mark.parametrize("seed", range(6))
def test_loss_duplication_and_crashes_on_the_digest_first_path(seed):
    report = InterleavingExplorer(seed=seed, initial=PADDED).run(
        n_ops=30,
        read_fraction=0.5,
        drop_probability=0.1,
        duplicate_probability=0.1,
        crash_probability=0.01,
    )
    check_all(report.history)
    assert report.prepares_matched > 0
