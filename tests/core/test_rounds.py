"""Tests for the round algebra (§3.2 conventions)."""

from repro.core.rounds import (
    BOTTOM_ID,
    INCREMENTAL_NUMBER,
    Round,
    RoundIdGenerator,
    WRITE_ID,
    proposer_id,
)
from repro.net.message import wire_size


def test_initial_round_is_zero_bottom():
    round_ = Round.initial()
    assert round_.number == 0
    assert round_.rid == BOTTOM_ID
    assert not round_.is_incremental


def test_rounds_totally_ordered_by_number_then_id():
    low = Round(1, proposer_id(1, 0))
    high_number = Round(2, proposer_id(1, 0))
    high_id = Round(1, proposer_id(2, 0))
    assert low < high_number
    assert low < high_id
    assert high_id < high_number
    assert max([low, high_number, high_id]) == high_number


def test_incremental_round_marker():
    round_ = Round.incremental(proposer_id(1, 2))
    assert round_.is_incremental
    assert round_.number == INCREMENTAL_NUMBER


def test_concretized_resolves_at_acceptor():
    incremental = Round.incremental(proposer_id(3, 1))
    concrete = incremental.concretized(acceptor_number=7)
    assert concrete.number == 8
    assert concrete.rid == proposer_id(3, 1)
    assert not concrete.is_incremental


def test_write_marker_keeps_number_changes_id():
    round_ = Round(5, proposer_id(1, 0))
    written = round_.with_write_id()
    assert written.number == 5
    assert written.rid == WRITE_ID
    assert written != round_


def test_write_id_differs_from_any_proposer_id():
    generator = RoundIdGenerator(proposer_index=0)
    for _ in range(100):
        assert generator.fresh() != WRITE_ID
        assert generator.fresh() != BOTTOM_ID


def test_generator_ids_unique_and_increasing():
    generator = RoundIdGenerator(proposer_index=1)
    ids = [generator.fresh() for _ in range(50)]
    assert len(set(ids)) == 50
    assert ids == sorted(ids)


def test_generators_of_different_proposers_never_collide():
    a = RoundIdGenerator(proposer_index=0)
    b = RoundIdGenerator(proposer_index=1)
    ids_a = {a.fresh() for _ in range(50)}
    ids_b = {b.fresh() for _ in range(50)}
    assert not ids_a & ids_b


def test_repr_shows_bottom_number():
    assert "⊥" in repr(Round.incremental(proposer_id(1, 0)))


def test_wire_size_is_constant():
    # One counter and a fixed-shape id: the size depends on nothing the
    # round has seen, only on the counter's varint width.
    rid = proposer_id(5, 2)
    assert wire_size(Round.initial()) == wire_size(Round(63, rid))
    assert wire_size(Round(64, rid)) == wire_size(Round(8191, rid))
