"""Behavioural tests for G-Counter and PN-Counter."""

import pytest

from repro.crdt.gcounter import GCounter, GCounterValue, Increment
from repro.crdt.pncounter import Decrement, PNCounter, PNCounterValue, PNIncrement
from repro.net.message import wire_size


class TestGCounter:
    def test_initial_value_zero(self):
        assert GCounter.initial().value() == 0

    def test_increment_targets_replica_slot(self):
        state = Increment(3).apply(GCounter.initial(), "r1")
        assert state.slot("r1") == 3
        assert state.slot("r0") == 0
        assert state.value() == 3

    def test_algorithm1_example_convergence(self):
        # Two replicas increment independently and exchange states — the
        # SEC usage sketched under Algorithm 1.
        at_r0 = Increment().apply(GCounter.initial(), "r0")
        at_r1 = Increment(2).apply(GCounter.initial(), "r1")
        merged_a = at_r0.merge(at_r1)
        merged_b = at_r1.merge(at_r0)
        assert merged_a == merged_b
        assert merged_a.value() == 3

    def test_merge_takes_pointwise_max_not_sum(self):
        a = GCounter.of({"r0": 5, "r1": 1})
        b = GCounter.of({"r0": 3, "r1": 4})
        assert a.merge(b).as_dict() == {"r0": 5, "r1": 4}

    def test_compare_partial_order(self):
        small = GCounter.of({"r0": 1})
        large = GCounter.of({"r0": 2, "r1": 1})
        incomparable = GCounter.of({"r1": 5})
        assert small.compare(large)
        assert not large.compare(small)
        assert not small.compare(incomparable)
        assert not incomparable.compare(small)

    def test_value_query_op(self):
        state = GCounter.of({"r0": 2, "r2": 7})
        assert GCounterValue().apply(state) == 9

    def test_increment_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Increment(0)
        with pytest.raises(ValueError):
            Increment(-2)

    def test_of_rejects_negative_slots(self):
        with pytest.raises(ValueError):
            GCounter.of({"r0": -1})

    def test_delta_is_single_slot(self):
        before = GCounter.of({"r0": 2, "r1": 5})
        op = Increment()
        after = op.apply(before, "r0")
        delta = op.delta(before, after, "r0")
        assert delta.as_dict() == {"r0": 3}
        assert before.merge(delta) == after

    def test_wire_size_scales_with_entries(self):
        small = GCounter.of({"r0": 1})
        large = GCounter.of({"r0": 1, "r1": 1, "r2": 1})
        assert wire_size(large) > wire_size(small)


class TestPNCounter:
    def test_value_is_p_minus_n(self):
        state = PNCounter.initial()
        state = PNIncrement(10).apply(state, "r0")
        state = Decrement(4).apply(state, "r1")
        assert state.value() == 6
        assert PNCounterValue().apply(state) == 6

    def test_can_go_negative(self):
        state = Decrement(5).apply(PNCounter.initial(), "r0")
        assert state.value() == -5

    def test_merge_merges_both_halves(self):
        a = PNIncrement(3).apply(PNCounter.initial(), "r0")
        b = Decrement(2).apply(PNCounter.initial(), "r1")
        merged = a.merge(b)
        assert merged.value() == 1

    def test_compare_requires_both_components(self):
        base = PNCounter.initial()
        plus = PNIncrement().apply(base, "r0")
        minus = Decrement().apply(base, "r0")
        assert base.compare(plus) and base.compare(minus)
        assert not plus.compare(minus)
        assert not minus.compare(plus)

    def test_decrement_is_inflationary_in_lattice(self):
        # The *value* shrinks but the lattice state grows — that is the
        # PN-Counter trick.
        state = PNIncrement(5).apply(PNCounter.initial(), "r0")
        after = Decrement(3).apply(state, "r0")
        assert state.compare(after)
        assert after.value() < state.value()

    def test_op_validation(self):
        with pytest.raises(ValueError):
            PNIncrement(0)
        with pytest.raises(ValueError):
            Decrement(0)
