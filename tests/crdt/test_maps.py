"""Behavioural tests for LWW-Map and grow-only nested GMap."""

import pytest

from repro.crdt.gcounter import GCounter, GCounterValue, Increment
from repro.crdt.gmap import GMap, GMapApply, GMapGet
from repro.crdt.gset import GSet, GSetAdd, Elements
from repro.crdt.lwwmap import (
    LWWMap,
    LWWMapGet,
    LWWMapKeys,
    LWWMapPut,
    LWWMapRemove,
    TOMBSTONE,
)


class TestLWWMap:
    def test_put_and_get(self):
        state = LWWMapPut("k", "v", 1.0).apply(LWWMap.initial(), "r0")
        assert state.get("k") == "v"
        assert LWWMapGet("k").apply(state) == "v"
        assert "k" in state

    def test_get_absent_key(self):
        assert LWWMap.initial().get("missing") is None

    def test_later_put_wins(self):
        state = LWWMapPut("k", "old", 1.0).apply(LWWMap.initial(), "r0")
        state = LWWMapPut("k", "new", 2.0).apply(state, "r1")
        assert state.get("k") == "new"

    def test_remove_tombstones_key(self):
        state = LWWMapPut("k", "v", 1.0).apply(LWWMap.initial(), "r0")
        state = LWWMapRemove("k", 2.0).apply(state, "r0")
        assert state.get("k") is None
        assert "k" not in state
        assert LWWMapKeys().apply(state) == frozenset()

    def test_put_after_remove_resurrects(self):
        state = LWWMapPut("k", "v", 1.0).apply(LWWMap.initial(), "r0")
        state = LWWMapRemove("k", 2.0).apply(state, "r0")
        state = LWWMapPut("k", "v2", 3.0).apply(state, "r0")
        assert state.get("k") == "v2"

    def test_stale_put_loses_to_remove(self):
        state = LWWMapRemove("k", 5.0).apply(LWWMap.initial(), "r0")
        state = LWWMapPut("k", "late", 1.0).apply(state, "r1")
        assert state.get("k") is None

    def test_keys_independent(self):
        state = LWWMapPut("a", 1, 1.0).apply(LWWMap.initial(), "r0")
        state = LWWMapPut("b", 2, 1.0).apply(state, "r0")
        state = LWWMapRemove("a", 2.0).apply(state, "r0")
        assert state.live_keys() == frozenset({"b"})

    def test_merge_per_key_recency(self):
        a = LWWMapPut("k", "from-a", 2.0).apply(LWWMap.initial(), "r0")
        b = LWWMapPut("k", "from-b", 1.0).apply(LWWMap.initial(), "r1")
        b = LWWMapPut("other", "x", 1.0).apply(b, "r1")
        merged = a.merge(b)
        assert merged.get("k") == "from-a"
        assert merged.get("other") == "x"

    def test_tombstone_sentinel_rejected_as_value(self):
        with pytest.raises(ValueError):
            LWWMapPut("k", TOMBSTONE, 1.0)


def _filled_lwwmap(fields: int = 128) -> LWWMap:
    state = LWWMap.initial()
    for i in range(fields):
        state = LWWMapPut(f"f{i:03d}", "0" * 32, 0.0).apply(state, "r0")
    return state


class TestLWWMapDeltas:
    def test_put_delta_is_one_entry_and_small_on_the_wire(self):
        from repro.wire import encode_body

        before = _filled_lwwmap()
        op = LWWMapPut("f064", "x" * 32, 7.0)
        after = op.apply(before, "r1")
        delta = op.delta(before, after, "r1")
        assert len(delta.entries) == 1
        assert before.merge(delta) == after
        assert len(encode_body(after)) > 7000
        assert len(encode_body(delta)) < 200

    def test_remove_delta_carries_the_tombstone(self):
        before = _filled_lwwmap(8)
        op = LWWMapRemove("f003", 2.0)
        after = op.apply(before, "r2")
        delta = op.delta(before, after, "r2")
        assert len(delta.entries) == 1
        merged = LWWMap.initial().merge(delta)
        assert "f003" not in merged
        # The tombstone outranks an older put wherever the delta lands.
        assert "f003" not in LWWMapPut("f003", "old", 1.0).apply(
            LWWMap.initial(), "r0"
        ).merge(delta)

    def test_stale_put_delta_changes_nothing(self):
        before = LWWMapPut("k", "new", 5.0).apply(LWWMap.initial(), "r0")
        op = LWWMapPut("k", "late", 1.0)
        after = op.apply(before, "r1")
        assert after is before
        assert before.merge(op.delta(before, after, "r1")) is before


class TestLWWMapSortedInvariant:
    """Writes and joins replace or insert entries; the result must be
    the tuple a full re-sort by ``repr(key)`` would have produced, or
    equal maps built along different paths stop being ``==``."""

    @staticmethod
    def _is_sorted(state: LWWMap) -> bool:
        ranks = [repr(key) for key, _ in state.entries]
        return ranks == sorted(ranks)

    def test_inserts_land_in_repr_order_whatever_the_write_order(self):
        keys = ["m", 3, "a", ("t", 1), "z", 10, "b"]
        forward = backward = LWWMap.initial()
        for key in keys:
            forward = LWWMapPut(key, "v", 1.0).apply(forward, "r0")
        for key in reversed(keys):
            backward = LWWMapPut(key, "v", 1.0).apply(backward, "r0")
        assert self._is_sorted(forward)
        assert forward == backward

    def test_join_of_disjoint_and_overlapping_maps_stays_sorted(self):
        a = b = LWWMap.initial()
        for i in range(0, 20, 2):
            a = LWWMapPut(f"k{i:02d}", "a", 1.0).apply(a, "r0")
        for i in range(0, 20, 3):
            b = LWWMapPut(f"k{i:02d}", "b", 2.0).apply(b, "r1")
        joined = a.merge(b)
        assert self._is_sorted(joined)
        assert joined == b.merge(a)
        assert joined.get("k06") == "b" and joined.get("k02") == "a"
        assert a.compare(joined) and b.compare(joined)
        assert not joined.compare(a)

    def test_small_side_join_returns_the_larger_map_when_subsumed(self):
        big = _filled_lwwmap(16)
        delta = LWWMap((big.entries[5],))
        assert big.merge(delta) is big
        assert delta.merge(big) is big
        assert delta.compare(big) and not big.compare(delta)

    def test_lookup_after_replacement_sees_the_new_entry(self):
        # A replaced map shares its predecessor's position index.
        before = _filled_lwwmap(8)
        assert before.get("f003") == "0" * 32  # builds the index
        after = LWWMapPut("f003", "fresh", 9.0).apply(before, "r1")
        assert after.get("f003") == "fresh"
        assert before.get("f003") == "0" * 32


class TestGMap:
    def test_nested_counter(self):
        op = GMapApply("votes", GCounter.initial(), Increment(2))
        state = op.apply(GMap.initial(), "r0")
        assert GMapGet("votes", GCounterValue()).apply(state) == 2

    def test_get_absent_key_returns_none(self):
        assert GMapGet("nope", GCounterValue()).apply(GMap.initial()) is None

    def test_merge_joins_nested_values(self):
        a = GMapApply("c", GCounter.initial(), Increment(1)).apply(
            GMap.initial(), "r0"
        )
        b = GMapApply("c", GCounter.initial(), Increment(2)).apply(
            GMap.initial(), "r1"
        )
        merged = a.merge(b)
        assert GMapGet("c", GCounterValue()).apply(merged) == 3

    def test_heterogeneous_values(self):
        state = GMapApply("counter", GCounter.initial(), Increment()).apply(
            GMap.initial(), "r0"
        )
        state = GMapApply("set", GSet.initial(), GSetAdd("x")).apply(state, "r0")
        assert GMapGet("set", Elements()).apply(state) == frozenset({"x"})
        assert state.keys() == frozenset({"counter", "set"})

    def test_compare_missing_key_is_bottom(self):
        small = GMap.initial()
        large = GMapApply("k", GCounter.initial(), Increment()).apply(
            small, "r0"
        )
        assert small.compare(large)
        assert not large.compare(small)

    def test_contains(self):
        state = GMapApply("k", GCounter.initial(), Increment()).apply(
            GMap.initial(), "r0"
        )
        assert "k" in state
        assert "other" not in state

    def test_apply_delta_is_the_nested_delta_under_one_key(self):
        before = GMap.initial()
        for key in ("a", "b", "c"):
            before = GMapApply(key, GCounter.initial(), Increment(5)).apply(
                before, "r0"
            )
        op = GMapApply("b", GCounter.initial(), Increment(2))
        after = op.apply(before, "r1")
        delta = op.delta(before, after, "r1")
        assert delta == GMap((("b", GCounter((("r1", 2),))),))
        assert before.merge(delta) == after

    def test_apply_delta_of_a_new_key_includes_the_initial_value(self):
        seeded = GCounter((("seed", 10),))
        op = GMapApply("fresh", seeded, Increment(1))
        before = GMap.initial()
        after = op.apply(before, "r0")
        delta = op.delta(before, after, "r0")
        assert before.merge(delta) == after
        assert GMapGet("fresh", GCounterValue()).apply(delta) == 11


class TestGMapPointwiseFastPath:
    """merge skips unchanged entries via per-entry digests and reuses the
    existing tuple when nothing (or only values) changed."""

    def build(self, n=8, amount=1, replica="r0"):
        state = GMap.initial()
        for i in range(n):
            state = GMapApply(
                f"k{i}", GCounter.initial(), Increment(amount)
            ).apply(state, replica)
        return state

    def test_merge_with_subsumed_map_returns_self(self):
        big = self.build(amount=5)
        small = self.build(n=4, amount=5)  # strict subset, same values
        assert big.merge(small) is big

    def test_merge_with_structural_twin_returns_self(self):
        a = self.build()
        twin = GMap(tuple((k, v) for k, v in a.entries))
        assert a.merge(twin) is a

    def test_merge_with_empty_returns_self_or_other(self):
        a = self.build()
        assert a.merge(GMap.initial()) is a
        assert GMap.initial().merge(a) is a

    def test_value_only_change_preserves_entry_order_without_resort(self):
        a = self.build(n=6, amount=1, replica="r0")
        b = GMapApply("k3", GCounter.initial(), Increment(9)).apply(
            GMap.initial(), "r1"
        )
        merged = a.merge(b)
        assert [k for k, _ in merged.entries] == [k for k, _ in a.entries]
        # Untouched entry objects are reused, not copied.
        untouched = {k: v for k, v in a.entries if k != "k3"}
        assert all(v is untouched[k] for k, v in merged.entries if k != "k3")
        assert GMapGet("k3", GCounterValue()).apply(merged) == 10

    def test_new_key_still_sorts(self):
        a = self.build(n=3)
        b = GMapApply("a-first", GCounter.initial(), Increment()).apply(
            GMap.initial(), "r1"
        )
        merged = a.merge(b)
        reprs = [repr(k) for k, _ in merged.entries]
        assert reprs == sorted(reprs)

    def test_with_entry_subsumed_value_returns_self(self):
        a = self.build(n=3, amount=5)
        nested = dict(a.entries)["k1"]
        assert a.with_entry("k1", nested) is a
