"""Property-based checks of the join-semilattice laws (Definitions 1–3).

Every CRDT type in the package must satisfy, over *reachable* states:

* ``merge`` is idempotent, commutative and associative (up to payload
  equivalence, which is what queries observe);
* ``merge`` yields an upper bound and is the *least* upper bound;
* ``compare`` is reflexive and transitive and agrees with ``merge``
  (``a ⊑ b`` iff ``a ⊔ b ≡ b``);
* every update is inflationary (Definition 3);
* ``wire_size`` is a positive integer.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.crdt.strategies import (
    CRDT_NAMES,
    REPLICAS,
    initial_of,
    reachable_state,
    update_op,
)

pytestmark = pytest.mark.parametrize("name", CRDT_NAMES)

_SETTINGS = settings(max_examples=60, deadline=None)


@_SETTINGS
@given(data=st.data())
def test_merge_idempotent(name, data):
    a = data.draw(reachable_state(name))
    assert a.merge(a).equivalent(a)


@_SETTINGS
@given(data=st.data())
def test_merge_commutative(name, data):
    a = data.draw(reachable_state(name))
    b = data.draw(reachable_state(name))
    assert a.merge(b).equivalent(b.merge(a))


@_SETTINGS
@given(data=st.data())
def test_merge_associative(name, data):
    a = data.draw(reachable_state(name))
    b = data.draw(reachable_state(name))
    c = data.draw(reachable_state(name))
    assert a.merge(b).merge(c).equivalent(a.merge(b.merge(c)))


@_SETTINGS
@given(data=st.data())
def test_merge_is_upper_bound(name, data):
    a = data.draw(reachable_state(name))
    b = data.draw(reachable_state(name))
    joined = a.merge(b)
    assert a.compare(joined)
    assert b.compare(joined)


@_SETTINGS
@given(data=st.data())
def test_merge_is_least_upper_bound(name, data):
    a = data.draw(reachable_state(name))
    b = data.draw(reachable_state(name))
    extra = data.draw(reachable_state(name))
    upper = a.merge(b).merge(extra)  # an arbitrary common upper bound
    assert a.merge(b).compare(upper)


@_SETTINGS
@given(data=st.data())
def test_compare_reflexive(name, data):
    a = data.draw(reachable_state(name))
    assert a.compare(a)


@_SETTINGS
@given(data=st.data())
def test_compare_transitive_along_joins(name, data):
    a = data.draw(reachable_state(name))
    b = data.draw(reachable_state(name))
    c = data.draw(reachable_state(name))
    assert a.compare(a.merge(b))
    assert a.merge(b).compare(a.merge(b).merge(c))
    assert a.compare(a.merge(b).merge(c))  # transitivity witness


@_SETTINGS
@given(data=st.data())
def test_compare_agrees_with_merge(name, data):
    a = data.draw(reachable_state(name))
    b = data.draw(reachable_state(name))
    # a ⊑ b  ⇔  a ⊔ b ≡ b
    assert a.compare(b) == a.merge(b).equivalent(b)


@_SETTINGS
@given(data=st.data())
def test_updates_are_inflationary(name, data):
    state = data.draw(reachable_state(name))
    op = data.draw(update_op(name))
    replica = data.draw(st.sampled_from(REPLICAS))
    assert state.compare(op.apply(state, replica))


@_SETTINGS
@given(data=st.data())
def test_initial_is_bottom(name, data):
    state = data.draw(reachable_state(name))
    assert initial_of(name).compare(state)


@_SETTINGS
@given(data=st.data())
def test_wire_size_positive(name, data):
    state = data.draw(reachable_state(name))
    assert isinstance(state.wire_size(), int)
    assert state.wire_size() > 0


@_SETTINGS
@given(data=st.data())
def test_delta_reproduces_update(name, data):
    """The delta-mutation contract, both halves: ``before ⊔ delta ≡
    after``, and merged into *any* other payload the delta makes that
    payload include the update — joining it in is as good as having
    joined ``after``, with or without ``before`` already there."""
    state = data.draw(reachable_state(name))
    other = data.draw(reachable_state(name))
    op = data.draw(update_op(name))
    replica = data.draw(st.sampled_from(REPLICAS))
    after = op.apply(state, replica)
    delta = op.delta(state, after, replica)
    assert state.merge(delta).equivalent(after)
    assert delta.compare(other.merge(delta))
    assert other.merge(state).merge(delta).equivalent(other.merge(after))
    assert other.merge(delta).merge(state).equivalent(other.merge(after))
