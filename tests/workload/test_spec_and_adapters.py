"""Tests for workload specification and protocol adapters."""

import pytest

from repro.baselines.common import RsmQuery, RsmQueryDone, RsmUpdate, RsmUpdateDone
from repro.core.messages import ClientQuery, ClientUpdate, QueryDone, UpdateDone
from repro.crdt.gcounter import GCounterValue, Increment
from repro.errors import ConfigurationError
from repro.workload.adapters import CrdtPaxosOpAdapter, RsmOpAdapter
from repro.workload.spec import WorkloadSpec


class TestWorkloadSpec:
    def test_valid_spec(self):
        spec = WorkloadSpec(n_clients=10, read_ratio=0.9, duration=5.0)
        assert spec.warmup < spec.duration

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_clients": 0, "read_ratio": 0.5, "duration": 1.0},
            {"n_clients": 1, "read_ratio": 1.5, "duration": 1.0},
            {"n_clients": 1, "read_ratio": 0.5, "duration": 0.0},
            {"n_clients": 1, "read_ratio": 0.5, "duration": 1.0, "warmup": 1.0},
            {"n_clients": 1, "read_ratio": 0.5, "duration": 1.0, "client_timeout": 0},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(**kwargs)


class TestCrdtPaxosAdapter:
    def test_messages(self):
        adapter = CrdtPaxosOpAdapter()
        update = adapter.update_message("u1", Increment(3))
        query = adapter.query_message("q1", GCounterValue())
        assert isinstance(update, ClientUpdate)
        assert update.op.amount == 3
        assert isinstance(query, ClientQuery)

    def test_parse_replies(self):
        adapter = CrdtPaxosOpAdapter()
        parsed = adapter.parse_reply(UpdateDone(request_id="u1"))
        assert parsed.kind == "update" and parsed.request_id == "u1"
        parsed = adapter.parse_reply(
            QueryDone(
                request_id="q1",
                result=5,
                round_trips=2,
                attempts=1,
                learned_via="vote",
                proposer="r0",
                learn_seq=3,
            )
        )
        assert parsed.kind == "read"
        assert parsed.result == 5
        assert parsed.round_trips == 2
        assert parsed.learned_via == "vote"

    def test_non_completion_messages_ignored(self):
        assert CrdtPaxosOpAdapter().parse_reply("noise") is None


class TestRsmAdapter:
    def test_messages(self):
        adapter = RsmOpAdapter()
        update = adapter.update_message("u1", Increment(2))
        query = adapter.query_message("q1", GCounterValue())
        assert isinstance(update, RsmUpdate)
        assert update.command == ("incr", 2)
        assert isinstance(query, RsmQuery)
        assert query.command == ("read",)

    def test_parse_replies(self):
        adapter = RsmOpAdapter()
        assert adapter.parse_reply(RsmUpdateDone(request_id="u")).kind == "update"
        parsed = adapter.parse_reply(
            RsmQueryDone(request_id="q", result=9, served_by="r1", via="lease")
        )
        assert parsed.kind == "read"
        assert parsed.result == 9
        assert parsed.learned_via == "lease"

    def test_non_completion_messages_ignored(self):
        assert RsmOpAdapter().parse_reply(42) is None
