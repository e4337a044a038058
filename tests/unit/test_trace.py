"""Unit tests for the structured event tracer (analysis/trace.py)."""

import io
import json

import pytest

from repro.analysis.trace import TraceEvent, Tracer, load_jsonl


class TestRingBuffer:
    def test_below_capacity_keeps_everything(self):
        tracer = Tracer(capacity=10)
        for i in range(7):
            tracer.emit("txn_begin", txn=i)
        assert len(tracer) == 7
        assert tracer.dropped == 0
        assert [e.txn for e in tracer.events()] == list(range(7))

    def test_overflow_drops_oldest_and_counts(self):
        tracer = Tracer(capacity=5)
        for i in range(12):
            tracer.emit("txn_begin", txn=i)
        assert len(tracer) == 5
        assert tracer.dropped == 7
        # The survivors are the 5 most recent, still in emission order.
        assert [e.txn for e in tracer.events()] == [7, 8, 9, 10, 11]
        assert [e.seq for e in tracer.events()] == [7, 8, 9, 10, 11]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_clock_stamps_events(self):
        now = {"t": 1.5}
        tracer = Tracer(clock=lambda: now["t"])
        first = tracer.emit("txn_begin", txn=1)
        now["t"] = 2.75
        second = tracer.emit("committed", txn=1)
        assert first.t == 1.5
        assert second.t == 2.75


class TestOrdering:
    def test_equal_sim_time_preserves_emission_order(self):
        tracer = Tracer(clock=lambda: 4.0)
        kinds = ["write_issued", "write_acked", "prepare",
                 "decision_logged", "commit_sent", "committed"]
        for kind in kinds:
            tracer.emit(kind, txn=9)
        events = tracer.events()
        assert [e.kind for e in events] == kinds
        seqs = [e.seq for e in events]
        assert seqs == sorted(seqs)
        # (t, seq) sorting (what load_jsonl applies) keeps that order.
        assert sorted(events, key=lambda e: (e.t, e.seq)) == events

    def test_filters(self):
        tracer = Tracer()
        tracer.emit("write_issued", db="a", txn=1, machine="m0")
        tracer.emit("write_issued", db="a", txn=1, machine="m1")
        tracer.emit("write_acked", db="a", txn=1, machine="m0")
        tracer.emit("write_issued", db="b", txn=2, machine="m0")
        assert len(tracer.events(kind="write_issued")) == 3
        assert len(tracer.events(db="a")) == 3
        assert len(tracer.events(txn=2)) == 1
        assert len(tracer.events(machine="m0")) == 3
        assert len(tracer.events(kind="write_issued", machine="m0")) == 2


class TestJsonlRoundTrip:
    def test_round_trip_preserves_events(self):
        tracer = Tracer(clock=lambda: 3.25)
        tracer.emit("trace_meta", write_policy="conservative")
        tracer.emit("write_issued", db="kv", txn=4, machine="m2",
                    bytes=128)
        tracer.emit("committed", db="kv", txn=4)
        buffer = io.StringIO()
        count = tracer.dump_jsonl(buffer)
        assert count == 3

        events, dropped = load_jsonl(io.StringIO(buffer.getvalue()))
        assert dropped == 0
        assert [e.kind for e in events] == \
            ["trace_meta", "write_issued", "committed"]
        restored = events[1]
        assert restored.db == "kv" and restored.txn == 4
        assert restored.machine == "m2"
        assert restored.extra == {"bytes": 128}
        assert restored.t == 3.25

    def test_header_carries_dropped_count(self):
        tracer = Tracer(capacity=2)
        for i in range(5):
            tracer.emit("txn_begin", txn=i)
        buffer = io.StringIO()
        tracer.dump_jsonl(buffer)
        header = json.loads(buffer.getvalue().splitlines()[0])
        assert header == {"kind": "trace_dump", "events": 2,
                          "capacity": 2, "dropped": 3}
        _, dropped = load_jsonl(io.StringIO(buffer.getvalue()))
        assert dropped == 3

    def test_load_sorts_by_time_then_seq(self):
        lines = [
            json.dumps({"seq": 2, "t": 1.0, "kind": "b"}),
            json.dumps({"seq": 1, "t": 1.0, "kind": "a"}),
            json.dumps({"seq": 0, "t": 2.0, "kind": "c"}),
        ]
        events, _ = load_jsonl(lines)
        assert [e.kind for e in events] == ["a", "b", "c"]

    def test_event_dict_round_trip(self):
        event = TraceEvent(seq=7, t=0.5, kind="prepare", db="d", txn=3,
                           machine="m0", extra={"note": "x"})
        assert TraceEvent.from_dict(event.to_dict()) == event
        sparse = TraceEvent(seq=1, t=0.0, kind="takeover")
        record = sparse.to_dict()
        assert set(record) == {"seq", "t", "kind"}
        assert TraceEvent.from_dict(record) == sparse

    def test_an_event_is_slots_only(self):
        # 65,536 ring slots: no per-instance __dict__ (DESIGN §4q).
        event = Tracer().emit("prepare", db="d", txn=3, note="x")
        assert not hasattr(event, "__dict__")
        assert event.extra == {"note": "x"}
        with pytest.raises(AttributeError):
            event.span = 1
