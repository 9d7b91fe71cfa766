"""Tests for trace recording, persistence, merging and replay."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.packets.base import Medium
from repro.net.packets.icmp import IcmpMessage, IcmpType
from repro.net.packets.ip import IpPacket
from repro.net.packets.wifi import WifiFrame
from repro.sim.capture import Capture
from repro.trace.record import TraceRecord
from repro.trace.replay import TraceReplayer
from repro.trace.trace import Trace
from repro.util.ids import NodeId


def capture_at(timestamp: float, seq: int = 0) -> Capture:
    return Capture(
        packet=WifiFrame(
            src=NodeId("a"), dst=NodeId("b"),
            payload=IpPacket(
                src_ip="10.23.0.1", dst_ip="10.23.0.2",
                payload=IcmpMessage(icmp_type=IcmpType.ECHO_REPLY, sequence=seq),
            ),
        ),
        timestamp=timestamp,
        medium=Medium.WIFI,
        rssi=-50.0 - seq,
        observer=NodeId("kalis-1"),
    )


class TestTraceRecord:
    def test_roundtrip_benign(self):
        record = TraceRecord(capture=capture_at(1.5))
        assert TraceRecord.from_dict(record.to_dict()) == record

    def test_roundtrip_with_ground_truth(self):
        record = TraceRecord(
            capture=capture_at(2.0),
            attack="icmp_flood",
            attacker=NodeId("evil"),
            instance=3,
        )
        restored = TraceRecord.from_dict(record.to_dict())
        assert restored == record
        assert restored.is_attack

    def test_shifted(self):
        record = TraceRecord(capture=capture_at(2.0), attack="x")
        shifted = record.shifted(3.0)
        assert shifted.timestamp == 5.0
        assert shifted.attack == "x"
        assert shifted.capture.packet == record.capture.packet


class TestTrace:
    def test_records_kept_in_time_order(self):
        trace = Trace([TraceRecord(capture_at(3.0)), TraceRecord(capture_at(1.0))])
        assert [r.timestamp for r in trace] == [1.0, 3.0]

    def test_out_of_order_append_resorts(self):
        trace = Trace()
        trace.append(TraceRecord(capture_at(5.0)))
        trace.append(TraceRecord(capture_at(2.0)))
        assert [r.timestamp for r in trace] == [2.0, 5.0]

    def test_equal_timestamps_keep_input_order(self):
        """Construction and an out-of-order append sort stably."""
        records = [TraceRecord(capture_at(t, seq)) for seq, t in
                   enumerate([2.0, 1.0, 2.0, 1.0, 2.0])]
        trace = Trace(records)
        assert [r.capture.packet.payload.payload.sequence for r in trace] == [1, 3, 0, 2, 4]
        trace.append(TraceRecord(capture_at(1.0, seq=5)))
        assert [r.capture.packet.payload.payload.sequence for r in trace] == [1, 3, 5, 0, 2, 4]

    def test_duration(self):
        trace = Trace([TraceRecord(capture_at(1.0)), TraceRecord(capture_at(4.5))])
        assert trace.duration == 3.5
        assert Trace().duration == 0.0

    def test_between(self):
        trace = Trace([TraceRecord(capture_at(float(i))) for i in range(10)])
        window = trace.between(2.0, 5.0)
        assert [r.timestamp for r in window] == [2.0, 3.0, 4.0]

    def test_attack_filters_and_instances(self):
        trace = Trace(
            [
                TraceRecord(capture_at(1.0)),
                TraceRecord(capture_at(2.0), attack="smurf", instance=0),
                TraceRecord(capture_at(3.0), attack="smurf", instance=1),
            ]
        )
        assert len(trace.attack_records()) == 2
        assert len(trace.benign_records()) == 1
        assert trace.attack_instances() == {("smurf", 0), ("smurf", 1)}

    def test_merged_with_interleaves(self):
        first = Trace([TraceRecord(capture_at(1.0)), TraceRecord(capture_at(3.0))])
        second = Trace([TraceRecord(capture_at(2.0))])
        merged = first.merged_with(second)
        assert [r.timestamp for r in merged] == [1.0, 2.0, 3.0]

    def test_shifted_trace(self):
        trace = Trace([TraceRecord(capture_at(1.0))])
        assert trace.shifted(10.0)[0].timestamp == 11.0

    def test_captures_strips_ground_truth(self):
        trace = Trace([TraceRecord(capture_at(1.0), attack="x")])
        captures = trace.captures()
        assert len(captures) == 1
        assert not hasattr(captures[0], "attack")


class TestPersistence:
    def test_jsonl_roundtrip(self, tmp_path):
        trace = Trace([TraceRecord(capture_at(float(i), seq=i)) for i in range(5)])
        path = tmp_path / "t.jsonl"
        trace.save(path)
        assert Trace.load(path).captures() == trace.captures()

    def test_gzip_roundtrip(self, tmp_path):
        trace = Trace([TraceRecord(capture_at(float(i), seq=i)) for i in range(5)])
        path = tmp_path / "t.jsonl.gz"
        trace.save(path)
        assert Trace.load(path).captures() == trace.captures()
        assert path.read_bytes()[:2] == b"\x1f\x8b"  # actually gzipped

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"not": "a record"}\n')
        with pytest.raises(ValueError, match="bad.jsonl:1"):
            Trace.load(path)

    @pytest.mark.parametrize(
        "kind",
        ["unknown-field", "missing-required-field", "non-object-line", "wrongly-typed-value"],
    )
    def test_malformed_record_reports_location(self, tmp_path, kind):
        data = TraceRecord(capture_at(2.0)).to_dict()
        ip_layer = data["packet"]["payload"]
        if kind == "unknown-field":
            ip_layer["bogus"] = 1
        elif kind == "missing-required-field":
            del ip_layer["src_ip"]
        elif kind == "non-object-line":
            data = [1, 2]
        else:
            ip_layer["ttl"] = "64"
        path = tmp_path / "bad.jsonl"
        Trace([TraceRecord(capture_at(1.0))]).save(path)
        with path.open("a") as handle:
            handle.write(json.dumps(data) + "\n")
        with pytest.raises(ValueError, match=r"bad\.jsonl:2: malformed trace record"):
            Trace.load(path)

    def test_load_shares_one_node_id_per_string(self, tmp_path):
        record = TraceRecord(capture_at(1.0), attack="x", attacker=NodeId("a"))
        path = tmp_path / "t.jsonl"
        Trace([record, TraceRecord(capture_at(2.0))]).save(path)
        first, second = Trace.load(path)
        assert first == record
        assert first.attacker is first.capture.packet.src is second.capture.packet.src
        assert first.capture.observer is second.capture.observer

    def test_blank_lines_skipped(self, tmp_path):
        trace = Trace([TraceRecord(capture_at(1.0))])
        path = tmp_path / "t.jsonl"
        trace.save(path)
        path.write_text(path.read_text() + "\n\n")
        assert len(Trace.load(path)) == 1


class TestReplay:
    def test_batch_replay_preserves_order(self):
        trace = Trace([TraceRecord(capture_at(float(i))) for i in range(5)])
        seen = []
        count = TraceReplayer(trace).replay_batch(seen.append)
        assert count == 5
        assert [c.timestamp for c in seen] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_simulated_replay_respects_timestamps(self):
        from repro.sim.engine import Simulator

        trace = Trace([TraceRecord(capture_at(2.0)), TraceRecord(capture_at(4.0))])
        sim = Simulator()
        arrivals = []
        replayer = TraceReplayer(trace)
        replayer.replay_on(sim, lambda c: arrivals.append(sim.clock.now))
        sim.run_until(10.0)
        assert arrivals == [0.0, 2.0]  # offset aligns first capture to now

    def test_empty_trace_replay(self):
        from repro.sim.engine import Simulator

        assert TraceReplayer(Trace()).replay_on(Simulator(), lambda c: None) == 0


@settings(max_examples=30)
@given(st.lists(st.floats(0.0, 1000.0, allow_nan=False), max_size=20))
def test_trace_always_sorted_property(timestamps):
    trace = Trace()
    for timestamp in timestamps:
        trace.append(TraceRecord(capture_at(timestamp)))
    ordered = [r.timestamp for r in trace]
    assert ordered == sorted(ordered)
    assert len(trace) == len(timestamps)
