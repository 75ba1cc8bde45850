"""The streaming Chrome trace writers emit the canonical bytes.

Every writer must equal ``json.dumps(chrome_trace_dict(events,
metadata), separators=(",", ":"), sort_keys=True) + "\\n"`` byte for
byte, although none of them builds that document (or a dict per event).
"""

import io
import json

import pytest

from repro.telemetry import (
    SpanTracer,
    TraceCollector,
    chrome_trace_dict,
    export_chrome_trace,
    export_span_trace,
    write_trace_dict,
)


def _canonical(events, metadata=None):
    return json.dumps(
        chrome_trace_dict(events, metadata),
        separators=(",", ":"), sort_keys=True,
    ) + "\n"


def _collector_bytes(collector, metadata=None):
    merged = dict(
        metadata or {},
        total_events=collector.total_events,
        dropped_events=collector.dropped_events,
    )
    return _canonical(collector.events(), merged)


def _export(collector, metadata=None):
    buf = io.StringIO()
    n = export_chrome_trace(collector, buf, metadata=metadata)
    assert n == len(collector.events())
    return buf.getvalue()


def _fill(collector, count):
    for i in range(count):
        collector.record(
            count - i, f"channel {i % 3}", f"rank {i % 5}",
            ("ACT", "RD", "PRE")[i % 3], ph="i",
            args={"domain": i % 4} if i % 2 else None,
        )


def test_empty_collector():
    collector = TraceCollector()
    text = _export(collector)
    assert text == _collector_bytes(collector)
    assert json.loads(text)["traceEvents"] == []


def test_quotes_and_non_ascii_args():
    collector = TraceCollector()
    collector.record(5, "faults", "domain 0", 'drop "quoted"', ph="i",
                     args={"detail": 'slot "7" \\ naïve → ✓', "n": 1.5})
    collector.record(5, "päd", "tïd\n", "x", ph="X", dur=3,
                     args={"z": [1, None, True], "a": {"b": "é"}})
    collector.record(2, "monitor", "channel", "violation", ph="i",
                     args={"reason": "\u2028 line sep"})
    collector.record(9, "queues", "domain 1", "queue_depth", ph="C",
                     args={})
    assert _export(collector) == _collector_bytes(collector)


def test_overflowed_ring():
    collector = TraceCollector(capacity=50)
    _fill(collector, 333)
    assert collector.dropped_events == 283
    text = _export(collector)
    assert text == _collector_bytes(collector)
    other = json.loads(text)["otherData"]
    assert other["total_events"] == 333
    assert other["dropped_events"] == 283


def test_metadata_and_batches():
    collector = TraceCollector()
    _fill(collector, 9000)  # spans more than one write batch
    metadata = {"scheme": "fs_rp", "cores": 8, "ratio": 0.25,
                "note": "ünïcode", "nested": {"b": 2, "a": [3, 1]}}
    assert _export(collector, metadata) == _collector_bytes(
        collector, metadata
    )


def test_collector_counts_override_metadata():
    collector = TraceCollector(capacity=2)
    _fill(collector, 5)
    other = json.loads(_export(collector, {"dropped_events": 0}))[
        "otherData"
    ]
    assert other["dropped_events"] == 3


def test_merged_span_trace():
    parent = SpanTracer(track="grid")
    for cell in range(3):
        child = SpanTracer()
        with child.span(f"cell {cell}", "cell", args={"wall_s": 0.5}):
            with child.span("phase", "engine", args={"k": "ü"}):
                pass
        parent.adopt(child.records, f"fs_rp x mix{cell} x 8")
    with parent.span("sweep", "grid"):
        pass
    buf = io.StringIO()
    n = export_span_trace(parent, buf, metadata={"workers": 2})
    events = parent.to_events()
    assert n == len(events)
    assert buf.getvalue() == _canonical(events, {"workers": 2})
    assert export_span_trace(parent, io.StringIO()) == n


@pytest.mark.parametrize("metadata", [None, {"a": 1}])
def test_write_trace_dict_streams_canonical_bytes(metadata):
    collector = TraceCollector()
    _fill(collector, 100)
    payload = chrome_trace_dict(collector.events(), metadata)
    payload["extra"] = {"z": "é", "a": 1}
    buf = io.StringIO()
    write_trace_dict(payload, buf)
    assert buf.getvalue() == json.dumps(
        payload, separators=(",", ":"), sort_keys=True
    ) + "\n"


def test_export_to_path(tmp_path):
    collector = TraceCollector()
    _fill(collector, 10)
    path = tmp_path / "trace.json"
    export_chrome_trace(collector, str(path))
    assert path.read_text() == _collector_bytes(collector)
