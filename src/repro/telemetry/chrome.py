"""Chrome trace-event export: load a simulated run in Perfetto.

Converts the :class:`~repro.telemetry.collector.TraceCollector` timeline
into the Chrome trace-event JSON format (the ``chrome://tracing`` /
`Perfetto <https://ui.perfetto.dev>`_ "JSON array with metadata" flavor):

* one **process** per track group — the per-security-domain slot
  timeline, and one per DRAM channel for the command stream;
* one **thread** per security domain (slot grants: demand reads/writes,
  dummies, prefetches, bubbles, faults) or per rank/bank (ACT / column /
  PRE / REF commands);
* counter tracks for per-domain queue depths.

Within every (pid, tid) track the exported ``ts`` values are
monotonically non-decreasing (events are sorted before id assignment),
which is what trace viewers require and what
``tests/test_telemetry.py`` asserts.

Timestamps are memory-controller cycles exported 1:1 as microseconds —
trace viewers have no "cycles" unit, and a 1 cycle = 1 us mapping keeps
the numbers readable and exact (no float scaling).

Writers stream the canonical serialization (compact, sorted keys,
trailing newline) of :func:`chrome_trace_dict`: each event is encoded on
its own by the C JSON encoder, with no per-event dict or whole-document
string.
"""

from __future__ import annotations

import json
from itertools import chain, islice
from operator import itemgetter
from typing import Dict, IO, Iterable, Iterator, List, Union

from .collector import TraceCollector, TraceEvent, open_sink

_ENCODE = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode
_STRING = json.encoder.encode_basestring_ascii
#: Canonical event order: (ts, pid, tid, name), the TraceEvent prefix.
_ORDER = itemgetter(0, 1, 2, 3)
#: Encoded events per write.
_BATCH = 4096


def _layout(events: Iterable[TraceEvent]):
    """Sorted events, the deterministic pid/tid maps (track names in
    sorted order, numbered from 1), and the ``process_name`` /
    ``thread_name`` metadata events that name the tracks."""
    ordered = sorted(events, key=_ORDER)
    pids = {n: i for i, n in enumerate(sorted({e.pid for e in ordered}), 1)}
    tids = {
        k: i for i, k in
        enumerate(sorted({(e.pid, e.tid) for e in ordered}), 1)
    }
    names: List[Dict[str, object]] = [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
         "args": {"name": name}} for name, pid in pids.items()
    ]
    names += [
        {"name": "thread_name", "ph": "M", "pid": pids[pname],
         "tid": tid, "args": {"name": tname}}
        for (pname, tname), tid in tids.items()
    ]
    return ordered, pids, tids, names


def _document(metadata) -> Dict[str, object]:
    """Every top-level field except ``traceEvents``."""
    other = {"clock": "memory-controller cycles (1 cycle = 1us)"}
    other.update(metadata or {})
    return {"displayTimeUnit": "ms", "otherData": other}


def chrome_trace_dict(
    events: Iterable[TraceEvent],
    metadata: Union[Dict[str, object], None] = None,
) -> Dict[str, object]:
    """Build the Chrome trace-event JSON object.

    Track-name pids/tids are mapped to deterministic small integers
    (sorted by name), and ``process_name`` / ``thread_name`` metadata
    events are emitted so viewers show the human-readable names.
    """
    ordered, pids, tids, trace_events = _layout(events)
    for event in ordered:
        entry: Dict[str, object] = {
            "name": event.name,
            "ph": event.ph,
            "ts": event.ts,
            "pid": pids[event.pid],
            "tid": tids[(event.pid, event.tid)],
        }
        if event.ph == "X":
            entry["dur"] = event.dur
        if event.args:
            entry["args"] = event.args
        trace_events.append(entry)
    return dict(_document(metadata), traceEvents=trace_events)


def _encoded_events(ordered, pids, tids) -> Iterator[str]:
    """Each event's canonical JSON (keys in sorted order), built
    without a dict."""
    for ts, pid, tid, name, ph, dur, args in ordered:
        head = '{"args":' + _ENCODE(args) + "," if args else "{"
        if ph == "X":
            head += f'"dur":{dur if type(dur) is int else _ENCODE(dur)},'
        yield (
            f'{head}"name":{_STRING(name)},"ph":{_STRING(ph)},'
            f'"pid":{pids[pid]},"tid":{tids[pid, tid]},'
            f'"ts":{ts if type(ts) is int else _ENCODE(ts)}}}'
        )


def _write(path_or_file, document, members: Iterator[str]) -> None:
    """Stream ``document`` plus a ``traceEvents`` array of already
    encoded ``members`` as canonical JSON."""
    handle = (
        open_sink(path_or_file) if isinstance(path_or_file, str)
        else path_or_file
    )
    try:
        for i, key in enumerate(sorted([*document, "traceEvents"])):
            handle.write(("," if i else "{") + _STRING(key) + ":")
            if key != "traceEvents":
                handle.write(_ENCODE(document[key]))
                continue
            handle.write("[")
            batches = iter(lambda: list(islice(members, _BATCH)), [])
            for j, batch in enumerate(batches):
                handle.write(("," if j else "") + ",".join(batch))
            handle.write("]")
        handle.write("}\n")
    finally:
        if isinstance(path_or_file, str):
            handle.close()


def write_trace_dict(
    payload: Dict[str, object],
    path_or_file: Union[str, IO[str]],
) -> None:
    """Write a built trace dict as canonical (compact, sorted) JSON.

    One serialization for every producer — collector exports, merged
    span traces — so byte-identity contracts compare a single format.
    """
    document = {k: v for k, v in payload.items() if k != "traceEvents"}
    members = map(_ENCODE, payload.get("traceEvents", []))
    _write(path_or_file, document, members)


def _export(events, path_or_file, metadata) -> None:
    ordered, pids, tids, names = _layout(events)
    members = chain(map(_ENCODE, names), _encoded_events(ordered, pids, tids))
    _write(path_or_file, _document(metadata), members)


def export_chrome_trace(
    collector: TraceCollector,
    path_or_file: Union[str, IO[str]],
    metadata: Union[Dict[str, object], None] = None,
) -> int:
    """Write the collector's retained events as Chrome trace JSON.

    ``otherData`` also carries the collector's ``total_events`` and
    ``dropped_events``, so a trace cut by the ring says so.  Returns
    the number of exported (non-metadata) events.  Path errors surface
    as :class:`~repro.errors.TelemetryError`.
    """
    events = collector.events()
    _export(events, path_or_file, dict(
        metadata or {},
        total_events=collector.total_events,
        dropped_events=collector.dropped_events,
    ))
    return len(events)


def export_span_trace(
    tracer,
    path_or_file: Union[str, IO[str]],
    metadata: Union[Dict[str, object], None] = None,
) -> int:
    """Write a :class:`~repro.telemetry.spans.SpanTracer`'s merged span
    tree as Chrome trace JSON; returns the span count."""
    events = tracer.to_events()
    _export(events, path_or_file, metadata)
    return len(events)


__all__ = [
    "chrome_trace_dict",
    "export_chrome_trace",
    "export_span_trace",
    "write_trace_dict",
]
