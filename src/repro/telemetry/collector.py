"""Cycle-accurate trace collection: bounded ring buffer + JSONL sink.

:class:`TraceCollector` records the simulator's observable timeline —
slot grants (demand / dummy / prefetch / bubble), DRAM commands, queue
depths, fault strikes, and monitor verdicts — as a stream of
:class:`TraceEvent` records.  Two retention policies compose:

* an in-memory **ring buffer** bounded at ``capacity`` events (the
  total event count stays exact past the cap), which feeds the Chrome
  trace exporter and the in-process analyses; and
* an optional **streaming JSONL sink**: every event is serialized to one
  JSON line the moment it is recorded, so a multi-million-cycle run can
  be traced without holding the timeline in memory.  The sink is plain
  ``{"ts": ..., "pid": ..., "tid": ..., "name": ..., "ph": ...,
  "dur": ..., "args": {...}}`` objects — trivially re-loadable and
  convertible.

Timestamps are **memory-controller cycles** (the simulator's native
clock), recorded exactly as the controllers observe them; collection is
strictly passive, so enabling it cannot perturb any simulated
observable (``tests/test_telemetry.py`` pins this).
"""

from __future__ import annotations

import json
from collections import deque
from typing import Deque, Dict, IO, List, NamedTuple, Optional, Union

from ..errors import TelemetryError


class TraceEvent(NamedTuple):
    """One timeline record.

    ``pid``/``tid`` are *track names* (strings), resolved to integer ids
    only at Chrome-trace export time; ``ph`` follows the trace-event
    phase vocabulary (``X`` complete, ``i`` instant, ``C`` counter).
    """

    ts: int
    pid: str
    tid: str
    name: str
    ph: str = "X"
    dur: int = 0
    args: Optional[Dict[str, object]] = None

    def to_json_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "ts": self.ts, "pid": self.pid, "tid": self.tid,
            "name": self.name, "ph": self.ph,
        }
        if self.ph == "X":
            out["dur"] = self.dur
        if self.args:
            out["args"] = self.args
        return out


_new_tuple = tuple.__new__


def open_sink(path: str) -> IO[str]:
    """Open a writable telemetry sink with a friendly failure mode."""
    try:
        return open(path, "w")
    except OSError as exc:
        raise TelemetryError(
            f"cannot write telemetry output {path!r}: {exc}"
        ) from None


class TraceCollector:
    """Bounded, optionally-streaming event collector.

    Parameters
    ----------
    capacity:
        Ring-buffer bound on retained events.  ``total_events`` keeps
        counting past it; the ring holds the **most recent** events.
    sink:
        ``None`` (ring only), a path string (opened eagerly, errors
        surfaced as :class:`~repro.errors.TelemetryError`), or any
        object with a ``write(str)`` method.
    """

    def __init__(
        self,
        capacity: int = 65536,
        sink: Union[None, str, IO[str]] = None,
    ) -> None:
        if capacity < 1:
            raise TelemetryError("trace capacity must be >= 1")
        self.capacity = capacity
        self._ring: Deque[TraceEvent] = deque(maxlen=capacity)
        self.total_events = 0
        self._owns_sink = isinstance(sink, str)
        self._sink: Optional[IO[str]] = (
            open_sink(sink) if isinstance(sink, str) else sink
        )

    # ------------------------------------------------------------------

    def record(
        self,
        ts: int,
        pid: str,
        tid: str,
        name: str,
        ph: str = "X",
        dur: int = 0,
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        """Append one event (ring + sink)."""
        # tuple.__new__ skips the NamedTuple's Python-level __new__.
        event = _new_tuple(TraceEvent, (ts, pid, tid, name, ph, dur, args))
        self.total_events += 1
        self._ring.append(event)
        sink = self._sink
        if sink is not None:
            try:
                sink.write(json.dumps(event.to_json_dict(),
                                      sort_keys=True))
                sink.write("\n")
            except OSError as exc:
                raise TelemetryError(
                    f"telemetry sink write failed: {exc}"
                ) from None

    @property
    def dropped_events(self) -> int:
        """Events the ring has evicted (the oldest first)."""
        return max(0, self.total_events - self.capacity)

    def events(self) -> List[TraceEvent]:
        """Retained events, oldest first."""
        return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def close(self) -> None:
        """Flush and close an owned path sink (idempotent)."""
        if self._sink is not None:
            try:
                self._sink.flush()
                if self._owns_sink:
                    self._sink.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
            if self._owns_sink:
                self._sink = None

    def __enter__(self) -> "TraceCollector":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


__all__ = ["TraceCollector", "TraceEvent", "open_sink"]
