"""The telemetry session: one object the whole stack reports into.

A :class:`TelemetrySession` bundles a
:class:`~repro.telemetry.registry.MetricsRegistry`, an optional
:class:`~repro.telemetry.collector.TraceCollector` and an optional
:class:`~repro.telemetry.profiler.EngineProfiler`, filled on two paths:

* **counts, once per run** — nothing is counted per event.  When a run
  ends the drivers call :meth:`end_run`, which folds counters the
  simulator keeps anyway: ``service_events_total`` from
  ``service_trace``, ``commands_issued_total`` from each channel's
  per-type command counter, ``faults_injected_total`` /
  ``recoveries_total`` from the fault injector and
  ``monitor_violations_total`` from the online monitor.
* **timeline hooks, only with a collector** — ``on_service``,
  ``on_command``, ``on_fault`` and ``on_violation`` record timeline
  events and nothing else; a registry-only session arms none of them,
  so its run takes the bare code path.

:meth:`attach` delegates to the controller's ``attach_telemetry`` so
composites (:class:`~repro.sim.multichannel.MultiChannelFsController`)
fan out to their sub-controllers and register their local-to-global
domain renumbering (:meth:`register_domain_map`): metric labels and
trace tracks always carry *global* domain ids.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .collector import TraceCollector
from .compat import harvest_events, harvest_run
from .profiler import EngineProfiler
from .registry import MetricsRegistry

#: Service-trace kind codes -> human-readable event names.
KIND_NAMES: Dict[str, str] = {
    "R": "demand-read",
    "W": "demand-write",
    "P": "prefetch",
    "D": "dummy",
    "-": "bubble",
    "F": "fault",
    "p": "power-down",
}


class TelemetrySession:
    """Registry + collector + profiler behind the simulator's hooks.

    Parameters
    ----------
    registry:
        Metrics registry to populate (fresh one when omitted).
    collector:
        Optional cycle-accurate trace collector; ``None`` keeps the
        session metrics-only (no per-event hook is armed).
    profile:
        Arm an :class:`EngineProfiler`; the fast driver reports stride
        sizes and wall time into it when present.
    tracer:
        Optional :class:`~repro.telemetry.spans.SpanTracer`; the engines
        record run/phase/epoch spans into it when present (same single
        ``is None`` guard as every other surface).
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        collector: Optional[TraceCollector] = None,
        profile: bool = False,
        tracer=None,
    ) -> None:
        self.registry = registry if registry is not None else (
            MetricsRegistry()
        )
        self.collector = collector
        self.profiler = EngineProfiler() if profile else None
        self.tracer = tracer
        #: id(controller) -> {local domain: global domain} for
        #: composite controllers whose sub-controllers renumber domains.
        self._domain_maps: Dict[int, Dict[int, int]] = {}
        #: id(controller) -> per local domain (global id, track name).
        self._domain_tracks: Dict[int, List[Tuple[int, str]]] = {}
        #: (channel, rank, bank) -> (process, thread) track names.
        self._bank_tracks: Dict[Tuple[int, int, int], Tuple[str, str]] = {}
        #: Global domain -> pending demand at its last service event.
        self._last_depth: Dict[int, int] = {}

    # -- wiring ---------------------------------------------------------

    def attach(self, controller) -> None:
        """Attach to a controller (and its injector/monitor/subs); only
        a session with a collector arms the timeline hooks."""
        # Track names are cached by id(controller), and a finished
        # run's controller id may be reused by the next one.
        self._domain_tracks.clear()
        controller.attach_telemetry(self)

    def register_domain_map(
        self, controller, mapping: Dict[int, int]
    ) -> None:
        """Record a sub-controller's local -> global domain renumbering."""
        self._domain_maps[id(controller)] = dict(mapping)

    def _tracks_of(self, controller) -> List[Tuple[int, str]]:
        """(global id, track name) per local domain, built once."""
        tracks = self._domain_tracks.get(id(controller))
        if tracks is None:
            mapping = self._domain_maps.get(id(controller), {})
            shown = [mapping.get(d, d) for d in range(controller.num_domains)]
            tracks = [(g, f"domain {g}") for g in shown]
            self._domain_tracks[id(controller)] = tracks
        return tracks

    # -- timeline hooks (armed only with a collector) -------------------

    def on_service(
        self, controller, domain: int, cycle: int, kind: str
    ) -> None:
        """One slot grant, live from the controller's ``_trace``."""
        shown, track = self._tracks_of(controller)[domain]
        depth = controller.pending(domain)
        self._last_depth[shown] = depth
        record = self.collector.record
        record(cycle, "slots", track, KIND_NAMES.get(kind, kind), "i")
        # The "queues" track carries the queue_depth caveat (see
        # end_run): equivalence suites compare every other track.
        record(cycle, "queues", track, "queue_depth", "C", 0,
               {"pending": depth})

    def on_command(self, controller, command) -> None:
        """One DRAM command, live from the issue path."""
        key = (command.channel, command.rank, command.bank)
        names = self._bank_tracks.get(key)
        if names is None:
            names = self._bank_tracks[key] = (
                f"channel {command.channel}",
                f"rank {command.rank} bank {command.bank}"
                if command.bank >= 0 else f"rank {command.rank}",
            )
        args = None
        if command.domain >= 0:
            args = {"domain": self._tracks_of(controller)[command.domain][0]}
        self.collector.record(
            command.cycle, names[0], names[1], command.type.value, "i",
            0, args,
        )

    def on_fault(
        self, kind, domain: int, cycle: int, detail: str = ""
    ) -> None:
        """One struck fault, live from :meth:`FaultInjector.record`."""
        name = kind.value if hasattr(kind, "value") else str(kind)
        self.collector.record(
            cycle, "faults", f"domain {domain}", name, ph="i",
            args={"detail": detail} if detail else None,
        )

    def on_violation(
        self, domain: Optional[int], cycle: int, reason: str
    ) -> None:
        """One invariant violation, live from the online monitor."""
        track = (
            f"domain {domain}"
            if domain is not None and domain >= 0 else "channel"
        )
        self.collector.record(
            cycle, "monitor", track, "violation", ph="i",
            args={"reason": reason},
        )

    # -- post-run -------------------------------------------------------

    def end_run(self, controller) -> None:
        """Fold a finished run's event counts into the registry.

        Called once per run by the drivers, after ``finalize``; reads
        only counters the simulator keeps whether or not a session is
        attached (:func:`~repro.telemetry.compat.harvest_events`).  The
        volatile ``queue_depth`` gauge is the timeline's last queue
        sample per domain: whether a request arriving on the service
        cycle itself is already enqueued depends on the engine's
        core/controller interleaving, so it is excluded from the
        cross-engine determinism contract.
        """
        harvest_events(self.registry, controller)
        depth = self.registry.gauge(
            "queue_depth",
            "pending demand per domain at its last service event",
            ("domain",), volatile=True,
        )
        for domain, pending in self._last_depth.items():
            depth.set(pending, domain=domain)

    def harvest(self, result, controller=None) -> None:
        """Fold a finished run's legacy stat structs into the registry
        (its event counts were folded by :meth:`end_run`)."""
        harvest_run(self.registry, result, controller)
        if self.profiler is not None:
            self.profiler.to_registry(self.registry)

    def close(self) -> None:
        """Flush and close the collector's sink, if any (idempotent)."""
        if self.collector is not None:
            self.collector.close()

    def __enter__(self) -> "TelemetrySession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


__all__ = ["KIND_NAMES", "TelemetrySession"]
