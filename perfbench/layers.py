"""Per-layer attribution for the benchmark: spans recorded from outside.

The simulator is not instrumented.  Instead, for a traced pass, the
benchmark replaces each layer's public functions with wrappers that
record one span per call (layer, start, end, parent span, op id) into
flat in-memory arrays, and puts the originals back afterwards.  Where a
module imported a function by name, the name is replaced where the
caller looks it up (e.g. ``repro.sim.runner.generate_trace``).

A layer's self time is the duration of its spans minus the time covered
by their child spans.  Spans nest strictly (one thread, call/return
order), so the covered time of a span is the sum of its direct
children's durations.  A call that re-enters the layer already on top
of the span stack is folded into the open span, so recursion and
``super()`` chains count once.
"""

from __future__ import annotations

import functools
import time
from array import array
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: Layer name of the per-operation root spans the benchmark opens itself;
#: their self time is benchmark glue and is reported inside ``other``.
OP_LAYER = "op"


class SpanRecorder:
    """Flat, append-only span storage plus the wrapper factory."""

    def __init__(self) -> None:
        self.layers: List[str] = []
        self._layer_ids: Dict[str, int] = {}
        self.op_labels: List[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack: List[int] = [-1]
        self.current_op = -1
        #: Call counts of individual wrapped functions (``count_as``).
        self.counts: Dict[str, int] = {}

    def layer_id(self, layer: str) -> int:
        lid = self._layer_ids.get(layer)
        if lid is None:
            lid = self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return lid

    def _open(self, lid: int) -> int:
        index = len(self.name)
        self.name.append(lid)
        self.parent.append(self.stack[-1])
        self.op.append(self.current_op)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self.stack.pop()

    def begin_op(self, label: str) -> int:
        """Open the root span of one benchmark operation."""
        self.current_op = len(self.op_labels)
        self.op_labels.append(label)
        return self._open(self.layer_id(OP_LAYER))

    def end_op(self, index: int) -> None:
        self._close(index)
        self.current_op = -1

    def wrap(self, fn: Callable, layer: str,
             count_as: Optional[str] = None) -> Callable:
        """``fn`` recording one ``layer`` span per (non-reentrant) call."""
        lid = self.layer_id(layer)
        names = self.name
        stack = self.stack
        counts = self.counts
        opener = self._open
        closer = self._close
        if count_as is not None:
            counts.setdefault(count_as, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_as is not None:
                counts[count_as] += 1
            top = stack[-1]
            if top >= 0 and names[top] == lid:
                return fn(*args, **kwargs)
            index = opener(lid)
            try:
                return fn(*args, **kwargs)
            finally:
                closer(index)

        return traced

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
        }

    def save(self, path: str) -> None:
        """Write every span, the layer table and op labels (``.npz``)."""
        np.savez(
            path, layers=np.array(self.layers), ops=np.array(self.op_labels),
            **self.arrays(),
        )


def self_times(
    name: Sequence[int], start: Sequence[float], end: Sequence[float],
    parent: Sequence[int], num_layers: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-layer ``(self seconds, span count)`` from flat span arrays.

    ``parent[i]`` is the index of span ``i``'s enclosing span, or -1.
    """
    name = np.asarray(name, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    duration = np.asarray(end, dtype=np.float64) - np.asarray(
        start, dtype=np.float64
    )
    nested = parent >= 0
    covered = np.bincount(
        parent[nested], weights=duration[nested], minlength=len(duration)
    )
    own = duration - covered
    return (
        np.bincount(name, weights=own, minlength=num_layers),
        np.bincount(name, minlength=num_layers),
    )


def layer_totals(recorder: SpanRecorder) -> Dict[str, Tuple[float, int]]:
    """``{layer: (self seconds, calls)}`` over everything recorded."""
    spans = recorder.arrays()
    own, calls = self_times(
        spans["name"], spans["start"], spans["end"], spans["parent"],
        len(recorder.layers),
    )
    return {
        layer: (float(own[i]), int(calls[i]))
        for i, layer in enumerate(recorder.layers)
    }


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, bool, object]] = []

    def replace(self, owner, attr: str, make: Callable) -> None:
        """Set ``owner.attr = make(current)``; remembers how to undo."""
        own = attr in vars(owner)
        self._undo.append((owner, attr, own, vars(owner).get(attr)))
        setattr(owner, attr, make(getattr(owner, attr)))

    def restore(self) -> None:
        while self._undo:
            owner, attr, own, raw = self._undo.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def _controller_classes() -> Iterable[Tuple[type, bool]]:
    """Each fast-engine controller class, with its spec's FS claim."""
    from repro.schemes import REGISTRY

    seen = {}
    for scheme in REGISTRY.names():
        spec = REGISTRY.get(scheme)
        cls = spec.controller_class("fast")
        seen.setdefault(cls, spec.fixed_service)
    return seen.items()


def layer_targets() -> List[Tuple[object, str, str, Optional[str]]]:
    """``(owner, attribute, layer, count_as)`` for every wrapped call."""
    import repro.analysis.leakage as leakage
    import repro.certify.harness as harness
    import repro.sim.runner as runner
    import repro.telemetry.chrome as chrome
    from repro.cpu.core_model import Core
    from repro.dram.channel import Channel
    from repro.dram.power import PowerModel
    from repro.exec.checkpoint import CheckpointStore
    from repro.faults import FaultInjector
    from repro.mapping.partition import PartitionPolicy
    from repro.sim.fastpath import FastSystem
    from repro.sim.system import System
    from repro.telemetry.registry import MetricsRegistry
    from repro.telemetry.session import TelemetrySession

    targets = [
        (runner, "generate_trace", "workloads", None),
        (runner, "build_from_spec", "schemes", None),
        (runner, "build_partition", "schemes", None),
        (runner, "build_system", "sim.build", None),
        (leakage, "build_system", "sim.build", None),
        (System, "run", "sim.driver", None),
        (FastSystem, "run", "sim.driver", None),
        (Channel, "issue", "dram.issue", None),
        (Channel, "issue_trusted", "dram.issue", None),
        (PowerModel, "system_energy", "dram.power", None),
        (Core, "try_emit", "cpu", None),
        (Core, "on_complete", "cpu", None),
        (harness, "canonicalize_by_trial", "certify.estimators", None),
        (harness, "corrected_mi_bits", "certify.estimators", None),
        (harness, "bootstrap_upper_bound", "certify.estimators", None),
        (harness, "binary_channel_capacity", "certify.estimators", None),
        (harness.CertificationRun, "run", "certify.harness", None),
        (harness, "certify_strategy", "certify.harness", None),
        (harness, "run_jobs", "exec.runner", None),
        (CheckpointStore, "save", "exec.checkpoint",
         "exec.checkpoint.writes"),
        (CheckpointStore, "load", "exec.checkpoint", None),
        (TelemetrySession, "on_service", "telemetry.hooks", None),
        (TelemetrySession, "on_command", "telemetry.hooks", None),
        (TelemetrySession, "harvest", "telemetry.harvest", None),
        (MetricsRegistry, "to_prometheus", "telemetry.export", None),
        (MetricsRegistry, "to_json", "telemetry.export", None),
        (chrome, "export_chrome_trace", "telemetry.export", None),
    ]
    for cls in _partition_classes(PartitionPolicy):
        targets.append((cls, "decode", "mapping", None))
    for name in dir(FaultInjector):
        if not name.startswith("_") and callable(
            vars(FaultInjector).get(name)
        ):
            targets.append((FaultInjector, name, "faults", None))
    for cls, fixed_service in _controller_classes():
        prefix = "core" if fixed_service else "controllers"
        for attr, layer in (
            ("advance", "advance"), ("enqueue", "enqueue"),
            ("next_event", "next_event"),
            ("release_horizon", "next_event"),
        ):
            if hasattr(cls, attr):
                targets.append((cls, attr, f"{prefix}.{layer}", None))
    return targets


def _partition_classes(base: type) -> List[type]:
    out = []
    pending = [base]
    while pending:
        cls = pending.pop()
        if "decode" in vars(cls):
            out.append(cls)
        pending.extend(cls.__subclasses__())
    return out


def instrument(recorder: SpanRecorder, patches: Patches) -> None:
    """Wrap every layer target; ``patches.restore()`` undoes it."""
    for owner, attr, layer, count_as in layer_targets():
        patches.replace(
            owner, attr,
            lambda fn, layer=layer, count_as=count_as: recorder.wrap(
                fn, layer, count_as
            ),
        )


#: Every layer the traced pass attributes time to, in report order.
LAYERS: Tuple[str, ...] = (
    "workloads", "schemes", "sim.build", "sim.driver",
    "core.advance", "core.enqueue", "core.next_event",
    "controllers.advance", "controllers.enqueue", "controllers.next_event",
    "dram.issue", "dram.power", "cpu", "mapping", "faults",
    "certify.harness", "certify.estimators", "exec.runner",
    "exec.checkpoint", "telemetry.hooks", "telemetry.harvest",
    "telemetry.export",
)
