"""The benchmark's workloads, their output checks and their work counts.

Every workload drives the simulator only through public entry points
(``repro.sim.runner.run_scheme``, ``repro.certify.harness
.CertificationRun`` and ``repro.telemetry`` sessions/exports), in this
process, with one worker.  A *pass* is one fixed set of operations; its
inputs are a pure function of the seed, so two passes with one seed do
identical simulated work.  Every simulated run is captured by a
:class:`ResultTap` and reduced to a :class:`CellRecord`: the digest of
its observables plus the counts the benchmark reports as ``work.*``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.certify.harness import (
    Certificate,
    CertificationRun,
    StrategyVerdict,
)
from repro.certify.strategies import generate_strategies
from repro.schemes import REGISTRY
from repro.sim import runner
from repro.sim.config import SystemConfig
from repro.sim.fastpath import FastSystem
from repro.sim.system import System
from repro.telemetry import (
    SpanTracer,
    TelemetrySession,
    TraceCollector,
    chrome,
    parse_prometheus_text,
)
from repro.workloads.spec import suite_specs

from layers import Patches

ENGINE = "fast"
MAX_CYCLES = 10_000_000

#: The figure grids: Figure 6's two mixes plus mcf (pointer chasing)
#: and libquantum (streaming).
GRID_MIXES = ("mix1", "mix2", "mcf", "libquantum")
GRID_CORES = 8
#: At 1000 accesses per core FS_RP sits at 0.73 of baseline over the
#: twelve-workload evaluation suite (paper: 0.74); at the figure
#: harness's default of 250 it is 0.68, not yet converged.
GRID_ACCESSES = 1000
FS_SCHEMES = ("fs_rp", "fs_bp", "fs_reordered_bp", "fs_np", "fs_np_ta")
NONSECURE_SCHEMES = ("baseline", "tp_bp", "tp_np", "channel_part")

CERT_SCHEMES = ("fs_rp", "baseline")
#: One strategy per registered attacker family (round-robin order).
CERT_STRATEGIES = 5
#: The strategy set is fixed, like the grids' mixes: strategies drawn
#: from different batch seeds differ several-fold in simulated work.
#: The workload seed draws every trial's traces instead.
CERT_BATCH_SEED = 0
CERT_CORES = 4
CERT_ACCESSES = 150

OBSERVED_SCHEMES = ("fs_rp", "baseline")
OBSERVED_MIX = "mix1"

#: Accesses per core of the reduced cell whose fast and reference
#: engine observables must agree when a seed has no pinned digests.
SPOT_ACCESSES = 150

#: Figure 6 of the paper: sum of weighted IPC over 8 cores / 8 (AM).
PAPER_FIG6 = {
    "fs_rp": 0.74, "fs_reordered_bp": 0.48, "tp_bp": 0.43,
    "fs_np_ta": 0.40, "tp_np": 0.20,
}

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "pins.json")


# ----------------------------------------------------------------------
# Observables of one simulated run.
# ----------------------------------------------------------------------

@dataclass
class CellRecord:
    """One finished simulation, reduced to what the benchmark checks."""

    scheme: str
    cycles: int
    requests: int
    dummies: int
    prefetches: int
    dram_commands: int
    ipcs: Tuple[float, ...]
    digest: str
    #: Output-check failures found without a reference (empty = none).
    problems: Tuple[str, ...]

    @property
    def fixed_service(self) -> bool:
        return REGISTRY.get(self.scheme).fixed_service


def digest_of(value) -> str:
    """Short SHA-256 of a JSON-able value (floats keep every digit)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def cell_record(system, result) -> CellRecord:
    """Observables of one run: cycles, per-core instructions/reads/done,
    every ``ControllerStats`` field, DRAM command counts and energy."""
    stats = dataclasses.asdict(result.stats)
    channels = system.controller.dram.channels
    commands = [ch.stat_commands for ch in channels]
    observables = {
        "cycles": result.cycles,
        "cores": [
            [c.instructions, c.reads_completed, c.done]
            for c in result.cores
        ],
        "stats": stats,
        "dram_commands": commands,
        "dram_data_cycles": [ch.stat_data_cycles for ch in channels],
        "energy": dataclasses.asdict(result.energy),
    }
    problems = []
    if not all(c.done for c in result.cores):
        problems.append(
            f"{result.scheme}: a core is not done at cycle {result.cycles}"
        )
    for core, outcome in zip(system.cores, result.cores):
        if outcome.done and outcome.reads_completed != core.trace.reads:
            problems.append(
                f"{result.scheme}: core {core.domain} completed "
                f"{outcome.reads_completed} of {core.trace.reads} reads"
            )
    return CellRecord(
        scheme=result.scheme,
        cycles=result.cycles,
        requests=stats["demand_reads"] + stats["demand_writes"],
        dummies=stats["dummies"],
        prefetches=stats["prefetches"],
        dram_commands=sum(commands),
        ipcs=tuple(c.ipc for c in result.cores),
        digest=digest_of(observables),
        problems=tuple(problems),
    )


class ResultTap:
    """Captures a :class:`CellRecord` of every ``System.run`` in scope.

    Used as a context manager; the engines' ``run`` methods are restored
    on exit.
    """

    def __init__(self) -> None:
        self.records: List[CellRecord] = []
        self._patches = Patches()
        self._depth = 0

    def take(self) -> List[CellRecord]:
        out, self.records = self.records, []
        return out

    def _wrap(self, fn: Callable) -> Callable:
        tap = self

        def run(system, *args, **kwargs):
            tap._depth += 1
            try:
                result = fn(system, *args, **kwargs)
            finally:
                tap._depth -= 1
            if tap._depth == 0:
                tap.records.append(cell_record(system, result))
            return result

        return run

    def __enter__(self) -> "ResultTap":
        for cls in (System, FastSystem):
            self._patches.replace(cls, "run", self._wrap)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()


# ----------------------------------------------------------------------
# Operations and passes.
# ----------------------------------------------------------------------

@dataclass
class OpOutcome:
    """One operation of a pass: its simulated runs and its return value."""

    label: str
    cells: List[CellRecord]
    value: object = None
    error: Optional[str] = None


def grid_config(seed: int, cores: int = GRID_CORES,
                accesses: int = GRID_ACCESSES) -> SystemConfig:
    config = SystemConfig(accesses_per_core=accesses, seed=seed)
    return config if cores == GRID_CORES else config.with_cores(cores)


def simulate(scheme: str, mix: str, config: SystemConfig,
             options=None, engine: str = ENGINE):
    return runner.run_scheme(
        scheme, config, suite_specs(mix, config.num_cores), options,
        max_cycles=MAX_CYCLES, engine=engine,
    )


@dataclass
class Workload:
    """A named set of operations plus its checks."""

    name: str
    #: (seed, scratch dir) -> [(op label, op callable)] for one pass.
    ops: Callable[[int, str], List[Tuple[str, Callable[[], object]]]]
    #: Host seconds one pass took on the reference machine; passes per
    #: run = seconds // this, at least one, so work per run is fixed.
    nominal_pass_s: float
    #: What ``ops_per_s`` counts, from one pass's outcomes.
    units: Callable[[List[OpOutcome]], int]
    #: Output checks: (seed, outcomes, prepared) -> (attempted,
    #: [(operation label, failure)]).
    check: Callable[[int, List[OpOutcome], object],
                    Tuple[int, List[Tuple[str, str]]]]
    #: Untimed work before the measured phase (warm-up, reference runs);
    #: its return value is handed to :attr:`check`.
    prepare: Callable[[int, str], object]
    #: Outcomes -> {operation label: digest compared with the pins}.
    digests: Callable[[List[OpOutcome]], Dict[str, str]]
    schemes: Tuple[str, ...]
    #: A figure grid: scheme x mix cells labelled ``scheme/mix``.
    grid: bool = False


def run_pass(workload: Workload, seed: int, workdir: str,
             recorder=None) -> Tuple[List[OpOutcome], float]:
    """Run one pass; returns its outcomes and host seconds."""
    outcomes: List[OpOutcome] = []
    ops = workload.ops(seed, workdir)
    with ResultTap() as tap:
        start = time.perf_counter()
        for label, op in ops:
            span = recorder.begin_op(label) if recorder is not None else None
            value, error = None, None
            try:
                value = op()
            except Exception as exc:  # an operation failure, counted
                error = f"{type(exc).__name__}: {exc}"
            finally:
                if span is not None:
                    recorder.end_op(span)
            outcomes.append(OpOutcome(label, tap.take(), value, error))
        wall = time.perf_counter() - start
    return outcomes, wall


# -- the figure grids ---------------------------------------------------

def _grid_ops(schemes: Sequence[str]):
    def ops(seed: int, workdir: str):
        config = grid_config(seed)
        return [
            (f"{scheme}/{mix}",
             lambda s=scheme, m=mix: simulate(s, m, config))
            for scheme in schemes for mix in GRID_MIXES
        ]
    return ops


def _cell_digests(outcomes: List[OpOutcome]) -> Dict[str, str]:
    return {
        o.label: digest_of([c.digest for c in o.cells]) for o in outcomes
    }


Failures = List[Tuple[str, str]]


def _generic_failures(outcomes: List[OpOutcome],
                      expected_cells: int) -> Failures:
    failures = []
    for o in outcomes:
        if o.error is not None:
            failures.append((o.label, f"raised {o.error}"))
        elif len(o.cells) != expected_cells:
            failures.append((
                o.label, f"{len(o.cells)} runs, expected {expected_cells}"
            ))
        else:
            failures.extend((o.label, p) for c in o.cells for p in c.problems)
    return failures


def _grid_check(seed: int, outcomes: List[OpOutcome], spot: Failures):
    """``spot`` is None for a pinned seed, else the spot check's result
    (one more operation)."""
    failures = _generic_failures(outcomes, 1)
    if spot is None:
        return len(outcomes), failures
    return len(outcomes) + 1, failures + spot


def spot_check(scheme: str, mix: str, seed: int) -> Failures:
    """Fast and reference engines on a reduced cell: equal observables."""
    config = grid_config(seed, accesses=SPOT_ACCESSES)
    digests = []
    for engine in ("fast", "reference"):
        with ResultTap() as tap:
            simulate(scheme, mix, config, engine=engine)
        (record,) = tap.take()
        digests.append(record.digest)
    if digests[0] != digests[1]:
        return [(f"spot/{scheme}/{mix}",
                 "fast and reference engines disagree")]
    return []


def _grid_prepare(name: str, schemes: Sequence[str]):
    def prepare(seed: int, workdir: str) -> Optional[Failures]:
        # Warm-up: every scheme once at a small scale (imports, schedule
        # templates, interpreter caches).
        warm = grid_config(seed, accesses=50)
        for scheme in schemes:
            simulate(scheme, GRID_MIXES[0], warm)
        if pinned(name, seed) is not None:
            return None
        cells = [(s, m) for s in schemes for m in GRID_MIXES]
        return spot_check(*cells[seed % len(cells)], seed)
    return prepare


# -- certification ------------------------------------------------------

def cert_config(seed: int, accesses: int = CERT_ACCESSES) -> SystemConfig:
    return SystemConfig(
        num_cores=CERT_CORES, accesses_per_core=accesses, seed=seed
    )


def _cert_ops(seed: int, workdir: str):
    strategies = generate_strategies(CERT_STRATEGIES, seed=CERT_BATCH_SEED)
    config = cert_config(seed)

    def certify(scheme: str):
        run = CertificationRun(
            config=config, engine=ENGINE, workers=1, fresh=True,
            checkpoint=os.path.join(workdir, f"certify-{scheme}.json"),
        )
        return run.run(scheme, strategies)

    return [(scheme, lambda s=scheme: certify(s)) for scheme in CERT_SCHEMES]


def _verdict_outcomes(outcomes: List[OpOutcome]) -> List[OpOutcome]:
    """Split each certification batch into one outcome per strategy."""
    out = []
    for o in outcomes:
        if not isinstance(o.value, Certificate):
            out.append(o)
            continue
        start = 0
        for verdict in o.value.verdicts:
            runs = 2 * verdict.trials  # two worlds per trial
            out.append(OpOutcome(
                f"{o.label}/{verdict.strategy}",
                o.cells[start:start + runs], verdict,
            ))
            start += runs
    return out


def _cert_digests(outcomes: List[OpOutcome]) -> Dict[str, str]:
    return {
        o.label: digest_of([
            o.value.to_json_dict() if o.value is not None else o.error,
            [c.digest for c in o.cells],
        ])
        for o in _verdict_outcomes(outcomes)
    }


def _cert_check(seed: int, outcomes: List[OpOutcome], prepared):
    strategies = [s.name for s in prepared]
    attempted = len(CERT_SCHEMES) * len(strategies)
    failures: Failures = []
    by_label = {o.label: o for o in _verdict_outcomes(outcomes)}
    for scheme in CERT_SCHEMES:
        for name in strategies:
            label = f"{scheme}/{name}"
            o = by_label.get(label) or by_label.get(scheme)
            if o is None:
                failures.append((label, "no verdict"))
                continue
            if o.error is not None:
                failures.append((label, f"raised {o.error}"))
                continue
            v = o.value
            failures.extend(_generic_failures([o], 2 * v.trials))
            if v.error_type is not None:
                failures.append((label, f"errored {v.error_type}: {v.error}"))
            elif scheme == "fs_rp" and not (
                v.passed and v.exact_match and v.mi_upper_bits == 0.0
            ):
                failures.append((
                    label, f"fs_rp must certify at exactly 0 bits "
                    f"(passed={v.passed}, exact={v.exact_match}, "
                    f"mi_upper={v.mi_upper_bits})"
                ))
    for o in outcomes:
        if o.label == "baseline" and o.value is not None and (
            o.value.certified
        ):
            failures.extend(
                (f"baseline/{name}", "baseline certified; it must be "
                 "flagged") for name in strategies
            )
    return attempted, failures


def _cert_prepare(seed: int, workdir: str):
    warm = CertificationRun(
        config=cert_config(seed, accesses=30), engine=ENGINE,
        bootstrap_resamples=10,
    )
    for scheme in CERT_SCHEMES:
        warm.run(scheme, generate_strategies(1, seed=CERT_BATCH_SEED))
    return generate_strategies(CERT_STRATEGIES, seed=CERT_BATCH_SEED)


# -- observed (telemetry armed) ----------------------------------------

def _observed_ops(seed: int, workdir: str):
    config = grid_config(seed)

    def observed(scheme: str):
        session = TelemetrySession(
            collector=TraceCollector(), profile=True, tracer=SpanTracer(),
        )
        options = runner.SchemeOptions(telemetry=session)
        simulate(scheme, OBSERVED_MIX, config, options)
        base = os.path.join(workdir, f"observed-{scheme}")
        registry = session.registry
        with open(base + ".prom", "w") as handle:
            handle.write(registry.to_prometheus())
        with open(base + ".json", "w") as handle:
            handle.write(registry.to_json())
        events = chrome.export_chrome_trace(
            session.collector, base + ".trace.json"
        )
        return base, events

    return [(f"{scheme}/{OBSERVED_MIX}", lambda s=scheme: observed(s))
            for scheme in OBSERVED_SCHEMES]


def _observed_prepare(seed: int, workdir: str) -> Dict[str, str]:
    """Telemetry-off runs of the observed cells (the inertness
    reference, which also warms the caches)."""
    config = grid_config(seed)
    untraced = {}
    with ResultTap() as tap:
        for scheme in OBSERVED_SCHEMES:
            simulate(scheme, OBSERVED_MIX, config)
            (record,) = tap.take()
            untraced[f"{scheme}/{OBSERVED_MIX}"] = record.digest
    return untraced


def _observed_check(seed: int, outcomes: List[OpOutcome],
                    untraced: Dict[str, str]):
    failures = _generic_failures(outcomes, 1)
    for o in outcomes:
        if o.error is not None or len(o.cells) != 1:
            continue
        if o.cells[0].digest != untraced.get(o.label):
            failures.append(
                (o.label, "telemetry moved a simulated observable")
            )
        base, events = o.value
        with open(base + ".prom") as handle:
            families = parse_prometheus_text(handle.read())
        if events < 1 or "service_events_total" not in families:
            failures.append((o.label, "empty telemetry export"))
    return len(outcomes), failures


def _units_cells(outcomes: List[OpOutcome]) -> int:
    return sum(len(o.cells) for o in outcomes)


def _units_trials(outcomes: List[OpOutcome]) -> int:
    """Two-world trials run (0 for passes without certification)."""
    return sum(
        v.value.trials for v in _verdict_outcomes(outcomes)
        if isinstance(v.value, StrategyVerdict)
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            "fs_figures", _grid_ops(FS_SCHEMES), 11.5, _units_cells,
            _grid_check, _grid_prepare("fs_figures", FS_SCHEMES),
            _cell_digests, FS_SCHEMES, grid=True,
        ),
        Workload(
            "nonsecure_figures", _grid_ops(NONSECURE_SCHEMES), 14.5,
            _units_cells, _grid_check,
            _grid_prepare("nonsecure_figures", NONSECURE_SCHEMES),
            _cell_digests, NONSECURE_SCHEMES, grid=True,
        ),
        Workload(
            "certify", _cert_ops, 5.8, _units_trials, _cert_check,
            _cert_prepare, _cert_digests, CERT_SCHEMES,
        ),
        Workload(
            "observed", _observed_ops, 4.8, _units_cells,
            _observed_check, _observed_prepare, _cell_digests,
            OBSERVED_SCHEMES,
        ),
    )
}


def load_pins() -> Dict[str, Dict[str, Dict[str, str]]]:
    with open(PINS_PATH) as handle:
        return json.load(handle)


def pinned(workload: str, seed: int) -> Optional[Dict[str, str]]:
    return load_pins().get(workload, {}).get(str(seed))


def digest_failures(expected: Dict[str, str],
                    actual: Dict[str, str]) -> Failures:
    """One failure per operation whose digest differs from its pin."""
    return [
        (label, f"digest {actual.get(label)} differs from pinned "
                f"{expected.get(label)}")
        for label in sorted(set(expected) | set(actual))
        if expected.get(label) != actual.get(label)
    ]


# -- work counts and model accuracy --------------------------------------

def work_counts(outcomes: List[OpOutcome]) -> Dict[str, float]:
    cells = [c for o in outcomes for c in o.cells]
    requests = sum(c.requests for c in cells)
    cycles = sum(c.cycles for c in cells)
    return {
        "work.cells": len(cells),
        "work.trials": _units_trials(outcomes),
        "work.requests": requests,
        "work.dummies": sum(c.dummies for c in cells),
        "work.prefetches": sum(c.prefetches for c in cells),
        "work.sim_cycles": cycles,
        "work.dram_commands": sum(c.dram_commands for c in cells),
        "sim.cycles_per_request": cycles / requests if requests else 0.0,
    }


def useful_slot_ratio(outcomes: List[OpOutcome]) -> float:
    """FS demand / (demand + dummies); 0 when no FS run happened."""
    fs = [c for o in outcomes for c in o.cells if c.fixed_service]
    slots = sum(c.requests + c.dummies for c in fs)
    return sum(c.requests for c in fs) / slots if slots else 0.0


def normalized_throughput(
    cells: Dict[str, CellRecord], baseline: Dict[str, CellRecord],
    schemes: Sequence[str],
) -> Dict[str, float]:
    """Per scheme: mean over mixes of weighted IPC / cores."""
    out = {}
    for scheme in schemes:
        values = []
        for mix in GRID_MIXES:
            mine, base = cells[f"{scheme}/{mix}"], baseline[mix]
            values.append(sum(
                m / b for m, b in zip(mine.ipcs, base.ipcs) if b > 0
            ) / len(base.ipcs))
        out[scheme] = sum(values) / len(values)
    return out


def baseline_cells(seed: int) -> Dict[str, CellRecord]:
    """Untimed baseline runs of the grid (the model-accuracy base)."""
    config = grid_config(seed)
    out = {}
    with ResultTap() as tap:
        for mix in GRID_MIXES:
            simulate("baseline", mix, config)
            (out[mix],) = tap.take()
    return out
