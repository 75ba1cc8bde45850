"""Timed and traced runs of one workload, and the metrics they report."""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import cases
import layers
from repro.sim.fastpath import template_cache_stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Scratch space inside the checkout (listed in .gitignore).
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_PROBES = 5


def metric(value, unit: str):
    return {"value": value, "unit": unit}


def measure_setup() -> float:
    """Median seconds from interpreter launch to ready-to-simulate."""
    probe = os.path.join(HERE, "setup_probe.py")
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        out = subprocess.run(
            [sys.executable, probe, repr(start)], cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def check_outputs(workload, seed, outcomes, prepared):
    """``(attempted, [(operation label, failure)])`` for one pass."""
    attempted, failures = workload.check(seed, outcomes, prepared)
    expected = cases.pinned(workload.name, seed)
    if expected is not None:
        failures += cases.digest_failures(
            expected, workload.digests(outcomes)
        )
    return attempted, failures


def timed_run(workload, seed, seconds, workdir, prepared):
    """Untraced passes; returns (attempted, failures, work, metrics)."""
    passes = max(1, int(seconds // workload.nominal_pass_s))
    walls, runs = [], []
    for _ in range(passes):
        outcomes, wall = cases.run_pass(workload, seed, workdir)
        walls.append(wall)
        runs.append(outcomes)
    outcomes = runs[0]
    attempted, failures = check_outputs(workload, seed, outcomes, prepared)
    first = workload.digests(outcomes)
    for k, later in enumerate(runs[1:], start=2):
        failures += [
            (label, f"pass {k} differs from pass 1")
            for label, digest in workload.digests(later).items()
            if digest != first.get(label)
        ]
    wall = statistics.median(walls)
    work = cases.work_counts(outcomes)
    print(f"passes: {passes}  pass walls (s): "
          + " ".join(f"{w:.4f}" for w in walls))
    return attempted, failures, work, {
        "setup_s": metric(measure_setup(), "s"),
        "wall_s": metric(wall, "s"),
        "sim_requests_per_s": metric(work["work.requests"] / wall, "req/s"),
        "ops_per_s": metric(workload.units(outcomes) / wall, "1/s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        ),
    }


def traced_run(workload, seed, workdir, prepared):
    """One untraced then one traced pass; per-layer metrics."""
    _, untraced_wall = cases.run_pass(workload, seed, workdir)
    recorder = layers.SpanRecorder()
    before = template_cache_stats()
    with layers.Patches() as patches:
        layers.instrument(recorder, patches)
        outcomes, wall = cases.run_pass(workload, seed, workdir, recorder)
    after = template_cache_stats()
    recorder.save(os.path.join(WORK_ROOT, f"spans-{workload.name}.npz"))
    attempted, failures = check_outputs(workload, seed, outcomes, prepared)
    totals = layers.layer_totals(recorder)
    metrics = {}
    attributed = 0.0
    for layer in layers.LAYERS:
        own, calls = totals.get(layer, (0.0, 0))
        attributed += own
        metrics[f"{layer}.calls"] = metric(calls, "count")
        metrics[f"{layer}.self_s"] = metric(own, "s")
    metrics["exec.checkpoint.writes"] = metric(
        recorder.counts.get("exec.checkpoint.writes", 0), "count"
    )
    metrics["other.self_s"] = metric(wall - attributed, "s")
    metrics["trace.wall_s"] = metric(wall, "s")
    metrics["trace.overhead_ratio"] = metric(wall / untraced_wall, "ratio")
    metrics["core.schedule.template_hits"] = metric(
        after["hits"] - before["hits"], "count"
    )
    metrics["core.schedule.template_misses"] = metric(
        after["misses"] - before["misses"], "count"
    )
    metrics["core.useful_slot_ratio"] = metric(
        cases.useful_slot_ratio(outcomes), "ratio"
    )
    work = cases.work_counts(outcomes)
    for name, value in work.items():
        metrics[name] = metric(
            value, "cycles/req" if name.startswith("sim.") else "count"
        )
    print(f"untraced pass {untraced_wall:.4f} s, traced pass {wall:.4f} s")
    for layer in layers.LAYERS:
        own, calls = totals.get(layer, (0.0, 0))
        if calls:
            print(f"  {layer:24s} {own:9.4f} s  {100 * own / wall:5.1f}%  "
                  f"{calls} calls")
    print(f"  {'other':24s} {wall - attributed:9.4f} s  "
          f"{100 * (wall - attributed) / wall:5.1f}%")
    if workload.grid:
        print_model_accuracy(workload, seed, outcomes)
    return attempted, failures, work, metrics


def print_model_accuracy(workload, seed, outcomes):
    """Normalized throughput per design point beside the paper's value."""
    cells = {o.label: o.cells[0] for o in outcomes if len(o.cells) == 1}
    if "baseline" in workload.schemes:
        baseline = {m: cells[f"baseline/{m}"] for m in cases.GRID_MIXES}
    else:
        baseline = cases.baseline_cells(seed)
    points = [s for s in workload.schemes if s != "baseline"]
    values = cases.normalized_throughput(cells, baseline, points)
    print("model accuracy: weighted IPC / cores vs baseline, mean of "
          + ", ".join(cases.GRID_MIXES))
    for scheme in points:
        paper = cases.PAPER_FIG6.get(scheme)
        beside = (f"paper {paper:.2f}  error {values[scheme] - paper:+.3f}"
                  if paper is not None else "paper n/a")
        print(f"  {scheme:16s} {values[scheme]:.3f}  {beside}")


def run_workload(workload, seed, seconds, trace):
    """Prepare, measure and clean up; returns the result dict."""
    workdir = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        prepared = workload.prepare(seed, workdir)
        if trace:
            attempted, failures, work, metrics = traced_run(
                workload, seed, workdir, prepared
            )
        else:
            attempted, failures, work, metrics = timed_run(
                workload, seed, seconds, workdir, prepared
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = min(attempted, len({label for label, _ in failures}))
    for label, message in failures:
        print(f"FAILED {label}: {message}")
    print("work: " + "  ".join(f"{k}={v}" for k, v in work.items()))
    print(f"error_rate: {failed / attempted:.4f} "
          f"({failed} of {attempted} operations failed)")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
