"""The telemetry counting path: event counts folded once per run.

A :class:`~repro.telemetry.session.TelemetrySession` never increments a
metric per event.  When a run ends it folds ``service_trace``, the
channels' per-type command counters, the fault injector's strike counts
and the monitor's violation total into the registry; the per-event
hooks exist only to record a timeline, so a session without a trace
collector arms none of them.
"""

from collections import Counter

import pytest

from repro.faults import FaultPlan
from repro.schemes import REGISTRY
from repro.sim.config import SystemConfig
from repro.sim.runner import SchemeOptions, build_system, run_scheme
from repro.telemetry import TelemetrySession, TraceCollector
from repro.workloads.spec import suite_specs

ENGINES = ("reference", "fast")


def _config(cores=4, accesses=40):
    config = SystemConfig(accesses_per_core=accesses)
    return config if cores == config.num_cores else config.with_cores(cores)


def _system(scheme, session, engine, cores=4, accesses=40, **options):
    config = _config(cores, accesses)
    return build_system(
        scheme, config, suite_specs("mix1", config.num_cores),
        SchemeOptions(telemetry=session, **options), engine=engine,
    )


def _samples(registry, name):
    return dict(registry.get(name).samples())


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("scheme", ["fs_rp", "fs_reordered_bp",
                                    "fs_rp_mc", "baseline", "tp_bp"])
def test_registry_only_session_arms_no_hook(monkeypatch, scheme, engine):
    """Without a collector no per-event hook runs, yet every count is
    filled when the run ends."""

    def boom(*args, **kwargs):
        raise AssertionError("per-event hook armed without a collector")

    for hook in ("on_service", "on_command", "on_fault", "on_violation"):
        monkeypatch.setattr(TelemetrySession, hook, boom)
    session = TelemetrySession()
    cores = 8 if scheme == "fs_rp_mc" else 4
    system = _system(scheme, session, engine, cores=cores, monitor=True)
    result = system.run()
    assert system.controller.telemetry is None
    total = sum(_samples(session.registry, "service_events_total").values())
    assert total == sum(len(e) for e in result.service_trace.values())
    assert total > 0


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("scheme", REGISTRY.names())
@pytest.mark.parametrize("collect", [False, True])
def test_counts_equal_the_simulator_counters(scheme, engine, collect):
    """``service_events_total`` is the service trace counted by (domain,
    kind); ``commands_issued_total`` summed per channel is each
    channel's ``stat_commands``."""
    session = TelemetrySession(
        collector=TraceCollector() if collect else None
    )
    cores = 8 if scheme == "fs_rp_mc" else 4
    system = _system(scheme, session, engine, cores=cores)
    result = system.run()
    expected = Counter()
    for domain, events in result.service_trace.items():
        for _, kind in events:
            expected[(str(domain), kind)] += 1
    assert _samples(session.registry, "service_events_total") == dict(
        expected
    )
    per_channel = Counter()
    for (_, channel), n in _samples(
        session.registry, "commands_issued_total"
    ).items():
        per_channel[channel] += n
    channels = system.controller.dram.channels
    assert dict(per_channel) == {
        str(ch.channel_id): ch.stat_commands
        for ch in channels if ch.stat_commands
    }
    for ch in channels:
        assert ch.stat_commands == sum(ch.stat_commands_by_type)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("collect", [False, True])
def test_multichannel_counts_use_global_domains(engine, collect):
    session = TelemetrySession(
        collector=TraceCollector() if collect else None
    )
    run_scheme(
        "fs_rp_mc", _config(cores=8), suite_specs("mix1", 8),
        SchemeOptions(telemetry=session), engine=engine,
    )
    samples = _samples(session.registry, "service_events_total")
    assert sorted({int(domain) for domain, _ in samples}) == list(range(8))
    if collect:
        tracks = {
            e.tid for e in session.collector.events() if e.pid == "slots"
        }
        assert tracks == {f"domain {d}" for d in range(8)}


_CLEAN = "drop_command:0.05,delay_slot:0.05,duplicate_command:0.05," \
    "corrupt_trace:0.02"
_BORROW = "borrow_foreign_slot:0.2"

#: (scheme, plan, plan seed) -> (strikes by kind, recoveries,
#: violations), recorded from the live per-event counters the fold
#: replaced; identical on both engines.
_PINNED = {
    ("fs_bp", _CLEAN, 3): (
        {"corrupt_trace": 6, "delay_slot": 42, "drop_command": 33,
         "duplicate_command": 39}, 120, 0),
    ("fs_bp", _BORROW, 1): ({"borrow_foreign_slot": 24}, 0, 24),
    ("fs_rp", _CLEAN, 3): (
        {"corrupt_trace": 6, "delay_slot": 121, "drop_command": 108,
         "duplicate_command": 101}, 336, 0),
    ("fs_rp", _BORROW, 1): ({"borrow_foreign_slot": 19}, 0, 21),
}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("collect", [False, True])
@pytest.mark.parametrize("case", sorted(_PINNED))
def test_fault_and_violation_counts_pinned(case, collect, engine):
    scheme, plan, seed = case
    strikes, recoveries, violations = _PINNED[case]
    session = TelemetrySession(
        collector=TraceCollector() if collect else None
    )
    system = _system(
        scheme, session, engine, cores=2, accesses=120, monitor=True,
        faults=FaultPlan.parse(plan, seed=seed),
    )
    system.run()
    registry = session.registry
    assert {
        kind: n for (kind,), n in
        _samples(registry, "faults_injected_total").items()
    } == strikes
    assert registry.get("recoveries_total").value() == recoveries
    assert registry.get("monitor_violations_total").value() == violations
    if collect:
        timeline = Counter(
            e.name for e in session.collector.events() if e.pid == "faults"
        )
        assert dict(timeline) == strikes
        assert sum(
            1 for e in session.collector.events() if e.pid == "monitor"
        ) == violations


def test_queue_depth_is_a_timeline_sample():
    """The volatile gauge comes from the collector's last queue sample
    and is absent from a registry-only run."""
    bare = TelemetrySession()
    _system("fs_bp", bare, "fast").run()
    assert _samples(bare.registry, "queue_depth") == {}
    traced = TelemetrySession(collector=TraceCollector())
    _system("fs_bp", traced, "fast").run()
    last = {}
    for event in traced.collector.events():
        if event.pid == "queues":
            last[(event.tid.split()[-1],)] = event.args["pending"]
    assert _samples(traced.registry, "queue_depth") == last


def test_cli_run_trace_reports_dropped_events(tmp_path, capsys,
                                              monkeypatch):
    """``repro run --trace`` says when the ring dropped events, and the
    export records both counts."""
    import json

    from repro.cli import main

    monkeypatch.setattr(TraceCollector.__init__, "__defaults__", (64, None))
    trace = tmp_path / "t.json"
    assert main([
        "run", "fs_bp", "mix1", "--cores", "2", "--accesses", "40",
        "--trace", str(trace),
    ]) == 0
    err = capsys.readouterr().err
    other = json.loads(trace.read_text())["otherData"]
    assert other["dropped_events"] > 0
    assert other["total_events"] == 64 + other["dropped_events"]
    assert (
        f"trace: 64 events ({other['dropped_events']} oldest dropped by "
        f"the 64-event ring)" in err
    )
