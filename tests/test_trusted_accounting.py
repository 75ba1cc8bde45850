"""Counter-only trusted issue == checked issue, on real FS command streams.

The fast engine's Fixed Service controllers issue through
:meth:`repro.dram.channel.Channel.issue_trusted`, which keeps only what
is read after a run: the channel ``stat_*`` counters and each rank's
:class:`~repro.dram.rank.RankEnergyCounters` (activity counts and
power-state residency).  These tests log whole FS command streams and
replay them through the checked :meth:`~repro.dram.channel.Channel.issue`
on a fresh :class:`~repro.dram.system.DramSystem`.  The checked replay
re-validates every command and models full bank/rank state, so it is the
oracle: the live trusted counters, and a trusted replay of the same
stream, must match it field for field.
"""

import dataclasses

import pytest

from repro.core.energy_opts import FsEnergyOptions
from repro.dram.commands import CommandType
from repro.dram.system import DramSystem
from repro.faults import FaultPlan
from repro.sim.config import SystemConfig
from repro.sim.runner import SchemeOptions, build_system
from repro.workloads.spec import suite_specs

ALL_ENERGY = FsEnergyOptions(
    suppress_dummies=True, boost_row_hits=True, power_down_idle=True
)


def _counters(dram):
    return [
        (
            ch.stat_commands, ch.stat_data_cycles, ch.stat_last_activity,
            [dataclasses.asdict(rank.energy) for rank in ch.ranks],
        )
        for ch in dram.channels
    ]


def _fresh(dram):
    return DramSystem(
        dram.params, num_channels=dram.num_channels,
        ranks_per_channel=dram.ranks_per_channel,
        banks_per_rank=dram.banks_per_rank,
    )


def _replay(log, dram, end, trusted):
    fresh = _fresh(dram)
    for cmd in log:
        channel = fresh.channels[cmd.channel]
        if trusted:
            channel.issue_trusted(cmd.type, cmd.cycle, cmd.rank, cmd.bank)
        else:
            channel.issue(cmd)
    fresh.finalize(end)
    return _counters(fresh)


def _run(scheme, cores=8, accesses=100, seed=0, max_cycles=3_000_000,
         **options):
    config = SystemConfig(accesses_per_core=accesses, seed=seed)
    if cores != config.num_cores:
        config = config.with_cores(cores)
    system = build_system(
        scheme, config, suite_specs("mix1", cores),
        SchemeOptions(log_commands=True, **options), engine="fast",
    )
    result = system.run(max_cycles=max_cycles)
    return system.controller, result


def _assert_matches_checked_replay(controller):
    log = controller.command_log
    dram = controller.dram
    end = controller.now
    checked = _replay(log, dram, end, trusted=False)
    assert _counters(dram) == checked, "live trusted counters diverged"
    assert _replay(log, dram, end, trusted=True) == checked
    return log


@pytest.mark.parametrize(
    "scheme", ["fs_rp", "fs_bp", "fs_reordered_bp", "fs_np_ta", "fs_rp_mc"]
)
def test_plain_stream(scheme):
    if scheme == "fs_rp_mc":
        from repro.sim.config import full_target_config

        config = full_target_config(accesses_per_core=40)
        system = build_system(
            scheme, config, suite_specs("mix1", 32),
            SchemeOptions(log_commands=True), engine="fast",
        )
        system.run(max_cycles=3_000_000)
        controller = system.controller
    else:
        controller, _ = _run(scheme)
    _assert_matches_checked_replay(controller)


def test_refresh_stream():
    controller, _ = _run("fs_rp", refresh=True)
    log = _assert_matches_checked_replay(controller)
    assert any(c.type is CommandType.REFRESH for c in log)


def test_power_down_stream():
    controller, _ = _run("fs_rp", energy=ALL_ENERGY)
    log = _assert_matches_checked_replay(controller)
    types = {c.type for c in log}
    assert {CommandType.POWER_DOWN, CommandType.POWER_UP} <= types


@pytest.mark.parametrize("scheme", ["fs_rp", "fs_reordered_bp"])
def test_suppressed_dummies(scheme):
    controller, result = _run(scheme, energy=FsEnergyOptions(
        suppress_dummies=True, boost_row_hits=True,
    ))
    _assert_matches_checked_replay(controller)
    assert result.stats.suppressed_dummies > 0


def test_power_down_with_refresh():
    controller, _ = _run("fs_rp", energy=ALL_ENERGY, refresh=True)
    log = _assert_matches_checked_replay(controller)
    types = {c.type for c in log}
    assert {CommandType.REFRESH, CommandType.POWER_DOWN} <= types


@pytest.mark.parametrize("scheme", ["fs_rp", "fs_reordered_bp"])
def test_drop_and_duplicate_faults(scheme):
    plan = FaultPlan.parse("drop_command:0.1,duplicate_command:0.1",
                           seed=3)
    controller, result = _run(scheme, faults=plan)
    _assert_matches_checked_replay(controller)
    assert result.stats.faulted_slots > 0
    if scheme == "fs_rp":
        assert result.stats.squashed_duplicates > 0


def test_run_cut_between_activate_and_column():
    full, _ = _run("fs_rp")
    log = full.command_log
    # Cut one cycle after an ACT that no other command follows on that
    # cycle: its column (tRCD later) is still staged, so the bank is
    # open and the rank active when the run ends.
    cut = next(
        a.cycle + 1 for a, c in zip(log, log[1:])
        if a.type is CommandType.ACTIVATE and c.cycle > a.cycle + 1
    )
    controller, _ = _run("fs_rp", max_cycles=cut)
    assert controller.now == cut
    log = _assert_matches_checked_replay(controller)
    assert log[-1].type is CommandType.ACTIVATE
    rank = controller.dram.channels[0].ranks[log[-1].rank]
    assert rank.energy.cycles_active > 0
