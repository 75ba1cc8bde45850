"""Tests for the full-target multi-channel FS system (Section 4.1)."""

import pytest

from repro.dram.checker import TimingChecker
from repro.dram.timing import DDR3_1600_X4
from repro.sim.config import SystemConfig, full_target_config
from repro.sim.runner import SchemeOptions, build_system, run_scheme
from repro.workloads.spec import suite_specs

P = DDR3_1600_X4
CFG = full_target_config(accesses_per_core=120)


class TestFullTargetSystem:
    def test_config_matches_section_4_1(self):
        assert CFG.num_cores == 32
        assert CFG.geometry.channels == 4
        assert CFG.geometry.ranks == 8
        assert CFG.geometry.banks == 8

    def test_completes_and_is_legal(self):
        system = build_system(
            "fs_rp_mc", CFG, suite_specs("milc", 32),
            SchemeOptions(log_commands=True),
        )
        result = system.run(max_cycles=8_000_000)
        assert all(c.done for c in result.cores)
        assert TimingChecker(P).check(system.controller.command_log) == []

    def test_per_channel_peak_utilization(self):
        system = build_system("fs_rp_mc", CFG, suite_specs("mcf", 32))
        result = system.run(max_cycles=8_000_000)
        # Each channel runs the 57% pipeline independently.
        assert result.bus_utilization <= 4 / 7 + 0.01

    def test_throughput_matches_single_channel_shape(self):
        specs = suite_specs("milc", 32)
        baseline = run_scheme("baseline", CFG, specs,
                              max_cycles=8_000_000)
        fs = run_scheme("fs_rp_mc", CFG, specs, max_cycles=8_000_000)
        ratio = fs.weighted_ipc(baseline) / 32.0
        assert 0.5 < ratio < 0.9  # the paper's -27% band, widened

    def test_stats_aggregate_across_channels(self):
        system = build_system("fs_rp_mc", CFG, suite_specs("milc", 32))
        result = system.run(max_cycles=8_000_000)
        assert result.stats.demand_reads == result.total_reads

    def test_service_trace_covers_every_domain(self):
        system = build_system("fs_rp_mc", CFG, suite_specs("milc", 32))
        system.run(max_cycles=8_000_000)
        trace = system.controller.service_trace
        assert set(trace) == set(range(32))
        assert all(trace[d] for d in range(32))

    def test_domains_spanning_channels_rejected(self):
        from repro.mapping.address import Geometry
        from repro.mapping.partition import RankPartition
        from repro.dram.system import DramSystem
        from repro.sim.multichannel import MultiChannelFsController

        geometry = Geometry(channels=4, ranks=8, banks=8)
        dram = DramSystem(P, num_channels=4)
        partition = RankPartition(geometry, 8)  # 4 ranks per domain
        with pytest.raises(ValueError, match="spans channels"):
            MultiChannelFsController(dram, partition, 8)


class TestCrossChannelIsolation:
    def test_victims_on_other_channels_invisible(self):
        """Domains on different channels share nothing; a domain's view
        must be identical whatever happens elsewhere."""
        from repro.analysis.leakage import interference_report
        from repro.workloads.spec import workload

        report = interference_report(
            "fs_rp_mc", workload("mcf"),
            config=full_target_config(accesses_per_core=150),
        )
        assert report.identical


class TestPerChannelWatchdog:
    """``monitor=True`` on the composite must watch every channel."""

    @staticmethod
    def _system(engine="fast"):
        return build_system(
            "fs_rp_mc", full_target_config(accesses_per_core=60),
            suite_specs("milc", 32), SchemeOptions(monitor=True),
            engine=engine,
        )

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_each_channel_watched_against_its_own_schedule(self, engine):
        system = self._system(engine)
        result = system.run(max_cycles=8_000_000)
        controller = system.controller
        assert all(c.done for c in result.cores)
        assert controller.monitor.ok
        for sub in controller._sub.values():
            assert sub.monitor is not None
            assert sub.monitor.schedule is sub.schedule

    def test_channel_violation_reaches_composite_monitor(self):
        system = self._system()
        controller = system.controller
        channel, local = controller._local_id[17]
        sub = controller._sub[channel]
        # A service one cycle off the domain's anchor: a foreign offset.
        anchor = sub.schedule.anchor(0, sub.schedule.slots_of_domain(
            local)[0])
        sub._trace(local, anchor + 1, "R")
        monitor = controller.monitor
        assert monitor.total_violations == 1
        assert monitor.violations[0].domain == 17

    def test_finalize_runs_each_channel_end_of_run_check(self):
        system = self._system()
        controller = system.controller
        controller.advance(20_000)
        # Domain 0 of one channel claims service far beyond the horizon
        # every other domain reached: the constant-service shape check
        # (run by the channel watchdog at finalize) must flag the rest.
        sub = next(iter(controller._sub.values()))
        schedule = sub.schedule
        far = schedule.anchor(1_000, schedule.slots_of_domain(0)[0])
        sub.monitor.observe_service(0, far, "D")
        assert controller.monitor.ok
        controller.finalize()
        assert not controller.monitor.ok
        assert all(
            "expected" in v.reason for v in controller.monitor.violations
        )

    def test_aggregate_stats_sums_every_field(self):
        import dataclasses

        from repro.controllers.base import ControllerStats

        controller = self._system().controller
        fields = [f.name for f in dataclasses.fields(ControllerStats)]
        for k, sub in enumerate(controller._sub.values()):
            for i, name in enumerate(fields):
                setattr(sub.stats, name, (k + 1) * (i + 1))
        total = controller.aggregate_stats()
        scale = sum(k + 1 for k in range(len(controller._sub)))
        for i, name in enumerate(fields):
            assert getattr(total, name) == scale * (i + 1), name
