"""Online runtime verification of the FS security invariants.

:class:`OnlineInvariantMonitor` is the streaming, bounded-memory
counterpart of the two post-hoc validators:

* :func:`repro.core.invariants.check_schedule_conformance` — every
  service event must land on one of its own domain's slot anchors, and no
  slot may be served twice;
* :class:`repro.dram.checker.TimingChecker` — the raw pairwise JEDEC
  constraints on the command stream.

The offline tools replay a *finished* run; this monitor watches the run
live, one event at a time, holding only O(banks + a small window) of
state, and (in ``strict`` mode) raises a structured
:class:`~repro.errors.ScheduleViolationError` naming the domain and the
cycle **the moment** an invariant breaks.  That matters for security: a
deviation from the fixed timetable is a potential timing channel, so a
faulted run must stop (or at minimum be flagged) before its results are
trusted — not after a grid of experiments has already consumed them.

The timing rules are a faithful streaming port of
:class:`~repro.dram.checker.TimingChecker`; ``tests/test_faults.py``
proves the two flag *exactly* the same violations on randomly perturbed
command streams.  Commands must be observed in non-decreasing cycle
order (which is how every controller issues them).
"""

from __future__ import annotations

import bisect
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from ..dram.checker import Violation
from ..dram.commands import Command, CommandType
from ..dram.timing import TimingParams
from ..errors import ScheduleViolationError
from .invariants import InvariantViolation
from .schedule import FixedServiceSchedule


@dataclass
class _BankState:
    """Streaming per-bank JEDEC state (mirrors ``_check_one_bank``)."""

    last_act: Optional[Command] = None
    implied_pre_done: int = -(10 ** 9)


@dataclass
class _RankState:
    """Streaming per-rank JEDEC state (mirrors ``_check_rank_rules``)."""

    last_act: Optional[Command] = None
    act_cycles: Deque[Command] = field(
        default_factory=lambda: deque(maxlen=4)
    )
    last_col: Optional[Command] = None
    #: Refreshes whose tRFC window may still cover future commands.
    active_refs: List[Command] = field(default_factory=list)
    #: Non-REF commands at the current (latest) cycle, for REF-arrives-
    #: second collisions inside one cycle.
    cycle_cmds: Tuple[int, List[Command]] = (-1, [])


class _ChannelState:
    """All streaming timing state for one channel."""

    def __init__(self) -> None:
        self.bus_cycle = -1
        self.bus_first: Optional[Command] = None
        self.bus_count = 0
        #: Data-bus transfers not yet safely ordered: (start, seq, cmd).
        self.pending: List[Tuple[int, int, Command]] = []
        self.pending_seq = 0
        self.last_final: Optional[Tuple[int, int, Command]] = None
        self.banks: Dict[Tuple[int, int], _BankState] = {}
        self.ranks: Dict[int, _RankState] = {}


class OnlineInvariantMonitor:
    """Streaming watchdog over service events and DRAM commands.

    Parameters
    ----------
    params:
        DRAM timing parameters (JEDEC rules).
    schedule:
        The FS timetable, when the watched controller interprets one;
        enables the conformance checks.  ``None`` (e.g. for the
        reordered-BP controller, whose observable is the interval, not a
        slot) keeps only the timing rules.
    strict:
        Raise :class:`ScheduleViolationError` on the first violation
        instead of accumulating.
    max_recorded:
        Bound on retained violation objects; the total count stays exact.
    """

    def __init__(
        self,
        params: TimingParams,
        schedule: Optional[FixedServiceSchedule] = None,
        strict: bool = False,
        max_recorded: int = 1000,
    ) -> None:
        self.params = params
        self.schedule = schedule
        self.strict = strict
        self.max_recorded = max_recorded
        self.violations: List[object] = []
        self.total_violations = 0
        #: Optional telemetry timeline hooks (wired by
        #: ``MemoryController.attach_telemetry``); every flagged
        #: violation becomes a timeline event.
        self.telemetry = None
        self._channels: Dict[int, _ChannelState] = {}
        #: Where violations are recorded: this monitor, or the composite
        #: monitor a per-channel child reports to (:meth:`for_channel`).
        self._sink = self
        #: Channel-local -> global domain ids (children only).
        self._domains: Optional[List[int]] = None
        # Conformance state.
        self._allowed: Dict[int, Set[int]] = {}
        if schedule is not None:
            self._allowed = {
                d: {s.anchor_offset for s in schedule.slots_of_domain(d)}
                for d in range(schedule.num_domains)
            }
        self._recent_service: Dict[int, Counter] = {}
        self._recent_order: Dict[int, Deque[int]] = {}
        # Constant-service accounting (finalize-time shape check).
        self._service_counts: Counter = Counter()
        self._horizon = 0
        self._finalized = False

    # ------------------------------------------------------------------

    @property
    def ok(self) -> bool:
        return self.total_violations == 0

    def raise_if_violated(self) -> None:
        """Raise on any accumulated violation (non-strict runs)."""
        if self.total_violations:
            first = self.violations[0] if self.violations else None
            raise ScheduleViolationError(
                f"{self.total_violations} invariant violation(s); "
                f"first: {first}"
            )

    def for_channel(
        self, schedule: Optional[FixedServiceSchedule],
        domains: Sequence[int],
    ) -> "OnlineInvariantMonitor":
        """A watchdog for one channel's sub-controller of a composite
        (multi-channel) controller, checking that channel's own
        ``schedule``.

        The sub-controller numbers its domains ``0..k-1``; ``domains``
        maps them back to global ids.  Every violation the child flags
        is recorded here under the global id, so this monitor's
        ``violations`` / ``total_violations`` / ``ok`` cover every
        channel, and strict mode still raises the cycle it happens.
        """
        child = OnlineInvariantMonitor(
            self.params, schedule=schedule, strict=self.strict,
            max_recorded=self.max_recorded,
        )
        child._sink = self
        child._domains = list(domains)
        return child

    def _global(self, domain: Optional[int]) -> Optional[int]:
        if domain is None or self._domains is None:
            return domain
        return self._domains[domain]

    def _record(self, violation: object, domain: Optional[int],
                cycle: int, reason: str) -> None:
        self.total_violations += 1
        if len(self.violations) < self.max_recorded:
            self.violations.append(violation)
        if self.telemetry is not None:
            self.telemetry.on_violation(domain, cycle, reason)
        if self.strict:
            raise ScheduleViolationError(reason, domain=domain,
                                         cycle=cycle)

    def _flag_conformance(
        self, domain: int, cycle: int, reason: str
    ) -> None:
        domain = self._global(domain)
        self._sink._record(
            InvariantViolation(domain, cycle, reason), domain, cycle,
            reason,
        )

    def _flag_timing(self, violation: Violation) -> None:
        domain = violation.second.domain
        self._sink._record(
            violation, self._global(domain if domain >= 0 else None),
            violation.second.cycle, str(violation),
        )

    # ------------------------------------------------------------------
    # Conformance: service events.
    # ------------------------------------------------------------------

    def observe_service(self, domain: int, cycle: int, kind: str) -> None:
        """One service event, live from the controller's ``_trace``."""
        self._service_counts[domain] += 1
        self._horizon = max(self._horizon, cycle)
        schedule = self.schedule
        if schedule is None:
            return
        offset = (cycle - schedule.lead) % schedule.interval_length
        if offset not in self._allowed.get(domain, ()):
            self._flag_conformance(
                domain, cycle,
                f"service at foreign offset {offset} (kind {kind!r})",
            )
        seen = self._recent_service.setdefault(domain, Counter())
        order = self._recent_order.setdefault(domain, deque())
        seen[cycle] += 1
        order.append(cycle)
        if seen[cycle] > 1:
            self._flag_conformance(
                domain, cycle, "slot served more than once"
            )
        # Bounded memory: forget cycles older than two intervals.
        floor = cycle - 2 * schedule.interval_length
        while order and order[0] < floor:
            old = order.popleft()
            seen[old] -= 1
            if seen[old] <= 0:
                del seen[old]

    # ------------------------------------------------------------------
    # Timing: DRAM commands (streaming TimingChecker).
    # ------------------------------------------------------------------

    def observe_command(self, command: Command) -> None:
        """One command, live from the controller's issue path.

        Commands must arrive in non-decreasing cycle order per channel.
        """
        state = self._channels.setdefault(command.channel, _ChannelState())
        self._check_command_bus(state, command)
        self._check_data_bus(state, command)
        self._check_refresh(state, command)
        self._check_bank(state, command)
        self._check_rank(state, command)

    def finalize(self) -> None:
        """Flush windowed state and run the end-of-run shape check."""
        if self._finalized:
            return
        self._finalized = True
        for state in self._channels.values():
            self._flush_data_bus(state, None)
        self._check_constant_service()

    # -- command bus ----------------------------------------------------

    def _check_command_bus(
        self, state: _ChannelState, cmd: Command
    ) -> None:
        if cmd.type in (CommandType.POWER_DOWN, CommandType.POWER_UP):
            return
        if cmd.cycle != state.bus_cycle:
            state.bus_cycle = cmd.cycle
            state.bus_first = cmd
            state.bus_count = 1
            return
        state.bus_count += 1
        if state.bus_count == 2:
            # One violation per overcommitted cycle, like the offline
            # checker's per-cycle grouping.
            self._flag_timing(
                Violation("command-bus", state.bus_first, cmd, 1, 0)
            )

    # -- data bus -------------------------------------------------------

    def _check_data_bus(self, state: _ChannelState, cmd: Command) -> None:
        p = self.params
        if not cmd.type.is_column:
            # Every command still advances the flush floor.
            self._flush_data_bus(state, cmd.cycle + min(p.tCAS, p.tCWD))
            return
        floor = cmd.cycle + min(p.tCAS, p.tCWD)
        self._flush_data_bus(state, floor)
        offset = p.tCAS if cmd.type.is_read else p.tCWD
        start = cmd.cycle + offset
        entry = (start, state.pending_seq, cmd)
        state.pending_seq += 1
        bisect.insort(state.pending, entry)

    def _flush_data_bus(
        self, state: _ChannelState, floor: Optional[int]
    ) -> None:
        """Finalize transfers whose order can no longer change: any
        future command's transfer starts at or after ``floor``."""
        p = self.params
        while state.pending and (
            floor is None or state.pending[0][0] < floor
        ):
            entry = state.pending.pop(0)
            if state.last_final is not None:
                s1, _, c1 = state.last_final
                s2, _, c2 = entry
                gap = (
                    p.tBURST if c1.rank == c2.rank
                    else p.tBURST + p.tRTRS
                )
                if s2 - s1 < gap:
                    self._flag_timing(
                        Violation("data-bus", c1, c2, gap, s2 - s1)
                    )
            state.last_final = entry

    # -- refresh (tRFC) -------------------------------------------------

    def _check_refresh(self, state: _ChannelState, cmd: Command) -> None:
        p = self.params
        rank = state.ranks.setdefault(cmd.rank, _RankState())
        # Prune dead refresh windows.
        rank.active_refs = [
            ref for ref in rank.active_refs
            if cmd.cycle < ref.cycle + p.tRFC
        ]
        cycle, cmds = rank.cycle_cmds
        if cycle != cmd.cycle:
            cycle, cmds = cmd.cycle, []
        if cmd.type is CommandType.REFRESH:
            # Same-cycle commands observed before this REF are inside
            # its window too (offline checks both directions of a tie).
            for other in cmds:
                self._flag_timing(
                    Violation("tRFC", cmd, other, p.tRFC, 0)
                )
            rank.active_refs.append(cmd)
        else:
            for ref in rank.active_refs:
                if ref.cycle <= cmd.cycle < ref.cycle + p.tRFC:
                    self._flag_timing(Violation(
                        "tRFC", ref, cmd, p.tRFC, cmd.cycle - ref.cycle
                    ))
            cmds = cmds + [cmd]
        rank.cycle_cmds = (cycle, cmds)

    # -- per-bank rules -------------------------------------------------

    def _check_bank(self, state: _ChannelState, cmd: Command) -> None:
        p = self.params
        if cmd.type is CommandType.REFRESH or cmd.bank < 0:
            return
        bank = state.banks.setdefault((cmd.rank, cmd.bank), _BankState())
        if cmd.type is CommandType.ACTIVATE:
            if bank.last_act is not None and (
                cmd.cycle - bank.last_act.cycle < p.tRC
            ):
                self._flag_timing(Violation(
                    "tRC", bank.last_act, cmd, p.tRC,
                    cmd.cycle - bank.last_act.cycle,
                ))
            if cmd.cycle < bank.implied_pre_done:
                self._flag_timing(Violation(
                    "tRP(auto)", bank.last_act, cmd, 0,
                    cmd.cycle - bank.implied_pre_done,
                ))
            bank.last_act = cmd
        elif cmd.type.is_column:
            if bank.last_act is None:
                self._flag_timing(Violation("no-activate", cmd, cmd, 0, 0))
                return
            if cmd.cycle - bank.last_act.cycle < p.tRCD:
                self._flag_timing(Violation(
                    "tRCD", bank.last_act, cmd, p.tRCD,
                    cmd.cycle - bank.last_act.cycle,
                ))
            if cmd.type.auto_precharge:
                if cmd.type.is_read:
                    pre_at = max(cmd.cycle + p.tRTP,
                                 bank.last_act.cycle + p.tRAS)
                else:
                    pre_at = max(
                        cmd.cycle + p.tCWD + p.tBURST + p.tWR,
                        bank.last_act.cycle + p.tRAS,
                    )
                bank.implied_pre_done = pre_at + p.tRP
        elif cmd.type is CommandType.PRECHARGE:
            if bank.last_act is not None and (
                cmd.cycle - bank.last_act.cycle < p.tRAS
            ):
                self._flag_timing(Violation(
                    "tRAS", bank.last_act, cmd, p.tRAS,
                    cmd.cycle - bank.last_act.cycle,
                ))
            bank.implied_pre_done = cmd.cycle + p.tRP

    # -- per-rank rules -------------------------------------------------

    def _check_rank(self, state: _ChannelState, cmd: Command) -> None:
        p = self.params
        rank = state.ranks.setdefault(cmd.rank, _RankState())
        if cmd.type is CommandType.ACTIVATE:
            if rank.last_act is not None and (
                cmd.cycle - rank.last_act.cycle < p.tRRD
            ):
                self._flag_timing(Violation(
                    "tRRD", rank.last_act, cmd, p.tRRD,
                    cmd.cycle - rank.last_act.cycle,
                ))
            if len(rank.act_cycles) == 4:
                a1 = rank.act_cycles[0]
                if cmd.cycle - a1.cycle < p.tFAW:
                    self._flag_timing(Violation(
                        "tFAW", a1, cmd, p.tFAW, cmd.cycle - a1.cycle
                    ))
            rank.last_act = cmd
            rank.act_cycles.append(cmd)
        elif cmd.type.is_column:
            if rank.last_col is not None:
                c1 = rank.last_col
                gap = cmd.cycle - c1.cycle
                if c1.type.is_read == cmd.type.is_read:
                    need, rule = p.tCCD, "tCCD"
                elif c1.type.is_read:
                    need, rule = p.read_to_write, "rd->wr"
                else:
                    need, rule = p.write_to_read, "wr->rd(tWTR)"
                if gap < need:
                    self._flag_timing(
                        Violation(rule, c1, cmd, need, gap)
                    )
            rank.last_col = cmd

    # -- end-of-run shape check -----------------------------------------

    def _check_constant_service(
        self, tolerance_intervals: int = 2
    ) -> None:
        """Streaming port of
        :func:`~repro.core.invariants.check_constant_service`."""
        schedule = self.schedule
        if schedule is None or self._horizon == 0:
            return
        intervals = (
            (self._horizon - schedule.lead) // schedule.interval_length + 1
        )
        for domain, served in sorted(self._service_counts.items()):
            share = len(schedule.slots_of_domain(domain))
            expected = intervals * share
            if abs(served - expected) > tolerance_intervals * share:
                self._flag_conformance(
                    domain, self._horizon,
                    f"served {served} slots, expected ~{expected}",
                )


__all__ = ["OnlineInvariantMonitor"]
