"""The Fixed Service memory controller (Sections 3-5).

:class:`FixedServiceController` interprets a precomputed
:class:`~repro.core.schedule.FixedServiceSchedule`: at every slot it
dispatches one transaction of the slot's domain — the queue head when
legal, another queued transaction when the head would violate one of the
domain's *own* DRAM hazards, a prefetch when the queue is empty, a dummy
otherwise, and a bubble when even a dummy is illegal.  Command times are
pure functions of the slot anchor, never of resource availability, so a
domain's service is bit-for-bit independent of its co-runners.

The same class covers the paper's FS_RP (rank partitioning), the basic
bank-partitioned and no-partitioning pipelines, and the triple-alternation
optimization (whose bank restrictions ride in on the schedule's
:attr:`~repro.core.schedule.SlotSpec.bank_mod`).  Reordered bank
partitioning lives in :mod:`repro.core.fs_reordered`.
"""

from __future__ import annotations

import abc
import heapq
import itertools
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from ..controllers.base import MemoryController
from ..dram.commands import (
    Address,
    Command,
    CommandType,
    OpType,
    Request,
    RequestKind,
)
from ..dram.refresh import RefreshScheduler
from ..dram.system import DramSystem
from ..faults import FaultInjector, FaultKind
from ..mapping.partition import PartitionPolicy
from .energy_opts import EnergyAdjustments, FsEnergyOptions
from .pipeline_solver import SharingLevel
from .schedule import CommandTimes, FixedServiceSchedule
from .shaping import DomainHazardTracker, DummyGenerator


class PrefetchBuffer:
    """A small per-domain buffer holding prefetched lines (FIFO evict)."""

    def __init__(self, capacity: int = 32) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._lines: "OrderedDict[int, bool]" = OrderedDict()
        self.hits = 0
        self.fills = 0

    def fill(self, line: int) -> None:
        if line in self._lines:
            self._lines.move_to_end(line)
            return
        self._lines[line] = True
        self.fills += 1
        while len(self._lines) > self.capacity:
            self._lines.popitem(last=False)

    def hit(self, line: Optional[int]) -> bool:
        if line is None or line not in self._lines:
            return False
        del self._lines[line]
        self.hits += 1
        return True

    @property
    def useful_fraction(self) -> float:
        if self.fills == 0:
            return 0.0
        return self.hits / self.fills


class StagedIssueController(MemoryController):
    """Command staging and issue shared by the Fixed Service controllers.

    A slot decision stages its commands at their fixed cycles, and
    ``_work`` issues them in time order between later decisions.  A
    staged entry is the tuple ``(cycle, seq, type, rank, bank, row,
    request id, domain)`` on this controller's channel; the
    :class:`~repro.dram.commands.Command` itself is built only where
    something reads it: the checked channel path, the command log, the
    online monitor or telemetry.
    """

    #: Whether staged commands go through the channel's counter-only
    #: trusted path (the fast engine), which reserves no bus slots.
    trusted_issue = False

    def __init__(self, dram: DramSystem, num_domains: int,
                 log_commands: bool = False) -> None:
        super().__init__(dram, num_domains, log_commands)
        self._staged: List[Tuple] = []
        self._stage_seq = itertools.count()
        self._last_issued_key: Optional[Tuple] = None

    def _stage(self, cycle: int, ctype: CommandType, rank: int,
               bank: int = -1, row: int = -1, request_id: int = -1,
               domain: int = -1) -> None:
        heapq.heappush(self._staged, (
            cycle, next(self._stage_seq), ctype, rank, bank, row,
            request_id, domain,
        ))

    def _duplicate(self, entry: Tuple) -> bool:
        """Issue-path guard: squash a command identical to the one just
        issued (fault model ``duplicate_command``) before it can collide
        on the command bus or disturb bank state.  Without a fault
        injector no command is ever staged twice, so ``_work`` asks only
        when one is armed."""
        key = entry[2:6] + (entry[0],)
        if key == self._last_issued_key:
            self.stats.squashed_duplicates += 1
            return True
        self._last_issued_key = key
        return False

    def _issue_staged(self, entry: Tuple) -> None:
        """Issue a staged command through the checked channel path."""
        cycle, _, ctype, rank, bank, row, request_id, domain = entry
        self._issue(Command(
            ctype, cycle, self.channel_id, rank, bank, row, request_id,
            domain,
        ))

    @abc.abstractmethod
    def _next_decision(self) -> int:
        """Cycle at which the next undecided slot is decided."""

    @abc.abstractmethod
    def _decide_next(self) -> int:
        """Decide that slot; return the next one's decision cycle."""

    def next_event(self) -> Optional[int]:
        """A fixed schedule always has a next decision; report the
        sooner of it, the next staged command, and the next release."""
        t = self._next_decision()
        if self._staged and self._staged[0][0] < t:
            t = self._staged[0][0]
        if self._release_heap and self._release_heap[0][0] < t:
            t = self._release_heap[0][0]
        return t if t > self.now else self.now + 1

    def _work(self, until: int) -> None:
        """Decide and issue staged commands in time order; a decision
        comes before any command staged for the same cycle."""
        staged = self._staged
        issue = self._issue_staged
        guard = self.fault_injector is not None
        decide_at = self._next_decision()
        while True:
            staged_at = staged[0][0] if staged else None
            if decide_at <= until and (
                staged_at is None or decide_at <= staged_at
            ):
                decide_at = self._decide_next()
                continue
            if staged_at is not None and staged_at <= until:
                entry = heapq.heappop(staged)
                if not (guard and self._duplicate(entry)):
                    issue(entry)
                continue
            break
        if not self.trusted_issue:
            # Checked issue reserves bus slots; drop the stale ones.
            self.dram.channels[self.channel_id].prune(self.now)


class FixedServiceController(StagedIssueController):
    """FS scheduling over a validated slot timetable."""

    #: How deep to scan a domain's queue for a legal transaction when the
    #: head is blocked by one of the domain's own hazards.
    SCAN_DEPTH = 8
    #: Latency (cycles) of returning a read that hits the prefetch buffer.
    PREFETCH_HIT_LATENCY = 5
    #: Per-domain transaction-queue capacity (Section 5.1: "the FS
    #: transaction queue can be relatively small because it is largely
    #: in-order"); a full queue back-pressures the owning core only.
    QUEUE_CAPACITY = 64
    def __init__(
        self,
        dram: DramSystem,
        schedule: FixedServiceSchedule,
        partition: PartitionPolicy,
        channel: int = 0,
        energy_options: FsEnergyOptions = None,
        prefetchers: Optional[Dict[int, object]] = None,
        refresh: "RefreshScheduler" = None,
        log_commands: bool = False,
        fault_injector: Optional[FaultInjector] = None,
    ) -> None:
        super().__init__(dram, schedule.num_domains, log_commands)
        if channel >= dram.num_channels:
            raise ValueError("channel out of range")
        self.schedule = schedule
        self.partition = partition
        self.channel_id = channel
        self.energy_options = energy_options or FsEnergyOptions.none()
        self.adjustments = EnergyAdjustments()
        self.prefetchers = prefetchers or {}
        self.prefetch_buffers: Dict[int, PrefetchBuffer] = {
            d: PrefetchBuffer() for d in range(self.num_domains)
        }
        self._queues: Dict[int, List[Request]] = {
            d: [] for d in range(self.num_domains)
        }
        self._hazards: Dict[int, DomainHazardTracker] = {
            d: DomainHazardTracker(dram.params)
            for d in range(self.num_domains)
        }
        self._dummies: Dict[int, DummyGenerator] = {
            d: DummyGenerator(d, partition, channel)
            for d in range(self.num_domains)
        }
        #: Last (bank-key -> row) serviced per domain, for the row-buffer
        #: energy boost.
        self._last_row: Dict[int, Dict[Tuple[int, int], int]] = {
            d: {} for d in range(self.num_domains)
        }
        self._next_slot = 0
        #: Optional fault-injection oracle; every predicate it answers is
        #: a pure function of (seed, domain, the domain's own progress),
        #: so faults cannot carry information between domains.
        self.fault_injector = fault_injector
        # Slot tables: command times are pure functions of the anchor,
        # so one interval's anchors and the per-direction command
        # offsets are all a slot decision needs.
        self._slot_domain = [s.domain for s in schedule.slots]
        self._slot_bank_mod = [s.bank_mod for s in schedule.slots]
        self._anchor_base = [schedule.anchor(0, s) for s in schedule.slots]
        self._rel_read = schedule.command_times(0, True)
        self._rel_write = schedule.command_times(0, False)
        # Decisions must lead the earliest possible command of a slot.
        self._decision_lead = min(
            self._rel_read.first, self._rel_write.first
        )
        self.refresh = refresh
        self._refresh_on = refresh is not None and refresh.enabled
        #: Domain -> ranks it owns on this channel (refresh suppression).
        self._domain_ranks: Dict[int, Tuple[int, ...]] = {
            d: tuple(sorted({
                rk for ch, rk, _ in partition.resources(d)
                if ch == channel
            }))
            for d in range(self.num_domains)
        }
        if self._refresh_on:
            if schedule.sharing is not SharingLevel.RANK:
                raise ValueError(
                    "deterministic refresh is only supported with rank "
                    "partitioning (a refresh blackout must map to whole "
                    "domains)"
                )
            self._refresh_residue = self._free_command_residue()
            self._next_ref_windows = [
                self.refresh.next_refresh(rk, 0)
                for rk in range(len(dram.channels[channel].ranks))
            ]
        self.stat_refreshes = 0

    # ------------------------------------------------------------------

    def _free_command_residues(self) -> List[int]:
        """Cycle residues (mod the slot gap) no FS command ever uses.

        Section 5.2 observes that the FS pipeline leaves fixed command-bus
        cycles idle ("the command bus is free to transmit the power-down
        signal in that cycle"); we use them to issue REFRESH and
        power-down/up commands without any possibility of a bus conflict.
        """
        l = self.schedule.slot_gap
        used = set()
        for rel in (self._rel_read, self._rel_write):
            used.add(rel.act % l)
            used.add(rel.col % l)
        return [r for r in range(l) if r not in used]

    def _free_command_residue(self) -> int:
        residues = self._free_command_residues()
        if not residues:
            raise RuntimeError(
                "no free command-bus residue: refresh cannot be "
                "scheduled deterministically for this pipeline"
            )
        return residues[0]

    def _refresh_blackout(self, rank: int, anchor: int) -> bool:
        """Is a slot anchored at ``anchor`` inside ``rank``'s refresh
        blackout?  Purely clock-driven, hence leakage-free.

        A slot is suppressed when a refresh window starts inside
        ``(anchor - guard_post, anchor + guard_pre]``: ``guard_pre``
        covers the slot's own tail (worst-case activate-to-precharge
        recovery plus the REF residue shift) and ``guard_post`` covers
        tRFC plus the slot's command lead.
        """
        p = self.params
        l = self.schedule.slot_gap
        guard_pre = p.write_turnaround_same_bank + l
        guard_post = p.tRFC + (-self._decision_lead) + l
        window = self.refresh.next_refresh(
            rank, max(0, anchor - guard_post + 1)
        )
        return window is not None and window.start <= anchor + guard_pre

    def _pump_refreshes(self, until: int) -> None:
        """Stage REF commands whose windows open before ``until``."""
        for rank in range(len(self._next_ref_windows)):
            while True:
                window = self._next_ref_windows[rank]
                if window.start > until:
                    break
                # Land on the schedule's free command-bus residue.
                l = self.schedule.slot_gap
                cycle = window.start
                shift = (
                    self._refresh_residue
                    - (cycle - self.schedule.lead)
                ) % l
                cycle += shift
                self._stage(cycle, CommandType.REFRESH, rank)
                self.stat_refreshes += 1
                self._next_ref_windows[rank] = self.refresh.next_refresh(
                    rank, window.start + 1
                )

    def _next_decision(self) -> int:
        interval, idx = divmod(self._next_slot, len(self._anchor_base))
        return (
            interval * self.schedule.interval_length
            + self._anchor_base[idx] + self._decision_lead
        )

    def _decide_next(self) -> int:
        g = self._next_slot
        nslots = len(self._anchor_base)
        interval, idx = divmod(g, nslots)
        base = interval * self.schedule.interval_length
        self._decide_slot(g, idx, base + self._anchor_base[idx])
        self._next_slot = g + 1
        idx += 1
        if idx == nslots:
            idx = 0
            base += self.schedule.interval_length
        return base + self._anchor_base[idx] + self._decision_lead

    def _times(self, anchor: int, is_read: bool) -> CommandTimes:
        rel = self._rel_read if is_read else self._rel_write
        return CommandTimes(
            anchor + rel.act, anchor + rel.col, anchor + rel.data
        )

    # ------------------------------------------------------------------
    # MemoryController interface.
    # ------------------------------------------------------------------

    def enqueue(self, request: Request) -> None:
        if request.address.channel != self.channel_id:
            raise ValueError("request routed to the wrong FS channel")
        if request.is_read:
            # Store-to-load bypass within the domain's own transaction
            # queue, "just as in a baseline transaction queue" (Section
            # 5.1).  Only the domain's own writes are visible — no
            # cross-domain state is consulted.
            for queued in self._queues[request.domain]:
                if not queued.is_read and queued.line == request.line \
                        and request.line is not None:
                    self._schedule_release(request, request.arrival + 1)
                    return
        if request.is_read and self.prefetch_buffers[
            request.domain
        ].hit(request.line):
            # The prefetcher must keep seeing the demand stream even
            # when its own prefetches absorb it, or streams die after
            # one queue depth.
            prefetcher = self.prefetchers.get(request.domain)
            if prefetcher is not None and request.line is not None:
                prefetcher.observe(request.line)
            self._schedule_release(
                request, request.arrival + self.PREFETCH_HIT_LATENCY
            )
            return
        self._queues[request.domain].append(request)
        if self.fault_injector is not None:
            # Transient queue-overflow faults are armed per actual
            # enqueue, i.e. per position in the domain's own stream.
            self.fault_injector.note_enqueue(
                request.domain, request.arrival
            )

    def pending(self, domain: Optional[int] = None) -> int:
        if domain is not None:
            return len(self._queues[domain])
        return sum(map(len, self._queues.values()))

    def can_accept(self, domain: int) -> bool:
        """Back-pressure is a pure function of the domain's own queue
        (and, under fault injection, of the domain's own fault schedule —
        a transient overflow shrinks only the faulted domain's capacity,
        stalling only the owning core)."""
        capacity = self.QUEUE_CAPACITY
        if self.fault_injector is not None:
            capacity = self.fault_injector.effective_capacity(
                domain, capacity
            )
        return len(self._queues[domain]) < capacity

    def busy(self) -> bool:
        """Outstanding *demand* work; dummy slots alone never count (the
        FS pipeline ticks forever, but there is nothing left to wait for)."""
        return bool(
            self._release_heap or any(self._queues.values())
        )

    def _work(self, until: int) -> None:
        if self._refresh_on:
            self._pump_refreshes(until + self.schedule.interval_length)
        super()._work(until)

    # ------------------------------------------------------------------
    # Slot decisions.
    # ------------------------------------------------------------------

    def _decide_slot(self, g: int, idx: int, anchor: int) -> None:
        """Fill global slot ``g`` (position ``idx`` of its interval).

        The slot gets, in order of preference: the first legal demand of
        the domain's queue, a prefetch, a power-down (energy option), a
        dummy, or a bubble.  Command times are computed at most once per
        direction and passed down.
        """
        domain = self._slot_domain[idx]
        decide_at = anchor + self._decision_lead
        if self._refresh_on and any(
            self._refresh_blackout(rk, anchor)
            for rk in self._domain_ranks[domain]
        ):
            self.stats.bubbles += 1
            self._trace(domain, anchor, "-")
            return
        if self.fault_injector is not None and self._fault_slot(
            g, idx, domain, anchor, decide_at
        ):
            return
        bank_mod = self._slot_bank_mod[idx]
        read_times = None
        queue = self._queues[domain]
        if queue:
            tracker = self._hazards[domain]
            write_times = None
            visible = False
            scanned = 0
            for i, request in enumerate(queue):
                if request.arrival > decide_at:
                    continue
                visible = True
                address = request.address
                if bank_mod is not None and address.bank % 3 != bank_mod:
                    # The class filter is a cheap tag compare ("scan a
                    # few bits in one queue", Section 5.1); it does not
                    # consume the hazard-check scan budget.
                    continue
                scanned += 1
                if scanned > self.SCAN_DEPTH:
                    break
                is_read = request.is_read
                if is_read:
                    if read_times is None:
                        read_times = self._times(anchor, True)
                    times = read_times
                else:
                    if write_times is None:
                        write_times = self._times(anchor, False)
                    times = write_times
                if tracker.legal(times, address, is_read):
                    del queue[i]
                    self._dispatch(
                        domain, anchor, times, address, is_read,
                        request.kind, request,
                    )
                    return
            if visible:
                self.stats.blocked_slots += 1
        if read_times is None:
            read_times = self._times(anchor, True)
        prefetcher = self.prefetchers.get(domain)
        if prefetcher is not None and self._dispatch_prefetch(
            prefetcher, domain, bank_mod, anchor, decide_at, read_times
        ):
            return
        if self.energy_options.power_down_idle and \
                self._try_power_down(domain, anchor):
            return
        self._fill_idle(domain, bank_mod, anchor, read_times)

    def _fill_idle(self, domain: int, bank_mod: Optional[int],
                   anchor: int, read_times: CommandTimes) -> None:
        """Fill a slot as if the domain's queue were empty: a dummy when
        one is legal, a bubble otherwise."""
        tracker = self._hazards[domain]
        for address in self._dummies[domain].candidates(bank_mod):
            if tracker.legal(read_times, address, True):
                self._dispatch(
                    domain, anchor, read_times, address, True,
                    RequestKind.DUMMY,
                )
                return
        self.stats.bubbles += 1
        self._trace(domain, anchor, "-")

    def _fault_slot(self, g: int, idx: int, domain: int, anchor: int,
                    decide_at: int) -> bool:
        """Apply the slot-level faults; True when one consumed the slot."""
        injector = self.fault_injector
        if injector.refresh_collision(domain, g):
            # A spurious refresh blackout: the slot becomes a bubble
            # (exactly what a real blackout produces) and the demand
            # stays queued for the domain's next slot.
            injector.record(
                FaultKind.REFRESH_COLLISION, domain, anchor,
                "spurious refresh blackout",
            )
            self.stats.faulted_slots += 1
            self.stats.bubbles += 1
            self._trace(domain, anchor, "-")
            return True
        if injector.delay_slot(domain, g):
            # Slot logic stalled for one slot: externally the slot looks
            # exactly like an empty-queue slot (dummy or bubble); the
            # demand is served at the domain's next slot, never a
            # borrowed one.
            injector.record(
                FaultKind.DELAY_SLOT, domain, anchor,
                "slot service delayed to next own slot",
            )
            self.stats.faulted_slots += 1
            self._fill_idle(
                domain, self._slot_bank_mod[idx], anchor,
                self._times(anchor, True),
            )
            return True
        return injector.borrow_foreign_slot(domain, g) and \
            self._borrow_foreign(domain, anchor, decide_at)

    def _borrow_foreign(
        self, domain: int, anchor: int, decide_at: int
    ) -> bool:
        """DELIBERATELY BROKEN recovery policy — test-only.

        Serves another domain's backlog inside this domain's slot.  This
        is precisely the recovery shortcut the paper's security argument
        forbids: the borrowed service lands at a foreign slot offset, so
        the borrowing is observable and re-opens the timing channel
        (Kadloor et al. make the same point for TDMA slot borrowing).
        It exists only so the test-suite can prove the online watchdog
        catches a broken recovery path the cycle it happens.
        """
        for other in range(self.num_domains):
            if other == domain:
                continue
            queue = self._queues[other]
            for i, request in enumerate(queue):
                if request.arrival > decide_at:
                    continue
                # Stay JEDEC-polite (the DRAM model would reject the
                # commands outright otherwise): the breakage here is the
                # *schedule* invariant, which only the watchdog sees.
                times = self._times(anchor, request.is_read)
                if not self._hazards[other].legal(
                    times, request.address, request.is_read
                ):
                    continue
                del queue[i]
                self.fault_injector.record(
                    FaultKind.BORROW_FOREIGN_SLOT, other, anchor,
                    f"served in domain {domain}'s slot",
                )
                self._dispatch(
                    other, anchor, times, request.address,
                    request.is_read, request.kind, request,
                )
                return True
        return False

    def _try_power_down(self, domain: int, anchor: int) -> bool:
        """Energy optimization 3 (Section 5.2): instead of a dummy,
        power the rank down for the rest of the interval and wake it up
        before the domain's next slot.

        The decision is a pure function of the domain's own queue (it is
        empty) and the clock, and the PDN/PUP commands land on
        command-bus residues the FS pipeline provably never uses —
        nothing observable changes for any other domain.
        """
        p = self.params
        l = self.schedule.slot_gap
        ranks = self._domain_ranks[domain]
        if len(ranks) != 1 or \
                self._slot_domain.count(domain) != 1:
            return False  # only the canonical one-rank/one-slot layout
        residues = self._free_command_residues()
        if len(residues) < 3:
            return False
        rank = ranks[0]
        next_anchor = anchor + self.schedule.interval_length
        if self._refresh_on:
            window = self.refresh.next_refresh(
                rank, max(0, anchor - p.tRFC - 64)
            )
            if window is not None and window.start < next_anchor + 64:
                return False  # never power down across a refresh window
        # Dedicated residues: residues[0] belongs to REF; PDN and PUP
        # each get their own so commands from different domains (whose
        # anchors all share the same residue) can never collide.
        pdn_residue, pup_residue = residues[1], residues[2]

        def on_residue(cycle: int, residue: int) -> bool:
            return (cycle - self.schedule.lead) % l == residue

        # Enter after this (empty) slot's span; exit with tXP headroom
        # before the next slot's earliest command.
        pdn = anchor + p.tBURST
        while not on_residue(pdn, pdn_residue):
            pdn += 1
        pup = next_anchor + self._decision_lead - p.tXP - 1
        while not on_residue(pup, pup_residue):
            pup -= 1
        if pup - pdn < p.tCKE + p.tXP:
            return False
        self._stage(pdn, CommandType.POWER_DOWN, rank)
        self._stage(pup, CommandType.POWER_UP, rank)
        self._trace(domain, anchor, "p")
        return True

    def _dispatch_prefetch(
        self, prefetcher, domain: int, bank_mod: Optional[int],
        anchor: int, decide_at: int, read_times: CommandTimes,
    ) -> bool:
        """Carry the first legal prefetch candidate in this slot."""
        tracker = self._hazards[domain]
        for line in prefetcher.claim_candidates():
            address = self.partition.decode(domain, line)
            if address.channel != self.channel_id:
                continue
            if bank_mod is not None and address.bank % 3 != bank_mod:
                continue
            if not tracker.legal(read_times, address, True):
                continue
            request = Request(
                op=OpType.READ,
                address=address,
                domain=domain,
                kind=RequestKind.PREFETCH,
                arrival=decide_at,
                line=line,
            )
            self._dispatch(
                domain, anchor, read_times, address, True,
                RequestKind.PREFETCH, request,
            )
            return True
        return False

    # ------------------------------------------------------------------
    # Dispatch.
    # ------------------------------------------------------------------

    def _dispatch(
        self,
        domain: int,
        anchor: int,
        times: CommandTimes,
        address: Address,
        is_read: bool,
        kind: RequestKind,
        request: Optional[Request] = None,
    ) -> None:
        """Serve one transaction at the slot anchored at ``anchor``.

        ``request`` is ``None`` for a dummy: nothing but its commands,
        the counters and the service trace ever sees one.
        """
        self._hazards[domain].commit(times, address, is_read)
        stats = self.stats
        injector = self.fault_injector
        if injector is not None and injector.drop_command(domain, anchor):
            # The transaction's commands are lost in transit.  Security-
            # preserving recovery: commit the hazards conservatively (the
            # controller cannot know the loss yet), keep the slot's
            # external appearance, and re-issue the transaction in the
            # SAME domain's next slot — never a borrowed foreign slot,
            # which would leak the fault to a co-runner.
            injector.record(
                FaultKind.DROP_COMMAND, domain, anchor,
                f"{kind.value} commands dropped; retrying next own slot",
            )
            stats.faulted_slots += 1
            if kind is RequestKind.DEMAND:
                self._queues[domain].insert(0, request)
            self._trace(domain, anchor, "F")
            return

        rank, bank, row = address.rank, address.bank, address.row
        last_row = self._last_row[domain]
        row_hit = last_row.get((rank, bank)) == row
        last_row[rank, bank] = row
        if row_hit and self.energy_options.boost_row_hits:
            self.adjustments.rowhit_saved_activates += 1
            stats.row_hit_boosts += 1

        if kind is RequestKind.DUMMY and \
                self.energy_options.suppress_dummies:
            stats.suppressed_dummies += 1
        else:
            req_id = -1 if request is None else request.req_id
            self._stage(times.act, CommandType.ACTIVATE, rank, bank, row,
                        req_id, domain)
            if injector is not None and injector.duplicate_command(
                domain, anchor
            ):
                # Fault model: the staging logic repeats the ACT; the
                # issue-path guard in _work squashes the copy before it
                # can reach the command bus.
                injector.record(
                    FaultKind.DUPLICATE_COMMAND, domain, anchor,
                    "ACT staged twice",
                )
                self._stage(times.act, CommandType.ACTIVATE, rank, bank,
                            row, req_id, domain)
            self._stage(
                times.col,
                CommandType.COL_READ_AP if is_read
                else CommandType.COL_WRITE_AP,
                rank, bank, row, req_id, domain,
            )

        if kind is RequestKind.DUMMY:
            stats.dummies += 1
            self._trace(domain, anchor, "D")
            return
        request.row_hit = row_hit
        request.issue = times.first
        request.data_start = times.data
        request.completion = times.data + self.params.tBURST
        if kind is RequestKind.PREFETCH:
            stats.prefetches += 1
            self._trace(domain, anchor, "P")
            self.prefetch_buffers[domain].fill(request.line)
            return
        if is_read:
            stats.demand_reads += 1
            self._trace(domain, anchor, "R")
            prefetcher = self.prefetchers.get(domain)
            if prefetcher is not None and request.line is not None:
                prefetcher.observe(request.line)
            self._schedule_release(request, request.completion)
        else:
            stats.demand_writes += 1
            self._trace(domain, anchor, "W")
