"""FS with reordered bank partitioning (Section 4.2).

All domains inject one transaction at the start of each interval; the
controller issues every read first, then every write, with a uniform
6-cycle data pitch and a single write-to-read tail before the next
interval — nearly doubling bus utilization over the basic bank-partitioned
pipeline (Q = 63 vs 120 for eight domains).

Re-ordering reads before writes would leak the read/write mix of
co-runners through read latencies, so read results are *released en masse*
at the end of the interval: a domain's observable timing depends only on
which interval its request was served in, which in turn depends only on
its own queue.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..dram.commands import CommandType, Request, RequestKind
from ..dram.system import DramSystem
from ..faults import FaultInjector, FaultKind
from ..mapping.partition import PartitionPolicy
from .energy_opts import EnergyAdjustments, FsEnergyOptions
from .fs_controller import StagedIssueController
from .schedule import CommandTimes, ReorderedBpGeometry, \
    build_reordered_bp_geometry
from .shaping import DomainHazardTracker, DummyGenerator


class ReorderedBpController(StagedIssueController):
    """Interval-batched FS: reads first, writes after, en-masse release."""

    SCAN_DEPTH = 8

    def __init__(
        self,
        dram: DramSystem,
        partition: PartitionPolicy,
        num_domains: int,
        geometry: Optional[ReorderedBpGeometry] = None,
        channel: int = 0,
        energy_options: FsEnergyOptions = None,
        log_commands: bool = False,
        fault_injector: Optional[FaultInjector] = None,
    ) -> None:
        super().__init__(dram, num_domains, log_commands)
        self.partition = partition
        self.channel_id = channel
        self.geometry = geometry or build_reordered_bp_geometry(
            dram.params, num_domains
        )
        if self.geometry.num_domains != num_domains:
            raise ValueError("geometry domain count mismatch")
        self.energy_options = energy_options or FsEnergyOptions.none()
        self.adjustments = EnergyAdjustments()
        self._queues: Dict[int, List[Request]] = {
            d: [] for d in range(num_domains)
        }
        self._hazards: Dict[int, DomainHazardTracker] = {
            d: DomainHazardTracker(dram.params) for d in range(num_domains)
        }
        self._dummies: Dict[int, DummyGenerator] = {
            d: DummyGenerator(d, partition, channel)
            for d in range(num_domains)
        }
        self._next_interval = 0
        self.fault_injector = fault_injector
        p = dram.params
        # The earliest command of an interval precedes its first data
        # burst by tRCD + tCAS (a read activate).
        self._lead = p.tRCD + max(p.tCAS, p.tCWD)
        #: Data-burst offset of each position within an interval.
        self._data_offsets = [
            self.geometry.data_offset(i) for i in range(num_domains)
        ]
        #: Position-independent hazard anchor: the interval's last slot.
        self._last_offset = self._data_offsets[-1]

    # ------------------------------------------------------------------

    def interval_start(self, index: int) -> int:
        """Cycle of the interval's first data burst."""
        return self._lead + index * self.geometry.interval_length

    def _next_decision(self) -> int:
        return self.interval_start(self._next_interval) - self._lead

    def _decide_next(self) -> int:
        self._decide_interval(self._next_interval)
        self._next_interval += 1
        return self._next_decision()

    # ------------------------------------------------------------------

    def enqueue(self, request: Request) -> None:
        if request.address.channel != self.channel_id:
            raise ValueError("request routed to the wrong FS channel")
        self._queues[request.domain].append(request)
        if self.fault_injector is not None:
            self.fault_injector.note_enqueue(
                request.domain, request.arrival
            )

    def pending(self, domain: Optional[int] = None) -> int:
        if domain is not None:
            return len(self._queues[domain])
        return sum(map(len, self._queues.values()))

    def busy(self) -> bool:
        """Outstanding *demand* work; dummy intervals alone do not count."""
        return bool(
            self._release_heap or any(self._queues.values())
        )

    # ------------------------------------------------------------------

    def _decide_interval(self, index: int) -> None:
        """Pick one transaction per domain, then dispatch every read
        before every write.  Each distinct command time is computed once
        and passed down."""
        start = self.interval_start(index)
        decide_at = start - self._lead
        last_slot = start + self._last_offset
        release_at = last_slot + self.params.tBURST
        # Hazard checks use the worst-case placement for the domain's
        # own history: the earliest slot of this interval.
        check = (self._times(start, False), self._times(start, True))
        reads: List[Tuple] = []
        writes: List[Tuple] = []
        for domain in range(self.num_domains):
            pick = self._pick(domain, start, decide_at, index, check)
            if pick is None:
                self.stats.bubbles += 1
                self._trace(domain, start, "-")
            elif pick[1]:
                reads.append(pick)
            else:
                writes.append(pick)
        # Reads first, then writes; domain order within each group.
        # SECURITY: the hazard tracker must never learn a transaction's
        # slot *position* — positions depend on co-runners' read/write
        # mix — so every commit uses the position-independent worst case
        # (the interval's last slot), a pure function of the domain's
        # own stream.
        commit = (self._times(last_slot, False),
                  self._times(last_slot, True))
        offsets = self._data_offsets
        for position, pick in enumerate(reads + writes):
            is_read = pick[1]
            self._dispatch(
                pick, self._times(start + offsets[position], is_read),
                commit[is_read], release_at,
            )

    def _pick(
        self, domain: int, start: int, decide_at: int,
        interval_index: int, check: Tuple[CommandTimes, CommandTimes],
    ) -> Optional[Tuple]:
        """The domain's transaction for this interval as ``(domain,
        is_read, address, request)``, ``request`` being ``None`` for a
        dummy; ``None`` for a bubble."""
        tracker = self._hazards[domain]
        injector = self.fault_injector
        delayed = injector is not None and injector.delay_slot(
            domain, interval_index
        )
        if delayed:
            # Interval logic stalled for this domain: its demand waits
            # for the domain's next interval; the interval is filled
            # exactly like an empty-queue one (dummy below).
            injector.record(
                FaultKind.DELAY_SLOT, domain, start,
                "interval service delayed to next interval",
            )
            self.stats.faulted_slots += 1
        else:
            queue = self._queues[domain]
            scanned = 0
            for i, request in enumerate(queue):
                if request.arrival > decide_at:
                    continue
                scanned += 1
                if scanned > self.SCAN_DEPTH:
                    break
                is_read = request.is_read
                if tracker.legal(check[is_read], request.address, is_read):
                    del queue[i]
                    return (domain, is_read, request.address, request)
        for address in self._dummies[domain].candidates():
            if tracker.legal(check[True], address, True):
                return (domain, True, address, None)
        return None

    def _times(self, data_at: int, is_read: bool) -> CommandTimes:
        p = self.params
        col = data_at - (p.tCAS if is_read else p.tCWD)
        return CommandTimes(col - p.tRCD, col, data_at)

    def _dispatch(
        self,
        pick: Tuple,
        times: CommandTimes,
        commit_times: CommandTimes,
        release_at: int,
    ) -> None:
        domain, is_read, addr, request = pick
        kind = RequestKind.DUMMY if request is None else request.kind
        self._hazards[domain].commit(commit_times, addr, is_read)
        injector = self.fault_injector
        # SECURITY: the fault key must be position-independent too —
        # ``times.data`` encodes the slot position (which depends on the
        # co-runners' read/write mix), so keying the drop on it would
        # let a co-runner modulate the victim's fault schedule.  Key on
        # the interval's release point instead: a pure function of the
        # interval index.
        if injector is not None and injector.drop_command(
            domain, release_at
        ):
            # Commands lost in transit: hazards stay committed
            # (conservative), the observable stays the interval-granular
            # trace event, and the demand is re-issued in the SAME
            # domain's next interval.
            injector.record(
                FaultKind.DROP_COMMAND, domain, times.data,
                f"{kind.value} commands dropped; "
                f"retrying next interval",
            )
            self.stats.faulted_slots += 1
            if kind is RequestKind.DEMAND:
                self._queues[domain].insert(0, request)
            self._trace(domain, release_at, "F")
            return
        if kind is RequestKind.DUMMY and \
                self.energy_options.suppress_dummies:
            self.stats.suppressed_dummies += 1
        else:
            req_id = -1 if request is None else request.req_id
            self._stage(times.act, CommandType.ACTIVATE, addr.rank,
                        addr.bank, addr.row, req_id, domain)
            self._stage(
                times.col,
                CommandType.COL_READ_AP if is_read
                else CommandType.COL_WRITE_AP,
                addr.rank, addr.bank, addr.row, req_id, domain,
            )
        # The trace records the *interval*, not the slot position: slot
        # positions depend on co-runners' read/write mix, intervals do not.
        if request is None:
            self.stats.dummies += 1
            self._trace(domain, release_at, "D")
            return
        request.issue = times.first
        request.data_start = times.data
        request.completion = times.data + self.params.tBURST
        self.stats.record_service(request)
        if kind is RequestKind.DEMAND:
            self._trace(domain, release_at, "R" if is_read else "W")
            if is_read:
                self._schedule_release(request, release_at)
        else:
            self._trace(domain, release_at, "P")
