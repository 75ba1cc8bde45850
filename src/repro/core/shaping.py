"""Per-domain request shaping helpers (Section 3 / Section 5.2).

The FS controller shapes every security domain to one fixed-footprint
memory access per slot.  The pieces here are deliberately *per-domain
only*: every decision they make depends exclusively on the domain's own
history, which is what makes the controller non-interfering by
construction.

* :class:`DomainHazardTracker` — tracks the domain's own recent commands
  so intra-domain DRAM hazards (the Section-7 "two back-to-back
  transactions to the same rank need 43 cycles" problem at low thread
  counts) can be detected before dispatch.  Cross-domain hazards never
  need checking: the pipeline solver proved the timetable free of them.
* :class:`DummyGenerator` — deterministic dummy-address stream confined
  to the domain's partition (and, under triple alternation, to the slot's
  ``bank % 3`` class).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..dram.commands import Address
from ..dram.timing import TimingParams
from ..mapping.partition import PartitionPolicy
from .schedule import CommandTimes


class DomainHazardTracker:
    """The domain's own command history, for self-hazard checks.

    ``legal`` answers: if this domain dispatches a transaction with the
    given command times, do any of *its own* earlier commands forbid it?
    ``commit`` records a dispatched transaction.  Every bound a later
    check needs is a function of the committed history alone, so
    ``commit`` folds it into ready cycles once and ``legal`` is a few
    comparisons.
    """

    def __init__(self, params: TimingParams) -> None:
        self.params = params
        #: (rank, bank) -> earliest legal ACT: tRC after the last
        #: activate and tRP after its (auto-)precharge completes.
        self._bank_ready: Dict[Tuple[int, int], int] = {}
        #: rank -> recent activate cycles (tFAW window)
        self._rank_acts: Dict[int, Deque[int]] = {}
        #: rank -> (earliest ACT under tRRD/tFAW, earliest read column,
        #: earliest write column) after the last committed transaction.
        self._rank_ready: Dict[int, Tuple[int, int, int]] = {}

    def legal(
        self, times: CommandTimes, address: Address, is_read: bool
    ) -> bool:
        bank_ready = self._bank_ready.get((address.rank, address.bank))
        if bank_ready is not None and times.act < bank_ready:
            return False
        ready = self._rank_ready.get(address.rank)
        if ready is None:
            return True
        return times.act >= ready[0] and (
            times.col >= (ready[1] if is_read else ready[2])
        )

    def commit(
        self, times: CommandTimes, address: Address, is_read: bool
    ) -> None:
        p = self.params
        act, col = times.act, times.col
        if is_read:
            pre_at = col + p.tRTP
        else:
            pre_at = col + p.tCWD + p.tBURST + p.tWR
        if pre_at < act + p.tRAS:
            pre_at = act + p.tRAS
        ready = act + p.tRC
        if pre_at + p.tRP > ready:
            ready = pre_at + p.tRP
        self._bank_ready[address.rank, address.bank] = ready
        acts = self._rank_acts.get(address.rank)
        if acts is None:
            acts = self._rank_acts[address.rank] = deque(maxlen=4)
        acts.append(act)
        act_ready = act + p.tRRD
        if len(acts) == 4 and acts[0] + p.tFAW > act_ready:
            act_ready = acts[0] + p.tFAW
        if is_read:
            self._rank_ready[address.rank] = (
                act_ready, col + p.tCCD, col + p.read_to_write
            )
        else:
            self._rank_ready[address.rank] = (
                act_ready, col + p.write_to_read, col + p.tCCD
            )


class DummyGenerator:
    """Deterministic per-domain dummy requests (Section 5.2).

    Banks rotate round-robin through the domain's partition resources and
    rows follow a xorshift stream seeded only by the domain id, so the
    dummy pattern is a pure function of the domain — never of co-runners.
    """

    def __init__(
        self,
        domain: int,
        partition: PartitionPolicy,
        channel: int = 0,
        rows: int = 65536,
    ) -> None:
        resources = [
            r for r in partition.resources(domain) if r[0] == channel
        ]
        if not resources:
            raise ValueError(
                f"domain {domain} owns no resources on channel {channel}"
            )
        self.domain = domain
        self._resources = resources
        self._rows = rows
        self._cursor = 0
        self._state = (domain * 2654435761 + 0x9E3779B9) & 0xFFFFFFFF

    def _next_row(self) -> int:
        x = self._state
        x ^= (x << 13) & 0xFFFFFFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFFFFFF
        self._state = x
        return x % self._rows

    def candidates(
        self, bank_mod: Optional[int] = None, limit: int = 8
    ) -> List[Address]:
        """Up to ``limit`` dummy addresses, rotating over allowed banks."""
        allowed = [
            (ch, rk, bk)
            for ch, rk, bk in self._resources
            if bank_mod is None or bk % 3 == bank_mod
        ]
        if not allowed:
            return []
        out: List[Address] = []
        row = self._next_row()
        for i in range(min(limit, len(allowed))):
            ch, rk, bk = allowed[(self._cursor + i) % len(allowed)]
            out.append(Address(ch, rk, bk, row, 0))
        self._cursor = (self._cursor + 1) % len(allowed)
        return out
