"""Spatial partitioning policies (Section 4 of the paper).

A partition policy plays the role of the OS/hypervisor page-coloring
component: it owns the mapping from a security domain's *private* line
address space onto the physical DRAM resources that domain is allowed to
touch.  Four levels are modelled:

* :class:`ChannelPartition` — domain -> channel(s); no shared resources.
* :class:`RankPartition` — domain -> rank(s); channel buses shared.
* :class:`BankPartition` — domain -> disjoint banks; ranks shared.
* :class:`NoPartition` — everything shared.

Every policy exposes ``decode(domain, line)`` returning a physical
:class:`~repro.dram.commands.Address` inside the domain's allocation, plus
introspection helpers the FS schedulers use to build their pipelines.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Sequence, Tuple

from ..dram.commands import Address
from .address import AddressMapper, Geometry


def interleave_decode(
    resources: Sequence[Tuple[int, int, int]],
    geometry: Geometry,
    line: int,
) -> Address:
    """Map a domain-local line onto a resource list, row-interleaved.

    Consecutive lines stay in the same DRAM row (preserving row-buffer
    locality) while successive rows rotate across the domain's banks and
    ranks — the page-coloring layout an OS would actually use, and the
    one that preserves bank-level parallelism inside a partition.
    """
    if not resources:
        raise ValueError("cannot decode into an empty resource list")
    cols = geometry.columns
    n = len(resources)
    line %= n * geometry.rows * cols
    column = line % cols
    chunk = line // cols
    channel, rank, bank = resources[chunk % n]
    row = (chunk // n) % geometry.rows
    return Address(channel, rank, bank, row, column)


class PartitionPolicy(abc.ABC):
    """Maps (domain, domain-local line address) -> physical address."""

    def __init__(self, geometry: Geometry, num_domains: int) -> None:
        if num_domains < 1:
            raise ValueError("need at least one domain")
        self.geometry = geometry
        self.num_domains = num_domains

    @abc.abstractmethod
    def decode(self, domain: int, line: int) -> Address:
        """Physical address for the domain-local ``line``."""

    @abc.abstractmethod
    def resources(self, domain: int) -> List[Tuple[int, int, int]]:
        """(channel, rank, bank) triples the domain may touch."""

    @property
    @abc.abstractmethod
    def level(self) -> str:
        """'channel' | 'rank' | 'bank' | 'none'."""

    def domains_share_rank(self) -> bool:
        """Do two different domains ever touch the same rank?"""
        seen: Dict[Tuple[int, int], int] = {}
        for d in range(self.num_domains):
            for ch, rk, _ in self.resources(d):
                owner = seen.setdefault((ch, rk), d)
                if owner != d:
                    return True
        return False

    def domains_share_bank(self) -> bool:
        """Do two different domains ever touch the same bank?"""
        seen: Dict[Tuple[int, int, int], int] = {}
        for d in range(self.num_domains):
            for key in self.resources(d):
                owner = seen.setdefault(key, d)
                if owner != d:
                    return True
        return False

    def _check_domain(self, domain: int) -> None:
        if not 0 <= domain < self.num_domains:
            raise ValueError(f"domain {domain} out of range")


class ChannelPartition(PartitionPolicy):
    """Each domain owns ``channels / num_domains`` whole channels."""

    def __init__(self, geometry: Geometry, num_domains: int) -> None:
        super().__init__(geometry, num_domains)
        if geometry.channels < num_domains:
            raise ValueError(
                "channel partitioning needs at least one channel per domain"
            )
        self._per_domain = geometry.channels // num_domains
        self._resources = [
            tuple(
                (ch, rk, bk)
                for ch in self.channels_of(d)
                for rk in range(geometry.ranks)
                for bk in range(geometry.banks)
            )
            for d in range(num_domains)
        ]

    @property
    def level(self) -> str:
        return "channel"

    def channels_of(self, domain: int) -> List[int]:
        self._check_domain(domain)
        start = domain * self._per_domain
        return list(range(start, start + self._per_domain))

    def decode(self, domain: int, line: int) -> Address:
        self._check_domain(domain)
        return interleave_decode(
            self._resources[domain], self.geometry, line
        )

    def resources(self, domain: int) -> List[Tuple[int, int, int]]:
        self._check_domain(domain)
        return list(self._resources[domain])


class RankPartition(PartitionPolicy):
    """Each domain owns one or more whole ranks (round-robin assignment).

    With N domains over C*R ranks, domain ``d`` owns ranks
    ``{d, d+N, d+2N, ...}`` in channel-major numbering; the common 8-thread
    / 1-channel / 8-rank configuration gives exactly one rank per domain,
    the Figure-1 setup.
    """

    def __init__(self, geometry: Geometry, num_domains: int) -> None:
        super().__init__(geometry, num_domains)
        total_ranks = geometry.channels * geometry.ranks
        if total_ranks < num_domains:
            raise ValueError(
                "rank partitioning needs at least one rank per domain"
            )
        self._assignment: Dict[int, List[Tuple[int, int]]] = {
            d: [] for d in range(num_domains)
        }
        for idx in range(total_ranks):
            ch, rk = divmod(idx, geometry.ranks)
            self._assignment[idx % num_domains].append((ch, rk))
        self._resources = [
            tuple(
                (ch, rk, bk)
                for ch, rk in self._assignment[d]
                for bk in range(geometry.banks)
            )
            for d in range(num_domains)
        ]

    @property
    def level(self) -> str:
        return "rank"

    def ranks_of(self, domain: int) -> List[Tuple[int, int]]:
        self._check_domain(domain)
        return list(self._assignment[domain])

    def decode(self, domain: int, line: int) -> Address:
        self._check_domain(domain)
        return interleave_decode(
            self._resources[domain], self.geometry, line
        )

    def resources(self, domain: int) -> List[Tuple[int, int, int]]:
        self._check_domain(domain)
        return list(self._resources[domain])


class BankPartition(PartitionPolicy):
    """Each domain owns a disjoint set of banks spread across all ranks.

    Domain ``d`` owns bank ``b`` of rank ``r`` whenever
    ``(r * banks + b) % num_domains == d``; with 8 domains over 8x8
    banks each domain gets one bank in every rank, so its accesses spread
    across ranks while banks are never shared — the Section 4.2 setup.
    """

    def __init__(self, geometry: Geometry, num_domains: int) -> None:
        super().__init__(geometry, num_domains)
        total_banks = geometry.channels * geometry.ranks * geometry.banks
        if total_banks < num_domains:
            raise ValueError(
                "bank partitioning needs at least one bank per domain"
            )
        self._assignment: Dict[int, List[Tuple[int, int, int]]] = {
            d: [] for d in range(num_domains)
        }
        for idx in range(total_banks):
            ch, rest = divmod(idx, geometry.ranks * geometry.banks)
            rk, bk = divmod(rest, geometry.banks)
            self._assignment[idx % num_domains].append((ch, rk, bk))

    @property
    def level(self) -> str:
        return "bank"

    def banks_of(self, domain: int) -> List[Tuple[int, int, int]]:
        self._check_domain(domain)
        return list(self._assignment[domain])

    def decode(self, domain: int, line: int) -> Address:
        self._check_domain(domain)
        return interleave_decode(
            self._assignment[domain], self.geometry, line
        )

    def resources(self, domain: int) -> List[Tuple[int, int, int]]:
        return self.banks_of(domain)


class NoPartition(PartitionPolicy):
    """All domains interleave over the whole memory system.

    Virtual-to-physical translation is modelled: the OS hands out 4 KB
    physical pages in effectively random order, so a domain-sequential
    stream scatters across banks at page granularity (``page_scatter``).
    This matches the full-system environment the paper measured in; a
    physically-contiguous layout is available for experiments by passing
    ``page_scatter=False``.
    """

    #: Cache lines per OS page (4 KB pages of 64 B lines).
    LINES_PER_PAGE = 64

    def __init__(
        self,
        geometry: Geometry,
        num_domains: int,
        mapper: AddressMapper = None,
        page_scatter: bool = True,
    ) -> None:
        super().__init__(geometry, num_domains)
        self.mapper = mapper or AddressMapper(geometry)
        self.page_scatter = page_scatter

    @property
    def level(self) -> str:
        return "none"

    def decode(self, domain: int, line: int) -> Address:
        self._check_domain(domain)
        # Offset domains so identical local streams do not alias to the
        # same physical lines (they still share banks freely).
        stride = self.geometry.lines_total // max(1, self.num_domains)
        if self.page_scatter:
            page, offset = divmod(line, self.LINES_PER_PAGE)
            # Deterministic pseudo-random page frame (a Weyl/odd-multiplier
            # permutation keeps distinct pages distinct).
            frame = (page * 0x9E3779B1 + domain * 0x85EBCA6B) & 0x7FFFFFFF
            line = frame * self.LINES_PER_PAGE + offset
        return self.mapper.decode(line + domain * stride)

    def resources(self, domain: int) -> List[Tuple[int, int, int]]:
        self._check_domain(domain)
        return [
            (ch, rk, bk)
            for ch in range(self.geometry.channels)
            for rk in range(self.geometry.ranks)
            for bk in range(self.geometry.banks)
        ]


def make_partition(
    level: str, geometry: Geometry, num_domains: int
) -> PartitionPolicy:
    """Factory keyed by partitioning level name."""
    policies = {
        "channel": ChannelPartition,
        "rank": RankPartition,
        "bank": BankPartition,
        "none": NoPartition,
    }
    try:
        cls = policies[level]
    except KeyError:
        raise ValueError(
            f"unknown partition level {level!r}; "
            f"expected one of {sorted(policies)}"
        ) from None
    return cls(geometry, num_domains)
