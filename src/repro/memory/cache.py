"""Set-associative cache model with LRU replacement and WT/WB policies.

This is the detailed cache used by the cycle-level simulator
(:mod:`repro.cpu.ooo`).  It models tag arrays, true LRU within each set,
write-through vs write-back policies, write-allocate fills and dirty
writebacks, and collects hit/miss/traffic statistics.

Full-design-space studies do not simulate caches directly — they use the
stack-distance profile (:mod:`repro.memory.stackdist`) — but the two models
are validated against each other in the test suite.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Set


@dataclass
class AccessResult:
    """Outcome of a single cache access.

    Attributes
    ----------
    hit:
        Whether the block was present.
    fill:
        Whether a block was fetched from the next level.
    writeback:
        Whether a dirty block was evicted (WB caches only).
    write_through:
        Whether the write was forwarded to the next level (WT caches).
    """

    hit: bool
    fill: bool = False
    writeback: bool = False
    write_through: bool = False
    #: byte address of the evicted dirty block when ``writeback`` is True
    victim_addr: int = -1


@dataclass
class CacheStats:
    """Aggregate cache statistics."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    writebacks: int = 0
    write_throughs: int = 0
    cold_misses: int = 0

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def hit_ratio(self) -> float:
        return 1.0 - self.miss_ratio if self.accesses else 0.0


def _check_power_of_two(value: int, what: str) -> None:
    if value <= 0 or value & (value - 1):
        raise ValueError(f"{what} must be a positive power of two, got {value}")


class Cache:
    """A set-associative LRU cache.

    Parameters
    ----------
    size_bytes:
        Total capacity.
    block_bytes:
        Cache block (line) size.
    associativity:
        Number of ways; the resulting number of sets must be a power of two.
    write_policy:
        ``"WB"`` (write-back, write-allocate) or ``"WT"`` (write-through,
        no-write-allocate) — the two policies in Table 4.1.
    name:
        Label used in statistics reporting.
    """

    WRITE_POLICIES = ("WB", "WT")

    def __init__(
        self,
        size_bytes: int,
        block_bytes: int,
        associativity: int,
        write_policy: str = "WB",
        name: str = "cache",
    ):
        _check_power_of_two(size_bytes, "cache size")
        _check_power_of_two(block_bytes, "block size")
        if associativity <= 0:
            raise ValueError(f"associativity must be positive, got {associativity}")
        if write_policy not in self.WRITE_POLICIES:
            raise ValueError(
                f"write policy must be one of {self.WRITE_POLICIES}, "
                f"got {write_policy!r}"
            )
        blocks = size_bytes // block_bytes
        if blocks < associativity:
            raise ValueError(
                f"cache of {size_bytes}B with {block_bytes}B blocks has only "
                f"{blocks} blocks, fewer than associativity {associativity}"
            )
        n_sets = blocks // associativity
        _check_power_of_two(n_sets, "number of sets")

        self.name = name
        self.size_bytes = size_bytes
        self.block_bytes = block_bytes
        self.associativity = associativity
        self.write_policy = write_policy
        self.n_sets = n_sets
        self._block_shift = block_bytes.bit_length() - 1
        self._set_mask = n_sets - 1
        # per set: resident tag -> dirty flag, least recently used first
        # (the representation of the LRU loop of repro.memory.policies,
        # which keys each set by block address instead of tag)
        self._lines: List["OrderedDict[int, bool]"] = [
            OrderedDict() for _ in range(n_sets)
        ]
        self._seen: Set[int] = set()
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def access(self, addr: int, is_write: bool = False) -> AccessResult:
        """Perform one access; updates LRU state and statistics."""
        tag = int(addr) >> self._block_shift
        lines = self._lines[tag & self._set_mask]
        self.stats.accesses += 1

        if tag in lines:
            lines.move_to_end(tag)
            self.stats.hits += 1
            if is_write:
                if self.write_policy == "WB":
                    lines[tag] = True
                    return AccessResult(hit=True)
                self.stats.write_throughs += 1
                return AccessResult(hit=True, write_through=True)
            return AccessResult(hit=True)

        self.stats.misses += 1
        if tag not in self._seen:
            self.stats.cold_misses += 1
            self._seen.add(tag)

        if is_write and self.write_policy == "WT":
            # no-write-allocate: forward the write without filling
            self.stats.write_throughs += 1
            return AccessResult(hit=False, fill=False, write_through=True)

        writeback = False
        victim_addr = -1
        if len(lines) >= self.associativity:
            victim, victim_dirty = lines.popitem(last=False)
            if victim_dirty:
                self.stats.writebacks += 1
                writeback = True
                victim_addr = victim << self._block_shift
        lines[tag] = bool(is_write and self.write_policy == "WB")
        return AccessResult(
            hit=False, fill=True, writeback=writeback, victim_addr=victim_addr
        )

    def contains(self, addr: int) -> bool:
        """Whether ``addr``'s block is resident (no LRU update)."""
        block = int(addr) >> self._block_shift
        return block in self._lines[block & self._set_mask]

    def flush(self) -> int:
        """Evict everything; returns the number of dirty blocks written back."""
        dirty_count = 0
        for lines in self._lines:
            dirty_count += sum(lines.values())
            lines.clear()
        self.stats.writebacks += dirty_count
        return dirty_count

    def reset_stats(self) -> None:
        """Zero the statistics (contents are kept)."""
        self.stats = CacheStats()
        self._seen.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cache({self.name!r}, {self.size_bytes // 1024}KB, "
            f"{self.block_bytes}B blocks, {self.associativity}-way, "
            f"{self.write_policy})"
        )
