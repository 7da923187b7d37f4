"""Per-set replacement-policy classes: the differential reference for the
flat loops of :mod:`repro.memory.policies`.

:func:`~repro.memory.policies.simulate_policy` runs every policy as one
loop over the whole block stream, with each set's state kept inline.
:func:`reference_simulate_policy` here splits the stream by set first
and steps one state-machine object per set through its ``access``
method instead, and the tests assert that both give the same hit rate.
The ``policy_sim`` section of ``benchmarks/test_bench_kernels.py``
times the two against each other.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, Tuple

import numpy as np

from repro.memory.policies import ORACLE_POLICY, _validate_geometry


class LRUSet:
    """Least-recently-used: hits refresh recency, misses evict the LRU way."""

    def __init__(self, n_ways: int):
        self.n_ways = n_ways
        self.lines: "OrderedDict[int, None]" = OrderedDict()

    def access(self, tag: int) -> bool:
        lines = self.lines
        if tag in lines:
            lines.move_to_end(tag)
            return True
        if len(lines) >= self.n_ways:
            lines.popitem(last=False)
        lines[tag] = None
        return False


class FIFOSet:
    """First-in-first-out: hits do not refresh the eviction order."""

    def __init__(self, n_ways: int):
        self.n_ways = n_ways
        self.lines: "OrderedDict[int, None]" = OrderedDict()

    def access(self, tag: int) -> bool:
        lines = self.lines
        if tag in lines:
            return True
        if len(lines) >= self.n_ways:
            lines.popitem(last=False)
        lines[tag] = None
        return False


class LFUSet:
    """Least-frequently-used with FIFO tie-breaking among equal counts."""

    def __init__(self, n_ways: int):
        self.n_ways = n_ways
        self.freq: Dict[int, int] = {}
        self.order: Dict[int, int] = {}
        self._clock = 0

    def access(self, tag: int) -> bool:
        if tag in self.freq:
            self.freq[tag] += 1
            return True
        if len(self.freq) >= self.n_ways:
            victim = min(
                self.freq, key=lambda t: (self.freq[t], self.order[t])
            )
            del self.freq[victim]
            del self.order[victim]
        self.freq[tag] = 1
        self.order[tag] = self._clock
        self._clock += 1
        return False


class TwoQSet:
    """Simplified 2Q: a FIFO probation queue in front of an LRU main cache.

    New blocks enter the ``A1in`` FIFO; blocks evicted from it leave a
    ghost entry in ``A1out``.  A miss whose tag is remembered by the
    ghost queue is promoted straight into the LRU-managed ``Am``.
    """

    def __init__(self, n_ways: int):
        self.n_ways = n_ways
        self.kin = max(1, n_ways // 4)
        self.kout = max(1, n_ways // 2)
        self.a1in: "OrderedDict[int, None]" = OrderedDict()
        self.a1out: "OrderedDict[int, None]" = OrderedDict()
        self.am: "OrderedDict[int, None]" = OrderedDict()

    def _reclaim(self) -> None:
        if len(self.a1in) + len(self.am) < self.n_ways:
            return
        if self.a1in and (len(self.a1in) > self.kin or not self.am):
            victim, _ = self.a1in.popitem(last=False)
            self.a1out[victim] = None
            if len(self.a1out) > self.kout:
                self.a1out.popitem(last=False)
        else:
            self.am.popitem(last=False)

    def access(self, tag: int) -> bool:
        if tag in self.am:
            self.am.move_to_end(tag)
            return True
        if tag in self.a1in:
            return True
        self._reclaim()
        if tag in self.a1out:
            del self.a1out[tag]
            self.am[tag] = None
        else:
            self.a1in[tag] = None
        return False


class ARCSet:
    """Adaptive Replacement Cache (Megiddo & Modha, FAST'03).

    Two resident LRU lists — ``t1`` (seen once) and ``t2`` (seen at
    least twice) — plus ghost lists ``b1``/``b2`` of recently evicted
    tags.  Ghost hits steer the adaptation target ``p``: hits in ``b1``
    grow the recency list, hits in ``b2`` grow the frequency list.
    """

    def __init__(self, n_ways: int):
        self.c = n_ways
        self.p = 0.0
        self.t1: "OrderedDict[int, None]" = OrderedDict()
        self.t2: "OrderedDict[int, None]" = OrderedDict()
        self.b1: "OrderedDict[int, None]" = OrderedDict()
        self.b2: "OrderedDict[int, None]" = OrderedDict()

    def _replace(self, in_b2: bool) -> None:
        if self.t1 and (
            len(self.t1) > self.p
            or (in_b2 and len(self.t1) == int(self.p))
        ):
            victim, _ = self.t1.popitem(last=False)
            self.b1[victim] = None
        elif self.t2:
            victim, _ = self.t2.popitem(last=False)
            self.b2[victim] = None
        elif self.t1:
            victim, _ = self.t1.popitem(last=False)
            self.b1[victim] = None

    def access(self, tag: int) -> bool:
        if tag in self.t1:
            del self.t1[tag]
            self.t2[tag] = None
            return True
        if tag in self.t2:
            self.t2.move_to_end(tag)
            return True
        if tag in self.b1:
            self.p = min(
                float(self.c),
                self.p + max(1.0, len(self.b2) / max(1, len(self.b1))),
            )
            self._replace(in_b2=False)
            del self.b1[tag]
            self.t2[tag] = None
            return False
        if tag in self.b2:
            self.p = max(
                0.0,
                self.p - max(1.0, len(self.b1) / max(1, len(self.b2))),
            )
            self._replace(in_b2=True)
            del self.b2[tag]
            self.t2[tag] = None
            return False
        # full miss
        if len(self.t1) + len(self.b1) == self.c:
            if len(self.t1) < self.c:
                self.b1.popitem(last=False)
                self._replace(in_b2=False)
            else:
                self.t1.popitem(last=False)
        elif len(self.t1) + len(self.t2) + len(self.b1) + len(self.b2) >= self.c:
            if (
                len(self.t1) + len(self.t2) + len(self.b1) + len(self.b2)
                >= 2 * self.c
            ):
                if self.b2:
                    self.b2.popitem(last=False)
                elif self.b1:
                    self.b1.popitem(last=False)
            self._replace(in_b2=False)
        self.t1[tag] = None
        return False


POLICY_SETS = {
    "lru": LRUSet,
    "fifo": FIFOSet,
    "lfu": LFUSet,
    "2q": TwoQSet,
    "arc": ARCSet,
}


def split_by_set(
    blocks: np.ndarray, n_sets: int
) -> Iterable[Tuple[int, np.ndarray]]:
    """Yield ``(set_index, tag_stream)`` for each non-empty set."""
    blocks = np.asarray(blocks, dtype=np.uint64)
    mask = np.uint64(n_sets - 1)
    set_idx = blocks & mask
    tags = blocks >> np.uint64(int(n_sets).bit_length() - 1)
    for s in np.unique(set_idx):
        yield int(s), tags[set_idx == s]


def opt_hits(tags: np.ndarray, n_ways: int) -> int:
    """Belady's OPT hit count for one set's tag stream."""
    n = len(tags)
    # next use of each access (n means "never again")
    next_use = np.empty(n, dtype=np.int64)
    last_seen: Dict[int, int] = {}
    for i in range(n - 1, -1, -1):
        tag = int(tags[i])
        next_use[i] = last_seen.get(tag, n)
        last_seen[tag] = i
    resident: Dict[int, int] = {}  # tag -> next use index
    hits = 0
    for i in range(n):
        tag = int(tags[i])
        if tag in resident:
            hits += 1
        elif len(resident) >= n_ways:
            victim = max(resident, key=resident.__getitem__)
            del resident[victim]
        resident[tag] = int(next_use[i])
    return hits


def reference_simulate_policy(
    blocks: np.ndarray, *, n_sets: int, n_ways: int, policy: str
) -> float:
    """Hit rate of ``policy``: one stepped state-machine object per set."""
    _validate_geometry(n_sets, n_ways)
    blocks = np.asarray(blocks, dtype=np.uint64)
    if len(blocks) == 0:
        return 0.0
    hits = 0
    if policy == ORACLE_POLICY:
        for _, tags in split_by_set(blocks, n_sets):
            hits += opt_hits(tags, n_ways)
    else:
        make_set = POLICY_SETS[policy]
        for _, tags in split_by_set(blocks, n_sets):
            state = make_set(n_ways)
            access = state.access
            hits += sum(access(int(t)) for t in tags)
    return hits / len(blocks)
