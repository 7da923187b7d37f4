"""Cache replacement-policy simulators.

The third study explores a *policy-dominated* design space: a nominal
replacement-policy axis (LRU, FIFO, LFU, simplified 2Q, ARC) crossed
with cache geometry.  Each policy is a per-set state machine driven by
the block-address stream a :class:`~repro.workloads.trace.Trace`
exposes through ``block_addresses`` — the same trace machinery behind
the stack-distance profiler, so hit rates emerge from genuine locality
behaviour rather than closed-form formulas.

Each simulator is one loop over the whole stream.  A block's set is
its low address bits (``block & (n_sets - 1)``); the set's state is a
few dicts created on its first access and kept inline in the loop.  A
block maps to exactly one (set, tag) pair, so the dicts are keyed by
the block address itself and no tag is ever split off.

Belady's OPT (evict the block reused furthest in the future) is also
implemented, but only as the oracle baseline the tests hold every
realizable policy against; it never appears in a design space.
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict
from typing import Dict, List, Tuple

import numpy as np

#: realizable policies, in design-space listing order
POLICY_NAMES: Tuple[str, ...] = ("lru", "fifo", "lfu", "2q", "arc")

#: the clairvoyant oracle, valid in :func:`simulate_policy` but not in spaces
ORACLE_POLICY = "opt"


def _lru_hits(stream: List[int], set_mask: int, n_ways: int) -> int:
    """Least-recently-used: hits refresh recency, misses evict the LRU way."""
    sets: Dict[int, "OrderedDict[int, None]"] = defaultdict(OrderedDict)
    hits = 0
    for block in stream:
        lines = sets[block & set_mask]
        if block in lines:
            lines.move_to_end(block)
            hits += 1
            continue
        if len(lines) >= n_ways:
            lines.popitem(last=False)
        lines[block] = None
    return hits


def _fifo_hits(stream: List[int], set_mask: int, n_ways: int) -> int:
    """First-in-first-out: hits do not refresh the eviction order."""
    sets: Dict[int, "OrderedDict[int, None]"] = defaultdict(OrderedDict)
    hits = 0
    for block in stream:
        lines = sets[block & set_mask]
        if block in lines:
            hits += 1
            continue
        if len(lines) >= n_ways:
            lines.popitem(last=False)
        lines[block] = None
    return hits


def _lfu_hits(stream: List[int], set_mask: int, n_ways: int) -> int:
    """Least-frequently-used with FIFO tie-breaking among equal counts.

    A set's dict holds its blocks in insertion order (a hit changes a
    count, not the order), so ``min`` — which keeps the first of equal
    keys — evicts the oldest insertion among the least-used blocks.
    """
    sets: Dict[int, Dict[int, int]] = defaultdict(dict)
    hits = 0
    for block in stream:
        counts = sets[block & set_mask]
        if block in counts:
            counts[block] += 1
            hits += 1
            continue
        if len(counts) >= n_ways:
            del counts[min(counts, key=counts.__getitem__)]
        counts[block] = 1
    return hits


def _twoq_hits(stream: List[int], set_mask: int, n_ways: int) -> int:
    """Simplified 2Q: a FIFO probation queue in front of an LRU main cache.

    New blocks enter the ``a1in`` FIFO; blocks evicted from it leave a
    ghost entry in ``a1out``.  A miss whose block is remembered by the
    ghost queue is promoted straight into the LRU-managed ``am`` — one
    touch is never enough to pollute the main cache, which is exactly
    what defeats LRU-hostile scans.
    """
    kin = max(1, n_ways // 4)
    kout = max(1, n_ways // 2)
    sets = defaultdict(lambda: (OrderedDict(), OrderedDict(), OrderedDict()))
    hits = 0
    for block in stream:
        a1in, a1out, am = sets[block & set_mask]
        if block in am:
            am.move_to_end(block)
            hits += 1
            continue
        if block in a1in:
            hits += 1
            continue
        if len(a1in) + len(am) >= n_ways:
            if a1in and (len(a1in) > kin or not am):
                a1out[a1in.popitem(last=False)[0]] = None
                if len(a1out) > kout:
                    a1out.popitem(last=False)
            else:
                am.popitem(last=False)
        if block in a1out:
            del a1out[block]
            am[block] = None
        else:
            a1in[block] = None
    return hits


def _arc_hits(stream: List[int], set_mask: int, n_ways: int) -> int:
    """Adaptive Replacement Cache (Megiddo & Modha, FAST'03).

    Two resident LRU lists — ``t1`` (seen once) and ``t2`` (seen at
    least twice) — plus ghost lists ``b1``/``b2`` of recently evicted
    blocks.  Ghost hits steer the set's adaptation target ``p``: hits in
    ``b1`` grow the recency list, hits in ``b2`` grow the frequency list.
    A miss that needs room runs REPLACE, which demotes the LRU block of
    ``t1`` or ``t2`` to its ghost list, before the block is inserted.
    """
    c = float(n_ways)
    sets = defaultdict(
        lambda: (OrderedDict(), OrderedDict(), OrderedDict(), OrderedDict())
    )
    targets: Dict[int, float] = defaultdict(float)  # per-set ``p``
    hits = 0
    for block in stream:
        s = block & set_mask
        t1, t2, b1, b2 = sets[s]
        if block in t2:  # first: most hits re-touch a frequent block
            t2.move_to_end(block)
            hits += 1
            continue
        if block in t1:
            del t1[block]
            t2[block] = None
            hits += 1
            continue
        p = targets[s]
        in_b2 = False
        into = t2
        if block in b1:
            p = targets[s] = min(c, p + max(1.0, len(b2) / max(1, len(b1))))
            del b1[block]
        elif block in b2:
            p = targets[s] = max(0.0, p - max(1.0, len(b1) / max(1, len(b2))))
            del b2[block]
            in_b2 = True
        else:
            into = t1
            if len(t1) + len(b1) == n_ways:
                if len(t1) == n_ways:
                    t1.popitem(last=False)
                    t1[block] = None
                    continue
                b1.popitem(last=False)
            else:
                listed = len(t1) + len(t2) + len(b1) + len(b2)
                if listed < n_ways:
                    t1[block] = None
                    continue
                if listed >= 2 * n_ways:
                    if b2:
                        b2.popitem(last=False)
                    elif b1:
                        b1.popitem(last=False)
        # REPLACE
        if t1 and (len(t1) > p or (in_b2 and len(t1) == int(p))):
            b1[t1.popitem(last=False)[0]] = None
        elif t2:
            b2[t2.popitem(last=False)[0]] = None
        elif t1:
            b1[t1.popitem(last=False)[0]] = None
        into[block] = None
    return hits


def _opt_hits(stream: List[int], set_mask: int, n_ways: int) -> int:
    """Belady's OPT: evict the resident block reused furthest ahead.

    Next uses are stream positions (``len(stream)`` for "never again");
    a block lives in exactly one set, so within a set they order the
    same way as positions in that set's own sub-stream would.
    """
    n = len(stream)
    next_use = [n] * n
    last_seen: Dict[int, int] = {}
    for i in range(n - 1, -1, -1):
        block = stream[i]
        next_use[i] = last_seen.get(block, n)
        last_seen[block] = i
    sets: Dict[int, Dict[int, int]] = defaultdict(dict)
    hits = 0
    for block, upcoming in zip(stream, next_use):
        resident = sets[block & set_mask]
        if block in resident:
            hits += 1
        elif len(resident) >= n_ways:
            del resident[max(resident, key=resident.__getitem__)]
        resident[block] = upcoming
    return hits


_POLICY_HITS = {
    "lru": _lru_hits,
    "fifo": _fifo_hits,
    "lfu": _lfu_hits,
    "2q": _twoq_hits,
    "arc": _arc_hits,
    ORACLE_POLICY: _opt_hits,
}


def _validate_geometry(n_sets: int, n_ways: int) -> None:
    if n_ways <= 0:
        raise ValueError(f"associativity must be positive, got {n_ways}")
    if n_sets <= 0 or n_sets & (n_sets - 1):
        raise ValueError(f"set count must be a power of two, got {n_sets}")


def simulate_policy(
    blocks: np.ndarray, *, n_sets: int, n_ways: int, policy: str
) -> float:
    """Hit rate of ``policy`` on a block-address stream.

    ``blocks`` is a block-granular reference stream as produced by
    :meth:`Trace.block_addresses`; ``n_sets`` must be a power of two.
    Returns hits / accesses (0.0 for an empty stream).
    """
    _validate_geometry(n_sets, n_ways)
    if policy not in _POLICY_HITS:
        raise ValueError(
            f"unknown policy {policy!r}; choices: {sorted(_POLICY_HITS)}"
        )
    stream = np.asarray(blocks, dtype=np.uint64).tolist()
    if not stream:
        return 0.0
    return _POLICY_HITS[policy](stream, n_sets - 1, n_ways) / len(stream)


def cache_hit_rate(
    trace,
    *,
    size_bytes: int,
    block_bytes: int,
    associativity: int,
    policy: str,
) -> float:
    """Hit rate of one (geometry, policy) cache on a full trace.

    The geometry must divide into a power-of-two number of sets
    (all-power-of-two sizes guarantee this).
    """
    from .cacti import _validate

    _validate(size_bytes, block_bytes, associativity)
    n_sets = size_bytes // (block_bytes * associativity)
    blocks = trace.block_addresses(block_bytes)
    return simulate_policy(
        blocks, n_sets=n_sets, n_ways=associativity, policy=policy
    )


def policy_hit_rates(
    trace,
    *,
    size_bytes: int,
    block_bytes: int,
    associativity: int,
    policies: Tuple[str, ...] = POLICY_NAMES,
) -> List[Tuple[str, float]]:
    """Hit rate of every policy in ``policies`` on one geometry."""
    return [
        (
            policy,
            cache_hit_rate(
                trace,
                size_bytes=size_bytes,
                block_bytes=block_bytes,
                associativity=associativity,
                policy=policy,
            ),
        )
        for policy in policies
    ]
