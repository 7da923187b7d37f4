"""The benchmark's own arithmetic: percentiles and spans' self time.

Kept free of any import from the program under test so that
``test_perfbench.py`` can check it on its own.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

#: samples that must lie beyond a reported tail percentile
TAIL_SAMPLES = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (0..1) of ``values``, interpolated linearly."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must lie in [0, 1], got {q}")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_quantile(n: int, beyond: int = TAIL_SAMPLES) -> Optional[float]:
    """The highest quantile with at least ``beyond`` of ``n`` samples
    strictly above it, or ``None`` when ``n`` is too small for any.

    With ``n`` samples, the quantile ``q`` has ``n * (1 - q)`` of them
    beyond it; the highest ``q`` keeping that at ``beyond`` or more is
    ``1 - beyond / n``.  Forty samples give the 75th percentile.
    """
    if n <= beyond:
        return None
    return 1.0 - beyond / n


def covered(
    interval: Tuple[float, float], children: Iterable[Tuple[float, float]]
) -> float:
    """Length of ``interval`` covered by the union of ``children``.

    Children are clipped to the interval and overlaps are counted once,
    so the result never exceeds the interval's own length.
    """
    start, end = interval
    clipped = sorted(
        (max(s, start), min(e, end)) for s, e in children
        if min(e, end) > max(s, start)
    )
    total = 0.0
    cur_s: Optional[float] = None
    cur_e = 0.0
    for s, e in clipped:
        if cur_s is None or s > cur_e:
            if cur_s is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_s is not None:
        total += cur_e - cur_s
    return total


def self_time(
    interval: Tuple[float, float], children: Iterable[Tuple[float, float]]
) -> float:
    """A span's duration minus the part its children cover."""
    return (interval[1] - interval[0]) - covered(interval, children)


def mean_pct_error(predicted: Sequence[float], truth: Sequence[float]) -> float:
    """Mean absolute percentage error of ``predicted`` against ``truth``
    (the paper's accuracy measure)."""
    if len(predicted) != len(truth) or not len(truth):
        raise ValueError("prediction and truth differ in length")
    errors: List[float] = [
        abs(p - t) / abs(t) * 100.0 for p, t in zip(predicted, truth)
    ]
    return sum(errors) / len(errors)
