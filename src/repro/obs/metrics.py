"""Counters, gauges and histogram timers for run instrumentation.

The paper's evaluation is cost accounting: Table 5.1 counts simulations
per benchmark, Figure 5.8 measures training seconds per sample size.
:class:`MetricsRegistry` is the substrate those numbers flow through — a
process-local registry of named

* **counters** — monotonically increasing totals (simulations run,
  simulated instructions, training epochs);
* **gauges** — last-written values (current learning rate, worker count);
* **timers** — duration histograms with count/total/min/max/mean, fed by
  ``with metrics.timer("train.fold"): ...`` blocks or by explicit
  :meth:`MetricsRegistry.observe` calls.

Every mutating call starts with an ``enabled`` check, and ``timer()``
returns a shared no-op context manager when disabled, so instrumentation
can stay in hot paths permanently: the disabled cost is one attribute
load and one branch.  A module-level registry (:data:`METRICS`) serves
code — simulators, mainly — where threading a registry through every
constructor would be invasive; it starts disabled.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: metric names use dot-separated lowercase components, e.g. ``train.fold``
SCHEMA_VERSION = 1

#: cap on per-timer stored samples; beyond it only the summary updates
MAX_TIMER_SAMPLES = 4096


@dataclass
class TimerStats:
    """Summary of one named timer's observed durations (seconds)."""

    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = 0.0
    samples: List[float] = field(default_factory=list)

    @property
    def mean(self) -> float:
        """Mean observed duration, or 0.0 before any observation."""
        return self.total / self.count if self.count else 0.0

    def observe(self, seconds: float) -> None:
        """Fold one duration into the summary."""
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds
        if len(self.samples) < MAX_TIMER_SAMPLES:
            self.samples.append(seconds)

    def merge(self, other: "TimerStats") -> None:
        """Fold another timer's summary into this one exactly.

        Count/total/min/max combine losslessly; stored samples append up
        to the shared cap.  Used when replaying worker-process metrics
        into the parent registry.
        """
        self.count += other.count
        self.total += other.total
        if other.count:
            if other.min < self.min:
                self.min = other.min
            if other.max > self.max:
                self.max = other.max
        room = MAX_TIMER_SAMPLES - len(self.samples)
        if room > 0:
            self.samples.extend(other.samples[:room])

    def to_dict(self) -> Dict[str, float]:
        """JSON-ready summary (samples are not exported)."""
        return {
            "count": self.count,
            "total_s": self.total,
            "min_s": self.min if self.count else 0.0,
            "max_s": self.max,
            "mean_s": self.mean,
        }


class _NullTimer:
    """Shared do-nothing context manager returned by disabled registries."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_TIMER = _NullTimer()


class _Timer:
    """Context manager recording one duration into a registry."""

    __slots__ = ("_registry", "_name", "_start")

    def __init__(self, registry: "MetricsRegistry", name: str):
        self._registry = registry
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._registry.observe(
            self._name, time.perf_counter() - self._start
        )


class MetricsRegistry:
    """Named counters, gauges and duration histograms for one run.

    Parameters
    ----------
    enabled:
        When False every mutating method returns immediately and
        :meth:`timer` hands back a shared no-op context manager, so a
        disabled registry left in a hot path costs one branch per call.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._timers: Dict[str, TimerStats] = {}

    # -- writers -------------------------------------------------------
    def inc(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to counter ``name`` (creating it at zero)."""
        if not self.enabled:
            return
        self._counters[name] = self._counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        if not self.enabled:
            return
        self._gauges[name] = value

    def observe(self, name: str, seconds: float) -> None:
        """Record one duration under timer ``name``."""
        if not self.enabled:
            return
        stats = self._timers.get(name)
        if stats is None:
            stats = self._timers[name] = TimerStats()
        stats.observe(seconds)

    def timer(self, name: str) -> object:
        """Context manager timing its body into timer ``name``.

        Timers nest freely: each ``with`` block carries its own start
        time, so an outer timer keeps accumulating while inner ones
        record their own (shorter) durations.
        """
        if not self.enabled:
            return _NULL_TIMER
        return _Timer(self, name)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's recorded values into this one.

        Counters add, gauges take the other registry's value (last write
        wins, and the merged registry is the later writer), timers merge
        their summaries exactly.  This is how the per-fold registries of a
        fold-stacked ensemble fit are replayed into the caller's, so
        counters like ``train.epochs`` read as if the folds had trained
        one after another.  A disabled parent ignores the merge, matching
        the no-op behaviour of its other writers.
        """
        if not self.enabled:
            return
        for name, value in other._counters.items():
            self._counters[name] = self._counters.get(name, 0) + value
        self._gauges.update(other._gauges)
        for name, stats in other._timers.items():
            mine = self._timers.get(name)
            if mine is None:
                mine = self._timers[name] = TimerStats()
            mine.merge(stats)

    def reset(self) -> None:
        """Drop all recorded values (the enabled flag is unchanged)."""
        self._counters.clear()
        self._gauges.clear()
        self._timers.clear()

    # -- readers -------------------------------------------------------
    def counter(self, name: str) -> float:
        """Current value of counter ``name`` (0 if never incremented)."""
        return self._counters.get(name, 0)

    def gauge_value(self, name: str) -> Optional[float]:
        """Last value written to gauge ``name``, or None."""
        return self._gauges.get(name)

    def timer_stats(self, name: str) -> Optional[TimerStats]:
        """Stats for timer ``name``, or None if never observed."""
        return self._timers.get(name)

    @property
    def counters(self) -> Dict[str, float]:
        """Read-only snapshot of all counters."""
        return dict(self._counters)

    @property
    def gauges(self) -> Dict[str, float]:
        """Read-only snapshot of all gauges."""
        return dict(self._gauges)

    @property
    def timers(self) -> Dict[str, TimerStats]:
        """Read-only snapshot of all timers."""
        return dict(self._timers)

    # -- export --------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot of every metric."""
        return {
            "schema_version": SCHEMA_VERSION,
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "timers": {
                name: stats.to_dict() for name, stats in self._timers.items()
            },
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialize :meth:`to_dict` as JSON text."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def write_json(self, path: str) -> None:
        """Write the JSON snapshot to ``path`` atomically.

        Uses write-temp-then-rename (:mod:`repro.obs.atomicio`) so an
        interrupted run never leaves a truncated metrics file.
        """
        from .atomicio import atomic_write_text

        atomic_write_text(path, self.to_json() + "\n")


#: process-global registry for code where constructor injection is
#: impractical (simulator hot paths); disabled until a caller opts in
METRICS = MetricsRegistry(enabled=False)


def enable_metrics(reset: bool = True) -> MetricsRegistry:
    """Turn the global registry on (optionally clearing old values)."""
    if reset:
        METRICS.reset()
    METRICS.enabled = True
    return METRICS


def disable_metrics() -> None:
    """Turn the global registry off (recorded values are kept)."""
    METRICS.enabled = False
