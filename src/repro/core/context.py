"""One context object carrying a run's cross-cutting plumbing.

Before this module existed, every layer that wanted reproducible
sampling, telemetry, metrics or parallelism grew the same 3-4 optional
constructor parameters (``rng=``, ``telemetry=``, ``metrics=``,
``n_jobs=``) and threaded them by hand into whatever it constructed
next.  :class:`RunContext` collapses that plumbing into a single value:
the explorer, cross-validation ensembles, trainers and the experiment
runner all accept one ``context`` and hand it (or a reseeded fork of
it) down, so observability and parallelism behave identically in every
layer (see ``docs/architecture.md``).

The context deliberately holds only *run-wide* concerns:

* ``rng`` — the seeded generator driving sampling and training;
* ``telemetry`` / ``metrics`` — the observability hooks of
  :mod:`repro.obs` (disabled defaults cost one branch per call);
* ``n_jobs`` — worker-process budget for process-pool evaluation
  backends (``REPRO_N_JOBS`` by default); cross-validation folds always
  train in-process, side by side through the fold-stacked kernel;
* ``cache_dir`` — root of the on-disk artifact cache
  (``REPRO_CACHE_DIR``; ``None`` disables disk caching).

This module imports nothing from the rest of ``repro`` except
:mod:`repro.obs`, so every layer (core, simulators, experiments, CLI)
can depend on it without cycles.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from ..obs.metrics import METRICS, MetricsRegistry
from ..obs.telemetry import NULL_TELEMETRY, RunTelemetry


def default_n_jobs() -> int:
    """Worker processes for parallel work: ``REPRO_N_JOBS`` env var, or 1.

    Batch evaluation is embarrassingly parallel.  The paper also
    trains its 10 folds in parallel on a 10-node cluster (Section
    5.4); here the folds train side by side in one process through the
    fold-stacked kernel instead.
    """
    env = os.environ.get("REPRO_N_JOBS", "")
    if env:
        return max(1, int(env))
    return 1


def default_cache_dir() -> Optional[Path]:
    """On-disk artifact cache location; ``None`` disables disk caching.

    ``REPRO_CACHE_DIR`` overrides the default
    ``~/.cache/repro-asplos06``; setting it to the empty string turns
    disk caching off entirely.
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env == "":
        return None
    base = Path(env) if env else Path.home() / ".cache" / "repro-asplos06"
    try:
        base.mkdir(parents=True, exist_ok=True)
    except OSError:
        return None
    return base


@dataclass
class RunContext:
    """Seeded randomness, observability hooks and resource budgets.

    Every field has a usable default, so ``RunContext()`` is a valid
    quiet, serial context; :meth:`seeded` is the common entry point for
    reproducible runs.

    Parameters
    ----------
    rng:
        Random generator driving sampling and training.  Defaults to an
        unseeded generator; pass a seeded one (or use :meth:`seeded`)
        for reproducibility.
    telemetry:
        Event stream (:data:`~repro.obs.telemetry.NULL_TELEMETRY` when
        omitted, which makes every emit a no-op).
    metrics:
        Counter/timer registry (the module-global, normally disabled,
        :data:`~repro.obs.metrics.METRICS` when omitted).
    n_jobs:
        Worker-process budget for process-pool evaluation
        backends (:func:`default_n_jobs` when omitted).
    cache_dir:
        Root for on-disk caches (:func:`default_cache_dir` when
        omitted; ``None`` after resolution disables disk caching).
    """

    rng: Optional[np.random.Generator] = None
    telemetry: Optional[RunTelemetry] = None
    metrics: Optional[MetricsRegistry] = None
    n_jobs: Optional[int] = None
    cache_dir: Optional[Path] = None

    def __post_init__(self) -> None:
        if self.rng is None:
            self.rng = np.random.default_rng()
        if self.telemetry is None:
            self.telemetry = NULL_TELEMETRY
        if self.metrics is None:
            self.metrics = METRICS
        if self.n_jobs is None:
            self.n_jobs = default_n_jobs()
        if self.n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {self.n_jobs}")
        if self.cache_dir is None:
            self.cache_dir = default_cache_dir()
        elif not isinstance(self.cache_dir, Path):
            self.cache_dir = Path(self.cache_dir)

    # ------------------------------------------------------------------
    @classmethod
    def seeded(cls, seed: int, **overrides: object) -> "RunContext":
        """A context whose generator is seeded with ``seed``."""
        return cls(rng=np.random.default_rng(seed), **overrides)

    def fork(self, seed: int) -> "RunContext":
        """A sibling context with a fresh ``seed``-ed generator.

        Telemetry, metrics and resource budgets are shared (same
        objects); only the randomness is replaced.  Used where a
        sub-experiment needs its own deterministic stream, e.g. one per
        training-set size in the learning-curve runner.
        """
        return dataclasses.replace(self, rng=np.random.default_rng(seed))

    def replace(self, **changes: object) -> "RunContext":
        """A copy with the given fields replaced (dataclass semantics)."""
        return dataclasses.replace(self, **changes)

