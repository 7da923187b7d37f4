"""One context object carrying a run's cross-cutting plumbing.

Before this module existed, every layer that wanted reproducible
sampling, telemetry or metrics grew the same optional constructor
parameters (``rng=``, ``telemetry=``, ``metrics=``) and threaded them
by hand into whatever it constructed next.  :class:`RunContext`
collapses that plumbing into a single value: the explorer,
cross-validation ensembles, trainers and the experiment runner all
accept one ``context`` and hand it (or a reseeded fork of it) down, so
observability behaves identically in every layer (see
``docs/architecture.md``).

The context deliberately holds only *run-wide* concerns:

* ``rng`` — the seeded generator driving sampling and training;
* ``telemetry`` / ``metrics`` — the observability hooks of
  :mod:`repro.obs` (disabled defaults cost one branch per call);
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
    """Seeded randomness, observability hooks and the cache location.

    Every field has a usable default, so ``RunContext()`` is a valid
    quiet context; :meth:`seeded` is the common entry point for
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
    cache_dir:
        Root for on-disk caches (:func:`default_cache_dir` when
        omitted; ``None`` after resolution disables disk caching).
    """

    rng: Optional[np.random.Generator] = None
    telemetry: Optional[RunTelemetry] = None
    metrics: Optional[MetricsRegistry] = None
    cache_dir: Optional[Path] = None

    def __post_init__(self) -> None:
        if self.rng is None:
            self.rng = np.random.default_rng()
        if self.telemetry is None:
            self.telemetry = NULL_TELEMETRY
        if self.metrics is None:
            self.metrics = METRICS
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

        Telemetry, metrics and the cache location are shared (same
        objects); only the randomness is replaced.  Used where a
        sub-experiment needs its own deterministic stream, e.g. one per
        training-set size in the learning-curve runner.
        """
        return dataclasses.replace(self, rng=np.random.default_rng(seed))

    def replace(self, **changes: object) -> "RunContext":
        """A copy with the given fields replaced (dataclass semantics)."""
        return dataclasses.replace(self, **changes)

