"""The shared fitting core behind exploration and the experiment runner.

Both consumers of trained ensembles — the incremental exploration loop
(:class:`repro.core.explorer.DesignSpaceExplorer`) and the
learning-curve runner (:func:`repro.experiments.runner.run_learning_curve`)
— perform the same two primitives per round:

1. :func:`evaluate_batch` — obtain targets for a batch of design points
   through an :class:`~repro.core.backend.EvaluationBackend`, timing the
   work under a telemetry phase and counting evaluated points;
2. :func:`fit_cv_round` — train one k-fold cross-validation ensemble
   under a :class:`~repro.core.context.RunContext`.

Keeping these here (rather than re-implemented in each loop, as they
were before the backend refactor) guarantees that fold training,
caching and telemetry behave identically in the exploration
loop, the learning-curve experiments and the CLI.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..designspace.space import Config
from .backend import EvaluationBackend
from .context import RunContext
from .crossval import CrossValidationEnsemble
from .error import ErrorEstimate
from .training import TrainingConfig


def evaluate_batch(
    backend: EvaluationBackend,
    configs: Sequence[Config],
    *,
    context: RunContext,
    phase: str = "explore.simulate",
    counter: str = "explore.simulations",
) -> np.ndarray:
    """Evaluate ``configs`` through ``backend`` with uniform accounting.

    Wall time accumulates under the ``phase`` telemetry phase and the
    batch size under the ``counter`` metrics counter, so every consumer
    reports simulation cost the same way.  Returns one float per
    configuration, in input order.
    """
    with context.telemetry.phase(phase):
        values = backend.evaluate(configs)
    if len(configs):
        context.metrics.inc(counter, len(configs))
    return values


@dataclass
class FitOutcome:
    """One trained ensemble plus its estimate and measured cost."""

    ensemble: CrossValidationEnsemble
    estimate: ErrorEstimate
    wall_s: float


def fit_cv_round(
    x: np.ndarray,
    y: np.ndarray,
    *,
    k: Optional[int] = None,
    training: Optional[TrainingConfig] = None,
    min_folds: Optional[int] = None,
    context: RunContext,
    target_names: Tuple[str, ...] = (),
) -> FitOutcome:
    """Train one cross-validation ensemble under ``context``.

    The context supplies the generator (fold shuffling, member seeds)
    and the telemetry/metrics hooks, so a round fitted here behaves
    identically whether the caller is the exploration loop, the
    learning-curve runner or the CLI.

    Rows whose target is non-finite — evaluations that exhausted their
    retry budget and were NaN-marked by
    :class:`~repro.core.resilience.ResilientBackend` — are masked out
    before training (``fit.masked`` telemetry, ``fit.masked_rows``
    counter) and reported on the estimate as ``n_failed``, so a
    degraded run still fits on every point it *did* manage to simulate.

    Folds whose training diverges through all restarts are quarantined
    by the ensemble (see :mod:`repro.core.crossval`); ``min_folds``
    bounds how many must survive before the round raises instead of
    degrading.

    A two-dimensional ``y`` with several columns is a *multi-target*
    round: pass the declared ``target_names`` (primary first).  Rows
    where *any* target is non-finite are masked, and the estimate's
    ``per_target`` carries the per-target breakdown.  A scalar round
    passes a 1-D ``y``; a single-column matrix is rejected like any
    other column count that ``target_names`` does not declare.
    """
    started = time.perf_counter()
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if y.ndim == 2:
        if len(target_names) != y.shape[1]:
            raise ValueError(
                f"y has {y.shape[1]} target columns but target_names "
                f"declares {len(target_names)} ({target_names!r})"
            )
        finite = np.isfinite(y).all(axis=1)
    else:
        y = y.reshape(-1)
        target_names = ()
        finite = np.isfinite(y)
    n_failed = int(len(y) - finite.sum())
    if n_failed:
        context.telemetry.emit(
            "fit.masked", n_failed=n_failed, n_total=len(y)
        )
        context.metrics.inc("fit.masked_rows", n_failed)
        x, y = x[finite], y[finite]
    kwargs = {} if k is None else {"k": k}
    ensemble = CrossValidationEnsemble(
        training=training, context=context, min_folds=min_folds,
        target_names=tuple(target_names), **kwargs,
    )
    estimate = ensemble.fit(x, y)
    if n_failed:
        estimate = dataclasses.replace(estimate, n_failed=n_failed)
        ensemble.estimate = estimate
    return FitOutcome(
        ensemble=ensemble,
        estimate=estimate,
        wall_s=time.perf_counter() - started,
    )
