"""K-fold cross-validation ensembles (Section 3.2, Figure 3.3).

The training sample is split into ``k`` folds.  Model ``i`` trains on
``k-2`` folds, early-stops on one fold and is tested on another; rotating
the roles gives ``k`` models, each fold serving exactly once as the
early-stopping set and once as the test set.  The ``k`` models form an
ensemble whose prediction is the average of the members' predictions, and
whose accuracy on the full design space is estimated from the per-point
percentage errors the members make on their held-out test folds.

The paper trains its 10 folds side by side on a 10-node cluster
(Section 5.4).  Here every fit, scalar or multi-target, trains its folds
side by side in one process through the fold-stacked
:class:`~repro.core.training.StackedEnsembleTrainer`: every active
fold's epoch is one batched matmul stack.  Each fold records its
telemetry and metrics into its own buffer and the buffers are replayed
in fold order, so the stream reads as if the folds had trained one
after another.

A multi-target fit (``target_names``) trains networks with one output
per target, scores every target on the held-out folds and reports the
primary target's estimate with the per-target breakdown attached;
:class:`~repro.core.training.TargetRecipe` holds the two ways its
recipe departs from the scalar one.
"""

from __future__ import annotations

import dataclasses
import time
import warnings
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..obs.metrics import MetricsRegistry
from ..obs.telemetry import RunTelemetry
from .context import RunContext
from .ensemble import EnsemblePredictor
from .error import ErrorEstimate
from .network import TrainingDiverged
from .training import (
    FoldResult,
    StackedEnsembleTrainer,
    TargetRecipe,
    TrainingConfig,
)

__all__ = [
    "DEFAULT_FOLDS",
    "DEFAULT_MIN_FOLDS",
    "CrossValidationEnsemble",
    "FoldResult",
    "fold_tasks",
    "make_folds",
]

#: the paper uses 10-fold cross validation throughout
DEFAULT_FOLDS = 10

#: minimum number of folds that must survive training (after restarts)
#: for an ensemble fit to stand; fewer raises instead of degrading
DEFAULT_MIN_FOLDS = 2

#: one fold's ``(train_idx, es_idx, test_idx, seed)``
FoldTask = Tuple[np.ndarray, np.ndarray, np.ndarray, int]


def make_folds(
    n: int, k: int, rng: Optional[np.random.Generator] = None
) -> List[np.ndarray]:
    """Split ``range(n)`` into ``k`` near-equal shuffled folds."""
    if k < 3:
        raise ValueError(
            f"cross validation needs k >= 3 (train/ES/test roles), got {k}"
        )
    if n < k:
        raise ValueError(f"cannot split {n} points into {k} non-empty folds")
    indices = np.arange(n)
    if rng is not None:
        rng.shuffle(indices)
    return [fold.copy() for fold in np.array_split(indices, k)]


def fold_tasks(n: int, k: int, rng: np.random.Generator) -> List[FoldTask]:
    """The ``k`` fold tasks of one fit over ``n`` points.

    Shuffles the points into folds, then draws one training seed per
    fold from ``rng``.  Figure 3.3 layout: model ``i`` early-stops on
    fold ``i+k-2`` and is tested on fold ``i+k-1``, so every fold plays
    each role exactly once.
    """
    folds = make_folds(n, k, rng)
    seeds = rng.integers(0, 2**63 - 1, size=k)
    tasks = []
    for i in range(k):
        es = (i + k - 2) % k
        test = (i + k - 1) % k
        train_idx = np.concatenate(
            [folds[j] for j in range(k) if j not in (es, test)]
        )
        tasks.append((train_idx, folds[es], folds[test], int(seeds[i])))
    return tasks


class CrossValidationEnsemble:
    """Train and hold a k-fold ANN ensemble.

    Parameters
    ----------
    k:
        Number of folds (and ensemble members).
    training:
        Hyperparameters shared by all members (including the
        ``max_restarts`` budget each fold may spend on divergence).
    min_folds:
        Folds that must survive training for the fit to stand.  A fold
        whose training diverges through all restarts is *quarantined*:
        its model is dropped from the ensemble and its held-out test
        points from the error estimate.  When at least ``min_folds``
        survive the fit degrades gracefully (a ``RuntimeWarning`` plus
        ``crossval.quarantine`` telemetry); below that it raises
        :class:`~repro.core.network.TrainingDiverged`.
    target_names:
        The target columns of a multi-target fit, primary first (at
        least two); :meth:`fit` then takes an ``(n, len(target_names))``
        target matrix.  Empty (the default) for a scalar fit.
    context:
        :class:`~repro.core.context.RunContext` supplying the generator
        (fold shuffling, member seeds) and the observability hooks.
        Each :meth:`fit` emits per-fold ``crossval.fold`` events, the
        folds' replayed ``train.*`` events, and one ``crossval.fit``
        summary; ``train.fold`` timings and ``crossval.*`` counters go
        to the context's metrics.  Folds always train in this
        process.
    """

    def __init__(
        self,
        k: int = DEFAULT_FOLDS,
        training: Optional[TrainingConfig] = None,
        *,
        context: Optional[RunContext] = None,
        min_folds: Optional[int] = None,
        target_names: Sequence[str] = (),
    ):
        self.k = k
        self.training = training or TrainingConfig()
        self.min_folds = DEFAULT_MIN_FOLDS if min_folds is None else min_folds
        if not 1 <= self.min_folds <= k:
            raise ValueError(
                f"min_folds must be in [1, k={k}], got {self.min_folds}"
            )
        if len(target_names) == 1:
            raise ValueError(
                "target_names names the columns of a multi-target fit "
                f"(two or more); a scalar fit passes none, got "
                f"{tuple(target_names)!r}"
            )
        self.target_names = tuple(target_names)
        self.context = context if context is not None else RunContext()
        self.predictor: Optional[EnsemblePredictor] = None
        self.estimate: Optional[ErrorEstimate] = None

    # -- context accessors (kept for pre-context call sites) -----------
    @property
    def rng(self) -> np.random.Generator:
        return self.context.rng

    @property
    def telemetry(self) -> RunTelemetry:
        return self.context.telemetry

    @property
    def metrics(self) -> MetricsRegistry:
        return self.context.metrics

    def _targets(self, y: np.ndarray) -> np.ndarray:
        """``y`` validated against the declared targets."""
        y = np.asarray(y, dtype=np.float64)
        if not self.target_names:
            return y.reshape(-1)
        width = len(self.target_names)
        if y.ndim != 2 or y.shape[1] != width:
            raise ValueError(
                f"targets must have shape (n, {width}), got {y.shape}"
            )
        if np.any(y == 0):
            raise ValueError(
                "percentage error is undefined for zero targets; every "
                "declared target must be nonzero at every sampled point"
            )
        return y

    def fit(self, x: np.ndarray, y: np.ndarray) -> ErrorEstimate:
        """Train the ensemble on raw targets; returns the CV error estimate.

        ``y`` is a target vector, or for a multi-target fit an ``(n,
        len(target_names))`` matrix; the estimate then describes the
        primary target and carries the per-target breakdown in
        ``estimate.per_target``.
        """
        x = np.asarray(x, dtype=np.float64)
        y = self._targets(y)
        if len(x) != len(y):
            raise ValueError("x and y must have equal length")
        n = len(x)
        tasks = fold_tasks(n, self.k, self.rng)
        recipe = TargetRecipe.of(y)
        scalers = recipe.fold_scalers(y, tasks)
        fit_start = time.perf_counter()
        results = StackedEnsembleTrainer(self.training).fit_folds(
            x, y, tasks, scalers,
            capture_telemetry=self.telemetry.enabled,
            capture_metrics=self.metrics.enabled,
        )
        for result in results:
            result.replay(self.telemetry, self.metrics)
        wall_s = time.perf_counter() - fit_start
        # fold-training phase wall time: the number the ensemble_fit
        # bench gate tracks
        self.metrics.observe("crossval.ensemble_fit", wall_s)

        # -- fold quarantine: drop diverged folds, keep the honest rest
        healthy = [i for i, result in enumerate(results) if not result.diverged]
        for i, result in enumerate(results):
            if result.diverged:
                self.metrics.inc("crossval.quarantined")
                self.telemetry.emit(
                    "crossval.quarantine",
                    fold=i,
                    error=result.error,
                    n_test=len(tasks[i][2]),
                )
        if len(healthy) < self.min_folds:
            raise TrainingDiverged(
                f"only {len(healthy)} of {self.k} folds survived training "
                f"(min_folds={self.min_folds}); the sampled targets are "
                "numerically hostile — check for near-zero or huge target "
                "values in the training set",
                reason="min_folds",
            )
        if len(healthy) < self.k:
            warnings.warn(
                f"{self.k - len(healthy)} of {self.k} folds diverged and "
                "were quarantined; the ensemble and error estimate use "
                f"the surviving {len(healthy)} folds",
                RuntimeWarning,
                stacklevel=2,
            )

        self.predictor = EnsemblePredictor(
            networks=[results[i].network for i in healthy],
            scaler=[scalers[i] for i in healthy],
            target_names=self.target_names,
        )
        self.estimate = self._estimate(
            [results[i].test_errors for i in healthy], n
        )

        for result in results:
            self.metrics.observe("train.fold", result.wall_s)
        self.metrics.inc("crossval.fits")
        self.metrics.inc(
            "crossval.epochs", sum(result.epochs for result in results)
        )
        for i, result in enumerate(results):
            self.telemetry.emit(
                "crossval.fold",
                fold=i,
                wall_s=result.wall_s,
                epochs=result.epochs,
                quarantined=result.diverged,
            )
        summary = {}
        if self.estimate.per_target:
            summary["per_target_error"] = {
                name: estimate.mean
                for name, estimate in self.estimate.per_target
            }
        self.telemetry.emit(
            "crossval.fit",
            k=self.k,
            n_points=n,
            n_targets=recipe.n_targets,
            n_folds_used=len(healthy),
            fold_coverage=self.estimate.fold_coverage,
            wall_s=wall_s,
            error_mean=self.estimate.mean,
            error_std=self.estimate.std,
            **summary,
        )
        return self.estimate

    def _estimate(
        self, fold_errors: List[np.ndarray], n: int
    ) -> ErrorEstimate:
        """Pool the surviving folds' ``(n_test, n_targets)`` errors."""
        columns = [
            ErrorEstimate.from_fold_errors(
                [errors[:, t] for errors in fold_errors],
                n_training=n,
                n_folds=self.k,
            )
            for t in range(fold_errors[0].shape[1])
        ]
        if not self.target_names:
            return columns[0]
        return dataclasses.replace(
            columns[0], per_target=tuple(zip(self.target_names, columns))
        )

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Ensemble prediction of the primary target (average of
        members, denormalized)."""
        if self.predictor is None:
            raise RuntimeError("fit() must be called before predict()")
        return self.predictor.predict(x)
