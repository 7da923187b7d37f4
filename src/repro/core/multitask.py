"""Multi-task learning (a future-work direction of Chapter 7).

Simulators emit several statistics besides IPC (cache miss rates, branch
misprediction rate, bus occupancy).  Those metrics cannot be *inputs* — at
prediction time no simulation has run — but a network with one output per
metric shares its hidden layer across tasks, letting the correlations
sharpen the main IPC output.  Only the IPC head is read at prediction
time.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..obs.metrics import METRICS
from .encoding import TargetScaler
from .network import FeedForwardNetwork, TrainingDiverged, warn_unseeded
from .training import StackedEnsembleTrainer, TrainingConfig, target_columns


class MultiTaskNetwork:
    """A shared-hidden-layer network with one output head per metric.

    Parameters
    ----------
    n_inputs:
        Feature width.
    n_tasks:
        Number of simultaneously learned metrics; task 0 is the metric of
        interest (IPC).
    training:
        Hyperparameters (hidden layout, learning rate, momentum, restart
        budget...).
    rng:
        Seeded generator; each :meth:`fit` draws its training seed from
        it.
    """

    def __init__(
        self,
        n_inputs: int,
        n_tasks: int,
        training: Optional[TrainingConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        if n_tasks < 1:
            raise ValueError(f"n_tasks must be >= 1, got {n_tasks}")
        self.training = training or TrainingConfig()
        if rng is None:
            warn_unseeded("MultiTaskNetwork")
            rng = np.random.default_rng()
        self.rng = rng
        self.n_inputs = n_inputs
        self.n_tasks = n_tasks
        self.network: Optional[FeedForwardNetwork] = None
        self.scaler = TargetScaler()

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        x_es: np.ndarray,
        y_es: np.ndarray,
    ) -> List[float]:
        """Train on raw targets with early stopping on the primary
        task's percentage error; returns the early-stopping trace.

        ``y``/``y_es`` have one column per task (a 1-D vector when there
        is one task).  The fit is a one-task
        :meth:`~repro.core.training.StackedEnsembleTrainer.fit_folds`
        run — training rows, then early-stopping rows, no test rows —
        on targets scaled to the training rows, seeded from this
        model's generator, with the configured ``max_restarts`` budget.
        Raises :class:`~repro.core.network.TrainingDiverged` (reason
        ``"restarts exhausted"``) when every attempt diverged.
        """
        x = np.asarray(x, dtype=np.float64)
        x_es = np.asarray(x_es, dtype=np.float64)
        y = target_columns(y)
        y_es = target_columns(y_es)
        if y.shape[1] != self.n_tasks or y_es.shape[1] != self.n_tasks:
            raise ValueError(f"targets must have {self.n_tasks} columns")
        if x.shape[1:] != (self.n_inputs,) or x_es.shape[1:] != (self.n_inputs,):
            raise ValueError(f"inputs must have shape (n, {self.n_inputs})")
        if len(x) != len(y):
            raise ValueError("x and y must have equal length")
        if len(x_es) != len(y_es):
            raise ValueError("x_es and y_es must have equal length")
        self.scaler.fit(y)
        # one training seed, drawn the way fold_tasks draws a fold's
        seed = int(self.rng.integers(0, 2**63 - 1, size=1)[0])
        n, n_es = len(x), len(x_es)
        task = (np.arange(n), np.arange(n, n + n_es), np.arange(0), seed)
        (result,) = StackedEnsembleTrainer(self.training).fit_folds(
            np.concatenate([x, x_es]),
            np.concatenate([y, y_es]),
            [task],
            [self.scaler],
            capture_metrics=METRICS.enabled,
        )
        if result.metrics is not None:
            METRICS.merge(result.metrics)
        if result.diverged:
            raise TrainingDiverged(result.error, reason="restarts exhausted")
        self.network = result.network
        return result.history.es_errors

    def predict_all(self, x: np.ndarray) -> np.ndarray:
        """Denormalized predictions for every task; shape ``(n, n_tasks)``."""
        if self.network is None:
            raise RuntimeError("fit() must be called before predicting")
        return self.scaler.inverse_transform(self.network.predict(x))

    def predict_primary(self, x: np.ndarray) -> np.ndarray:
        """Predictions of the main metric (IPC); shape ``(n,)``."""
        return self.predict_all(x)[:, 0]


def auxiliary_target_names(metrics: Sequence[str]) -> List[str]:
    """Validate and normalize an auxiliary-metric list (task 0 is IPC)."""
    names = ["ipc"] + [m for m in metrics if m != "ipc"]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate metric names in {metrics!r}")
    return names
