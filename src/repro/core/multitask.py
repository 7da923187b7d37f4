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

from .context import RunContext
from .encoding import MultiTargetScaler
from .network import FeedForwardNetwork, warn_unseeded
from .training import EarlyStoppingTrainer, TrainingConfig


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
        Hyperparameters (hidden layout, learning rate, momentum...).
    rng:
        Seeded generator.
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
        self.n_tasks = n_tasks
        self.network = FeedForwardNetwork(
            n_inputs=n_inputs,
            hidden_layers=self.training.hidden_layers,
            n_outputs=n_tasks,
            hidden_activation=self.training.hidden_activation,
            rng=self.rng,
            init_range=self.training.init_range,
        )
        self.scaler = MultiTargetScaler()

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        x_es: np.ndarray,
        y_es: np.ndarray,
    ) -> List[float]:
        """Train on raw multi-column targets with early stopping on the
        primary task's percentage error; returns the early-stopping trace.

        The fit is one run of the single-network reference trainer,
        :class:`~repro.core.training.EarlyStoppingTrainer`, on targets
        scaled to this network's own training rows; this network's
        generator drives the presentation order.
        """
        y = np.atleast_2d(np.asarray(y, dtype=np.float64))
        y_es = np.atleast_2d(np.asarray(y_es, dtype=np.float64))
        if y.shape[1] != self.n_tasks or y_es.shape[1] != self.n_tasks:
            raise ValueError(f"targets must have {self.n_tasks} columns")
        self.scaler.fit(y)
        trainer = EarlyStoppingTrainer(
            self.training, context=RunContext(rng=self.rng)
        )
        history = trainer.train(
            self.network, x, y, x_es, y_es, self.scaler
        )
        return history.es_errors

    def predict_all(self, x: np.ndarray) -> np.ndarray:
        """Denormalized predictions for every task; shape ``(n, n_tasks)``."""
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
