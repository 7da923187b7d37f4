"""Fully connected feed-forward neural networks: weights and a forward pass.

Implements the model of Chapter 3: one or more hidden layers of sigmoid
units, weighted edges between consecutive layers, and near-zero uniform
weight initialization so the network starts out as an almost-linear
model and grows non-linear as weights grow.

A :class:`FeedForwardNetwork` holds no training state.  Backpropagation
with momentum (Equations 3.1/3.2) runs in
:class:`~repro.core.kernels.EnsembleTrainingKernel`, which owns the
velocity and writes trained weights back into the networks; the
single-network reference it is tested against lives in
``tests/reference_training.py``.

The implementation is batch-vectorized numpy; no ML library is used.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .activation import Activation, get_activation

#: the paper's hyperparameters (Section 3.1)
DEFAULT_HIDDEN_UNITS = 16
DEFAULT_LEARNING_RATE = 0.001
DEFAULT_MOMENTUM = 0.5
DEFAULT_INIT_RANGE = 0.01

#: |weight| above which a sigmoid/tanh unit fed unit-range inputs is
#: effectively saturated (gradient ~ 0); used by
#: :meth:`~repro.core.kernels.EnsembleTrainingKernel.member_health`
SATURATION_THRESHOLD = 4.0


class TrainingDiverged(RuntimeError):
    """A training run produced a numerically unusable network.

    Raised instead of letting NaN/inf propagate silently into ensemble
    predictions and error estimates: by the non-finite output guards of
    :meth:`FeedForwardNetwork.predict` and
    :class:`~repro.core.ensemble.EnsemblePredictor`, by the mid-train
    divergence detection of
    :class:`~repro.core.training.StackedEnsembleTrainer` (which restarts
    or quarantines the fold), and by
    :meth:`~repro.core.multitask.MultiTaskNetwork.fit` once its restart
    budget is exhausted (reason ``"restarts exhausted"``).  ``reason``
    names the failure mode ("weight explosion", "dead network", ...) and
    ``epoch`` where it was detected, so the error is recoverable
    (restart / quarantine) rather than opaque.
    """

    def __init__(
        self,
        message: str,
        *,
        reason: str = "diverged",
        epoch: Optional[int] = None,
    ):
        super().__init__(message)
        self.reason = reason
        self.epoch = epoch


@dataclass(frozen=True)
class WeightHealth:
    """Numeric health summary of a network's weight matrices.

    ``finite`` is False as soon as any weight is NaN/inf; ``max_abs`` is
    the largest weight magnitude (the explosion signal the trainer
    thresholds); ``saturation`` is the fraction of weights whose
    magnitude exceeds :data:`SATURATION_THRESHOLD` — a mostly-saturated
    sigmoid/tanh network has near-zero gradients and cannot recover.
    """

    finite: bool
    max_abs: float
    saturation: float

    def ok(self, max_weight: float) -> bool:
        """Whether the weights are finite and below ``max_weight``."""
        return self.finite and self.max_abs <= max_weight


_UNSEEDED_WARNED = False


def warn_unseeded(owner: str) -> None:
    """One-time warning that ``owner`` fell back to an unseeded generator.

    Every training call site is expected to thread a seeded generator
    (normally from :class:`~repro.core.context.RunContext`); the
    fallback exists only for throwaway interactive use, and silently
    taking it breaks run reproducibility — hence the warning.
    """
    global _UNSEEDED_WARNED
    if _UNSEEDED_WARNED:
        return
    _UNSEEDED_WARNED = True
    warnings.warn(
        f"{owner} was created without an rng and fell back to an "
        "unseeded generator; results will not be reproducible. Pass a "
        "seeded numpy Generator (e.g. via RunContext.seeded).",
        RuntimeWarning,
        stacklevel=3,
    )


class FeedForwardNetwork:
    """A fully connected feed-forward ANN.

    Parameters
    ----------
    n_inputs:
        Width of the input layer.
    hidden_layers:
        Units per hidden layer; the paper uses a single layer of 16.
    n_outputs:
        Output units (1 for IPC; >1 for multi-task learning).
    hidden_activation / output_activation:
        Activation names; defaults are sigmoid hidden units and a linear
        output (standard for regression on normalized targets).
    rng:
        Numpy generator used for weight initialization.
    init_range:
        Weights start uniform in ``[-init_range, +init_range]``.
    """

    def __init__(
        self,
        n_inputs: int,
        hidden_layers: Sequence[int] = (DEFAULT_HIDDEN_UNITS,),
        n_outputs: int = 1,
        hidden_activation: str = "sigmoid",
        output_activation: str = "identity",
        rng: Optional[np.random.Generator] = None,
        init_range: float = DEFAULT_INIT_RANGE,
    ):
        if n_inputs <= 0 or n_outputs <= 0:
            raise ValueError("n_inputs and n_outputs must be positive")
        hidden_layers = tuple(int(h) for h in hidden_layers)
        if not hidden_layers or any(h <= 0 for h in hidden_layers):
            raise ValueError(
                f"hidden_layers must be non-empty and positive, got {hidden_layers}"
            )
        if init_range <= 0:
            raise ValueError(f"init_range must be positive, got {init_range}")
        if rng is None:
            warn_unseeded("FeedForwardNetwork")
            rng = np.random.default_rng()

        self.n_inputs = n_inputs
        self.hidden_layers = hidden_layers
        self.n_outputs = n_outputs
        self.hidden_activation: Activation = get_activation(hidden_activation)
        self.output_activation: Activation = get_activation(output_activation)

        sizes = (n_inputs,) + hidden_layers + (n_outputs,)
        # weights[l] has shape (sizes[l] + 1, sizes[l+1]); row 0 is the bias
        self.weights: List[np.ndarray] = [
            rng.uniform(-init_range, init_range, (fan_in + 1, fan_out))
            for fan_in, fan_out in zip(sizes, sizes[1:])
        ]

    # ------------------------------------------------------------------
    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Network outputs for ``x``; shape ``(n, n_outputs)``.

        Raises :class:`TrainingDiverged` when the output contains
        NaN/inf — diverged weights fail here, loudly, instead of
        feeding garbage into predictions and error estimates.
        """
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.n_inputs:
            raise ValueError(
                f"expected {self.n_inputs} input features, got {x.shape[1]}"
            )
        output = forward_raw(self, x)
        if not np.isfinite(output).all():
            raise TrainingDiverged(
                "network output contains non-finite values",
                reason="non-finite output",
            )
        return output

    # ------------------------------------------------------------------
    def get_weights(self) -> List[np.ndarray]:
        """Deep copy of the weight matrices (for early-stopping snapshots)."""
        return [w.copy() for w in self.weights]

    def set_weights(self, weights: Sequence[np.ndarray]) -> None:
        """Restore weights from :meth:`get_weights`."""
        if len(weights) != self.n_layers:
            raise ValueError(
                f"expected {self.n_layers} weight matrices, got {len(weights)}"
            )
        for own, new in zip(self.weights, weights):
            if own.shape != new.shape:
                raise ValueError(
                    f"weight shape mismatch: {own.shape} vs {new.shape}"
                )
            own[...] = new


def forward_raw(network: FeedForwardNetwork, x: np.ndarray) -> np.ndarray:
    """Network outputs for a pre-validated float64 matrix ``x``.

    The forward pass without per-call conversion, shape checks or
    finite-guard: :meth:`FeedForwardNetwork.predict` validates around
    it once per call, and
    :class:`~repro.core.ensemble.EnsemblePredictor` once per point set
    rather than once per chunk.  Each layer's bias add and activation
    run in place on its matmul's result, so ``x`` is never written.
    """
    a = x
    weights = network.weights
    last = len(weights) - 1
    hidden = network.hidden_activation
    output = network.output_activation
    for layer, w in enumerate(weights):
        net = a @ w[1:]
        net += w[0]
        a = (
            output.forward(net, out=net) if layer == last
            else hidden.forward(net, out=net)
        )
    return a
