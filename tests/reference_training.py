"""The single-network trainer: the differential reference for the stacked
fold engine.

:class:`~repro.core.training.StackedEnsembleTrainer` is the package's
only trainer.  It runs the Section 3.1-3.3 recipe — inverse-target
presentation, early stopping on percentage error, best-weights restore,
divergence detection and deterministic restarts — for many folds at
once through one :class:`~repro.core.kernels.EnsembleTrainingKernel`.
This module trains one network at a time instead, through plain
per-network loops, and the tests assert that the two agree bit for bit:

* :class:`TrainingKernel` runs one epoch of mini-batch SGD with
  momentum over one network (the solo side of the
  ``EnsembleTrainingKernel`` comparisons);
* :class:`EarlyStoppingTrainer` is one attempt of the recipe, drawing
  each epoch's presentation order with ``Generator.choice``;
* :class:`RobustTrainer` retries a diverged attempt with
  deterministically reseeded weights (the per-fold reference of
  ``TestEngineParity`` and the per-fold side of the ``ensemble_fit``
  bench in ``benchmarks/test_bench_kernels.py``).

Below the kernel sit plain functions over one network, the training
half a :class:`~repro.core.network.FeedForwardNetwork` does not carry:
:func:`forward` (every layer's activations), :func:`gradients`
(backpropagation, checked against finite differences in
``tests/test_network.py``), :func:`train_batch` (one Equation 3.2 step
with an explicit velocity) and :func:`weight_health`.  The chain
numerical gradient -> :func:`gradients` -> :func:`train_batch` ->
:class:`TrainingKernel` -> stacked kernel is what anchors the stacked
engine's arithmetic.

The kernel keeps the fused end-of-epoch finiteness check: a diverging
epoch reports ``"non-finite weights"`` exactly as the stacked kernel's
post-epoch guard does, where per-batch :func:`train_batch` calls would
raise ``"non-finite output"`` mid-epoch instead.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.encoding import TargetScaler
from repro.core.error import percentage_errors
from repro.core.network import (
    DEFAULT_LEARNING_RATE,
    DEFAULT_MOMENTUM,
    SATURATION_THRESHOLD,
    FeedForwardNetwork,
    TrainingDiverged,
    WeightHealth,
)
from repro.core.training import (
    DEAD_PREDICTION_SPREAD,
    TargetRecipe,
    TrainingConfig,
    TrainingHistory,
    presentation_probabilities,
    target_columns,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import NULL_TELEMETRY, RunTelemetry


def forward(network: FeedForwardNetwork, x: np.ndarray) -> List[np.ndarray]:
    """Every layer's activations on ``x``, the input first.

    The last element equals ``network.predict(x)``, including its
    non-finite output guard.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != network.n_inputs:
        raise ValueError(
            f"expected {network.n_inputs} input features, got {x.shape[1]}"
        )
    activations = [x]
    for layer, weight in enumerate(network.weights):
        net = activations[-1] @ weight[1:] + weight[0]
        if layer == network.n_layers - 1:
            activations.append(network.output_activation.forward(net))
        else:
            activations.append(network.hidden_activation.forward(net))
    if not np.isfinite(activations[-1]).all():
        raise TrainingDiverged(
            "network output contains non-finite values",
            reason="non-finite output",
        )
    return activations


def gradients(
    network: FeedForwardNetwork,
    x: np.ndarray,
    y: np.ndarray,
    sample_weights: Optional[np.ndarray] = None,
) -> List[np.ndarray]:
    """Backpropagation: gradients of (weighted) half squared error,
    one array per weight matrix."""
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if y.shape[1] != network.n_outputs:
        raise ValueError(
            f"expected {network.n_outputs} targets, got {y.shape[1]}"
        )
    activations = forward(network, x)
    n = len(activations[0])
    if y.shape[0] != n:
        raise ValueError("x and y must have the same number of rows")

    output = activations[-1]
    delta = (output - y) * network.output_activation.derivative_from_output(
        output
    )
    if sample_weights is not None:
        sample_weights = np.asarray(sample_weights, dtype=np.float64)
        if sample_weights.shape != (n,):
            raise ValueError(
                f"sample_weights must have shape ({n},), got "
                f"{sample_weights.shape}"
            )
        delta = delta * sample_weights[:, None]

    grads: List[np.ndarray] = [np.empty(0)] * network.n_layers
    for layer in range(network.n_layers - 1, -1, -1):
        previous = activations[layer]
        grad = np.empty_like(network.weights[layer])
        grad[0] = delta.sum(axis=0)
        grad[1:] = previous.T @ delta
        grads[layer] = grad / n
        if layer > 0:
            delta = (
                delta @ network.weights[layer][1:].T
            ) * network.hidden_activation.derivative_from_output(previous)
    for grad in grads:
        if not np.isfinite(grad).all():
            raise TrainingDiverged(
                "backpropagation produced non-finite gradients",
                reason="non-finite gradients",
            )
    return grads


def train_batch(
    network: FeedForwardNetwork,
    velocity: Sequence[np.ndarray],
    x: np.ndarray,
    y: np.ndarray,
    sample_weights: Optional[np.ndarray] = None,
    learning_rate: float = DEFAULT_LEARNING_RATE,
    momentum: float = DEFAULT_MOMENTUM,
) -> None:
    """One gradient-descent-with-momentum step on a batch (Equation
    3.2), updating ``network``'s weights and ``velocity`` (one array per
    weight matrix, e.g. ``[np.zeros_like(w) for w in network.weights]``)
    in place."""
    grads = gradients(network, x, y, sample_weights)
    for weight, v, grad in zip(network.weights, velocity, grads):
        v *= momentum
        v -= learning_rate * grad
        weight += v


def weight_health(network: FeedForwardNetwork) -> WeightHealth:
    """Numeric health of ``network``'s weights (finite / max-|w| /
    saturation fraction), one layer at a time: the reference for
    :meth:`~repro.core.kernels.EnsembleTrainingKernel.member_health`."""
    max_abs = 0.0
    saturated = 0
    total = 0
    finite = True
    for weight in network.weights:
        magnitudes = np.abs(weight)
        layer_max = float(magnitudes.max())
        if not np.isfinite(layer_max):
            finite = False
        max_abs = max(max_abs, layer_max)
        with np.errstate(invalid="ignore"):
            saturated += int((magnitudes > SATURATION_THRESHOLD).sum())
        total += weight.size
    return WeightHealth(
        finite=finite,
        max_abs=max_abs,
        saturation=saturated / total if total else 0.0,
    )


class TrainingKernel:
    """Fused mini-batch SGD+momentum epochs over one network and dataset.

    Holds references to the network's weight arrays, so the in-place
    restores of :meth:`FeedForwardNetwork.set_weights` are picked up,
    and owns the momentum: :attr:`velocity` starts at zero and
    :meth:`reset_velocity` zeroes it again.  ``x`` is ``(n, F)`` and
    ``y`` the normalized targets ``(n, O)``.
    """

    def __init__(
        self, network: FeedForwardNetwork, x: np.ndarray, y: np.ndarray
    ):
        x = np.asarray(x, dtype=np.float64)
        y = np.atleast_2d(np.asarray(y, dtype=np.float64))
        if x.ndim != 2:
            raise ValueError(f"x must be 2-D, got shape {x.shape}")
        if x.shape[1] != network.n_inputs:
            raise ValueError(
                f"expected {network.n_inputs} input features, got {x.shape[1]}"
            )
        if y.shape[1] != network.n_outputs:
            raise ValueError(
                f"expected {network.n_outputs} targets, got {y.shape[1]}"
            )
        if len(x) != len(y):
            raise ValueError("x and y must have the same number of rows")
        self.network = network
        self.x = x
        self.y = y
        self._weights = network.weights
        self.velocity = [np.zeros_like(w) for w in network.weights]
        self._hidden_forward = network.hidden_activation.forward
        self._hidden_deriv = network.hidden_activation.derivative_from_output
        self._output_forward = network.output_activation.forward
        self._output_deriv = network.output_activation.derivative_from_output

    def reset_velocity(self) -> None:
        """Zero the momentum (used after weight restores)."""
        for v in self.velocity:
            v[...] = 0.0

    def weights_finite(self) -> bool:
        """Whether every weight matrix is free of NaN/inf."""
        return all(np.isfinite(w).all() for w in self._weights)

    def run_epoch(
        self,
        order: np.ndarray,
        batch_size: int,
        learning_rate: float,
        momentum: float,
    ) -> None:
        """One epoch: presentations ``order``, updates every ``batch_size``.

        The arithmetic of :func:`train_batch` on each slice of
        ``order``, with the per-batch finite-guards replaced by
        one check after the epoch.  Raises
        :class:`~repro.core.network.TrainingDiverged` (reason
        ``"non-finite weights"``) when the epoch left any weight
        non-finite.
        """
        x_ep = self.x[order]
        y_ep = self.y[order]
        weights = self._weights
        velocity = self.velocity
        n_layers = len(weights)
        last = n_layers - 1
        hidden_forward = self._hidden_forward
        hidden_deriv = self._hidden_deriv
        output_forward = self._output_forward
        output_deriv = self._output_deriv
        n = len(order)

        for start in range(0, n, batch_size):
            stop = start + batch_size
            xb = x_ep[start:stop]
            yb = y_ep[start:stop]
            m = len(xb)

            activations: List[np.ndarray] = [xb]
            a = xb
            for layer in range(n_layers):
                w = weights[layer]
                net = a @ w[1:] + w[0]
                a = (
                    output_forward(net) if layer == last
                    else hidden_forward(net)
                )
                activations.append(a)

            delta = (a - yb) * output_deriv(a)
            for layer in range(last, -1, -1):
                previous = activations[layer]
                w = weights[layer]
                v = velocity[layer]
                grad_bias = delta.sum(axis=0) / m
                grad = previous.T @ delta / m
                if layer > 0:
                    # backprop must see the pre-update weights
                    delta = (delta @ w[1:].T) * hidden_deriv(previous)
                v *= momentum
                v[0] -= learning_rate * grad_bias
                v[1:] -= learning_rate * grad
                w += v

        if not self.weights_finite():
            raise TrainingDiverged(
                "training epoch produced non-finite weights",
                reason="non-finite weights",
            )


class EarlyStoppingTrainer:
    """One attempt of the recipe: train one network on raw targets.

    ``rng`` draws the weighted presentation order; ``telemetry`` and
    ``metrics`` receive the same ``train.*`` events and counters the
    stacked engine records per fold.
    """

    def __init__(
        self,
        config: TrainingConfig,
        *,
        rng: np.random.Generator,
        telemetry: Optional[RunTelemetry] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.config = config
        self.rng = rng
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.metrics = (
            metrics if metrics is not None else MetricsRegistry(enabled=False)
        )

    def _diverged(
        self,
        message: str,
        *,
        reason: str,
        epoch: int,
        history: TrainingHistory,
        **payload,
    ) -> None:
        """Count the doomed fit's epochs, emit ``train.diverged``, raise."""
        self.metrics.inc("train.epochs", history.epochs_run)
        self.metrics.inc("train.diverged")
        self.telemetry.emit(
            "train.diverged", reason=reason, epoch=epoch, **payload
        )
        raise TrainingDiverged(message, reason=reason, epoch=epoch)

    def train(
        self,
        network: FeedForwardNetwork,
        x_train: np.ndarray,
        y_train: np.ndarray,
        x_es: np.ndarray,
        y_es: np.ndarray,
        scaler: TargetScaler,
    ) -> TrainingHistory:
        """Train ``network`` in place; returns the early-stopping history.

        ``y_train``/``y_es`` are raw targets, 1-D or one column per
        network output.  Presentation frequency and early stopping follow
        the primary target (column 0), and the :class:`TargetRecipe` of
        the targets' width applies.
        """
        cfg = TargetRecipe.of(y_train).config(self.config)
        x_train = np.asarray(x_train, dtype=np.float64)
        y_train = target_columns(y_train)
        x_es = np.asarray(x_es, dtype=np.float64)
        y_es = target_columns(y_es)
        if len(x_train) != len(y_train):
            raise ValueError("x_train and y_train must have equal length")
        if len(x_es) != len(y_es):
            raise ValueError("x_es and y_es must have equal length")
        if len(x_train) == 0 or len(x_es) == 0:
            raise ValueError("training and early-stopping sets must be non-empty")

        y_norm = scaler.transform(y_train)
        y_es = y_es[:, 0]
        probabilities = presentation_probabilities(
            y_train[:, 0], cfg.weight_by_inverse_target
        )
        kernel = TrainingKernel(network, x_train, y_norm)
        n = len(x_train)
        fit_start = time.perf_counter()
        history = TrainingHistory()
        best_weights = network.get_weights()
        checks_without_improvement = 0
        # a decaying fit stops at the last plateau decay its patience
        # reaches, and at the second at most; one that never decays, or
        # whose patience ends before its first decay, waits out
        # ``patience``
        stop_after = cfg.patience
        if cfg.lr_decay < 1.0 and cfg.patience >= cfg.decay_after:
            stop_after = cfg.decay_after * min(2, cfg.patience // cfg.decay_after)
        learning_rate = cfg.learning_rate
        dead_streak = 0

        for epoch in range(1, cfg.max_epochs + 1):
            order = self.rng.choice(n, size=n, p=probabilities)
            try:
                kernel.run_epoch(
                    order,
                    cfg.batch_size,
                    learning_rate=learning_rate,
                    momentum=cfg.momentum,
                )
            except TrainingDiverged as exc:
                self._diverged(
                    str(exc), reason=exc.reason, epoch=epoch, history=history
                )
            history.epochs_run = epoch
            if epoch % cfg.check_interval:
                continue

            health = weight_health(network)
            if not health.ok(cfg.max_weight):
                reason = (
                    "weight explosion" if health.finite
                    else "non-finite weights"
                )
                self._diverged(
                    f"unhealthy weights at epoch {epoch}: "
                    f"max |w| = {health.max_abs:g}, "
                    f"saturation = {health.saturation:.3f}",
                    reason=reason,
                    epoch=epoch,
                    history=history,
                    max_abs=health.max_abs,
                    saturation=health.saturation,
                )
            try:
                raw = network.predict(x_es)[:, 0]
            except TrainingDiverged as exc:
                self._diverged(
                    str(exc), reason=exc.reason, epoch=epoch, history=history
                )
            # column 0 denormalized by hand, independently of the
            # scaler's own broadcasting
            predictions = raw * scaler.span[0] + scaler.low[0]
            es_error = float(np.mean(percentage_errors(predictions, y_es)))
            if not np.isfinite(es_error) or es_error > cfg.divergence_error:
                self._diverged(
                    f"early-stopping error {es_error:g} exceeds the "
                    f"divergence threshold {cfg.divergence_error:g}",
                    reason="exploding es_error",
                    epoch=epoch,
                    history=history,
                    es_error=es_error,
                )
            # spread over a single prediction is zero by definition
            if len(raw) >= 2 and float(np.ptp(raw)) < DEAD_PREDICTION_SPREAD:
                dead_streak += 1
                if dead_streak >= cfg.dead_checks:
                    self._diverged(
                        f"constant predictions for {dead_streak} consecutive "
                        "checks: the network is dead (zeroed or saturated)",
                        reason="dead network",
                        epoch=epoch,
                        history=history,
                        dead_streak=dead_streak,
                    )
            else:
                dead_streak = 0
            history.es_errors.append(es_error)
            self.telemetry.emit(
                "train.check",
                epoch=epoch,
                es_error=es_error,
                best_error=min(history.best_error, es_error),
                learning_rate=learning_rate,
            )
            if es_error < history.best_error - 1e-12:
                history.best_error = es_error
                history.best_epoch = epoch
                best_weights = network.get_weights()
                checks_without_improvement = 0
            else:
                checks_without_improvement += 1
                if (
                    cfg.lr_decay < 1.0
                    and checks_without_improvement % cfg.decay_after == 0
                ):
                    learning_rate *= cfg.lr_decay
                    network.set_weights(best_weights)
                    kernel.reset_velocity()
                if checks_without_improvement >= stop_after:
                    history.stopped_early = True
                    break

        network.set_weights(best_weights)
        self.metrics.inc("train.epochs", history.epochs_run)
        self.metrics.observe("train.fit", time.perf_counter() - fit_start)
        self.telemetry.emit(
            "train.stop",
            epochs_run=history.epochs_run,
            best_epoch=history.best_epoch,
            best_error=history.best_error,
            stopped_early=history.stopped_early,
            n_train=n,
            n_es=len(x_es),
        )
        return history


class RobustTrainer:
    """Build-and-train wrapper that retries diverged fits deterministically.

    Attempt 0 seeds weight init and presentation order from
    ``np.random.default_rng(seed)``; restart attempt ``a`` uses
    ``np.random.default_rng([seed, a])``.  Up to ``config.max_restarts``
    restarts, each emitting ``train.restart``; then
    :class:`~repro.core.network.TrainingDiverged` with reason
    ``"restarts exhausted"``.
    """

    def __init__(
        self,
        config: TrainingConfig,
        *,
        seed: int = 0,
        telemetry: Optional[RunTelemetry] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.config = config
        self.seed = int(seed)
        self.max_restarts = config.max_restarts
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.metrics = (
            metrics if metrics is not None else MetricsRegistry(enabled=False)
        )

    def _attempt_rng(self, attempt: int) -> np.random.Generator:
        if attempt == 0:
            return np.random.default_rng(self.seed)
        return np.random.default_rng([self.seed, attempt])

    def fit(
        self,
        x_train: np.ndarray,
        y_train: np.ndarray,
        x_es: np.ndarray,
        y_es: np.ndarray,
        scaler: TargetScaler,
    ) -> Tuple[FeedForwardNetwork, TrainingHistory]:
        """Train a fresh network; returns ``(network, history)``."""
        cfg = self.config
        x_train = np.asarray(x_train, dtype=np.float64)
        n_outputs = target_columns(y_train).shape[1]
        last: Optional[TrainingDiverged] = None
        for attempt in range(self.max_restarts + 1):
            rng = self._attempt_rng(attempt)
            network = FeedForwardNetwork(
                n_inputs=x_train.shape[1],
                hidden_layers=cfg.hidden_layers,
                n_outputs=n_outputs,
                hidden_activation=cfg.hidden_activation,
                rng=rng,
                init_range=cfg.init_range,
            )
            trainer = EarlyStoppingTrainer(
                cfg, rng=rng, telemetry=self.telemetry, metrics=self.metrics
            )
            try:
                history = trainer.train(
                    network, x_train, y_train, x_es, y_es, scaler
                )
                return network, history
            except TrainingDiverged as exc:
                last = exc
                if attempt < self.max_restarts:
                    self.metrics.inc("train.restarts")
                    self.telemetry.emit(
                        "train.restart",
                        attempt=attempt + 1,
                        max_restarts=self.max_restarts,
                        seed=self.seed,
                        reason=exc.reason,
                    )
        assert last is not None
        raise TrainingDiverged(
            f"training diverged on all {self.max_restarts + 1} attempts "
            f"(seed {self.seed}; last failure: {last})",
            reason="restarts exhausted",
            epoch=last.epoch,
        )
