"""ANN training with percentage-error weighting and early stopping.

Implements Section 3.1-3.3's training recipe:

* gradient descent on squared error with a momentum term;
* data points presented at a frequency proportional to the inverse of
  their target value, which focuses backpropagation on *percentage* error
  rather than absolute error;
* early stopping on a held-aside set, evaluated on percentage error over
  actual (denormalized) values, with the best-so-far weights restored at
  the end.

The recipe can diverge — near-zero targets make the inverse-target
presentation weights degenerate, a too-large step size explodes the
weights, saturated units go dead — so every fit runs under *training
health* supervision: non-finite/exploding early-stopping error, weight
explosion and dead (constant-prediction) networks are detected at every
check interval, and a diverged fit is retried with deterministically
reseeded weights up to ``max_restarts`` times before it is given up.

:class:`StackedEnsembleTrainer` is the one trainer.  It runs that state
machine per fold task and trains every active fold's epoch as one
batched matmul stack: a cross-validation ensemble is ``k`` tasks, and a
single network (:class:`~repro.core.multitask.MultiTaskNetwork`) is one.
Targets may be one column or several: a network has one output per
target, the primary target (column 0) drives presentation frequency
and early stopping, and :class:`TargetRecipe` holds the two ways a
multi-target fit departs from the scalar recipe.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..obs.metrics import MetricsRegistry
from ..obs.telemetry import RunTelemetry
from .encoding import TargetScaler
from .error import percentage_errors
from .kernels import EnsembleTrainingKernel
from .network import (
    DEFAULT_HIDDEN_UNITS,
    DEFAULT_INIT_RANGE,
    DEFAULT_LEARNING_RATE,
    DEFAULT_MOMENTUM,
    FeedForwardNetwork,
    TrainingDiverged,
    WeightHealth,
)

#: prediction spread below which an early-stopping check counts as
#: "dead": a network whose outputs are this close to constant has
#: collapsed (zeroed or fully saturated units), not merely plateaued
DEAD_PREDICTION_SPREAD = 1e-12


def presentation_probabilities(
    targets: np.ndarray, weight_by_inverse_target: bool = True
) -> np.ndarray:
    """Per-point presentation frequency, proportional to 1/target.

    The Section 3.1 percentage-error weighting; each fold task of
    :class:`StackedEnsembleTrainer` computes it once for its fixed
    training targets.
    """
    targets = np.asarray(targets, dtype=np.float64).reshape(-1)
    finite = np.isfinite(targets)
    if not finite.all():
        bad = np.flatnonzero(~finite).tolist()
        raise ValueError(
            "inverse-target weighting requires finite targets; "
            f"non-finite values at indices {bad} (NaN marks a failed "
            "evaluation — mask those rows out before fitting)"
        )
    if np.any(targets <= 0):
        raise ValueError(
            "inverse-target weighting requires strictly positive targets"
        )
    if not weight_by_inverse_target:
        return np.full(len(targets), 1.0 / len(targets))
    inverse = 1.0 / targets
    return inverse / inverse.sum()


class PresentationSampler:
    """Weighted presentation draws with replacement from a fixed
    distribution, equal in values and dtype to
    ``rng.choice(n, size=n, p=probabilities)``.

    ``Generator.choice`` validates ``p`` and rebuilds its normalised
    cumulative distribution on every call, then inverts it with
    ``cdf.searchsorted(rng.random(n), side="right")``.  A fold's
    presentation probabilities never change, so this builds the CDF once
    and runs only the inversion, consuming the generator exactly as
    ``choice`` does.
    """

    def __init__(self, probabilities: np.ndarray):
        cdf = np.asarray(probabilities, dtype=np.float64).cumsum()
        cdf /= cdf[-1]
        self.cdf = cdf

    def draw(
        self, rng: np.random.Generator, epochs: Optional[int] = None
    ) -> np.ndarray:
        """One presentation order of ``len(probabilities)`` indices, or
        ``epochs`` of them as an ``(epochs, n)`` matrix.

        ``rng.random((epochs, n))`` fills its rows with the doubles
        ``epochs`` successive ``rng.random(n)`` calls would return, so
        the matrix equals that many single draws, row for row, and
        leaves the generator in the same state.
        """
        n = len(self.cdf)
        size = n if epochs is None else (epochs, n)
        return self.cdf.searchsorted(rng.random(size), side="right")


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters of one ANN training run.

    Defaults keep the paper's training recipe (near-zero uniform weight
    init, inverse-target presentation, early stopping on percentage error)
    with two practical adaptations, both documented in DESIGN.md: (a) two
    hidden layers of 16 units — Figure 3.1(b)'s deeper variant — because
    our substitute simulator's response surface has sharper multiplicative
    interactions than SESC's, and one hidden layer plateaus ~2x higher;
    (b) tanh hidden units with learning rate 0.3, momentum 0.9 and
    plateau-triggered decay, which reach the same solutions as the paper's
    sigmoid/0.001/0.5 one to two orders of magnitude faster.  Use
    :meth:`paper_settings` for the literal hyperparameters.

    Early stopping checks the held-aside error every ``check_interval``
    epochs.  After every ``decay_after`` checks without improvement a
    decaying fit (``lr_decay`` < 1) multiplies its learning rate by
    ``lr_decay`` and returns to its best weights, and it stops at the
    last fruitless decay its ``patience`` reaches, and at the second at
    most: ``decay_after * min(2, patience // decay_after)`` checks
    without improvement (20 on the default recipe, 10 on
    :meth:`fast_settings`).  ``patience`` alone stops fits that do not
    decay and fits whose ``patience`` is below ``decay_after``.
    """

    hidden_layers: tuple = (DEFAULT_HIDDEN_UNITS, DEFAULT_HIDDEN_UNITS)
    hidden_activation: str = "tanh"
    learning_rate: float = 0.3
    momentum: float = 0.9
    init_range: float = DEFAULT_INIT_RANGE
    batch_size: int = 32
    max_epochs: int = 3000
    check_interval: int = 10
    #: checks without improvement before a fit that does not decay
    #: stops; a decaying fit stops at
    #: decay_after * min(2, patience // decay_after) when that is > 0
    patience: int = 40
    lr_decay: float = 0.5
    decay_after: int = 10
    weight_by_inverse_target: bool = True
    # -- training-health supervision ----------------------------------
    #: reseeded restarts a fit may spend on divergence before it is
    #: given up (a quarantined fold, or ``TrainingDiverged``)
    max_restarts: int = 2
    #: early-stopping percentage error above which a fit counts as
    #: diverged (a useful model is within ~tens of percent; 1e6% means
    #: the network left the target's order of magnitude entirely)
    divergence_error: float = 1e6
    #: largest tolerated weight magnitude before declaring explosion
    max_weight: float = 1e6
    #: consecutive constant-prediction checks before declaring the
    #: network dead
    dead_checks: int = 5

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.batch_size <= 0 or self.max_epochs <= 0:
            raise ValueError("batch_size and max_epochs must be positive")
        if self.check_interval <= 0 or self.patience <= 0:
            raise ValueError("check_interval and patience must be positive")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError("lr_decay must be in (0, 1]")
        if self.decay_after <= 0:
            raise ValueError("decay_after must be positive")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")
        if self.divergence_error <= 0 or self.max_weight <= 0:
            raise ValueError(
                "divergence_error and max_weight must be positive"
            )
        if self.dead_checks <= 0:
            raise ValueError("dead_checks must be positive")

    @classmethod
    def paper_settings(cls) -> "TrainingConfig":
        """The paper's literal hyperparameters (Section 3.1): sigmoid
        hidden units, learning rate 0.001, momentum 0.5.  Converges to the
        same solutions as the default but needs many more epochs."""
        return cls(
            hidden_layers=(DEFAULT_HIDDEN_UNITS,),
            hidden_activation="sigmoid",
            learning_rate=DEFAULT_LEARNING_RATE,
            momentum=DEFAULT_MOMENTUM,
            max_epochs=20_000,
            patience=200,
            lr_decay=1.0,
        )

    @classmethod
    def fast_settings(cls) -> "TrainingConfig":
        """Cheaper settings for tests and quick sweeps.

        ``patience`` 15 reaches one plateau decay (``decay_after`` 10),
        so a fit stops 10 checks (100 epochs) after its best, at that
        decay."""
        return cls(max_epochs=600, patience=15, check_interval=10)

    #: preset names accepted by :meth:`from_preset` (and the CLI's
    #: ``--training`` flag / campaign specs' ``training`` key)
    PRESETS = ("default", "fast", "paper")

    @classmethod
    def from_preset(cls, name: str) -> "TrainingConfig":
        """Resolve a named training-recipe preset.

        The single source of truth behind ``repro explore --training``
        and the ``training`` key of campaign specs.
        """
        if name == "default":
            return cls()
        if name == "fast":
            return cls.fast_settings()
        if name == "paper":
            return cls.paper_settings()
        raise ValueError(
            f"unknown training preset {name!r}; choices: "
            f"{', '.join(cls.PRESETS)}"
        )


@dataclass
class TrainingHistory:
    """Early-stopping trace of one training run."""

    es_errors: List[float] = field(default_factory=list)
    best_error: float = float("inf")
    best_epoch: int = 0
    epochs_run: int = 0
    stopped_early: bool = False


def target_columns(y: np.ndarray) -> np.ndarray:
    """Raw targets as an ``(n, n_targets)`` matrix.

    A 1-D target vector is the width-1 case.  Column 0 is the primary
    target: presentation frequency and early stopping both follow it.
    """
    y = np.asarray(y, dtype=np.float64)
    return y if y.ndim == 2 else y.reshape(-1, 1)


@dataclass(frozen=True)
class TargetRecipe:
    """How the output width of a fit adjusts the Section 3.1 recipe.

    A scalar fit (width 1) runs the recipe as configured.  A
    multi-target fit departs from it in exactly two ways, both decided
    here so that the fold-stacked trainer and the cross-validation
    ensemble cannot disagree:

    * **per-fold scaling** — a scalar fit scales its targets with one
      :class:`~repro.core.encoding.TargetScaler` fit on every sampled
      row and shared by all folds, while each multi-target fold fits
      its own on its training rows.  One shared scaler measured worse
      on the cache-policy ``osc-tight`` exploration at seed 17 (final
      error 4.08 -> 5.15 %, simulations to target 100 -> 150);
    * **no plateau decay** — multi-target fits keep the learning rate
      fixed (``lr_decay`` 1.0); the scalar recipe's decay measured
      8.56 % final error on the same run.

    The stop rule follows from the second: a decaying scalar fit stops
    at the last plateau decay without improvement that its ``patience``
    reaches, and at the second at most (``decay_after * min(2, patience
    // decay_after)`` checks: 20 on the default recipe, 10 on ``fast``),
    while a multi-target fit never decays and so keeps the full
    ``patience`` tail (400 epochs on the default recipe).  It
    needs it: stopping after 20 checks raised ``osc-tight`` true error
    at every seed tried (4.14 -> 5.55 % at seed 17).
    """

    n_targets: int = 1

    @classmethod
    def of(cls, y: np.ndarray) -> "TargetRecipe":
        """The recipe for raw targets ``y`` (1-D or ``(n, n_targets)``)."""
        return cls(target_columns(y).shape[1])

    @property
    def per_fold_scaling(self) -> bool:
        """Whether each fold scales its own training rows."""
        return self.n_targets > 1

    def config(self, config: TrainingConfig) -> TrainingConfig:
        """``config`` as a fit of this width trains it."""
        if self.n_targets > 1 and config.lr_decay != 1.0:
            return dataclasses.replace(config, lr_decay=1.0)
        return config

    def fold_scalers(
        self, y: np.ndarray, tasks: Sequence
    ) -> List[TargetScaler]:
        """One fitted target scaler per ``(train_idx, ...)`` fold task."""
        if not self.per_fold_scaling:
            shared = TargetScaler().fit(y)
            return [shared] * len(tasks)
        y = target_columns(y)
        return [TargetScaler().fit(y[task[0]]) for task in tasks]


# ----------------------------------------------------------------------
# fold-stacked ensemble training
# ----------------------------------------------------------------------
@dataclass
class FoldResult:
    """One trained fold plus the observability it recorded.

    A quarantined fold — training exhausted its restart budget — has
    ``network=None``, no test errors, ``epochs`` 0, no ``history`` and
    ``error`` describing the last failure.  ``test_errors`` holds the
    held-out percentage errors as an ``(n_test, n_targets)`` matrix, and
    ``history`` the early-stopping trace of the attempt that completed.

    ``events`` carries the fold's telemetry as ``(name, payload)``
    pairs and ``metrics`` its local registry; the caller ``replay``-s
    them in fold order, so a stacked fit's stream reads as if the folds
    had trained one after another.
    """

    network: Optional[FeedForwardNetwork]
    test_errors: np.ndarray
    wall_s: float
    epochs: int
    events: List[Tuple[str, Dict[str, object]]] = field(default_factory=list)
    metrics: Optional[MetricsRegistry] = None
    error: Optional[str] = None
    history: Optional[TrainingHistory] = None

    @property
    def diverged(self) -> bool:
        """Whether this fold was quarantined."""
        return self.network is None

    def replay(self, telemetry: RunTelemetry, metrics: MetricsRegistry) -> None:
        """Re-emit recorded events and merge recorded metrics."""
        for name, payload in self.events:
            telemetry.emit(name, **payload)
        if self.metrics is not None:
            metrics.merge(self.metrics)


class _Check(NamedTuple):
    """One fold's early-stopping check, as its group's batched pass
    computed it (:class:`_GroupChecks`).  A fold whose weight health
    fails is not evaluated, as a single-network check stops there:
    only ``health`` is set.  ``es_error`` and ``spread`` (the primary
    output's ``ptp``) are set only when the outputs are finite."""

    health: WeightHealth
    outputs_finite: bool = False
    es_error: float = math.nan
    spread: float = math.nan


class _FoldProgram:
    """The per-fold early-stopping/restart state machine.

    One fold task's fit — early stopping, plateau decay, divergence
    checks and reseeded restarts — driven one epoch at a time against
    one member slice of an
    :class:`~repro.core.kernels.EnsembleTrainingKernel`, so many folds'
    epochs can share batched matmuls while each fold stops, decays,
    restarts and quarantines on its own schedule.  It reproduces a
    single-network fit of the fold exactly (same rng streams, check
    order, divergence messages, telemetry and counters);
    ``tests/reference_training.py`` holds that fit as the reference.
    """

    def __init__(
        self,
        member: int,
        x_train: np.ndarray,
        y_train: np.ndarray,
        x_es: np.ndarray,
        y_es: np.ndarray,
        scaler: TargetScaler,
        config: TrainingConfig,
        seed: int,
        telemetry: RunTelemetry,
        metrics: MetricsRegistry,
    ):
        if len(x_train) == 0 or len(x_es) == 0:
            raise ValueError(
                "training and early-stopping sets must be non-empty"
            )
        self.member = member
        self.x_train = x_train
        self.y_norm = scaler.transform(y_train)
        self.x_es = x_es
        self.y_es = y_es[:, 0]
        # the primary column's inverse scaling, as
        # TargetScaler.inverse_transform applies it
        self.es_span = scaler.span[0]
        self.es_low = scaler.low[0]
        self.n_outputs = y_train.shape[1]
        self.cfg = cfg = TargetRecipe(self.n_outputs).config(config)
        # checks without improvement before the fit stops: a decaying
        # fit stops at the last plateau decay its patience reaches, and
        # at the second at most; a fit that never decays, or whose
        # patience ends before its first decay, waits out ``patience``
        decays = min(2, cfg.patience // cfg.decay_after)
        self.stop_after = (
            decays * cfg.decay_after
            if cfg.lr_decay < 1.0 and decays else cfg.patience
        )
        self.seed = int(seed)
        self.telemetry = telemetry
        self.metrics = metrics
        self.n = len(x_train)
        # fixed targets: one probability computation and one CDF per fold
        self.sampler = PresentationSampler(
            presentation_probabilities(
                y_train[:, 0], config.weight_by_inverse_target
            )
        )
        self.attempt = 0
        self.done = False
        self.error: Optional[str] = None
        self.network: Optional[FeedForwardNetwork] = None
        self.wall_s = 0.0
        self.attempt_wall = 0.0
        self.start_attempt()

    # -- the restart layer ---------------------------------------------
    def _attempt_rng(self) -> np.random.Generator:
        # attempt 0 draws from the fold seed itself; restart ``a`` from
        # the distinct, still seed-determined stream [seed, a]
        if self.attempt == 0:
            return np.random.default_rng(self.seed)
        return np.random.default_rng([self.seed, self.attempt])

    def start_attempt(self) -> None:
        """Fresh rng, network and early-stopping state for one attempt."""
        cfg = self.cfg
        self.rng = self._attempt_rng()
        # network init consumes the rng first; the same generator then
        # drives this attempt's presentation draws
        self.network = FeedForwardNetwork(
            n_inputs=self.x_train.shape[1],
            hidden_layers=cfg.hidden_layers,
            n_outputs=self.n_outputs,
            hidden_activation=cfg.hidden_activation,
            rng=self.rng,
            init_range=cfg.init_range,
        )
        self.history = TrainingHistory()
        self.best_weights = self.network.get_weights()
        self.checks_without_improvement = 0
        self.learning_rate = cfg.learning_rate
        self.dead_streak = 0
        self.epoch = 0
        self.attempt_wall = 0.0

    def draw_order(self) -> np.ndarray:
        """This attempt's next weighted presentation order.

        Orders are drawn one ``check_interval`` block at a time, the
        same values one draw per epoch gives.  Draws a block holds past
        the attempt's end are never used by a later attempt: a restart
        builds a fresh generator.
        """
        cfg = self.cfg
        at = self.epoch % cfg.check_interval
        if at == 0:
            self.orders = self.sampler.draw(
                self.rng, min(cfg.check_interval, cfg.max_epochs - self.epoch)
            )
        return self.orders[at]

    # -- the early-stopping layer --------------------------------------
    def _diverged(
        self, message: str, *, reason: str, epoch: int, **payload
    ) -> None:
        # the one choke point for every detected failure: count the
        # doomed epochs (train.epochs stays an honest work measure
        # across restarts), emit one train.diverged event, raise
        self.metrics.inc("train.epochs", self.history.epochs_run)
        self.metrics.inc("train.diverged")
        self.telemetry.emit(
            "train.diverged", reason=reason, epoch=epoch, **payload
        )
        raise TrainingDiverged(message, reason=reason, epoch=epoch)

    def check_due(self, weights_finite: bool) -> bool:
        """Whether the epoch just run ends in an early-stopping check
        (a non-finite epoch fails before its check)."""
        return weights_finite and (self.epoch + 1) % self.cfg.check_interval == 0

    def after_epoch(
        self,
        kernel: EnsembleTrainingKernel,
        weights_finite: bool,
        check: Optional[_Check] = None,
    ) -> None:
        """Post-epoch bookkeeping for this fold's member row.

        One iteration of the early-stopping loop — finite guard,
        periodic health/ES check, plateau decay, patience — with
        divergence handled by the restart/quarantine layer instead of
        propagating.  ``weights_finite`` is the member's entry of the
        group's :meth:`EnsembleTrainingKernel.members_finite`, and
        ``check`` — given when :meth:`check_due` — its entry of the
        group's :class:`_GroupChecks`, so the guard and the check cost
        one batched computation per group instead of one per fold.
        """
        cfg = self.cfg
        self.epoch += 1
        epoch = self.epoch
        try:
            if not weights_finite:
                # the failed epoch is not counted in epochs_run
                self._diverged(
                    "training epoch produced non-finite weights",
                    reason="non-finite weights",
                    epoch=epoch,
                )
            self.history.epochs_run = epoch
            if epoch % cfg.check_interval == 0:
                self._run_check(kernel, epoch, check)
        except TrainingDiverged as exc:
            self._restart_or_quarantine(kernel, exc)
            return
        if self.history.stopped_early or epoch >= cfg.max_epochs:
            self._complete(kernel)

    def _run_check(
        self, kernel: EnsembleTrainingKernel, epoch: int, check: _Check
    ) -> None:
        cfg = self.cfg
        history = self.history
        health = check.health
        if not health.ok(cfg.max_weight):
            reason = (
                "weight explosion" if health.finite else "non-finite weights"
            )
            self._diverged(
                f"unhealthy weights at epoch {epoch}: "
                f"max |w| = {health.max_abs:g}, "
                f"saturation = {health.saturation:.3f}",
                reason=reason,
                epoch=epoch,
                max_abs=health.max_abs,
                saturation=health.saturation,
            )
        if not check.outputs_finite:
            # FeedForwardNetwork.predict's non-finite output guard
            self._diverged(
                "network output contains non-finite values",
                reason="non-finite output",
                epoch=epoch,
            )
        es_error = check.es_error
        if not math.isfinite(es_error) or es_error > cfg.divergence_error:
            self._diverged(
                f"early-stopping error {es_error:g} exceeds the "
                f"divergence threshold {cfg.divergence_error:g}",
                reason="exploding es_error",
                epoch=epoch,
                es_error=es_error,
            )
        # dead-network detection needs >= 2 ES points: spread over a
        # single prediction is zero by definition, not a collapse
        if len(self.y_es) >= 2 and check.spread < DEAD_PREDICTION_SPREAD:
            self.dead_streak += 1
            if self.dead_streak >= cfg.dead_checks:
                self._diverged(
                    f"constant predictions for {self.dead_streak} "
                    "consecutive checks: the network is dead (zeroed or "
                    "saturated)",
                    reason="dead network",
                    epoch=epoch,
                    dead_streak=self.dead_streak,
                )
        else:
            self.dead_streak = 0
        history.es_errors.append(es_error)
        self.telemetry.emit(
            "train.check",
            epoch=epoch,
            es_error=es_error,
            best_error=min(history.best_error, es_error),
            learning_rate=self.learning_rate,
        )
        if es_error < history.best_error - 1e-12:
            history.best_error = es_error
            history.best_epoch = epoch
            self.best_weights = kernel.get_member_weights(self.member)
            self.checks_without_improvement = 0
        else:
            self.checks_without_improvement += 1
            if (
                cfg.lr_decay < 1.0
                and self.checks_without_improvement % cfg.decay_after == 0
            ):
                self.learning_rate *= cfg.lr_decay
                kernel.set_member_weights(self.member, self.best_weights)
                kernel.reset_member_velocity(self.member)
            if self.checks_without_improvement >= self.stop_after:
                history.stopped_early = True

    def _complete(self, kernel: EnsembleTrainingKernel) -> None:
        """Early stop (or epoch budget): freeze the best weights."""
        kernel.set_member_weights(self.member, self.best_weights)
        self.network = kernel.sync_member(self.member)
        self.metrics.inc("train.epochs", self.history.epochs_run)
        self.metrics.observe("train.fit", self.attempt_wall)
        self.telemetry.emit(
            "train.stop",
            epochs_run=self.history.epochs_run,
            best_epoch=self.history.best_epoch,
            best_error=self.history.best_error,
            stopped_early=self.history.stopped_early,
            n_train=self.n,
            n_es=len(self.x_es),
        )
        self.done = True
        kernel.deactivate(self.member)

    def _restart_or_quarantine(
        self, kernel: EnsembleTrainingKernel, exc: TrainingDiverged
    ) -> None:
        """The retry loop, one divergence at a time: reseed and
        restart while the budget lasts, then quarantine."""
        if self.attempt < self.cfg.max_restarts:
            self.metrics.inc("train.restarts")
            self.telemetry.emit(
                "train.restart",
                attempt=self.attempt + 1,
                max_restarts=self.cfg.max_restarts,
                seed=self.seed,
                reason=exc.reason,
            )
            self.attempt += 1
            self.start_attempt()
            kernel.reinit_member(self.member, self.network)
        else:
            # formatted as "{reason}: {message}" like every quarantine
            # record
            self.error = (
                "restarts exhausted: training diverged on all "
                f"{self.cfg.max_restarts + 1} attempts "
                f"(seed {self.seed}; last failure: {exc})"
            )
            self.network = None
            self.done = True
            kernel.deactivate(self.member)


class _GroupChecks:
    """The early-stopping checks of one fold group, batched.

    Each fold's check reads its early-stopping inputs, its primary
    targets and its scaler's primary column; those never change, so
    they are stacked once per early-stopping-set length.  A call then
    makes one weight-health pass over the due folds and, for the
    healthy ones, one stacked pass per length for their outputs'
    finiteness and, where finite, the inverse scaling, mean percentage
    error and spread (``ptp``) of the primary output.  Each value
    equals its single-fold computation (``TargetScaler.inverse_transform``,
    ``percentage_errors``, ``np.mean``, ``np.ptp``): elementwise
    arithmetic, and reductions along each fold's own contiguous row.
    """

    def __init__(self, programs: Sequence[_FoldProgram], max_weight: float):
        self.max_weight = max_weight
        by_length: Dict[int, List[_FoldProgram]] = {}
        for program in programs:
            by_length.setdefault(len(program.y_es), []).append(program)
        #: member -> its position in its length's stacks
        self.position: Dict[int, int] = {}
        #: members whose early-stopping truths hold a zero, which
        #: percentage error cannot take (their first check raises)
        self.zero_truth = {
            program.member for program in programs
            if np.any(program.y_es == 0)
        }
        #: length -> (inputs, truths, |truths|, span, low), stacked
        self.stacks: Dict[int, Tuple[np.ndarray, ...]] = {}
        for length, group in by_length.items():
            for at, program in enumerate(group):
                self.position[program.member] = at
            truths = np.stack([program.y_es for program in group])
            self.stacks[length] = (
                np.stack([program.x_es for program in group]),
                truths,
                np.abs(truths),
                np.array([[program.es_span] for program in group]),
                np.array([[program.es_low] for program in group]),
            )

    def __call__(
        self,
        kernel: EnsembleTrainingKernel,
        programs: Sequence[_FoldProgram],
    ) -> Dict[int, _Check]:
        """One :class:`_Check` per member of the due ``programs``."""
        healths = kernel.member_health([program.member for program in programs])
        checks: Dict[int, _Check] = {}
        by_length: Dict[int, List[Tuple[_FoldProgram, WeightHealth]]] = {}
        for program, health in zip(programs, healths):
            if health.ok(self.max_weight):
                by_length.setdefault(len(program.y_es), []).append(
                    (program, health)
                )
            else:
                checks[program.member] = _Check(health)
        for length, due in by_length.items():
            inputs, truths, magnitudes, span, low = self.stacks[length]
            at = np.array([self.position[program.member] for program, _ in due])
            outputs = kernel.predict_members(
                [program.member for program, _ in due], inputs[at]
            )
            finite = np.isfinite(outputs).all(axis=(1, 2))
            if not finite.all():
                for (program, health), ok in zip(due, finite.tolist()):
                    if not ok:
                        checks[program.member] = _Check(health)
                due = [entry for entry, ok in zip(due, finite) if ok]
                at, outputs = at[finite], outputs[finite]
                if not due:
                    continue
            if any(program.member in self.zero_truth for program, _ in due):
                raise ValueError(
                    "percentage error is undefined for zero truths"
                )
            raw = outputs[:, :, 0]
            predictions = raw * span[at] + low[at]
            errors = 100.0 * np.abs(predictions - truths[at]) / magnitudes[at]
            es_errors = errors.mean(axis=1).tolist()
            spreads = np.ptp(raw, axis=1).tolist()
            for (program, health), es_error, spread in zip(
                due, es_errors, spreads
            ):
                checks[program.member] = _Check(health, True, es_error, spread)
        return checks


class StackedEnsembleTrainer:
    """Train fold tasks through one fold-stacked kernel.

    The package's one trainer: the training engine of
    :class:`~repro.core.crossval.CrossValidationEnsemble`, for scalar
    and multi-target fits alike (the network's output width is the
    number of target columns), and of the single-network
    :class:`~repro.core.multitask.MultiTaskNetwork`, which is a run of
    one task.  Given ``(train_idx, es_idx, test_idx, seed)`` fold tasks
    it produces bit-identical networks, test errors, telemetry events
    and counters to one single-network fit per task — but runs every
    still-active fold's epoch as one batched matmul stack instead of
    ``k`` Python-level fits.  Folds are grouped
    by training-set length (``n % k != 0`` makes fold sizes differ by
    at most one, so at most three groups) because stacking requires
    equal GEMM shapes for bit-identity; each group trains through its
    own :class:`~repro.core.kernels.EnsembleTrainingKernel` until every
    member has early-stopped, exhausted its epoch budget, or been
    quarantined.

    Each fold records its observability into its own buffer, returned
    on its :class:`FoldResult` for the caller to replay in fold order.
    """

    def __init__(self, config: Optional[TrainingConfig] = None):
        self.config = config or TrainingConfig()

    def fit_folds(
        self,
        x: np.ndarray,
        y: np.ndarray,
        tasks: Sequence,
        scalers: Sequence[TargetScaler],
        capture_telemetry: bool = False,
        capture_metrics: bool = False,
    ) -> List[FoldResult]:
        """Train every fold task; returns one result per task, in order.

        ``tasks`` carries ``(train_idx, es_idx, test_idx, seed)`` tuples
        as produced by :func:`~repro.core.crossval.fold_tasks`, and
        ``scalers`` the fitted target scaler each task trains under
        (see :meth:`TargetRecipe.fold_scalers`).  When
        ``capture_telemetry`` / ``capture_metrics`` are set each fold
        records events and counters into a private buffer; otherwise
        the hooks are no-ops.
        """
        x = np.asarray(x, dtype=np.float64)
        y = target_columns(y)
        if len(scalers) != len(tasks):
            raise ValueError("need one target scaler per fold task")
        programs: List[_FoldProgram] = []
        groups: dict = {}
        for (train_idx, es_idx, _, seed), scaler in zip(tasks, scalers):
            group = groups.setdefault(len(train_idx), [])
            program = _FoldProgram(
                member=len(group),
                x_train=x[train_idx],
                y_train=y[train_idx],
                x_es=x[es_idx],
                y_es=y[es_idx],
                scaler=scaler,
                config=self.config,
                seed=seed,
                telemetry=RunTelemetry(enabled=capture_telemetry),
                metrics=MetricsRegistry(enabled=capture_metrics),
            )
            group.append(program)
            programs.append(program)

        for group in groups.values():
            self._train_group(group)

        results: List[FoldResult] = []
        for program, (_, _, test_idx, _), scaler in zip(
            programs, tasks, scalers
        ):
            started = time.perf_counter()
            if program.network is not None:
                predictions = scaler.inverse_transform(
                    program.network.predict(x[test_idx])
                )
                test_errors = np.column_stack(
                    [
                        percentage_errors(predictions[:, t], y[test_idx, t])
                        for t in range(y.shape[1])
                    ]
                )
                history = program.history
            else:
                test_errors = np.empty((0, y.shape[1]))
                history = None
            program.wall_s += time.perf_counter() - started
            results.append(
                FoldResult(
                    network=program.network,
                    test_errors=test_errors,
                    wall_s=program.wall_s,
                    epochs=history.epochs_run if history else 0,
                    events=[
                        (event.name, dict(event.payload))
                        for event in program.telemetry.events
                    ],
                    metrics=program.metrics if capture_metrics else None,
                    error=program.error,
                    history=history,
                )
            )
        return results

    def _train_group(self, group: List[_FoldProgram]) -> None:
        """Run one equal-length group of folds to completion."""
        cfg = self.config
        kernel = EnsembleTrainingKernel(
            [program.network for program in group],
            [program.x_train for program in group],
            [program.y_norm for program in group],
        )
        orders = np.empty((len(group), kernel.n_samples), dtype=np.intp)
        run_checks = _GroupChecks(group, cfg.max_weight)
        while True:
            active = [program for program in group if not program.done]
            if not active:
                break
            step_start = time.perf_counter()
            # each active fold's next weighted presentation order, from
            # that fold's own attempt rng — the same stream order as a
            # single-network fit
            for row, program in enumerate(active):
                orders[row] = program.draw_order()
            learning_rates = np.array(
                [program.learning_rate for program in active]
            )
            kernel.run_epoch(
                orders[: len(active)],
                cfg.batch_size,
                learning_rates,
                cfg.momentum,
            )
            finite = kernel.members_finite().tolist()
            due = [
                program for program in active
                if program.check_due(finite[program.member])
            ]
            checks = run_checks(kernel, due) if due else {}
            for program in active:
                program.after_epoch(
                    kernel,
                    finite[program.member],
                    checks.get(program.member),
                )
            # attribute the step's wall time equally across the folds it
            # advanced, keeping per-fold wall_s an honest work share
            share = (time.perf_counter() - step_start) / len(active)
            for program in active:
                program.wall_s += share
                program.attempt_wall += share
