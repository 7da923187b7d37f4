"""Tests for the training-health subsystem.

Covers divergence detection (weight health, non-finite weights,
exploding early-stopping error, dead networks), deterministic restarts,
fold quarantine in the cross-validation ensemble, the outlier fault
mode, and the unseeded-generator warning.  Single fits run as one-task
``StackedEnsembleTrainer`` runs (the path of ``MultiTaskNetwork``).
"""

import dataclasses
import warnings

import numpy as np
import pytest
from tests.reference_training import (
    EarlyStoppingTrainer,
    gradients,
    weight_health,
)

import repro.core.network as network_mod
from repro.core import (
    EnsemblePredictor,
    FeedForwardNetwork,
    MultiTaskNetwork,
    TargetScaler,
    TrainingConfig,
    TrainingDiverged,
)
from repro.core.context import RunContext
from repro.core.crossval import CrossValidationEnsemble
from repro.core.faults import FaultInjectingBackend, FaultPlan
from repro.core.kernels import EnsembleTrainingKernel
from repro.core.training import presentation_probabilities
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import RunTelemetry


def linear_data(seed=0, n=30):
    """A smooth positive regression problem the trainer handles easily."""
    rng = np.random.default_rng(seed)
    x = rng.random((n, 3))
    y = 1.0 + x @ np.array([0.5, 0.25, 0.1])
    return x, y


def fit_once(fit_one_task, config, x, y, x_es, y_es):
    """One attempt (no restarts) of a one-task fit with deterministic
    seeds; its events and counters are captured on the result."""
    scaler = TargetScaler().fit(np.concatenate([y, y_es]))
    return fit_one_task(
        dataclasses.replace(config, max_restarts=0),
        x, y, x_es, y_es, scaler, seed=1, capture=True,
    )


def events_named(result, name):
    """Payloads of one fit's recorded events called ``name``."""
    return [payload for event, payload in result.events if event == name]


def diverged_event(result):
    """The ``train.diverged`` payload of a single attempt that diverged:
    with no restart left, the fit is given up."""
    assert result.diverged
    assert result.error.startswith("restarts exhausted: ")
    (event,) = events_named(result, "train.diverged")
    return event


class TestWeightHealth:
    def test_fresh_network_is_healthy(self, rng):
        net = FeedForwardNetwork(3, (8,), 1, rng=rng)
        health = weight_health(net)
        assert health.finite
        assert health.max_abs <= 0.01
        assert health.saturation == 0.0
        assert health.ok(max_weight=1e6)

    def test_non_finite_weights_flagged(self, rng):
        net = FeedForwardNetwork(3, (8,), 1, rng=rng)
        net.weights[0][0, 0] = np.nan
        health = weight_health(net)
        assert not health.finite
        assert not health.ok(max_weight=1e6)

    def test_explosion_and_saturation_flagged(self, rng):
        net = FeedForwardNetwork(3, (8,), 1, rng=rng)
        net.weights[1][0, 0] = 50.0
        health = weight_health(net)
        assert health.finite
        assert health.max_abs == 50.0
        assert health.saturation > 0.0
        assert not health.ok(max_weight=10.0)
        assert health.ok(max_weight=100.0)


class TestFiniteGuards:
    def test_forward_raises_on_non_finite_output(self, rng):
        net = FeedForwardNetwork(3, (8,), 1, rng=rng)
        net.weights[-1][...] = np.nan
        with pytest.raises(TrainingDiverged) as info:
            net.predict(rng.random((5, 3)))
        assert info.value.reason == "non-finite output"

    def test_gradients_raise_on_non_finite(self, rng):
        net = FeedForwardNetwork(3, (4,), 1, rng=rng)
        x = rng.random((5, 3))
        y = rng.random((5, 1))
        with pytest.raises(TrainingDiverged) as info:
            gradients(net, x, y, sample_weights=np.full(5, np.nan))
        assert info.value.reason == "non-finite gradients"


class TestPresentationProbabilities:
    def test_non_finite_targets_named(self):
        with pytest.raises(ValueError, match=r"indices \[1, 3\]"):
            presentation_probabilities(np.array([1.0, np.nan, 2.0, np.inf]))

    def test_non_positive_targets_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            presentation_probabilities(np.array([1.0, 0.0]))


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"max_restarts": -1},
            {"divergence_error": 0.0},
            {"max_weight": -1.0},
            {"dead_checks": 0},
        ],
    )
    def test_health_fields_validated(self, overrides):
        with pytest.raises(ValueError):
            dataclasses.replace(TrainingConfig(), **overrides)


class TestDivergenceDetection:
    def test_exploding_es_error(self, fast_training, fit_one_task):
        # any real percentage error exceeds a near-zero threshold, so the
        # first early-stopping check must report divergence
        config = dataclasses.replace(fast_training, divergence_error=1e-9)
        x, y = linear_data()
        result = fit_once(fit_one_task, config, x[4:], y[4:], x[:4], y[:4])
        event = diverged_event(result)
        assert event["reason"] == "exploding es_error"
        assert event["epoch"] == config.check_interval
        assert np.isfinite(event["es_error"])
        assert "divergence threshold" in result.error
        assert result.metrics.counter("train.diverged") == 1
        # the doomed fit's epochs still count as work done
        assert result.metrics.counter("train.epochs") == config.check_interval

    def test_weight_explosion(self, fast_training, fit_one_task):
        # the init-range weights (~0.01) already exceed a tiny max_weight
        config = dataclasses.replace(fast_training, max_weight=1e-6)
        x, y = linear_data()
        result = fit_once(fit_one_task, config, x[4:], y[4:], x[:4], y[:4])
        event = diverged_event(result)
        assert event["reason"] == "weight explosion"
        assert event["max_abs"] > 1e-6

    def test_non_finite_weights(self, fast_training, fit_one_task, monkeypatch):
        # the post-epoch finite guard fails the epoch it ran: that epoch
        # is not counted as work
        monkeypatch.setattr(
            EnsembleTrainingKernel,
            "members_finite",
            lambda self: np.zeros(self.n_members, dtype=bool),
        )
        x, y = linear_data()
        result = fit_once(
            fit_one_task, fast_training, x[4:], y[4:], x[:4], y[:4]
        )
        event = diverged_event(result)
        assert event["reason"] == "non-finite weights"
        assert event["epoch"] == 1
        assert result.metrics.counter("train.epochs") == 0

    def test_dead_network(self, fast_training, fit_one_task):
        # two identical ES inputs give bit-identical predictions: zero
        # spread at every check, declared dead after dead_checks checks
        config = dataclasses.replace(fast_training, dead_checks=2)
        x, y = linear_data()
        x_es = np.tile(x[0], (2, 1))
        y_es = np.array([y[0], y[0] * 1.1])
        result = fit_once(fit_one_task, config, x, y, x_es, y_es)
        event = diverged_event(result)
        assert event["reason"] == "dead network"
        assert event["epoch"] == 2 * config.check_interval

    def test_single_point_es_is_not_dead(self, fast_training, fit_one_task):
        # regression: spread over one prediction is zero by definition;
        # a 1-point early-stopping set must not trip the dead detector
        config = dataclasses.replace(fast_training, dead_checks=1)
        x, y = linear_data()
        result = fit_once(fit_one_task, config, x[1:], y[1:], x[:1], y[:1])
        assert not result.diverged
        assert result.history.epochs_run > 0

    def test_healthy_fit_completes(self, fast_training, fit_one_task):
        x, y = linear_data()
        result = fit_once(
            fit_one_task, fast_training, x[4:], y[4:], x[:4], y[:4]
        )
        assert np.isfinite(result.history.best_error)
        assert weight_health(result.network).ok(fast_training.max_weight)


def fail_first_epochs(monkeypatch, n_failed):
    """Make the stacked kernel's post-epoch finite guard report every
    member non-finite for the first ``n_failed`` epochs of the test
    (``None``: for every epoch); returns the call counter."""
    original = EnsembleTrainingKernel.members_finite
    calls = {"n": 0}

    def flaky(self):
        calls["n"] += 1
        finite = original(self)
        if n_failed is None or calls["n"] <= n_failed:
            finite[:] = False
        return finite

    monkeypatch.setattr(EnsembleTrainingKernel, "members_finite", flaky)
    return calls


class TestRobustTrainer:
    """Deterministic restarts of a diverged fit: attempt 0 draws from
    ``default_rng(seed)``, restart ``a`` from ``default_rng([seed, a])``."""

    def _problem(self):
        x, y = linear_data(seed=3, n=36)
        scaler = TargetScaler().fit(y)
        return x[6:], y[6:], x[:6], y[:6], scaler

    def test_attempt_zero_matches_unwrapped_fit(
        self, fast_training, fit_one_task
    ):
        """A healthy fit with a restart budget is bit-identical to the
        plain single-attempt reference seeded the same way."""
        x, y, x_es, y_es, scaler = self._problem()
        seed = 7

        rng = np.random.default_rng(seed)
        manual = FeedForwardNetwork(
            x.shape[1],
            fast_training.hidden_layers,
            hidden_activation=fast_training.hidden_activation,
            rng=rng,
            init_range=fast_training.init_range,
        )
        manual_history = EarlyStoppingTrainer(fast_training, rng=rng).train(
            manual, x, y, x_es, y_es, scaler
        )

        result = fit_one_task(fast_training, x, y, x_es, y_es, scaler, seed)
        assert result.history == manual_history
        for got, want in zip(result.network.weights, manual.weights):
            np.testing.assert_array_equal(got, want)

    def test_restarted_fit_is_deterministic(
        self, fast_training, fit_one_task, monkeypatch
    ):
        x, y, x_es, y_es, scaler = self._problem()
        baseline = fit_one_task(fast_training, x, y, x_es, y_es, scaler, 5)

        calls = fail_first_epochs(monkeypatch, 1)
        first = fit_one_task(
            fast_training, x, y, x_es, y_es, scaler, 5, capture=True
        )
        calls["n"] = 0
        second = fit_one_task(fast_training, x, y, x_es, y_es, scaler, 5)

        # the restart is bit-reproducible...
        for got, want in zip(first.network.weights, second.network.weights):
            np.testing.assert_array_equal(got, want)
        # ...and uses a genuinely different stream than attempt 0
        assert any(
            not np.array_equal(got, want)
            for got, want in zip(first.network.weights, baseline.network.weights)
        )
        (event,) = events_named(first, "train.restart")
        assert event["attempt"] == 1
        assert event["reason"] == "non-finite weights"
        assert event["seed"] == 5
        assert first.metrics.counter("train.restarts") == 1

    def test_restarts_exhausted(self, fast_training, fit_one_task, monkeypatch):
        x, y, x_es, y_es, scaler = self._problem()
        fail_first_epochs(monkeypatch, None)
        config = dataclasses.replace(fast_training, max_restarts=2)
        result = fit_one_task(
            config, x, y, x_es, y_es, scaler, seed=1, capture=True
        )
        assert result.diverged
        assert result.error.startswith("restarts exhausted: ")
        assert "on all 3 attempts (seed 1;" in result.error
        assert "non-finite weights" in result.error
        assert len(events_named(result, "train.restart")) == 2
        assert events_named(result, "train.diverged")[-1]["epoch"] == 1
        assert result.metrics.counter("train.restarts") == 2

        # a single model surfaces the exhausted budget as an error
        model = MultiTaskNetwork(
            3, 1, training=config, rng=np.random.default_rng(0)
        )
        with pytest.raises(TrainingDiverged) as info:
            model.fit(x, y, x_es, y_es)
        assert info.value.reason == "restarts exhausted"
        assert "on all 3 attempts" in str(info.value)
        assert "non-finite weights" in str(info.value)


class TestFoldQuarantine:
    def test_outlier_fold_is_quarantined(self, fast_training):
        """A near-zero target in one fold's early-stopping set makes that
        fold diverge through all restarts; the fit degrades gracefully
        and the estimate reports the reduced coverage."""
        x, y = linear_data(seed=0, n=40)
        y[0] = 1e-9
        telemetry = RunTelemetry()
        metrics = MetricsRegistry(enabled=True)
        ensemble = CrossValidationEnsemble(
            k=10,
            training=fast_training,
            context=RunContext(
                rng=np.random.default_rng(3),
                telemetry=telemetry,
                metrics=metrics,
            ),
        )
        with pytest.warns(RuntimeWarning, match="quarantined"):
            estimate = ensemble.fit(x, y)

        assert estimate.n_folds == 10
        assert 0 < estimate.n_folds_used < 10
        assert estimate.fold_coverage == estimate.n_folds_used / 10
        assert f"[{estimate.n_folds_used}/10 folds]" in str(estimate)
        quarantined = 10 - estimate.n_folds_used
        assert metrics.counter("crossval.quarantined") == quarantined
        events = telemetry.events_named("crossval.quarantine")
        assert len(events) == quarantined
        assert all(e.payload["error"] for e in events)
        # the surviving members form the predictor; no holes
        assert ensemble.predictor.size == estimate.n_folds_used
        assert np.isfinite(ensemble.predict(x)).all()
        # restarts were actually spent before quarantining
        assert metrics.counter("train.restarts") >= quarantined

    def test_multi_target_outlier_fold_is_quarantined(self, fast_training):
        """Multi-target folds run the scalar path's health checks: the
        near-zero primary target diverges, restarts and quarantines."""
        x, y = linear_data(seed=0, n=40)
        y = np.column_stack([y, 0.5 * y, y + 1.0])
        y[0, 0] = 1e-9
        telemetry = RunTelemetry()
        metrics = MetricsRegistry(enabled=True)
        ensemble = CrossValidationEnsemble(
            k=10,
            training=fast_training,
            target_names=("ipc", "hit_rate", "energy_nj"),
            context=RunContext(
                rng=np.random.default_rng(3),
                telemetry=telemetry,
                metrics=metrics,
            ),
        )
        with pytest.warns(RuntimeWarning, match="quarantined"):
            estimate = ensemble.fit(x, y)

        quarantined = 10 - estimate.n_folds_used
        assert quarantined > 0
        assert estimate.for_target("hit_rate").n_folds_used == (
            estimate.n_folds_used
        )
        assert metrics.counter("crossval.quarantined") == quarantined
        assert len(telemetry.events_named("crossval.quarantine")) == quarantined
        assert telemetry.events_named("train.restart")
        assert metrics.counter("train.restarts") >= quarantined
        assert ensemble.predictor.size == estimate.n_folds_used
        assert np.isfinite(ensemble.predictor.predict_all(x)).all()

    @pytest.mark.parametrize("width", [1, 3])
    def test_min_folds_raises(self, fast_training, monkeypatch, width):
        # inject total divergence at the stacked kernel's finite guard
        fail_first_epochs(monkeypatch, None)
        x, y = linear_data(seed=1, n=12)
        names = ()
        if width == 3:
            y = np.column_stack([y, 0.5 * y, y + 1.0])
            names = ("ipc", "hit_rate", "energy_nj")
        ensemble = CrossValidationEnsemble(
            k=4, training=fast_training, target_names=names,
            context=RunContext.seeded(0),
        )
        with pytest.raises(TrainingDiverged) as info:
            ensemble.fit(x, y)
        assert info.value.reason == "min_folds"

    def test_min_folds_validated(self, fast_training):
        with pytest.raises(ValueError, match="min_folds"):
            CrossValidationEnsemble(k=4, training=fast_training, min_folds=5)
        with pytest.raises(ValueError, match="min_folds"):
            CrossValidationEnsemble(k=4, training=fast_training, min_folds=0)

    def test_ensemble_rejects_quarantined_member(self, rng):
        scaler = TargetScaler().fit(np.array([1.0, 2.0]))
        net = FeedForwardNetwork(2, (4,), 1, rng=rng)
        with pytest.raises(ValueError, match="quarantined"):
            EnsemblePredictor(networks=[net, None], scaler=scaler)


class TestOutlierFaults:
    def test_parse_accepts_outlier_keys(self):
        plan = FaultPlan.parse("outlier=0.3,outlier_small=1e-6,outlier_large=1e6")
        assert plan.outlier == 0.3
        assert plan.outlier_small == 1e-6
        assert plan.outlier_large == 1e6

    def test_pick_edges(self):
        plan = FaultPlan(crash=0.1, nan=0.1, hang=0.1, slow=0.1, outlier=0.2)
        assert plan.pick(0.05) == "crash"
        assert plan.pick(0.15) == "nan"
        assert plan.pick(0.25) == "hang"
        assert plan.pick(0.35) == "slow"
        assert plan.pick(0.45) == "outlier"
        assert plan.pick(0.55) == "outlier"
        assert plan.pick(0.65) is None

    def test_outliers_injected_without_consulting_inner(self, tiny_space):
        calls = []

        def inner(config):
            calls.append(config)
            return 1.0

        metrics = MetricsRegistry(enabled=True)
        backend = FaultInjectingBackend(
            inner, FaultPlan(outlier=1.0), seed=0, metrics=metrics
        )
        configs = [tiny_space.config_at(i) for i in range(8)]
        values = backend.evaluate(configs)
        assert calls == []
        assert metrics.counter("fault.outlier") == 8
        # outliers are hostile but pass the backend boundary's checks:
        # finite, positive, drawn from the two configured magnitudes
        assert np.isfinite(values).all()
        assert (values > 0).all()
        assert set(values) == {1e-9, 1e9}


class TestUnseededWarning:
    def test_warns_once_and_names_the_fix(self, monkeypatch):
        monkeypatch.setattr(network_mod, "_UNSEEDED_WARNED", False)
        with pytest.warns(RuntimeWarning, match="RunContext.seeded"):
            FeedForwardNetwork(2, (4,), 1)
        # the second unseeded construction stays silent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            FeedForwardNetwork(2, (4,), 1)
