"""Tests for the training-health subsystem.

Covers divergence detection (weight health, exploding early-stopping
error, dead networks), deterministic restarts via ``RobustTrainer``,
fold quarantine in the cross-validation ensemble, the outlier fault
mode, and the unseeded-generator warning.
"""

import dataclasses
import warnings

import numpy as np
import pytest

import repro.core.network as network_mod
from repro.core import (
    EnsemblePredictor,
    FeedForwardNetwork,
    RobustTrainer,
    TargetScaler,
    TrainingConfig,
    TrainingDiverged,
)
from repro.core.context import RunContext
from repro.core.crossval import CrossValidationEnsemble
from repro.core.faults import FaultInjectingBackend, FaultPlan
from repro.core.training import EarlyStoppingTrainer
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import RunTelemetry


def linear_data(seed=0, n=30):
    """A smooth positive regression problem the trainer handles easily."""
    rng = np.random.default_rng(seed)
    x = rng.random((n, 3))
    y = 1.0 + x @ np.array([0.5, 0.25, 0.1])
    return x, y


def fit_once(config, x, y, x_es, y_es, telemetry=None, metrics=None):
    """One plain (unwrapped) training run with deterministic seeds."""
    scaler = TargetScaler().fit(np.concatenate([y, y_es]))
    network = FeedForwardNetwork(
        x.shape[1],
        config.hidden_layers,
        hidden_activation=config.hidden_activation,
        rng=np.random.default_rng(1),
        init_range=config.init_range,
    )
    trainer = EarlyStoppingTrainer(
        config,
        context=RunContext(
            rng=np.random.default_rng(2), telemetry=telemetry, metrics=metrics
        ),
    )
    history = trainer.train(network, x, y, x_es, y_es, scaler)
    return network, history


class TestWeightHealth:
    def test_fresh_network_is_healthy(self, rng):
        net = FeedForwardNetwork(3, (8,), 1, rng=rng)
        health = net.weight_health()
        assert health.finite
        assert health.max_abs <= 0.01
        assert health.saturation == 0.0
        assert health.ok(max_weight=1e6)

    def test_non_finite_weights_flagged(self, rng):
        net = FeedForwardNetwork(3, (8,), 1, rng=rng)
        net.weights[0][0, 0] = np.nan
        health = net.weight_health()
        assert not health.finite
        assert not health.ok(max_weight=1e6)

    def test_explosion_and_saturation_flagged(self, rng):
        net = FeedForwardNetwork(3, (8,), 1, rng=rng)
        net.weights[1][0, 0] = 50.0
        health = net.weight_health()
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
            net.gradients(x, y, sample_weights=np.full(5, np.nan))
        assert info.value.reason == "non-finite gradients"


class TestPresentationProbabilities:
    def test_non_finite_targets_named(self, fast_training):
        trainer = EarlyStoppingTrainer(
            fast_training, context=RunContext.seeded(0)
        )
        with pytest.raises(ValueError, match=r"indices \[1, 3\]"):
            trainer.presentation_probabilities(
                np.array([1.0, np.nan, 2.0, np.inf])
            )

    def test_non_positive_targets_rejected(self, fast_training):
        trainer = EarlyStoppingTrainer(
            fast_training, context=RunContext.seeded(0)
        )
        with pytest.raises(ValueError, match="positive"):
            trainer.presentation_probabilities(np.array([1.0, 0.0]))


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
    def test_exploding_es_error(self, fast_training):
        # any real percentage error exceeds a near-zero threshold, so the
        # first early-stopping check must report divergence
        config = dataclasses.replace(fast_training, divergence_error=1e-9)
        x, y = linear_data()
        telemetry = RunTelemetry()
        metrics = MetricsRegistry(enabled=True)
        with pytest.raises(TrainingDiverged) as info:
            fit_once(config, x[4:], y[4:], x[:4], y[:4], telemetry, metrics)
        assert info.value.reason == "exploding es_error"
        assert info.value.epoch == config.check_interval
        (event,) = telemetry.events_named("train.diverged")
        assert event.payload["reason"] == "exploding es_error"
        assert np.isfinite(event.payload["es_error"])
        assert metrics.counter("train.diverged") == 1
        # the doomed fit's epochs still count as work done
        assert metrics.counter("train.epochs") == config.check_interval

    def test_weight_explosion(self, fast_training):
        # the init-range weights (~0.01) already exceed a tiny max_weight
        config = dataclasses.replace(fast_training, max_weight=1e-6)
        x, y = linear_data()
        telemetry = RunTelemetry()
        with pytest.raises(TrainingDiverged) as info:
            fit_once(config, x[4:], y[4:], x[:4], y[:4], telemetry)
        assert info.value.reason == "weight explosion"
        (event,) = telemetry.events_named("train.diverged")
        assert event.payload["max_abs"] > 1e-6

    def test_dead_network(self, fast_training):
        # two identical ES inputs give bit-identical predictions: zero
        # spread at every check, declared dead after dead_checks checks
        config = dataclasses.replace(fast_training, dead_checks=2)
        x, y = linear_data()
        x_es = np.tile(x[0], (2, 1))
        y_es = np.array([y[0], y[0] * 1.1])
        with pytest.raises(TrainingDiverged) as info:
            fit_once(config, x, y, x_es, y_es)
        assert info.value.reason == "dead network"
        assert info.value.epoch == 2 * config.check_interval

    def test_single_point_es_is_not_dead(self, fast_training):
        # regression: spread over one prediction is zero by definition;
        # a 1-point early-stopping set must not trip the dead detector
        config = dataclasses.replace(fast_training, dead_checks=1)
        x, y = linear_data()
        _, history = fit_once(config, x[1:], y[1:], x[:1], y[:1])
        assert history.epochs_run > 0

    def test_healthy_fit_completes(self, fast_training):
        x, y = linear_data()
        network, history = fit_once(fast_training, x[4:], y[4:], x[:4], y[:4])
        assert np.isfinite(history.best_error)
        assert network.weight_health().ok(fast_training.max_weight)


class TestRobustTrainer:
    def _problem(self):
        x, y = linear_data(seed=3, n=36)
        scaler = TargetScaler().fit(y)
        return x[6:], y[6:], x[:6], y[:6], scaler

    def test_attempt_zero_matches_unwrapped_fit(self, fast_training):
        """A healthy RobustTrainer fit is bit-identical to the plain
        single-attempt path seeded the same way."""
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
        manual_history = EarlyStoppingTrainer(
            fast_training, context=RunContext(rng=rng)
        ).train(
            manual, x, y, x_es, y_es, scaler
        )

        robust = RobustTrainer(fast_training, seed=seed)
        network, history = robust.fit(x, y, x_es, y_es, scaler)
        assert history.es_errors == manual_history.es_errors
        for got, want in zip(network.weights, manual.weights):
            np.testing.assert_array_equal(got, want)

    def test_restarted_fit_is_deterministic(self, fast_training, monkeypatch):
        x, y, x_es, y_es, scaler = self._problem()
        baseline, _ = RobustTrainer(fast_training, seed=5).fit(
            x, y, x_es, y_es, scaler
        )

        original = EarlyStoppingTrainer.train
        calls = {"n": 0}

        def flaky(self, *args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise TrainingDiverged("injected", reason="injected")
            return original(self, *args, **kwargs)

        monkeypatch.setattr(EarlyStoppingTrainer, "train", flaky)

        telemetry = RunTelemetry()
        metrics = MetricsRegistry(enabled=True)
        first, _ = RobustTrainer(
            fast_training, seed=5, telemetry=telemetry, metrics=metrics
        ).fit(x, y, x_es, y_es, scaler)
        calls["n"] = 0
        second, _ = RobustTrainer(fast_training, seed=5).fit(
            x, y, x_es, y_es, scaler
        )

        # the restart is bit-reproducible...
        for got, want in zip(first.weights, second.weights):
            np.testing.assert_array_equal(got, want)
        # ...and uses a genuinely different stream than attempt 0
        assert any(
            not np.array_equal(got, want)
            for got, want in zip(first.weights, baseline.weights)
        )
        (event,) = telemetry.events_named("train.restart")
        assert event.payload["attempt"] == 1
        assert event.payload["reason"] == "injected"
        assert event.payload["seed"] == 5
        assert metrics.counter("train.restarts") == 1

    def test_restarts_exhausted(self, fast_training, monkeypatch):
        x, y, x_es, y_es, scaler = self._problem()

        def doomed(self, *args, **kwargs):
            raise TrainingDiverged("boom", reason="weight explosion", epoch=30)

        monkeypatch.setattr(EarlyStoppingTrainer, "train", doomed)
        telemetry = RunTelemetry()
        metrics = MetricsRegistry(enabled=True)
        robust = RobustTrainer(
            fast_training, seed=1, max_restarts=2,
            telemetry=telemetry, metrics=metrics,
        )
        with pytest.raises(TrainingDiverged) as info:
            robust.fit(x, y, x_es, y_es, scaler)
        assert info.value.reason == "restarts exhausted"
        assert info.value.epoch == 30
        assert "boom" in str(info.value)
        assert len(telemetry.events_named("train.restart")) == 2
        assert metrics.counter("train.restarts") == 2

    def test_negative_restart_budget_rejected(self, fast_training):
        with pytest.raises(ValueError):
            RobustTrainer(fast_training, max_restarts=-1)


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
        from repro.core.kernels import EnsembleTrainingKernel

        monkeypatch.setattr(
            EnsembleTrainingKernel,
            "members_finite",
            lambda self: np.zeros(self.n_members, dtype=bool),
        )
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
