"""Tests for k-fold cross-validation ensembles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CrossValidationEnsemble, RunContext, make_folds
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import RunTelemetry


def make_problem(rng, n=250):
    x = rng.random((n, 3))
    y = 0.5 + 0.8 * x[:, 0] + 0.4 * x[:, 1] * x[:, 2]
    return x, y


class TestMakeFolds:
    def test_partition(self, rng):
        folds = make_folds(100, 10, rng)
        assert len(folds) == 10
        merged = np.sort(np.concatenate(folds))
        np.testing.assert_array_equal(merged, np.arange(100))

    def test_near_equal_sizes(self, rng):
        folds = make_folds(103, 10, rng)
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1

    def test_requires_three_folds(self, rng):
        with pytest.raises(ValueError):
            make_folds(100, 2, rng)

    def test_requires_enough_points(self, rng):
        with pytest.raises(ValueError):
            make_folds(5, 10, rng)

    def test_shuffled(self):
        folds = make_folds(100, 10, np.random.default_rng(0))
        assert not np.array_equal(folds[0], np.arange(10))

    @given(
        st.integers(min_value=12, max_value=300),
        st.integers(min_value=3, max_value=12),
    )
    @settings(max_examples=40, deadline=None)
    def test_partition_property(self, n, k):
        if n < k:
            return
        folds = make_folds(n, k, np.random.default_rng(0))
        merged = np.sort(np.concatenate(folds))
        np.testing.assert_array_equal(merged, np.arange(n))


class TestCrossValidationEnsemble:
    def test_fit_learns(self, rng, fast_training):
        x, y = make_problem(rng)
        ensemble = CrossValidationEnsemble(
            k=5, training=fast_training, context=RunContext(rng=rng)
        )
        estimate = ensemble.fit(x, y)
        assert estimate.mean < 10.0
        assert estimate.n_training == len(x)

    def test_builds_k_networks(self, rng, fast_training):
        x, y = make_problem(rng, n=120)
        ensemble = CrossValidationEnsemble(
            k=4, training=fast_training, context=RunContext(rng=rng)
        )
        ensemble.fit(x, y)
        assert ensemble.predictor.size == 4

    def test_predict_before_fit_raises(self, fast_training):
        ensemble = CrossValidationEnsemble(k=4, training=fast_training)
        with pytest.raises(RuntimeError):
            ensemble.predict(np.zeros((1, 3)))

    def test_prediction_shape_and_quality(self, rng, fast_training):
        x, y = make_problem(rng, n=300)
        ensemble = CrossValidationEnsemble(
            k=5, training=fast_training, context=RunContext(rng=rng)
        )
        ensemble.fit(x[:250], y[:250])
        predictions = ensemble.predict(x[250:])
        assert predictions.shape == (50,)
        errors = np.abs(predictions - y[250:]) / y[250:]
        assert errors.mean() < 0.10

    def test_length_mismatch(self, rng, fast_training):
        ensemble = CrossValidationEnsemble(
            k=4, training=fast_training, context=RunContext(rng=rng)
        )
        with pytest.raises(ValueError):
            ensemble.fit(np.zeros((10, 2)), np.ones(5))

    def test_reproducible_with_seed(self, fast_training):
        x, y = make_problem(np.random.default_rng(5), n=120)

        def fit():
            ensemble = CrossValidationEnsemble(
                k=4, training=fast_training, context=RunContext.seeded(7)
            )
            return ensemble.fit(x, y).mean

        assert fit() == pytest.approx(fit())

    def test_estimate_close_to_true_heldout_error(self, rng, fast_training):
        """The core claim of Section 3.2: fold-pooled errors estimate the
        ensemble's true error on unseen points."""
        x, y = make_problem(rng, n=400)
        ensemble = CrossValidationEnsemble(
            k=5, training=fast_training, context=RunContext(rng=rng)
        )
        estimate = ensemble.fit(x[:300], y[:300])
        predictions = ensemble.predict(x[300:])
        true_error = float(
            np.mean(np.abs(predictions - y[300:]) / y[300:] * 100)
        )
        assert abs(estimate.mean - true_error) < max(2.0, true_error)

    def test_accepts_context(self, fast_training):
        x, y = make_problem(np.random.default_rng(5), n=120)
        context = RunContext.seeded(7)
        ensemble = CrossValidationEnsemble(
            k=4, training=fast_training, context=context
        )
        assert ensemble.rng is context.rng
        assert ensemble.fit(x, y).mean > 0

    def test_context_excludes_legacy_kwargs(self, fast_training):
        with pytest.raises(TypeError, match="rng"):
            CrossValidationEnsemble(
                k=4, training=fast_training,
                context=RunContext.seeded(7),
                rng=np.random.default_rng(7),
            )


class TestParallelObservability:
    """The folds train side by side in one kernel, and two equal-seed
    fits emit the same predictions, events and counters."""

    @staticmethod
    def _fit(training):
        metrics = MetricsRegistry(enabled=True)
        telemetry = RunTelemetry(metrics=metrics)
        context = RunContext(
            rng=np.random.default_rng(7), telemetry=telemetry,
            metrics=metrics,
        )
        x, y = make_problem(np.random.default_rng(5), n=120)
        ensemble = CrossValidationEnsemble(
            k=4, training=training, context=context
        )
        ensemble.fit(x, y)
        return ensemble.predict(x[:16]), telemetry, metrics

    def test_predictions_bit_identical(self, fast_training):
        first, _, _ = self._fit(fast_training)
        second, _, _ = self._fit(fast_training)
        np.testing.assert_array_equal(first, second)

    def test_telemetry_streams_identical(self, fast_training):
        _, first, _ = self._fit(fast_training)
        _, second, _ = self._fit(fast_training)
        assert [e.name for e in first.events] == [
            e.name for e in second.events
        ]
        # training events carry no wall-clock fields, so their payloads
        # must match exactly, fold by fold
        for name in ("train.check", "train.stop"):
            assert [e.payload for e in first.events_named(name)] == [
                e.payload for e in second.events_named(name)
            ]

    def test_metrics_counters_identical(self, fast_training):
        _, _, first = self._fit(fast_training)
        _, _, second = self._fit(fast_training)
        assert first.counter("train.epochs") == second.counter(
            "train.epochs"
        )
        assert first.counter("crossval.epochs") == second.counter(
            "crossval.epochs"
        )
        assert first.counter("crossval.fits") == second.counter(
            "crossval.fits"
        )

    def test_disabled_hooks_stay_silent_in_parallel(self, fast_training):
        x, y = make_problem(np.random.default_rng(5), n=120)
        telemetry = RunTelemetry(enabled=False)
        context = RunContext(
            rng=np.random.default_rng(7), telemetry=telemetry,
        )
        CrossValidationEnsemble(
            k=4, training=fast_training, context=context
        ).fit(x, y)
        assert telemetry.events == []


def make_multi_problem(n=120):
    """``make_problem`` plus two positive auxiliary targets."""
    x, y = make_problem(np.random.default_rng(5), n=n)
    return x, np.column_stack([y, 0.1 + 0.5 * x[:, 1], 0.05 + 0.3 * x[:, 0]])


class TestMultiTarget:
    NAMES = ("ipc", "hit_rate", "energy_nj")

    def _ensemble(self, fast_training, **kwargs):
        return CrossValidationEnsemble(
            k=4, training=fast_training, context=RunContext.seeded(7),
            target_names=self.NAMES, **kwargs,
        )

    def test_folds_scale_their_own_training_rows(self, fast_training):
        x, y = make_multi_problem()
        ensemble = self._ensemble(fast_training)
        ensemble.fit(x, y)
        scalers = ensemble.predictor.member_scalers
        assert len({id(scaler) for scaler in scalers}) == ensemble.k
        assert len({scaler.high[0] for scaler in scalers}) > 1

    def test_fit_event_reports_targets(self, fast_training):
        x, y = make_multi_problem()
        telemetry = RunTelemetry()
        CrossValidationEnsemble(
            k=4, training=fast_training, target_names=self.NAMES,
            context=RunContext.seeded(7, telemetry=telemetry),
        ).fit(x, y)
        (fit,) = telemetry.events_named("crossval.fit")
        assert fit.payload["n_targets"] == 3
        assert set(fit.payload["per_target_error"]) == set(self.NAMES)
        assert len(telemetry.events_named("crossval.fold")) == 4
        assert len(telemetry.events_named("train.stop")) == 4

    def test_validation(self, fast_training):
        x, y = make_multi_problem(n=40)
        with pytest.raises(ValueError, match="shape"):
            self._ensemble(fast_training).fit(x, y[:, :2])
        zero = y.copy()
        zero[3, 2] = 0.0
        with pytest.raises(ValueError, match="zero targets"):
            self._ensemble(fast_training).fit(x, zero)
        with pytest.raises(ValueError, match="two or more"):
            CrossValidationEnsemble(k=4, target_names=("ipc",))
