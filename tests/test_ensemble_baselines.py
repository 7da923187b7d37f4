"""Tests for the ensemble predictor and the baseline regressors."""

import numpy as np
import pytest

from repro.core import (
    EnsemblePredictor,
    FeedForwardNetwork,
    KNNRegressor,
    LinearRegression,
    PolynomialRegression,
    TargetScaler,
)


def make_ensemble(rng, k=3):
    networks = [FeedForwardNetwork(2, (4,), rng=rng) for _ in range(k)]
    scaler = TargetScaler().fit(np.array([0.0, 2.0]))
    return EnsemblePredictor(networks=networks, scaler=scaler)


class TestEnsemblePredictor:
    def test_average_of_members(self, rng):
        ensemble = make_ensemble(rng)
        x = rng.random((5, 2))
        members = ensemble.member_predictions(x)
        np.testing.assert_allclose(
            ensemble.predict(x), members.mean(axis=0)
        )

    def test_variance_nonnegative(self, rng):
        ensemble = make_ensemble(rng)
        variance = ensemble.prediction_variance(rng.random((5, 2)))
        assert np.all(variance >= 0)

    def test_member_prediction_shape(self, rng):
        ensemble = make_ensemble(rng, k=4)
        assert ensemble.member_predictions(rng.random((7, 2))).shape == (4, 7)

    def test_requires_members(self):
        with pytest.raises(ValueError):
            EnsemblePredictor(networks=[], scaler=TargetScaler())

    def test_scaler_list_must_match_members(self, rng):
        networks = [FeedForwardNetwork(2, (4,), rng=rng) for _ in range(3)]
        scaler = TargetScaler().fit(np.array([0.0, 2.0]))
        with pytest.raises(ValueError, match="2 scalers for 3 networks"):
            EnsemblePredictor(networks=networks, scaler=[scaler, scaler])

    @pytest.mark.parametrize("chunk_size", [None, 1, 3])
    def test_primary_reductions_reduce_contiguous_member_blocks(
        self, rng, chunk_size
    ):
        """On a multi-target ensemble with a scaler per member, each
        chunk of ``predict``/``prediction_variance`` is the mean/variance
        of that chunk's contiguous ``(k, c)`` block of
        ``member_predictions``, byte for byte.  Reducing the whole
        ``(k, c, n_targets)`` block and reading column 0 rounds
        differently at eight members and one-row chunks, so the
        reduction order is part of the contract."""
        networks = [
            FeedForwardNetwork(2, (4,), n_outputs=3, rng=rng) for _ in range(8)
        ]
        scalers = [TargetScaler().fit(rng.random((6, 3))) for _ in networks]
        ensemble = EnsemblePredictor(networks=networks, scaler=scalers)
        x = rng.random((7, 2))
        members = ensemble.member_predictions(x, chunk_size=chunk_size)
        predict = ensemble.predict(x, chunk_size=chunk_size)
        variance = ensemble.prediction_variance(x, chunk_size=chunk_size)
        step = chunk_size or len(x)
        for start in range(0, len(x), step):
            rows = slice(start, start + step)
            block = np.ascontiguousarray(members[:, rows])
            assert predict[rows].tobytes() == block.mean(axis=0).tobytes()
            assert variance[rows].tobytes() == block.var(axis=0).tobytes()
        every = ensemble.predict_all(x, chunk_size=chunk_size)
        assert every.shape == (7, 3)
        np.testing.assert_allclose(every[:, 0], predict, rtol=1e-12)


class TestLinearRegression:
    def test_recovers_linear_function(self, rng):
        x = rng.random((100, 3))
        y = 1.0 + 2.0 * x[:, 0] - 0.5 * x[:, 2]
        model = LinearRegression().fit(x, y)
        np.testing.assert_allclose(model.predict(x), y, atol=1e-6)

    def test_coefficients(self, rng):
        x = rng.random((100, 2))
        y = 3.0 + 1.5 * x[:, 0]
        model = LinearRegression().fit(x, y)
        assert model.coefficients[0] == pytest.approx(3.0, abs=1e-6)
        assert model.coefficients[1] == pytest.approx(1.5, abs=1e-6)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            LinearRegression().predict(np.zeros((1, 2)))

    def test_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            LinearRegression().fit(rng.random((10, 2)), rng.random(5))

    def test_cannot_fit_interactions(self, rng):
        """Motivates the ANN: a product target defeats the linear model."""
        x = rng.random((300, 2))
        y = x[:, 0] * x[:, 1] + 0.5
        model = LinearRegression().fit(x[:200], y[:200])
        residual = np.abs(model.predict(x[200:]) - y[200:]).mean()
        assert residual > 0.01


class TestPolynomialRegression:
    def test_fits_products(self, rng):
        x = rng.random((300, 2))
        y = x[:, 0] * x[:, 1] + 0.5
        model = PolynomialRegression().fit(x[:200], y[:200])
        np.testing.assert_allclose(
            model.predict(x[200:]), y[200:], atol=1e-6
        )

    def test_fits_squares(self, rng):
        x = rng.random((200, 1))
        y = x[:, 0] ** 2
        model = PolynomialRegression().fit(x, y)
        np.testing.assert_allclose(model.predict(x), y, atol=1e-6)


class TestKNN:
    def test_exact_on_training_points(self, rng):
        x = rng.random((50, 2))
        y = rng.random(50) + 0.5
        model = KNNRegressor(k=1).fit(x, y)
        np.testing.assert_allclose(model.predict(x), y, rtol=1e-6)

    def test_interpolates_smooth_function(self, rng):
        x = rng.random((500, 2))
        y = 0.5 + x[:, 0] + x[:, 1]
        model = KNNRegressor(k=5).fit(x[:400], y[:400])
        errors = np.abs(model.predict(x[400:]) - y[400:])
        assert errors.mean() < 0.1

    def test_k_clamped_to_dataset(self, rng):
        model = KNNRegressor(k=10).fit(rng.random((3, 2)), np.ones(3))
        assert model.predict(rng.random((1, 2)))[0] == pytest.approx(1.0)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            KNNRegressor(k=0)
        with pytest.raises(RuntimeError):
            KNNRegressor().predict(np.zeros((1, 2)))
        with pytest.raises(ValueError):
            KNNRegressor().fit(np.zeros((0, 2)), np.zeros(0))
