"""Tests for the early-stopping trainer and its percentage-error recipe."""

import numpy as np
import pytest

from repro.core import FeedForwardNetwork, RunContext, TargetScaler
from repro.core.training import EarlyStoppingTrainer, TrainingConfig


def make_problem(rng, n=300):
    """A smooth positive target over [0,1]^3."""
    x = rng.random((n, 3))
    y = 0.5 + x[:, 0] * 0.8 + 0.4 * x[:, 1] * x[:, 2]
    return x, y


class TestTrainingConfig:
    def test_defaults_valid(self):
        TrainingConfig()

    def test_paper_settings(self):
        cfg = TrainingConfig.paper_settings()
        assert cfg.learning_rate == pytest.approx(0.001)
        assert cfg.momentum == pytest.approx(0.5)
        assert cfg.hidden_layers == (16,)
        assert cfg.hidden_activation == "sigmoid"

    def test_fast_settings(self):
        assert TrainingConfig.fast_settings().max_epochs <= 1000

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(learning_rate=0.0),
            dict(momentum=1.0),
            dict(batch_size=0),
            dict(max_epochs=0),
            dict(patience=0),
            dict(lr_decay=0.0),
            dict(decay_after=0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrainingConfig(**kwargs)


class TestPresentationWeighting:
    def test_inverse_target_frequencies(self, rng):
        trainer = EarlyStoppingTrainer(TrainingConfig(), context=RunContext(rng=rng))
        probs = trainer.presentation_probabilities(np.array([1.0, 2.0, 4.0]))
        # frequencies proportional to 1/y
        np.testing.assert_allclose(probs, np.array([4, 2, 1]) / 7.0)

    def test_uniform_when_disabled(self, rng):
        trainer = EarlyStoppingTrainer(
            TrainingConfig(weight_by_inverse_target=False),
            context=RunContext(rng=rng),
        )
        probs = trainer.presentation_probabilities(np.array([1.0, 2.0]))
        np.testing.assert_allclose(probs, [0.5, 0.5])

    def test_rejects_nonpositive_targets(self, rng):
        trainer = EarlyStoppingTrainer(TrainingConfig(), context=RunContext(rng=rng))
        with pytest.raises(ValueError):
            trainer.presentation_probabilities(np.array([1.0, 0.0]))


class TestTraining:
    def test_learns_smooth_function(self, rng, fast_training):
        x, y = make_problem(rng)
        scaler = TargetScaler().fit(y)
        net = FeedForwardNetwork(3, fast_training.hidden_layers, rng=rng)
        trainer = EarlyStoppingTrainer(fast_training, context=RunContext(rng=rng))
        history = trainer.train(net, x[:200], y[:200], x[200:], y[200:], scaler)
        assert history.best_error < 5.0

    def test_early_stopping_restores_best(self, rng):
        x, y = make_problem(rng)
        scaler = TargetScaler().fit(y)
        cfg = TrainingConfig(
            hidden_layers=(8,), max_epochs=100, patience=3, check_interval=5
        )
        net = FeedForwardNetwork(3, (8,), rng=rng)
        trainer = EarlyStoppingTrainer(cfg, context=RunContext(rng=rng))
        history = trainer.train(net, x[:200], y[:200], x[200:], y[200:], scaler)
        # final network must reproduce the best ES error exactly
        from repro.core import percentage_errors

        predictions = scaler.inverse_transform(net.predict(x[200:])[:, 0])
        final = float(np.mean(percentage_errors(predictions, y[200:])))
        assert final == pytest.approx(history.best_error, rel=1e-9)

    def test_stops_early_on_plateau(self, rng):
        x, y = make_problem(rng, n=120)
        scaler = TargetScaler().fit(y)
        cfg = TrainingConfig(
            hidden_layers=(4,),
            max_epochs=5000,
            patience=3,
            check_interval=5,
            learning_rate=0.5,  # converges quickly, then plateaus
        )
        net = FeedForwardNetwork(3, (4,), rng=rng)
        history = EarlyStoppingTrainer(cfg, context=RunContext(rng=rng)).train(
            net, x[:100], y[:100], x[100:], y[100:], scaler
        )
        assert history.stopped_early
        assert history.epochs_run < 100

    def test_history_records_checks(self, rng, fast_training):
        x, y = make_problem(rng, n=150)
        scaler = TargetScaler().fit(y)
        net = FeedForwardNetwork(3, fast_training.hidden_layers, rng=rng)
        trainer = EarlyStoppingTrainer(
            fast_training, context=RunContext(rng=rng)
        )
        history = trainer.train(net, x[:100], y[:100], x[100:], y[100:], scaler)
        assert len(history.es_errors) >= 1
        assert history.best_epoch % fast_training.check_interval == 0

    def test_validation_errors(self, rng, fast_training):
        x, y = make_problem(rng, n=50)
        scaler = TargetScaler().fit(y)
        net = FeedForwardNetwork(3, fast_training.hidden_layers, rng=rng)
        trainer = EarlyStoppingTrainer(fast_training, context=RunContext(rng=rng))
        with pytest.raises(ValueError):
            trainer.train(net, x, y[:10], x, y, scaler)
        with pytest.raises(ValueError):
            trainer.train(net, x[:0], y[:0], x, y, scaler)

    def test_paper_settings_converge_slowly_but_surely(self, rng):
        """The paper's literal hyperparameters on a small problem."""
        x, y = make_problem(rng, n=200)
        scaler = TargetScaler().fit(y)
        cfg = TrainingConfig(
            hidden_layers=(16,),
            hidden_activation="sigmoid",
            learning_rate=0.001,
            momentum=0.5,
            max_epochs=800,
            patience=100,
            lr_decay=1.0,
        )
        net = FeedForwardNetwork(3, (16,), rng=rng)
        history = EarlyStoppingTrainer(cfg, context=RunContext(rng=rng)).train(
            net, x[:150], y[:150], x[150:], y[150:], scaler
        )
        # slow but must clearly beat the trivial predict-the-mean model
        trivial = float(
            np.mean(np.abs(y[150:] - y[:150].mean()) / y[150:] * 100)
        )
        assert history.best_error < trivial
