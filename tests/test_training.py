"""Tests for the early-stopping training recipe and its percentage-error
weighting, driven through one-task ``StackedEnsembleTrainer`` runs."""

import dataclasses

import numpy as np
import pytest

from repro.core import TargetScaler, percentage_errors
from repro.core.training import TrainingConfig, presentation_probabilities


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
    def test_inverse_target_frequencies(self):
        probs = presentation_probabilities(np.array([1.0, 2.0, 4.0]))
        # frequencies proportional to 1/y
        np.testing.assert_allclose(probs, np.array([4, 2, 1]) / 7.0)

    def test_uniform_when_disabled(self):
        probs = presentation_probabilities(
            np.array([1.0, 2.0]), weight_by_inverse_target=False
        )
        np.testing.assert_allclose(probs, [0.5, 0.5])

    def test_rejects_nonpositive_targets(self):
        with pytest.raises(ValueError):
            presentation_probabilities(np.array([1.0, 0.0]))


class TestTraining:
    def test_learns_smooth_function(self, rng, fast_training, fit_one_task):
        x, y = make_problem(rng)
        scaler = TargetScaler().fit(y)
        result = fit_one_task(
            fast_training, x[:200], y[:200], x[200:], y[200:], scaler
        )
        assert result.history.best_error < 5.0

    def test_early_stopping_restores_best(self, rng, fit_one_task):
        x, y = make_problem(rng)
        scaler = TargetScaler().fit(y)
        cfg = TrainingConfig(
            hidden_layers=(8,), max_epochs=100, patience=3, check_interval=5
        )
        result = fit_one_task(cfg, x[:200], y[:200], x[200:], y[200:], scaler)
        # final network must reproduce the best ES error exactly
        predictions = scaler.inverse_transform(
            result.network.predict(x[200:])[:, 0]
        )
        final = float(np.mean(percentage_errors(predictions, y[200:])))
        assert final == pytest.approx(result.history.best_error, rel=1e-9)

    def test_stops_early_on_plateau(self, rng, fit_one_task):
        x, y = make_problem(rng, n=120)
        scaler = TargetScaler().fit(y)
        cfg = TrainingConfig(
            hidden_layers=(4,),
            max_epochs=5000,
            patience=3,
            check_interval=5,
            learning_rate=0.5,  # converges quickly, then plateaus
        )
        result = fit_one_task(cfg, x[:100], y[:100], x[100:], y[100:], scaler)
        assert result.history.stopped_early
        assert result.history.epochs_run < 100

    def test_history_records_checks(self, rng, fast_training, fit_one_task):
        x, y = make_problem(rng, n=150)
        scaler = TargetScaler().fit(y)
        history = fit_one_task(
            fast_training, x[:100], y[:100], x[100:], y[100:], scaler
        ).history
        assert len(history.es_errors) >= 1
        assert history.best_epoch % fast_training.check_interval == 0

    def test_validation_errors(self, rng, fast_training, fit_one_task):
        x, y = make_problem(rng, n=50)
        scaler = TargetScaler().fit(y)
        with pytest.raises(ValueError, match="non-empty"):
            fit_one_task(fast_training, x[:0], y[:0], x, y, scaler)
        with pytest.raises(ValueError, match="non-empty"):
            fit_one_task(fast_training, x, y, x[:0], y[:0], scaler)

    def test_paper_settings_converge_slowly_but_surely(self, rng, fit_one_task):
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
        history = fit_one_task(
            cfg, x[:150], y[:150], x[150:], y[150:], scaler
        ).history
        # slow but must clearly beat the trivial predict-the-mean model
        trivial = float(
            np.mean(np.abs(y[150:] - y[:150].mean()) / y[150:] * 100)
        )
        assert history.best_error < trivial


class TestStopRule:
    """A decaying fit stops at the last plateau decay its patience
    reaches, and at the second at most: ``decay_after * min(2, patience
    // decay_after)`` checks after its best.  A fit that never decays,
    or whose ``patience`` is below ``decay_after``, waits out
    ``patience``."""

    CONFIG = TrainingConfig(
        hidden_layers=(8,), max_epochs=5000, check_interval=5,
        decay_after=3, patience=20,
    )

    @staticmethod
    def _tail(fit_one_task, config, width):
        """Epochs the fit ran past its best, read from ``train.stop``."""
        x, y = make_problem(np.random.default_rng(0), n=150)
        if width == 3:
            y = np.column_stack([y, 0.1 + 0.5 * x[:, 1], 0.05 + 0.3 * x[:, 0]])
        scaler = TargetScaler().fit(y[:100])
        result = fit_one_task(
            config, x[:100], y[:100], x[100:], y[100:], scaler, capture=True
        )
        (stop,) = [p for name, p in result.events if name == "train.stop"]
        assert stop["stopped_early"]
        return stop["epochs_run"] - stop["best_epoch"]

    def test_decaying_scalar_fit_stops_at_second_fruitless_decay(
        self, fit_one_task
    ):
        cfg = self.CONFIG
        assert self._tail(fit_one_task, cfg, 1) == (
            2 * cfg.decay_after * cfg.check_interval
        )

    @pytest.mark.parametrize(
        "patience, checks", [(5, 3), (2, 2)],
        ids=["one-decay-reached", "no-decay-reached"],
    )
    def test_decaying_fit_stops_at_last_decay_its_patience_reaches(
        self, fit_one_task, patience, checks
    ):
        """``decay_after`` 3: ``patience`` 5 reaches one decay, so the
        fit stops there, not at ``patience``; ``patience`` 2 reaches
        none, so ``patience`` stops the fit."""
        cfg = dataclasses.replace(self.CONFIG, patience=patience)
        assert self._tail(fit_one_task, cfg, 1) == checks * cfg.check_interval

    def test_fast_preset_stops_at_its_first_fruitless_decay(
        self, fit_one_task
    ):
        """``fast`` (patience 15, ``decay_after`` 10) stops 10 checks
        after its best, where its one plateau decay falls."""
        cfg = TrainingConfig.fast_settings()
        assert (cfg.patience, cfg.decay_after) == (15, 10)
        assert self._tail(fit_one_task, cfg, 1) == 10 * cfg.check_interval

    @pytest.mark.parametrize(
        "width, lr_decay", [(3, 0.5), (1, 1.0)], ids=["width3", "no-decay"]
    )
    def test_fit_that_never_decays_waits_out_patience(
        self, fit_one_task, width, lr_decay
    ):
        """Multi-target fits never decay (``TargetRecipe``), and neither
        does a scalar fit with ``lr_decay`` 1.0."""
        cfg = dataclasses.replace(self.CONFIG, lr_decay=lr_decay)
        assert self._tail(fit_one_task, cfg, width) == (
            cfg.patience * cfg.check_interval
        )
