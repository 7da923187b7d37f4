"""Tests for the multi-task learning extension."""

import numpy as np
import pytest

from repro.core import MultiTaskNetwork, auxiliary_target_names
from repro.obs.metrics import METRICS


def make_multitask_problem(rng, n=300):
    """Primary target plus two correlated auxiliary metrics."""
    x = rng.random((n, 3))
    primary = 0.5 + 0.8 * x[:, 0] + 0.4 * x[:, 1] * x[:, 2]
    miss_rate = 0.1 + 0.5 * x[:, 1]  # correlated with the product term
    mispredicts = 0.05 + 0.3 * x[:, 0]
    return x, np.column_stack([primary, miss_rate, mispredicts])


class TestMultiTaskNetwork:
    def test_shapes(self, rng, fast_training):
        model = MultiTaskNetwork(3, 3, training=fast_training, rng=rng)
        x, y = make_multitask_problem(rng, n=100)
        model.fit(x[:80], y[:80], x[80:], y[80:])
        assert model.predict_all(x[:5]).shape == (5, 3)
        assert model.predict_primary(x[:5]).shape == (5,)

    def test_learns_primary_task(self, rng, fast_training):
        x, y = make_multitask_problem(rng)
        model = MultiTaskNetwork(3, 3, training=fast_training, rng=rng)
        model.fit(x[:200], y[:200], x[200:250], y[200:250])
        predictions = model.predict_primary(x[250:])
        errors = np.abs(predictions - y[250:, 0]) / y[250:, 0]
        assert errors.mean() < 0.10

    def test_single_task_degenerates_gracefully(self, rng, fast_training):
        x, y = make_multitask_problem(rng, n=120)
        model = MultiTaskNetwork(3, 1, training=fast_training, rng=rng)
        model.fit(x[:100], y[:100, :1], x[100:], y[100:, :1])
        assert model.predict_primary(x[:3]).shape == (3,)

    def test_history_returned(self, rng, fast_training):
        x, y = make_multitask_problem(rng, n=120)
        model = MultiTaskNetwork(3, 3, training=fast_training, rng=rng)
        history = model.fit(x[:100], y[:100], x[100:], y[100:])
        assert len(history) >= 1

    def test_validation(self, rng, fast_training):
        model = MultiTaskNetwork(3, 2, training=fast_training, rng=rng)
        x, y = make_multitask_problem(rng, n=50)
        with pytest.raises(ValueError):
            model.fit(x, y, x, y)  # 3 columns != 2 tasks
        with pytest.raises(ValueError):
            MultiTaskNetwork(3, 0)

    def test_single_task_accepts_target_vector(self, rng, fast_training):
        """A one-task model takes 1-D targets like a scalar fit does."""
        x, y = make_multitask_problem(rng, n=120)
        model = MultiTaskNetwork(3, 1, training=fast_training, rng=rng)
        history = model.fit(x[:100], y[:100, 0], x[100:], y[100:, 0])
        assert len(history) >= 1
        assert model.predict_all(x[:3]).shape == (3, 1)

    def test_rejects_mismatched_lengths_and_empty_es(self, rng, fast_training):
        model = MultiTaskNetwork(3, 3, training=fast_training, rng=rng)
        x, y = make_multitask_problem(rng, n=50)
        with pytest.raises(ValueError, match="equal length"):
            model.fit(x, y[:10], x, y)
        with pytest.raises(ValueError, match="equal length"):
            model.fit(x, y, x[:10], y)
        with pytest.raises(ValueError, match="non-empty"):
            model.fit(x, y, x[:0], y[:0])
        with pytest.raises(ValueError, match=r"shape \(n, 3\)"):
            model.fit(x[:, :2], y, x, y)

    def test_predict_before_fit_raises(self, rng, fast_training):
        model = MultiTaskNetwork(3, 2, training=fast_training, rng=rng)
        with pytest.raises(RuntimeError, match="fit"):
            model.predict_primary(np.zeros((1, 3)))

    def test_training_counters_reach_global_metrics(
        self, rng, fast_training, monkeypatch
    ):
        monkeypatch.setattr(METRICS, "enabled", True)

        def snapshot():
            stats = METRICS.timer_stats("train.fit")
            return METRICS.counter("train.epochs"), stats.count if stats else 0

        x, y = make_multitask_problem(rng, n=120)
        model = MultiTaskNetwork(3, 3, training=fast_training, rng=rng)
        epochs_before, fits_before = snapshot()
        history = model.fit(x[:100], y[:100], x[100:], y[100:])
        epochs_after, fits_after = snapshot()
        assert epochs_after - epochs_before >= (
            len(history) * fast_training.check_interval
        )
        assert fits_after - fits_before == 1

    def test_rejects_nonpositive_primary(self, rng, fast_training):
        model = MultiTaskNetwork(2, 1, training=fast_training, rng=rng)
        x = rng.random((20, 2))
        y = np.zeros((20, 1))
        with pytest.raises(ValueError):
            model.fit(x, y, x, y)


class TestAuxiliaryNames:
    def test_prepends_ipc(self):
        assert auxiliary_target_names(["l2_miss"]) == ["ipc", "l2_miss"]

    def test_dedupes_ipc(self):
        assert auxiliary_target_names(["ipc", "l2_miss"]) == ["ipc", "l2_miss"]

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            auxiliary_target_names(["a", "a"])
