"""Tests for the shared experiment runner (learning-curve machinery)."""

import numpy as np
import pytest

from repro.core import RunContext
from repro.core.training import TrainingConfig
from repro.experiments import (
    curve_sizes,
    full_scale,
    run_learning_curve,
)
from repro.experiments.runner import DEFAULT_SIZES, PAPER_SIZES
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import RunTelemetry

FAST = TrainingConfig(
    hidden_layers=(8,), max_epochs=150, patience=5, check_interval=10
)


class TestScaleSwitch:
    def test_default_grid(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        assert not full_scale()
        assert curve_sizes() == DEFAULT_SIZES

    def test_full_grid(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "1")
        assert full_scale()
        assert curve_sizes() == PAPER_SIZES

    def test_paper_grid_matches_paper(self):
        assert PAPER_SIZES[0] == 50
        assert PAPER_SIZES[-1] == 2000
        assert all(b - a == 50 for a, b in zip(PAPER_SIZES, PAPER_SIZES[1:]))


@pytest.mark.slow
class TestRunLearningCurve:
    def test_curve_structure(self):
        curve = run_learning_curve(
            "memory-system",
            "gzip",
            sizes=(50, 100),
            seed=11,
            training=FAST,
            use_cache=False,
        )
        assert [p.n_samples for p in curve.points] == [50, 100]
        point = curve.points[0]
        assert 0 < point.fraction < 0.01
        assert point.true_mean > 0
        assert point.estimated_mean > 0
        assert point.training_seconds > 0

    def test_incremental_sampling_is_prefix(self):
        """Both sizes share a sampling prefix: identical seeds produce
        nested training sets, as in the paper's incremental protocol."""
        a = run_learning_curve(
            "memory-system", "gzip", sizes=(50,), seed=12,
            training=FAST, use_cache=False,
        )
        b = run_learning_curve(
            "memory-system", "gzip", sizes=(50, 100), seed=12,
            training=FAST, use_cache=False,
        )
        # identical first-point sampling implies identical fractions
        assert a.points[0].fraction == b.points[0].fraction

    def test_at_size_lookup(self):
        curve = run_learning_curve(
            "memory-system", "gzip", sizes=(50, 100), seed=11,
            training=FAST, use_cache=False,
        )
        assert curve.at_size(100).n_samples == 100
        with pytest.raises(KeyError):
            curve.at_size(999)

    def test_smallest_size_reaching(self):
        curve = run_learning_curve(
            "memory-system", "gzip", sizes=(50, 100), seed=11,
            training=FAST, use_cache=False,
        )
        assert curve.smallest_size_reaching(1e9) == 50
        assert curve.smallest_size_reaching(0.0) is None

    def test_cache_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        first = run_learning_curve(
            "memory-system", "gzip", sizes=(50,), seed=13, training=FAST
        )
        second = run_learning_curve(
            "memory-system", "gzip", sizes=(50,), seed=13, training=FAST
        )
        assert first.points[0].true_mean == second.points[0].true_mean

    def test_validation(self):
        with pytest.raises(ValueError):
            run_learning_curve(
                "memory-system", "gzip", sizes=(100, 50), training=FAST
            )
        with pytest.raises(ValueError):
            run_learning_curve(
                "memory-system", "gzip", sizes=(50,), source="oracle",
                training=FAST,
            )

    def test_simpoint_source(self):
        curve = run_learning_curve(
            "processor", "mesa", sizes=(50,), source="simpoint",
            seed=14, training=FAST, use_cache=False,
        )
        assert curve.source == "simpoint"
        assert curve.points[0].true_mean > 0


def _observed_context(cache_dir):
    metrics = MetricsRegistry(enabled=True)
    telemetry = RunTelemetry(metrics=metrics)
    return RunContext(
        rng=np.random.default_rng(0), telemetry=telemetry,
        metrics=metrics, cache_dir=cache_dir,
    )


@pytest.mark.slow
class TestCacheTelemetry:
    """Satellite fix: curve cache loads/stores must narrate failures
    instead of silently re-running or dropping results."""

    def test_miss_then_hit(self, tmp_path):
        first = _observed_context(tmp_path)
        run_learning_curve(
            "memory-system", "gzip", sizes=(50,), seed=21,
            training=FAST, context=first,
        )
        assert len(first.telemetry.events_named("cache.miss")) == 1
        assert first.metrics.counter("cache.misses") == 1
        assert first.telemetry.events_named("curve.point")

        second = _observed_context(tmp_path)
        run_learning_curve(
            "memory-system", "gzip", sizes=(50,), seed=21,
            training=FAST, context=second,
        )
        assert len(second.telemetry.events_named("cache.hit")) == 1
        assert second.metrics.counter("cache.hits") == 1
        # a hit means no training happened
        assert not second.telemetry.events_named("curve.point")

    def test_corrupt_cache_emits_read_error(self, tmp_path):
        run_learning_curve(
            "memory-system", "gzip", sizes=(50,), seed=22,
            training=FAST, context=_observed_context(tmp_path),
        )
        (cached,) = tmp_path.glob("curve-*.pkl")
        cached.write_bytes(b"not a pickle")

        context = _observed_context(tmp_path)
        curve = run_learning_curve(
            "memory-system", "gzip", sizes=(50,), seed=22,
            training=FAST, context=context,
        )
        events = context.telemetry.events_named("cache.read_error")
        assert len(events) == 1
        assert "path" in events[0].payload
        assert context.metrics.counter("cache.read_errors") == 1
        assert curve.points  # the curve was recomputed regardless

    def test_unwritable_cache_emits_write_error(self, tmp_path):
        context = _observed_context(tmp_path / "does-not-exist")
        curve = run_learning_curve(
            "memory-system", "gzip", sizes=(50,), seed=23,
            training=FAST, context=context,
        )
        assert len(context.telemetry.events_named("cache.write_error")) == 1
        assert context.metrics.counter("cache.write_errors") == 1
        assert curve.points  # the failure is narrated, not fatal
