"""Additional runner/caching invariants (fast, no training)."""

from pathlib import Path

import numpy as np
import pytest

from repro.core.context import RunContext
from repro.core.training import TrainingConfig
from repro.experiments import encoded_space, get_study, runner
from repro.experiments.runner import (
    CurvePoint,
    LearningCurve,
    _curve_cache_path,
    _load_cached_curve,
    _store_cached_curve,
    _training_fingerprint,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import RunTelemetry

CACHE_DIR = Path("/tmp/repro-cache-test")


class TestCacheKeys:
    def test_fingerprint_stable(self):
        a = _training_fingerprint(TrainingConfig())
        b = _training_fingerprint(TrainingConfig())
        assert a == b

    def test_fingerprint_sensitive_to_hyperparameters(self):
        a = _training_fingerprint(TrainingConfig())
        b = _training_fingerprint(TrainingConfig(learning_rate=0.123))
        assert a != b

    def test_curve_path_includes_workload_seed(self):
        study = get_study("memory-system")
        path = _curve_cache_path(
            study, "gzip", "true", (50,), 0, TrainingConfig(), CACHE_DIR
        )
        assert "w164" in path.name  # gzip's generator seed

    def test_curve_path_distinguishes_sources(self):
        study = get_study("processor")
        a = _curve_cache_path(
            study, "mesa", "true", (50,), 0, TrainingConfig(), CACHE_DIR
        )
        b = _curve_cache_path(
            study, "mesa", "simpoint", (50,), 0, TrainingConfig(), CACHE_DIR
        )
        assert a.name != b.name

    @staticmethod
    def _assert_stale_version_misses(tmp_path, monkeypatch, version, training):
        """A curve cached under runner ``version`` with ``training`` is
        found under its own path but misses under today's."""
        args = (
            get_study("memory-system"), "gzip", "true", (50,), 0,
            training, tmp_path,
        )
        context = RunContext(
            telemetry=RunTelemetry(), metrics=MetricsRegistry(enabled=True),
            cache_dir=tmp_path,
        )
        with monkeypatch.context() as patch:
            patch.setattr(runner, "RUNNER_VERSION", version)
            stale = _curve_cache_path(*args)
        curve = LearningCurve(
            study="memory-system", benchmark="gzip", source="true", seed=0,
            points=[CurvePoint(50, 0.01, 4.0, 1.0, 4.2, 1.1, 0.5)],
        )
        _store_cached_curve(stale, curve, context)
        assert _load_cached_curve(stale, 1, context) == curve

        current = _curve_cache_path(*args)
        assert current.name.startswith(f"curve-v{runner.RUNNER_VERSION}-")
        assert current != stale
        assert _load_cached_curve(current, 1, context) is None
        assert context.metrics.counter("cache.misses") == 1

    def test_curve_from_runner_version_2_is_not_loaded(
        self, tmp_path, monkeypatch
    ):
        """Version-2 curves were trained under the patience-only stop
        rule, with the same ``TrainingConfig`` repr as today's; they
        must miss instead of being served as current."""
        self._assert_stale_version_misses(
            tmp_path, monkeypatch, 2, TrainingConfig()
        )

    def test_curve_from_runner_version_3_is_not_loaded(
        self, tmp_path, monkeypatch
    ):
        """Version-3 curves trained with ``fast_settings`` stopped at
        ``min(patience, 2 * decay_after)`` = 15 checks, today's rule
        stops that config at 10, and its repr did not change; they must
        miss instead of being served as current."""
        self._assert_stale_version_misses(
            tmp_path, monkeypatch, 3, TrainingConfig.fast_settings()
        )

    def test_no_cache_dir_disables_caching(self):
        study = get_study("processor")
        path = _curve_cache_path(
            study, "mesa", "true", (50,), 0, TrainingConfig(), None
        )
        assert path is None


class TestEncodedSpace:
    def test_shape_and_cache(self):
        study = get_study("memory-system")
        a = encoded_space(study)
        b = encoded_space(study)
        assert a is b
        assert a.shape[0] == len(study.space)
        assert np.all(a >= 0.0) and np.all(a <= 1.0)

    def test_rows_unique(self):
        study = get_study("processor")
        matrix = encoded_space(study)
        sample = matrix[:: max(1, len(matrix) // 500)]
        assert len(np.unique(sample, axis=0)) == len(sample)


class TestLearningCurveContainer:
    def test_empty_curve_lookup_raises(self):
        curve = LearningCurve(
            study="s", benchmark="b", source="true", seed=0, points=[]
        )
        with pytest.raises(KeyError):
            curve.at_size(50)
        assert curve.smallest_size_reaching(1.0) is None
