"""Tests for RunContext."""

from pathlib import Path

import numpy as np

from repro.core.context import RunContext, default_cache_dir
from repro.obs.metrics import METRICS, MetricsRegistry
from repro.obs.telemetry import NULL_TELEMETRY, RunTelemetry


class TestDefaults:
    def test_env_free_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "")
        context = RunContext()
        assert context.telemetry is NULL_TELEMETRY
        assert context.metrics is METRICS
        assert context.cache_dir is None
        assert isinstance(context.rng, np.random.Generator)

    def test_n_jobs_env(self, monkeypatch, recwarn):
        """``REPRO_N_JOBS`` is no longer read: even a malformed value
        neither raises nor warns."""
        monkeypatch.setenv("REPRO_N_JOBS", "not-a-number")
        RunContext()
        assert len(recwarn) == 0

    def test_cache_dir_env(self, monkeypatch, tmp_path):
        target = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(target))
        resolved = default_cache_dir()
        assert resolved == target
        assert resolved.is_dir()  # created on resolution

    def test_empty_cache_dir_disables_caching(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "")
        assert default_cache_dir() is None

    def test_explicit_cache_dir_coerced_to_path(self, tmp_path):
        context = RunContext(cache_dir=str(tmp_path))
        assert context.cache_dir == Path(tmp_path)


class TestSeedingAndForking:
    def test_seeded_is_reproducible(self):
        a = RunContext.seeded(5).rng.random(4)
        b = RunContext.seeded(5).rng.random(4)
        np.testing.assert_array_equal(a, b)

    def test_fork_shares_hooks_but_not_randomness(self):
        telemetry = RunTelemetry()
        metrics = MetricsRegistry(enabled=True)
        parent = RunContext.seeded(1, telemetry=telemetry, metrics=metrics)
        child = parent.fork(99)
        assert child.telemetry is telemetry
        assert child.metrics is metrics
        assert child.rng is not parent.rng
        np.testing.assert_array_equal(
            child.rng.random(3), np.random.default_rng(99).random(3)
        )

    def test_replace(self, tmp_path):
        context = RunContext.seeded(1)
        changed = context.replace(cache_dir=tmp_path)
        assert changed.cache_dir == tmp_path
        assert changed.rng is context.rng
