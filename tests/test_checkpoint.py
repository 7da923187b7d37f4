"""Tests for crash-safe checkpointing and atomic artifact writes."""

import hashlib
import os
import pathlib
import pickle
from dataclasses import asdict

import numpy as np
import pytest

from repro.core import (
    CHECKPOINT_VERSION,
    CheckpointError,
    DesignSpaceExplorer,
    ErrorEstimate,
    ExplorerCheckpoint,
    RunContext,
    clear_checkpoint,
    load_checkpoint,
    previous_path,
    save_checkpoint,
)
from repro.core.checkpoint import (
    CHECKPOINT_FORMAT,
    ENVELOPE_VERSION,
    canonical_json,
)
from repro.core.fitting import fit_cv_round
from repro.experiments import run_learning_curve
from repro.experiments.runner import (
    LearningCurve,
    _curve_cache_path,
    _progress_path,
)
from repro.obs import (
    atomic_write_bytes,
    atomic_write_pickle,
    atomic_write_text,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import RunTelemetry

from .test_explorer import smooth_simulator


class TestAtomicWrites:
    def test_text_roundtrip_without_droppings(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_text(path, "hello\n")
        assert path.read_text() == "hello\n"
        atomic_write_text(path, "replaced\n")
        assert path.read_text() == "replaced\n"
        assert os.listdir(tmp_path) == ["out.json"]

    def test_bytes_roundtrip(self, tmp_path):
        path = tmp_path / "blob.bin"
        atomic_write_bytes(path, b"\x00\x01")
        assert path.read_bytes() == b"\x00\x01"

    def test_pickle_roundtrip(self, tmp_path):
        path = tmp_path / "state.pkl"
        atomic_write_pickle(path, {"a": [1, 2, 3]})
        with open(path, "rb") as handle:
            assert pickle.load(handle) == {"a": [1, 2, 3]}

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        class Unpicklable:
            def __reduce__(self):
                raise TypeError("nope")

        path = tmp_path / "state.pkl"
        with pytest.raises(TypeError):
            atomic_write_pickle(path, Unpicklable())
        assert os.listdir(tmp_path) == []


class TestCheckpointPrimitives:
    def test_roundtrip_is_narrated(self, tmp_path):
        path = tmp_path / "run.ckpt"
        metrics = MetricsRegistry(enabled=True)
        telemetry = RunTelemetry()
        save_checkpoint(path, {"round": 3}, telemetry, metrics)
        assert load_checkpoint(path, telemetry, metrics) == {"round": 3}
        clear_checkpoint(path, telemetry, metrics)
        assert not path.exists()
        assert metrics.counter("checkpoint.saves") == 1
        assert metrics.counter("checkpoint.loads") == 1
        assert metrics.counter("checkpoint.clears") == 1
        assert telemetry.events_named("checkpoint.save")

    def test_missing_file_is_a_miss(self, tmp_path):
        metrics = MetricsRegistry(enabled=True)
        assert load_checkpoint(tmp_path / "absent", metrics=metrics) is None
        assert metrics.counter("checkpoint.misses") == 1

    def test_corrupt_file_strict_raises(self, tmp_path):
        path = tmp_path / "torn.ckpt"
        path.write_bytes(b"not a pickle")
        with pytest.raises(CheckpointError):
            load_checkpoint(path, strict=True)

    def test_corrupt_file_lenient_degrades(self, tmp_path):
        path = tmp_path / "torn.ckpt"
        path.write_bytes(b"not a pickle")
        metrics = MetricsRegistry(enabled=True)
        assert load_checkpoint(path, metrics=metrics, strict=False) is None
        assert metrics.counter("checkpoint.corrupt") == 1

    def test_clear_missing_is_harmless(self, tmp_path):
        clear_checkpoint(tmp_path / "never-existed")


def _flip_bit(path):
    """Simulate bit rot: flip one bit in the middle of the file."""
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


class TestSelfHealingCheckpoints:
    ROUNDS = (
        {"round": 1, "data": list(range(200))},
        {"round": 2, "data": list(range(200, 400))},
    )

    def _save_rounds(self, path, telemetry=None):
        for payload in self.ROUNDS:
            save_checkpoint(path, payload, telemetry)

    def test_save_rotates_previous(self, tmp_path):
        path = tmp_path / "run.ckpt"
        telemetry = RunTelemetry()
        self._save_rounds(path, telemetry)
        assert previous_path(path).exists()
        assert load_checkpoint(path) == self.ROUNDS[1]
        saves = telemetry.events_named("checkpoint.save")
        assert [e.payload["rotated"] for e in saves] == [False, True]
        assert all(len(e.payload["sha256"]) == 64 for e in saves)

    def test_bit_flip_falls_back_to_previous_round(self, tmp_path):
        path = tmp_path / "run.ckpt"
        self._save_rounds(path)
        _flip_bit(path)
        telemetry = RunTelemetry()
        metrics = MetricsRegistry(enabled=True)
        assert load_checkpoint(path, telemetry, metrics) == self.ROUNDS[0]
        assert metrics.counter("checkpoint.corrupt") == 1
        assert metrics.counter("checkpoint.fallbacks") == 1
        assert metrics.counter("checkpoint.loads") == 1
        assert telemetry.events_named("checkpoint.corrupt")
        (fallback,) = telemetry.events_named("checkpoint.fallback")
        assert fallback.payload["fallback"] == str(previous_path(path))

    def test_missing_primary_uses_previous(self, tmp_path):
        path = tmp_path / "run.ckpt"
        self._save_rounds(path)
        path.unlink()  # a crash between rotation and the atomic write
        telemetry = RunTelemetry()
        assert load_checkpoint(path, telemetry) == self.ROUNDS[0]
        (fallback,) = telemetry.events_named("checkpoint.fallback")
        assert "missing" in fallback.payload["reason"]

    def test_both_corrupt_strict_raises(self, tmp_path):
        path = tmp_path / "run.ckpt"
        self._save_rounds(path)
        _flip_bit(path)
        _flip_bit(previous_path(path))
        metrics = MetricsRegistry(enabled=True)
        with pytest.raises(CheckpointError):
            load_checkpoint(path, metrics=metrics, strict=True)
        assert metrics.counter("checkpoint.corrupt") == 2

    def test_both_corrupt_lenient_degrades(self, tmp_path):
        path = tmp_path / "run.ckpt"
        self._save_rounds(path)
        _flip_bit(path)
        _flip_bit(previous_path(path))
        assert load_checkpoint(path, strict=False) is None

    def test_envelope_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "run.ckpt"
        payload = {"round": 9}
        body = canonical_json(payload)
        envelope = {
            "format": CHECKPOINT_FORMAT,
            "version": ENVELOPE_VERSION + 1,
            "sha256": hashlib.sha256(body.encode("utf-8")).hexdigest(),
            "payload": payload,
        }
        path.write_text(canonical_json(envelope))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path, strict=True)

    def test_clear_removes_previous_too(self, tmp_path):
        path = tmp_path / "run.ckpt"
        self._save_rounds(path)
        clear_checkpoint(path)
        assert not path.exists()
        assert not previous_path(path).exists()


class TestDegradedTraining:
    def test_error_estimate_coverage(self):
        estimate = ErrorEstimate(mean=1.0, std=0.5, n_training=18, n_failed=2)
        assert estimate.coverage == 0.9
        assert "(2 failed)" in str(estimate)
        assert ErrorEstimate(mean=1.0, std=0.5, n_training=0).coverage == 0.0

    def test_fit_cv_round_masks_nan_targets(self, rng):
        x = rng.random((20, 3))
        y = 1.0 + x @ np.array([0.5, 0.2, 0.1])
        y[3] = np.nan
        y[11] = np.nan
        metrics = MetricsRegistry(enabled=True)
        context = RunContext(
            rng=np.random.default_rng(0), metrics=metrics,
            telemetry=RunTelemetry(),
        )
        outcome = fit_cv_round(x, y, k=4, context=context)
        assert outcome.estimate.n_failed == 2
        assert outcome.estimate.n_training == 18
        assert outcome.estimate.coverage == 0.9
        assert metrics.counter("fit.masked_rows") == 2
        assert context.telemetry.events_named("fit.masked")


class _InterruptedSimulator:
    """Dies with a non-retryable error after ``fail_after`` evaluations."""

    def __init__(self, fail_after):
        self.calls = 0
        self.fail_after = fail_after

    def __call__(self, config):
        self.calls += 1
        if self.calls > self.fail_after:
            raise RuntimeError("host preempted")
        return smooth_simulator(config)


class TestExplorerCheckpointing:
    def _explorer(self, space, simulate, training, seed=3):
        return DesignSpaceExplorer(
            space, simulate, batch_size=10, k=4,
            training=training, context=RunContext.seeded(seed),
        )

    def test_kill_and_resume_is_bit_identical(
        self, tiny_space, fast_training, tmp_path
    ):
        """checkpoint -> kill -> resume reproduces the uninterrupted
        run exactly: same samples, targets, trajectory and model."""
        baseline = self._explorer(
            tiny_space, smooth_simulator, fast_training
        ).explore(target_error=1.0, max_simulations=30)
        assert len(baseline.rounds) >= 2  # the test needs a round to resume

        path = tmp_path / "explore.ckpt"
        dying = _InterruptedSimulator(fail_after=10)  # dies in round 2
        with pytest.raises(RuntimeError):
            self._explorer(tiny_space, dying, fast_training).explore(
                target_error=1.0, max_simulations=30, checkpoint=path
            )
        assert path.exists()

        # the resuming explorer's own seed must not matter: the RNG
        # state comes from the checkpoint
        resumed = self._explorer(
            tiny_space, smooth_simulator, fast_training, seed=99
        ).explore(target_error=1.0, max_simulations=30, checkpoint=path)

        assert resumed.sampled_indices == baseline.sampled_indices
        assert resumed.primary_targets == baseline.primary_targets
        assert len(resumed.rounds) == len(baseline.rounds)
        assert [r.estimate.mean for r in resumed.rounds] == [
            r.estimate.mean for r in baseline.rounds
        ]
        np.testing.assert_array_equal(
            resumed.predict_space(), baseline.predict_space()
        )
        # a finished run leaves no checkpoint behind
        assert not path.exists()

    def test_corrupted_checkpoint_resumes_from_previous_round(
        self, tiny_space, fast_training, tmp_path
    ):
        """Bit rot in the newest checkpoint costs one round, never the
        run: resume falls back to ``<path>.prev`` and still reproduces
        the uninterrupted result bit-identically."""
        baseline = self._explorer(
            tiny_space, smooth_simulator, fast_training
        ).explore(target_error=1.0, max_simulations=30)
        assert len(baseline.rounds) >= 3  # needs a .prev to fall back to

        path = tmp_path / "explore.ckpt"
        dying = _InterruptedSimulator(fail_after=20)  # dies in round 3
        with pytest.raises(RuntimeError):
            self._explorer(tiny_space, dying, fast_training).explore(
                target_error=1.0, max_simulations=30, checkpoint=path
            )
        assert path.exists() and previous_path(path).exists()

        _flip_bit(path)  # corrupt the round-2 checkpoint

        resumed = self._explorer(
            tiny_space, smooth_simulator, fast_training, seed=99
        ).explore(target_error=1.0, max_simulations=30, checkpoint=path)

        assert resumed.sampled_indices == baseline.sampled_indices
        assert resumed.primary_targets == baseline.primary_targets
        assert [r.estimate.mean for r in resumed.rounds] == [
            r.estimate.mean for r in baseline.rounds
        ]
        np.testing.assert_array_equal(
            resumed.predict_space(), baseline.predict_space()
        )
        # a finished run leaves neither checkpoint file behind
        assert not path.exists()
        assert not previous_path(path).exists()

    def test_terminal_checkpoint_short_circuits(
        self, tiny_space, fast_training, tmp_path
    ):
        baseline = self._explorer(
            tiny_space, smooth_simulator, fast_training
        ).explore(target_error=3.0, max_simulations=30)

        path = tmp_path / "done.ckpt"
        save_checkpoint(
            path,
            ExplorerCheckpoint(
                version=CHECKPOINT_VERSION,
                space_name=tiny_space.name,
                space_size=len(tiny_space),
                batch_size=10,
                k=4,
                target_error=3.0,
                max_simulations=30,
                sampled_indices=list(baseline.sampled_indices),
                targets=list(baseline.primary_targets),
                rounds=[(r.n_samples, r.estimate) for r in baseline.rounds],
                rng_state=None,
                predictor=baseline.predictor,
                converged=True,
            ).to_payload(),
        )
        counting = _InterruptedSimulator(fail_after=0)  # any call raises
        result = self._explorer(
            tiny_space, counting, fast_training
        ).explore(target_error=3.0, max_simulations=30, checkpoint=path)
        assert counting.calls == 0
        assert result.converged
        assert result.sampled_indices == baseline.sampled_indices
        np.testing.assert_array_equal(
            result.predict_space(), baseline.predict_space()
        )

    def test_incompatible_checkpoint_fails_loudly(
        self, tiny_space, fast_training, tmp_path
    ):
        path = tmp_path / "other.ckpt"
        save_checkpoint(
            path,
            ExplorerCheckpoint(
                version=CHECKPOINT_VERSION,
                space_name=tiny_space.name,
                space_size=len(tiny_space),
                batch_size=5,  # explorer below uses 10
                k=4,
                target_error=3.0,
                max_simulations=30,
            ).to_payload(),
        )
        with pytest.raises(CheckpointError, match="batch_size"):
            self._explorer(
                tiny_space, smooth_simulator, fast_training
            ).explore(target_error=3.0, max_simulations=30, checkpoint=path)

    @pytest.mark.parametrize("version", [2, 3, 4])
    def test_old_round_checkpoint_version_rejected(
        self, tiny_space, fast_training, tmp_path, version
    ):
        """A round-state payload of an earlier schema version fails
        loudly, naming its version, instead of being migrated."""
        path = tmp_path / "old.ckpt"
        save_checkpoint(
            path,
            ExplorerCheckpoint(
                version=version,
                space_name=tiny_space.name,
                space_size=len(tiny_space),
                batch_size=10,
                k=4,
                target_error=3.0,
                max_simulations=30,
            ).to_payload(),
        )
        assert CHECKPOINT_VERSION == 5
        with pytest.raises(CheckpointError, match=f"version {version}"):
            self._explorer(
                tiny_space, smooth_simulator, fast_training
            ).explore(target_error=3.0, max_simulations=30, checkpoint=path)

    def test_foreign_payload_fails_loudly(
        self, tiny_space, fast_training, tmp_path
    ):
        path = tmp_path / "foreign.ckpt"
        save_checkpoint(path, {"not": "an exploration"})
        with pytest.raises(CheckpointError, match="dict"):
            self._explorer(
                tiny_space, smooth_simulator, fast_training
            ).explore(target_error=3.0, max_simulations=30, checkpoint=path)


#: a round checkpoint as the previous release wrote it: a tiny-space
#: run (seed 3, batch 10, k 4) killed in round 2, its
#: ``ExplorerCheckpoint`` pickled inside the v4 pickle envelope
PICKLE_ENVELOPE_V4 = (
    pathlib.Path(__file__).parent / "data" / "explorer_checkpoint_v4.ckpt"
)


def _kill_in_round(monkeypatch, round_number):
    """Make ``Environment.step`` die as the given round starts, as a
    killed host would: earlier rounds are checkpointed, this one is
    not."""
    from repro.search.environment import Environment

    step = Environment.step

    def dying_step(self, configs):
        if len(self.rounds) == round_number - 1:
            raise RuntimeError("host preempted")
        return step(self, configs)

    monkeypatch.setattr(Environment, "step", dying_step)


class TestPayloadCheckpoints:
    """Round state is JSON data: no load path unpickles, a previous
    release's pickle is refused, and resume through NaN-marked failures
    stays bit-identical."""

    def _explorer(self, space, simulate, training, seed=3):
        return DesignSpaceExplorer(
            space, simulate, batch_size=10, k=4,
            training=training, context=RunContext.seeded(seed),
        )

    def test_previous_release_pickle_refused_by_strict_resume(
        self, tiny_space, fast_training, tmp_path
    ):
        path = tmp_path / "explore.ckpt"
        path.write_bytes(PICKLE_ENVELOPE_V4.read_bytes())
        assert pickle.loads(path.read_bytes())["version"] == 4
        counting = _InterruptedSimulator(fail_after=0)  # any call raises
        with pytest.raises(CheckpointError, match="cannot be read"):
            self._explorer(tiny_space, counting, fast_training).explore(
                target_error=1.0, max_simulations=30, checkpoint=path
            )
        assert counting.calls == 0
        assert path.read_bytes() == PICKLE_ENVELOPE_V4.read_bytes()

    def test_no_load_path_unpickles(
        self, tiny_space, fast_training, tmp_path, monkeypatch
    ):
        baseline = self._explorer(
            tiny_space, smooth_simulator, fast_training
        ).explore(target_error=1.0, max_simulations=30)

        def refuse(*args, **kwargs):
            raise AssertionError("a checkpoint load path unpickled")

        for name in ("load", "loads", "Unpickler"):
            monkeypatch.setattr(pickle, name, refuse)
        path = tmp_path / "explore.ckpt"
        with monkeypatch.context() as patch:
            _kill_in_round(patch, 2)
            with pytest.raises(RuntimeError, match="preempted"):
                self._explorer(
                    tiny_space, smooth_simulator, fast_training
                ).explore(target_error=1.0, max_simulations=30,
                          checkpoint=path)
        assert path.exists()
        metrics = MetricsRegistry(enabled=True)
        resumed = DesignSpaceExplorer(
            tiny_space, smooth_simulator, batch_size=10, k=4,
            training=fast_training,
            context=RunContext(
                rng=np.random.default_rng(99), metrics=metrics,
                telemetry=RunTelemetry(),
            ),
        ).explore(target_error=1.0, max_simulations=30, checkpoint=path)
        assert metrics.counter("checkpoint.loads") == 1
        assert resumed.sampled_indices == baseline.sampled_indices
        assert resumed.rounds == baseline.rounds
        assert (
            resumed.predict_space().tobytes()
            == baseline.predict_space().tobytes()
        )

    def test_resume_through_nan_marked_failures_is_bit_identical(
        self, tiny_space, fast_training, tmp_path, monkeypatch
    ):
        """Evaluations that exhaust their retries are NaN targets; the
        checkpoint spells them out and the resumed run reproduces the
        uninterrupted one exactly."""
        from repro.core.resilience import (
            EvaluationError,
            ResilientBackend,
            RetryPolicy,
        )

        def broken_small_caches(config):
            if config["size"] == 8:
                raise EvaluationError("simulator crashed")
            return smooth_simulator(config)

        def run(seed, checkpoint=None):
            backend = ResilientBackend(
                broken_small_caches, policy=RetryPolicy(max_retries=1)
            )
            return self._explorer(
                tiny_space, backend, fast_training, seed=seed
            ).explore(target_error=0.001, max_simulations=30,
                      checkpoint=checkpoint)

        baseline = run(seed=3)
        assert np.isnan(baseline.primary_targets).any()

        path = tmp_path / "explore.ckpt"
        with monkeypatch.context() as patch:
            _kill_in_round(patch, 3)
            with pytest.raises(RuntimeError, match="preempted"):
                run(seed=3, checkpoint=path)
        saved = load_checkpoint(path)
        assert "nan" in saved["targets"]
        assert saved["rounds"][-1]["estimate"]["n_failed"] > 0

        resumed = run(seed=99, checkpoint=path)
        assert resumed.sampled_indices == baseline.sampled_indices
        np.testing.assert_array_equal(
            resumed.primary_targets, baseline.primary_targets
        )
        assert resumed.rounds == baseline.rounds
        assert (
            resumed.predict_space().tobytes()
            == baseline.predict_space().tobytes()
        )


@pytest.mark.slow
class TestCurveResume:
    SIZES = (12, 16)

    def _context(self, cache_dir):
        return RunContext(
            rng=np.random.default_rng(5),
            telemetry=RunTelemetry(),
            metrics=MetricsRegistry(enabled=True),
            cache_dir=cache_dir,
        )

    def _run(self, cache_dir, fast_training, resume=False):
        return run_learning_curve(
            "memory-system", "gzip", sizes=self.SIZES, source="true",
            seed=5, training=fast_training, use_cache=False,
            context=self._context(cache_dir), resume=resume,
        )

    def test_resume_skips_completed_points(self, tmp_path, fast_training):
        baseline = self._run(tmp_path, fast_training)

        from repro.experiments import get_study

        study = get_study("memory-system")
        cache = _curve_cache_path(
            study, "gzip", "true", self.SIZES, 5, fast_training, tmp_path
        )
        progress = _progress_path(cache)
        partial = LearningCurve(
            study="memory-system", benchmark="gzip", source="true", seed=5,
            points=[baseline.points[0]],
        )
        save_checkpoint(progress, asdict(partial))

        context = self._context(tmp_path)
        resumed = run_learning_curve(
            "memory-system", "gzip", sizes=self.SIZES, source="true",
            seed=5, training=fast_training, use_cache=False,
            context=context, resume=True,
        )
        # only the missing size was trained...
        trained = context.telemetry.events_named("curve.point")
        assert [e.payload["n_samples"] for e in trained] == [self.SIZES[1]]
        # ...and the result is bit-identical to the uninterrupted run
        assert [p.n_samples for p in resumed.points] == list(self.SIZES)
        for got, want in zip(resumed.points, baseline.points):
            assert got.true_mean == want.true_mean
            assert got.estimated_mean == want.estimated_mean
        # the progress file is cleared once the curve completes
        assert not progress.exists()

    def test_previous_release_pickle_progress_starts_fresh(
        self, tmp_path, fast_training
    ):
        from repro.experiments import get_study

        study = get_study("memory-system")
        cache = _curve_cache_path(
            study, "gzip", "true", self.SIZES, 5, fast_training, tmp_path
        )
        progress = _progress_path(cache)
        progress.write_bytes(PICKLE_ENVELOPE_V4.read_bytes())

        context = self._context(tmp_path)
        resumed = run_learning_curve(
            "memory-system", "gzip", sizes=self.SIZES, source="true",
            seed=5, training=fast_training, use_cache=False,
            context=context, resume=True,
        )
        assert context.metrics.counter("checkpoint.corrupt") == 1
        trained = context.telemetry.events_named("curve.point")
        assert [e.payload["n_samples"] for e in trained] == list(self.SIZES)
        assert [p.n_samples for p in resumed.points] == list(self.SIZES)
        assert not progress.exists()

    def test_incompatible_partial_is_ignored(self, tmp_path, fast_training):
        from repro.experiments import get_study

        study = get_study("memory-system")
        cache = _curve_cache_path(
            study, "gzip", "true", self.SIZES, 5, fast_training, tmp_path
        )
        progress = _progress_path(cache)
        stale = LearningCurve(
            study="memory-system", benchmark="gzip", source="true", seed=6,
        )
        save_checkpoint(progress, asdict(stale))

        context = self._context(tmp_path)
        resumed = run_learning_curve(
            "memory-system", "gzip", sizes=self.SIZES, source="true",
            seed=5, training=fast_training, use_cache=False,
            context=context, resume=True,
        )
        assert context.telemetry.events_named("checkpoint.incompatible")
        trained = context.telemetry.events_named("curve.point")
        assert [e.payload["n_samples"] for e in trained] == list(self.SIZES)
        assert [p.n_samples for p in resumed.points] == list(self.SIZES)


class TestJsonCheckpoints:
    """The envelope as campaign manifests and service registries use it."""

    def test_roundtrip_and_counters(self, tmp_path):
        from repro.core.checkpoint import (
            load_checkpoint,
            save_checkpoint,
        )

        metrics = MetricsRegistry(enabled=True)
        telemetry = RunTelemetry()
        path = tmp_path / "state.json"
        payload = {"cells": {"a": 1}, "nested": [1, 2, {"b": True}]}
        save_checkpoint(path, payload, telemetry, metrics)
        assert load_checkpoint(path) == payload
        assert metrics.counter("checkpoint.saves") == 1
        assert telemetry.events_named("checkpoint.save")

    def test_missing_file_is_a_miss(self, tmp_path):
        from repro.core.checkpoint import load_checkpoint

        assert load_checkpoint(tmp_path / "absent.json") is None

    def test_checksum_mismatch_strict_raises(self, tmp_path):
        import json as json_mod

        from repro.core.checkpoint import (
            CheckpointError,
            load_checkpoint,
            save_checkpoint,
        )

        path = tmp_path / "state.json"
        save_checkpoint(path, {"value": 1})
        doc = json_mod.loads(path.read_text())
        doc["payload"]["value"] = 2  # tamper without updating the checksum
        path.write_text(json_mod.dumps(doc))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path, strict=True)

    def test_corrupt_primary_falls_back_to_previous(self, tmp_path):
        from repro.core.checkpoint import (
            load_checkpoint,
            save_checkpoint,
        )

        path = tmp_path / "state.json"
        save_checkpoint(path, {"round": 1})
        save_checkpoint(path, {"round": 2})
        path.write_text("garbage")
        assert load_checkpoint(path, strict=True) == {"round": 1}

    def test_compact_envelope_loads_rotates_and_heals(self, tmp_path):
        """A save writes the envelope around the payload's one canonical
        encoding: the file is the canonical JSON of the whole envelope.
        Loading verifies its checksum, the previous save rotates to
        ``.prev``, a torn primary heals from it, and an indented file
        from the earlier two-pass writer still loads."""
        import json as json_mod

        from repro.core.checkpoint import (
            CHECKPOINT_FORMAT,
            ENVELOPE_VERSION,
            canonical_json,
            load_checkpoint,
            save_checkpoint,
        )

        path = tmp_path / "REGISTRY.json"
        first = {"records": [{"id": "j1", "state": "done", "error": 0.5}]}
        second = {
            "records": first["records"] + [
                {"id": "j2", "state": "accepted", "note": "caf\u00e9 \"q\""}
            ]
        }
        save_checkpoint(path, first)
        save_checkpoint(path, second)
        text = path.read_text(encoding="utf-8")
        body = canonical_json(second)
        envelope = {
            "format": CHECKPOINT_FORMAT,
            "version": ENVELOPE_VERSION,
            "sha256": hashlib.sha256(body.encode("utf-8")).hexdigest(),
            "payload": second,
        }
        assert text == canonical_json(envelope) + "\n"
        assert json_mod.loads(text) == envelope
        assert load_checkpoint(path) == second
        assert load_checkpoint(previous_path(path)) == first

        # a torn write of the primary falls back to the rotated round
        metrics = MetricsRegistry(enabled=True)
        path.write_text(text[: len(text) // 2], encoding="utf-8")
        assert load_checkpoint(path, metrics=metrics) == first
        assert metrics.counter("checkpoint.fallbacks") == 1

        # the earlier writer's indented envelope reads the same
        path.write_text(
            json_mod.dumps(envelope, sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
        assert load_checkpoint(path) == second

    @pytest.mark.parametrize(
        "name", ["REGISTRY_v1_envelope.json", "MANIFEST_v1_envelope.json"]
    )
    def test_ledgers_of_the_previous_release_load_unchanged(
        self, tmp_path, name
    ):
        """A service registry and a campaign manifest written by the
        previous release load, and saving their payload again writes
        the very same bytes."""
        from repro.serve.registry import StudyRegistry

        original = (pathlib.Path(__file__).parent / "data" / name).read_bytes()
        path = tmp_path / name
        path.write_bytes(original)
        ledger = StudyRegistry.load(path, required=())
        assert ledger.records
        rewritten = tmp_path / "rewritten.json"
        save_checkpoint(rewritten, load_checkpoint(path))
        assert rewritten.read_bytes() == original

    def test_canonical_json_is_stable(self):
        from repro.core.checkpoint import canonical_json

        a = canonical_json({"b": 1, "a": [1, 2]})
        b = canonical_json({"a": [1, 2], "b": 1})
        assert a == b
        with pytest.raises(ValueError):
            canonical_json({"bad": float("nan")})
