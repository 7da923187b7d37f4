"""Tests for ensemble save/load."""

import pathlib

import numpy as np
import pytest

from repro import api
from repro.core import (
    CrossValidationEnsemble,
    RunContext,
    load_predictor,
    save_predictor,
)
from repro.core.persistence import FORMAT_VERSION
from repro.core.training import TrainingConfig

#: a scalar predictor written by the v1 format (before multi-target
#: ensembles could be saved): 3 members, 2 inputs, one hidden layer
V1_FILE = pathlib.Path(__file__).parent / "data" / "predictor_v1.npz"

FAST = TrainingConfig(
    hidden_layers=(8,), max_epochs=150, patience=5, check_interval=10
)


@pytest.fixture
def trained(rng):
    x = rng.random((120, 4))
    y = 0.5 + 0.6 * x[:, 0] + 0.3 * x[:, 1] * x[:, 2]
    ensemble = CrossValidationEnsemble(
        k=4, training=FAST, context=RunContext(rng=rng)
    )
    ensemble.fit(x, y)
    return ensemble.predictor, x


class TestRoundTrip:
    def test_predictions_identical(self, trained, tmp_path):
        predictor, x = trained
        path = tmp_path / "model.npz"
        save_predictor(predictor, str(path))
        restored = load_predictor(str(path))
        np.testing.assert_allclose(
            restored.predict(x), predictor.predict(x), rtol=1e-12
        )

    def test_structure_preserved(self, trained, tmp_path):
        predictor, _ = trained
        path = tmp_path / "model.npz"
        save_predictor(predictor, str(path))
        restored = load_predictor(str(path))
        assert restored.size == predictor.size
        for got, want in zip(restored.member_scalers, predictor.member_scalers):
            np.testing.assert_array_equal(got.low, want.low)
            np.testing.assert_array_equal(got.high, want.high)
        for a, b in zip(restored.networks, predictor.networks):
            assert a.hidden_layers == b.hidden_layers
            assert a.hidden_activation.name == b.hidden_activation.name

    def test_member_variance_preserved(self, trained, tmp_path):
        predictor, x = trained
        path = tmp_path / "model.npz"
        save_predictor(predictor, str(path))
        restored = load_predictor(str(path))
        np.testing.assert_allclose(
            restored.prediction_variance(x[:10]),
            predictor.prediction_variance(x[:10]),
            rtol=1e-9,
        )

    def test_two_hidden_layer_networks(self, rng, tmp_path):
        cfg = TrainingConfig(
            hidden_layers=(6, 4), max_epochs=80, patience=4, check_interval=10
        )
        x = rng.random((80, 3))
        y = 0.5 + x[:, 0]
        ensemble = CrossValidationEnsemble(
            k=4, training=cfg, context=RunContext(rng=rng)
        )
        ensemble.fit(x, y)
        path = tmp_path / "deep.npz"
        save_predictor(ensemble.predictor, str(path))
        restored = load_predictor(str(path))
        np.testing.assert_allclose(
            restored.predict(x), ensemble.predictor.predict(x), rtol=1e-12
        )

    def test_version_mismatch_rejected(self, trained, tmp_path):
        predictor, _ = trained
        path = tmp_path / "model.npz"
        save_predictor(predictor, str(path))
        data = dict(np.load(str(path), allow_pickle=False))
        data["format_version"] = np.array(FORMAT_VERSION + 1)
        np.savez_compressed(str(path), **data)
        with pytest.raises(ValueError, match="unsupported"):
            load_predictor(str(path))


class TestMultiTargetRoundTrip:
    def test_per_member_ranges_round_trip(self, rng, tmp_path):
        x = rng.random((80, 3))
        y = np.column_stack(
            [0.5 + x[:, 0], 0.2 + 0.5 * x[:, 1], 1.0 + x[:, 2] * x[:, 0]]
        )
        ensemble = CrossValidationEnsemble(
            k=4, training=FAST, context=RunContext(rng=rng),
            target_names=("a", "b", "c"),
        )
        ensemble.fit(x, y)
        predictor = ensemble.predictor
        path = tmp_path / "multi.npz"
        save_predictor(predictor, str(path))
        with np.load(str(path), allow_pickle=False) as data:
            assert data["scaler_low"].shape == (4, 3)
        restored = load_predictor(str(path))
        assert restored.target_names == ("a", "b", "c")
        for got, want in zip(restored.member_scalers, predictor.member_scalers):
            assert got.low.tobytes() == want.low.tobytes()
            assert got.high.tobytes() == want.high.tobytes()
        assert _outputs(restored, x) == _outputs(predictor, x)

    def test_cache_policy_exploration_predictor_saves(self, tmp_path):
        """The predictor of a multi-target exploration saves and loads
        with every target, member scaler and disagreement intact."""
        study = api.get_study("cache-policy")
        result = api.explore(
            study.space,
            api.make_simulate_fn(study, "osc-tight"),
            target_error=1.0,
            max_simulations=40,
            batch_size=20,
            seed=7,
            training=TrainingConfig.fast_settings(),
        )
        path = tmp_path / "cache_policy.npz"
        save_predictor(result.predictor, str(path))
        restored = load_predictor(str(path))
        assert restored.target_names == ("ipc", "hit_rate", "energy_nj")
        x = api.design_matrix(study.space)
        np.testing.assert_array_equal(
            restored.predict_all(x), result.predictor.predict_all(x)
        )
        np.testing.assert_array_equal(
            restored.prediction_variance(x),
            result.predictor.prediction_variance(x),
        )


def _outputs(predictor, x):
    """Every prediction a predictor serves, as raw bytes."""
    return [
        predictor.predict(x).tobytes(),
        predictor.predict_all(x).tobytes(),
        predictor.prediction_variance(x).tobytes(),
        predictor.member_predictions(x).tobytes(),
    ]


class TestScalerLayout:
    def test_writes_one_row_of_ranges_per_member(self, trained, tmp_path):
        predictor, _ = trained
        path = tmp_path / "model.npz"
        save_predictor(predictor, str(path))
        with np.load(str(path), allow_pickle=False) as data:
            assert data["scaler_low"].shape == (predictor.size, 1)
            assert data["scaler_high"].shape == (predictor.size, 1)

    def test_shared_scalar_layout_loads_byte_identically(
        self, trained, tmp_path
    ):
        """A v2 file holding one shared 0-d scalar range, written the
        way earlier releases wrote every scalar ensemble, loads and
        predicts to the byte."""
        predictor, x = trained
        shared = predictor.member_scalers[0]
        assert all(s is shared for s in predictor.member_scalers)
        arrays = {
            "format_version": np.array(2),
            "n_networks": np.array(predictor.size),
            "target_names": np.array(predictor.target_names, dtype=str),
            "scaler_low": np.array(float(shared.low[0])),
            "scaler_high": np.array(float(shared.high[0])),
        }
        for i, network in enumerate(predictor.networks):
            arrays[f"net{i}_n_layers"] = np.array(network.n_layers)
            arrays[f"net{i}_hidden_activation"] = np.array(
                network.hidden_activation.name
            )
            arrays[f"net{i}_output_activation"] = np.array(
                network.output_activation.name
            )
            for layer, weights in enumerate(network.weights):
                arrays[f"net{i}_w{layer}"] = weights
        path = tmp_path / "shared.npz"
        np.savez_compressed(str(path), **arrays)
        restored = load_predictor(str(path))
        assert _outputs(restored, x) == _outputs(predictor, x)


class TestVersionOneFiles:
    def test_v1_file_loads(self):
        with np.load(V1_FILE, allow_pickle=False) as data:
            assert int(data["format_version"]) == 1
        predictor = load_predictor(str(V1_FILE))
        assert predictor.size == 3
        assert predictor.target_names == ()
        probe = np.array([[0.1, 0.2], [0.5, 0.5], [0.9, 0.3]])
        # the predictions the writing release made for this probe
        np.testing.assert_allclose(
            predictor.predict(probe),
            [0.9941519621894305, 0.9997441279886295, 1.0050943616730548],
            rtol=1e-12,
        )
