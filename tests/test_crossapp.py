"""Tests for cross-application modeling (Chapter 7 extension)."""

import numpy as np
import pytest

from repro.core import CrossApplicationModel, RunContext
from repro.core.training import TrainingConfig

FAST = TrainingConfig(
    hidden_layers=(8,), max_epochs=200, patience=6, check_interval=10
)


def synthetic_target(config, app_shift):
    """Two apps sharing structure but shifted in level and sensitivity."""
    size_term = {8: 0.4, 16: 0.55, 32: 0.68, 64: 0.75}[config["size"]]
    ways_term = {1: 0.0, 2: 0.05, 4: 0.08}[config["ways"]]
    policy_term = 0.04 if config["policy"] == "WB" else 0.0
    return app_shift * (size_term + ways_term + policy_term) + 0.1


def sample_app(space, rng, n, shift):
    indices = space.sample_indices(n, rng)
    targets = [
        synthetic_target(space.config_at(i), shift) for i in indices
    ]
    return indices, targets


class TestConstruction:
    def test_requires_two_benchmarks(self, tiny_space):
        with pytest.raises(ValueError):
            CrossApplicationModel(tiny_space, ("solo",))

    def test_rejects_duplicates(self, tiny_space):
        with pytest.raises(ValueError):
            CrossApplicationModel(tiny_space, ("a", "a"))

    def test_feature_width(self, tiny_space):
        model = CrossApplicationModel(tiny_space, ("a", "b", "c"))
        assert model.n_features == 5 + 3


class TestEncoding:
    def test_one_hot_tag(self, tiny_space):
        model = CrossApplicationModel(tiny_space, ("a", "b"))
        x = model.encode("b", [tiny_space.config_at(0)])
        assert x.shape == (1, 7)
        np.testing.assert_allclose(x[0, -2:], [0.0, 1.0])

    def test_unknown_benchmark(self, tiny_space):
        model = CrossApplicationModel(tiny_space, ("a", "b"))
        with pytest.raises(KeyError):
            model.encode("z", [tiny_space.config_at(0)])


class TestTraining:
    def test_learns_both_applications(self, tiny_space, rng):
        model = CrossApplicationModel(
            tiny_space, ("fast", "slow"), training=FAST, k=4,
            context=RunContext.seeded(1),
        )
        samples = {
            "fast": sample_app(tiny_space, rng, 30, shift=1.0),
            "slow": sample_app(tiny_space, rng, 30, shift=0.5),
        }
        estimate = model.fit(samples)
        assert estimate.n_training == 60

        for name, shift in (("fast", 1.0), ("slow", 0.5)):
            predictions = model.predict_space(name)
            truth = np.array(
                [synthetic_target(c, shift) for c in tiny_space]
            )
            errors = np.abs(predictions - truth) / truth * 100
            assert errors.mean() < 15.0, (name, errors.mean())

    def test_shared_structure_helps_small_sample(self, tiny_space):
        """An app with few samples benefits from a data-rich sibling."""
        rng = np.random.default_rng(2)
        donor = sample_app(tiny_space, rng, 36, shift=1.0)
        recipient = sample_app(tiny_space, rng, 8, shift=0.9)

        model = CrossApplicationModel(
            tiny_space, ("donor", "recipient"), training=FAST, k=4,
            context=RunContext.seeded(3),
        )
        model.fit({"donor": donor, "recipient": recipient})
        truth = np.array([synthetic_target(c, 0.9) for c in tiny_space])
        errors = (
            np.abs(model.predict_space("recipient") - truth) / truth * 100
        )
        assert errors.mean() < 20.0

    def test_validation(self, tiny_space, rng):
        model = CrossApplicationModel(
            tiny_space, ("a", "b"), training=FAST, k=4,
            context=RunContext(rng=rng),
        )
        with pytest.raises(ValueError):
            model.fit({"a": ([1, 2], [0.5])})
        with pytest.raises(ValueError):
            model.fit({})

    def test_predict_config_list(self, tiny_space, rng):
        model = CrossApplicationModel(
            tiny_space, ("a", "b"), training=FAST, k=4,
            context=RunContext.seeded(4),
        )
        model.fit(
            {
                "a": sample_app(tiny_space, rng, 25, 1.0),
                "b": sample_app(tiny_space, rng, 25, 0.6),
            }
        )
        configs = [tiny_space.config_at(0), tiny_space.config_at(5)]
        assert model.predict("a", configs).shape == (2,)
