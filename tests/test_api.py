"""The ``repro.api`` facade and the deprecation policy around it.

Covers the consolidated public surface (exports, entry points, the
``seed``/``context`` convention), the removed legacy keywords on
component constructors (each now fails with ``TypeError``), the
``max_retries``-only :class:`RetryPolicy`, and — crucially — that no
*internal* code path emits a DeprecationWarning (the facade and
everything under it run clean with warnings escalated to errors).
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest

import repro.api as api
from repro.api import (
    RunContext,
    explore,
    fit_ensemble,
    get_study,
    predict_space,
)
from repro.core.crossapp import CrossApplicationModel
from repro.core.crossval import CrossValidationEnsemble
from repro.core.encoding import ParameterEncoder, design_matrix
from repro.core.explorer import DesignSpaceExplorer
from repro.core.multitask import MultiTaskNetwork
from repro.core.resilience import RetryPolicy
from repro.core.training import TrainingConfig


@pytest.fixture()
def strict_deprecations():
    """Escalate DeprecationWarning to an error inside the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        yield


# ----------------------------------------------------------------------
# the facade itself
# ----------------------------------------------------------------------
def test_facade_exports_resolve():
    for name in api.__all__:
        assert getattr(api, name) is not None, name
    # sorted __all__ keeps the surface reviewable
    assert list(api.__all__) == sorted(api.__all__)


def test_facade_reexports_are_canonical_objects():
    from repro.core.context import RunContext as DeepRunContext
    from repro.core.training import TrainingConfig as DeepTrainingConfig
    from repro.experiments.studies import get_study as deep_get_study

    assert api.RunContext is DeepRunContext
    assert api.TrainingConfig is DeepTrainingConfig
    assert api.get_study is deep_get_study


def test_seed_and_context_are_exclusive(tiny_space):
    x = design_matrix(tiny_space)[:12]
    y = 1.0 + x.sum(axis=1)
    with pytest.raises(ValueError, match="not both"):
        fit_ensemble(
            x, y, k=4, seed=1, context=RunContext.seeded(1),
        )


def _simulate_fn(space):
    encoder = ParameterEncoder(space)
    return lambda config: float(1.0 + encoder.encode(config).sum())


def test_explore_end_to_end_matches_explorer(
    tiny_space, fast_training, strict_deprecations
):
    """``api.explore(seed=...)`` reproduces a hand-built
    DesignSpaceExplorer run bit-for-bit, and emits zero
    DeprecationWarnings along the way."""
    simulate = _simulate_fn(tiny_space)
    result = explore(
        tiny_space,
        simulate,
        target_error=100.0,
        max_simulations=24,
        batch_size=12,
        k=4,
        training=fast_training,
        seed=7,
    )
    assert result.final_estimate is result.rounds[-1].estimate
    assert len(result.sampled_indices) <= 24

    explorer = DesignSpaceExplorer(
        tiny_space,
        simulate,
        batch_size=12,
        k=4,
        training=fast_training,
        context=RunContext.seeded(7),
    )
    direct = explorer.explore(target_error=100.0, max_simulations=24)
    assert direct.sampled_indices == result.sampled_indices
    assert direct.primary_targets == result.primary_targets
    np.testing.assert_array_equal(
        predict_space(direct.predictor, tiny_space),
        predict_space(result.predictor, tiny_space),
    )


def test_fit_ensemble_and_predict_space(
    tiny_space, fast_training, strict_deprecations
):
    matrix = design_matrix(tiny_space)
    idx = np.random.default_rng(0).choice(len(matrix), 16, replace=False)
    x = matrix[idx]
    y = 1.0 + x.sum(axis=1)

    outcome = fit_ensemble(x, y, k=4, training=fast_training, seed=3)
    assert outcome.estimate.n_training == len(x)

    predictions = predict_space(outcome.ensemble.predictor, tiny_space)
    assert predictions.shape == (len(tiny_space),)
    # the encoder spelling is equivalent to the space spelling
    np.testing.assert_array_equal(
        predictions,
        predict_space(
            outcome.ensemble.predictor, ParameterEncoder(tiny_space)
        ),
    )


def test_fit_ensemble_engine_kwarg_removed(tiny_space, fast_training):
    """``engine=`` is past its deprecation window: it fails loudly."""
    matrix = design_matrix(tiny_space)
    x = matrix[:16]
    y = 1.0 + x.sum(axis=1)
    with pytest.raises(TypeError, match="engine"):
        fit_ensemble(
            x, y, k=4, training=fast_training, seed=3, engine="perfold"
        )


def test_get_study_and_simulate_fn_importable_from_api():
    study = get_study("memory-system")
    assert len(study.space) == 23040


# ----------------------------------------------------------------------
# the search layer on the facade
# ----------------------------------------------------------------------
def test_agent_registry_exported_and_canonical(strict_deprecations):
    from repro.search import CommitteeAgent as DeepCommitteeAgent

    assert set(api.AGENTS) == {
        "random", "committee", "evolutionary", "annealing", "bayesopt"
    }
    assert api.CommitteeAgent is DeepCommitteeAgent
    for name in api.AGENTS:
        assert api.make_agent(name).name == name


def test_explore_agent_name_matches_default(
    tiny_space, fast_training, strict_deprecations
):
    """``agent="random"`` and the default are the same code path."""
    simulate = _simulate_fn(tiny_space)
    kwargs = dict(
        target_error=100.0, max_simulations=16, batch_size=8, k=4,
        training=fast_training,
    )
    default = explore(tiny_space, simulate, seed=7, **kwargs)
    named = explore(tiny_space, simulate, seed=7, agent="random", **kwargs)
    assert named.sampled_indices == default.sampled_indices
    assert named.primary_targets == default.primary_targets


def test_explore_sampler_kwarg_removed(tiny_space):
    with pytest.raises(TypeError, match="sampler"):
        explore(
            tiny_space,
            _simulate_fn(tiny_space),
            target_error=100.0,
            max_simulations=16,
            sampler=lambda *args: [],
        )


# ----------------------------------------------------------------------
# removed legacy keywords on component constructors
# ----------------------------------------------------------------------
def test_crossval_legacy_kwargs_removed():
    for name in ("rng", "telemetry", "metrics", "n_jobs"):
        with pytest.raises(TypeError, match=name):
            CrossValidationEnsemble(k=4, **{name: None})


def test_run_context_n_jobs_removed():
    """``RunContext(n_jobs=)`` sized the removed simulation process
    pool; after its deprecation window it fails loudly."""
    with pytest.raises(TypeError, match="n_jobs"):
        RunContext(n_jobs=2)
    with pytest.raises(TypeError, match="n_jobs"):
        RunContext.seeded(1, n_jobs=2)


def test_explorer_legacy_kwargs_removed(tiny_space):
    for name in ("rng", "telemetry", "metrics"):
        with pytest.raises(TypeError, match=name):
            DesignSpaceExplorer(
                tiny_space, _simulate_fn(tiny_space), **{name: None}
            )


def test_crossapp_legacy_rng_kwarg_removed(tiny_space):
    with pytest.raises(TypeError, match="rng"):
        CrossApplicationModel(
            tiny_space, ("a", "b"), rng=np.random.default_rng(0)
        )


def test_stale_positional_rng_raises(tiny_space):
    """A generator passed where ``rng`` used to sit never binds to
    ``context``: everything after ``training`` is keyword-only."""
    rng = np.random.default_rng(0)
    with pytest.raises(TypeError):
        CrossValidationEnsemble(4, None, rng)
    with pytest.raises(TypeError):
        DesignSpaceExplorer(
            tiny_space, _simulate_fn(tiny_space), 8, 4, None, rng
        )
    with pytest.raises(TypeError):
        CrossApplicationModel(tiny_space, ("a", "b"), None, 4, rng)


def test_context_spelling_is_clean(strict_deprecations):
    CrossValidationEnsemble(k=4, context=RunContext.seeded(0))


# ----------------------------------------------------------------------
# RetryPolicy: max_retries is the one field
# ----------------------------------------------------------------------
def test_retry_policy_canonical_name(strict_deprecations):
    policy = RetryPolicy(max_retries=2)
    assert policy.max_retries == 2
    assert policy.max_attempts == 3


def test_retry_policy_default_unchanged(strict_deprecations):
    policy = RetryPolicy()
    assert policy.max_attempts == 3
    assert policy.max_retries == 2


def test_retry_policy_max_attempts_kwarg_removed():
    with pytest.raises(TypeError, match="max_attempts"):
        RetryPolicy(max_attempts=5)
    policy = RetryPolicy(max_retries=4)
    assert policy.max_attempts == 5
    with pytest.raises(AttributeError):
        policy.max_attempts = 6
    assert "max_attempts" not in {f.name for f in dataclasses.fields(policy)}


def test_retry_policy_replace_roundtrips(strict_deprecations):
    policy = RetryPolicy(max_retries=1, base_delay_s=0.5)
    clone = dataclasses.replace(policy, base_delay_s=0.25)
    assert clone.max_retries == 1
    assert clone.max_attempts == 2
    assert clone.base_delay_s == 0.25
    bumped = dataclasses.replace(policy, max_retries=4)
    assert bumped.max_retries == 4
    assert bumped.max_attempts == 5
    assert bumped.base_delay_s == 0.5


def test_retry_policy_inconsistent_pair_rejected():
    with pytest.raises(TypeError, match="max_attempts"):
        RetryPolicy(max_retries=2, max_attempts=5)


def test_retry_policy_zero_attempts_rejected():
    with pytest.raises(ValueError, match="max_retries"):
        RetryPolicy(max_retries=-1)


# ----------------------------------------------------------------------
# internal paths are warning-free
# ----------------------------------------------------------------------
def test_single_network_fit_is_warning_free(strict_deprecations):
    rng = np.random.default_rng(9)
    x = rng.uniform(0, 1, (20, 3))
    y = 0.5 + x.sum(axis=1)
    model = MultiTaskNetwork(
        3,
        1,
        training=TrainingConfig(
            hidden_layers=(4,), max_epochs=20, check_interval=10, patience=5
        ),
        rng=rng,
    )
    history = model.fit(x, y, x[:4], y[:4])
    assert len(history) >= 1
    assert model.predict_all(x).shape == (20, 1)
