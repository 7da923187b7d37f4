"""End-to-end integration tests across the whole stack.

These drive the public API exactly like the examples do: real studies,
real simulate functions, real ensembles — with budgets small enough for
the test suite.
"""

import numpy as np
import pytest

from repro import (
    CrossApplicationModel,
    DesignSpaceExplorer,
    RunContext,
    get_study,
    make_simulate_fn,
)
from repro.core import percentage_errors
from repro.core.training import TrainingConfig
from repro.experiments import encoded_space, full_space_ground_truth

FAST = TrainingConfig(
    hidden_layers=(12,), max_epochs=400, patience=10, check_interval=10
)


@pytest.mark.slow
class TestExplorerOnRealStudy:
    def test_explorer_converges_on_gzip(self):
        study = get_study("memory-system")
        explorer = DesignSpaceExplorer(
            study.space,
            make_simulate_fn(study, "gzip"),
            batch_size=100,
            training=FAST,
            context=RunContext.seeded(17),
        )
        result = explorer.explore(target_error=6.0, max_simulations=400)
        assert result.final_estimate.mean < 12.0

        # validate the estimate against exhaustive truth
        truth = full_space_ground_truth(study, "gzip")
        heldout = np.ones(len(truth), dtype=bool)
        heldout[result.sampled_indices] = False
        errors = percentage_errors(
            result.predict_space()[heldout], truth[heldout]
        )
        assert abs(errors.mean() - result.final_estimate.mean) < 5.0

    def test_model_finds_near_optimal_configuration(self):
        study = get_study("memory-system")
        truth = full_space_ground_truth(study, "mesa")
        explorer = DesignSpaceExplorer(
            study.space,
            make_simulate_fn(study, "mesa"),
            batch_size=150,
            training=FAST,
            context=RunContext.seeded(19),
        )
        result = explorer.explore(target_error=1.0, max_simulations=300)
        best_predicted = int(np.argmax(result.predict_space()))
        # the model's pick must land in the top few percent of the space
        rank = int(np.sum(truth > truth[best_predicted]))
        assert rank < 0.05 * len(truth), (
            f"model's pick ranks {rank} of {len(truth)}"
        )

    def test_difficulty_ordering(self):
        """At a fixed sample, twolf (the paper's hardest app) must model
        worse than gzip (one of the easiest)."""
        from repro.core import CrossValidationEnsemble

        study = get_study("memory-system")
        x_full = encoded_space(study)
        rng = np.random.default_rng(23)
        idx = rng.choice(len(study.space), 400, replace=False)
        errors = {}
        for benchmark in ("gzip", "twolf"):
            truth = full_space_ground_truth(study, benchmark)
            ensemble = CrossValidationEnsemble(
                training=FAST, context=RunContext.seeded(29)
            )
            ensemble.fit(x_full[idx], truth[idx])
            heldout = np.ones(len(truth), dtype=bool)
            heldout[idx] = False
            errors[benchmark] = percentage_errors(
                ensemble.predict(x_full[heldout]), truth[heldout]
            ).mean()
        assert errors["twolf"] > errors["gzip"]


@pytest.mark.slow
class TestCrossApplicationOnRealStudy:
    def test_joint_model_covers_two_benchmarks(self):
        study = get_study("memory-system")
        rng = np.random.default_rng(31)
        model = CrossApplicationModel(
            study.space,
            ("gzip", "mesa"),
            training=FAST,
            context=RunContext.seeded(37),
        )
        samples = {}
        for benchmark in ("gzip", "mesa"):
            truth = full_space_ground_truth(study, benchmark)
            indices = study.space.sample_indices(150, rng)
            samples[benchmark] = (indices, truth[indices])
        estimate = model.fit(samples)
        assert estimate.mean < 15.0

        for benchmark in ("gzip", "mesa"):
            truth = full_space_ground_truth(study, benchmark)
            predictions = model.predict_space(benchmark)
            errors = percentage_errors(predictions, truth)
            assert errors.mean() < 12.0, (benchmark, errors.mean())
