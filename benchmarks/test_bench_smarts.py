"""Future-work bench: ANN + SMARTS-style systematic sampling.

Chapter 2 names "combining our approach with the SMARTS framework" as
future work.  This bench trains the ANN ensemble on SMARTS-estimated
targets (systematic interval sampling with exact functional warming) for
the processor study and compares the resulting model error against
noise-free and ANN+SimPoint training — plus the SMARTS estimator's own
noise and confidence reporting.
"""

import numpy as np
from bench_utils import emit

from repro.core import CrossValidationEnsemble, RunContext, percentage_errors
from repro.experiments import (
    encoded_space,
    full_space_ground_truth,
    get_study,
    run_learning_curve,
)
from repro.experiments.reporting import format_table
from repro.simpoint import SmartsSimulator

BENCHMARK = "mesa"
TRAIN_SIZE = 400
SEED = 41


def test_smarts_estimator_noise(once):
    """SMARTS estimates vs full evaluation over random design points."""

    def run():
        study = get_study("processor")
        truth = full_space_ground_truth(study, BENCHMARK)
        smarts = SmartsSimulator(BENCHMARK)
        rng = np.random.default_rng(SEED)
        indices = rng.choice(len(study.space), 60, replace=False)
        errors = []
        confidences = []
        for i in indices:
            estimate = smarts.estimate(study.machine_at(int(i)))
            errors.append(
                100 * abs(estimate.ipc - truth[i]) / truth[i]
            )
            confidences.append(100 * estimate.relative_confidence)
        return (
            float(np.mean(errors)),
            float(np.max(errors)),
            float(np.mean(confidences)),
            smarts.instruction_reduction_factor(),
        )

    mean_error, max_error, mean_confidence, reduction = once(run)
    emit(
        format_table(
            ["Quantity", "Value"],
            [
                ["mean |estimate - truth|", f"{mean_error:.2f}%"],
                ["max  |estimate - truth|", f"{max_error:.2f}%"],
                ["mean 3-sigma confidence (+-)", f"{mean_confidence:.2f}%"],
                ["per-experiment reduction", f"{reduction:.1f}x"],
            ],
            title=f"SMARTS estimator quality ({BENCHMARK}, processor study)",
        )
    )
    assert mean_error < 10.0


def test_ann_plus_smarts_training(once):
    """Train the ensemble on SMARTS targets; compare against noise-free
    and ANN+SimPoint models at the same training budget."""

    def run():
        study = get_study("processor")
        truth = full_space_ground_truth(study, BENCHMARK)
        x_full = encoded_space(study)
        rng = np.random.default_rng(SEED)
        indices = rng.choice(len(study.space), TRAIN_SIZE, replace=False)
        heldout = np.ones(len(truth), dtype=bool)
        heldout[indices] = False

        smarts = SmartsSimulator(BENCHMARK)
        smarts_targets = np.array(
            [smarts.simulate_ipc(study.machine_at(int(i))) for i in indices]
        )

        results = {}
        for label, targets in (
            ("noise-free", truth[indices]),
            ("ANN+SMARTS", smarts_targets),
        ):
            ensemble = CrossValidationEnsemble(
                context=RunContext.seeded(SEED + 1)
            )
            ensemble.fit(x_full[indices], targets)
            results[label] = percentage_errors(
                ensemble.predict(x_full[heldout]), truth[heldout]
            ).mean()

        simpoint_curve = run_learning_curve(
            "processor", BENCHMARK, source="simpoint"
        )
        closest = min(
            simpoint_curve.points,
            key=lambda p: abs(p.n_samples - TRAIN_SIZE),
        )
        results[f"ANN+SimPoint (n={closest.n_samples})"] = closest.true_mean
        return results

    results = once(run)
    emit(
        format_table(
            ["Training data", "Mean % error (full space)"],
            [[k, f"{v:.2f}%"] for k, v in results.items()],
            title=f"ANN + SMARTS ({BENCHMARK}, {TRAIN_SIZE} training sims)",
        )
    )
    # the noise penalty must stay small, as with SimPoint
    assert results["ANN+SMARTS"] <= results["noise-free"] + 3.0
