"""Figures 5.2 / 5.3 / A.2 / A.3: estimated vs true error.

Plots the cross-validation *estimate* of mean (and SD of) percentage
error against the *true* values measured over the full design space, as a
function of training-set size.  The paper's finding: estimates track truth
within ~0.5% once >1% of the space is sampled, and are conservative
(over-estimate) below that.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from .learning_curves import CurveKey, learning_curves
from .reporting import format_series
from .runner import LearningCurve
from .studies import SCALAR_STUDY_NAMES


def estimation_curves(
    benchmarks: Optional[Sequence[str]] = None,
    studies: Sequence[str] = SCALAR_STUDY_NAMES,
    sizes: Optional[Sequence[int]] = None,
    seed: int = 0,
    training=None,
) -> Dict[CurveKey, LearningCurve]:
    """Same underlying runs as Figure 5.1; separate entry point so the
    figure harnesses stay independent."""
    return learning_curves(benchmarks, studies, sizes, seed, training)


def render_estimation_curves(curves: Dict[CurveKey, LearningCurve]) -> str:
    """Text rendering of the Figure 5.2/5.3 panels (mean and SD)."""
    panels = []
    for (study, benchmark), curve in sorted(curves.items()):
        x = [100 * p.fraction for p in curve.points]
        figure = "5.2" if study == "memory-system" else "5.3"
        panels.append(
            format_series(
                title=f"{benchmark.upper()} ({study}) - Figure {figure} mean",
                x_label="%space",
                x_values=x,
                columns={
                    "true_mean": [p.true_mean for p in curve.points],
                    "est_mean": [p.estimated_mean for p in curve.points],
                },
            )
        )
        panels.append(
            format_series(
                title=f"{benchmark.upper()} ({study}) - Figure {figure} stdev",
                x_label="%space",
                x_values=x,
                columns={
                    "true_sd": [p.true_std for p in curve.points],
                    "est_sd": [p.estimated_std for p in curve.points],
                },
            )
        )
    return "\n\n".join(panels)


def estimation_quality(curve: LearningCurve) -> Dict[str, float]:
    """Quantify how well estimates track truth on one curve.

    Returns the mean absolute gap between estimated and true mean error,
    split at the 1%-of-space boundary the paper highlights, plus the
    fraction of rounds where the estimate is conservative (>= truth).
    """
    dense = [p for p in curve.points if p.fraction >= 0.01]
    sparse = [p for p in curve.points if p.fraction < 0.01]

    def gap(points) -> float:
        if not points:
            return float("nan")
        return float(
            np.mean([abs(p.estimated_mean - p.true_mean) for p in points])
        )

    conservative = [
        p.estimated_mean >= p.true_mean - 0.25 for p in curve.points
    ]
    return {
        "gap_above_1pct": gap(dense),
        "gap_below_1pct": gap(sparse),
        "conservative_fraction": float(np.mean(conservative)),
    }
