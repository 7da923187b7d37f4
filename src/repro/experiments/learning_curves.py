"""Figure 5.1 / A.1: learning curves of the ANN models.

For each benchmark and study, mean percentage error (with +-1 SD) on the
full design space as a function of the percentage of the space simulated
for training.  The paper shows mesa/equake/mcf/crafty in the body
(Figure 5.1) and applu/mgrid/gzip/twolf in Appendix A (Figure A.1).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..workloads.spec import FIGURE_BENCHMARKS, SPEC_WORKLOADS
from .reporting import format_series
from .runner import LearningCurve, run_learning_curve
from .studies import SCALAR_STUDY_NAMES

APPENDIX_BENCHMARKS: Tuple[str, ...] = ("applu", "mgrid", "gzip", "twolf")

CurveKey = Tuple[str, str]  # (study, benchmark)


def learning_curves(
    benchmarks: Optional[Sequence[str]] = None,
    studies: Sequence[str] = SCALAR_STUDY_NAMES,
    sizes: Optional[Sequence[int]] = None,
    seed: int = 0,
    training=None,
) -> Dict[CurveKey, LearningCurve]:
    """Run (or load) the Figure 5.1 learning curves.

    ``studies`` defaults to the paper's two IPC studies; the figures
    measure error against the full space's scalar ground truth, which
    the multi-target ``cache-policy`` study does not have.
    """
    benchmarks = tuple(benchmarks) if benchmarks else FIGURE_BENCHMARKS
    unknown = set(benchmarks) - set(SPEC_WORKLOADS)
    if unknown:
        raise KeyError(f"unknown benchmarks {sorted(unknown)}")
    curves: Dict[CurveKey, LearningCurve] = {}
    for study in studies:
        for benchmark in benchmarks:
            curves[(study, benchmark)] = run_learning_curve(
                study, benchmark, sizes=sizes, seed=seed, training=training
            )
    return curves


def render_learning_curves(curves: Dict[CurveKey, LearningCurve]) -> str:
    """Text rendering of the Figure 5.1 panels."""
    panels = []
    for (study, benchmark), curve in sorted(curves.items()):
        panels.append(
            format_series(
                title=f"{benchmark.upper()} ({study}) - Figure 5.1",
                x_label="%space",
                x_values=[100 * p.fraction for p in curve.points],
                columns={
                    "mean%err": [p.true_mean for p in curve.points],
                    "stdev%err": [p.true_std for p in curve.points],
                },
            )
        )
    return "\n\n".join(panels)


def check_learning_curve_shape(curve: LearningCurve) -> Dict[str, bool]:
    """The paper's qualitative claims about each curve, as checks.

    Returns a dict of named boolean outcomes (used by tests and recorded
    in EXPERIMENTS.md): error decreases from the sparsest to the densest
    sampling, and the densest sampling is substantially better than the
    sparsest.
    """
    first, last = curve.points[0], curve.points[-1]
    return {
        "error_decreases": last.true_mean < first.true_mean,
        "std_decreases": last.true_std < first.true_std,
        "large_improvement": last.true_mean <= 0.7 * first.true_mean,
    }
