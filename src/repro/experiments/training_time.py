"""Figure 5.8: ANN training time as a function of training-set size.

The paper trains its 10-fold ensembles on a 10-node cluster and reports
30 seconds to ~4 minutes as the sample grows from 1% to 9% of the space —
negligible next to architectural simulation, and scaling linearly, since
backpropagation is O(H(I+O)PD) in the data size D.  We measure the same
curve on the host machine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..core.context import RunContext
from ..core.crossval import CrossValidationEnsemble
from ..core.training import TrainingConfig
from .reporting import format_series
from .runner import encoded_space, full_scale
from .studies import Study, full_space_ground_truth, get_study

#: space fractions measured (percent); the paper sweeps 1..9%
PAPER_FRACTIONS = tuple(range(1, 10))
DEFAULT_FRACTIONS = (1, 2, 4)


@dataclass(frozen=True)
class TrainingTimePoint:
    """One measurement of Figure 5.8."""

    study: str
    percent_of_space: float
    n_samples: int
    seconds: float


def measure_training_times(
    study_names: Sequence[str] = ("processor", "memory-system"),
    fractions: Optional[Sequence[float]] = None,
    benchmark: str = "mesa",
    repeats: Optional[int] = None,
    seed: int = 0,
    training: Optional[TrainingConfig] = None,
) -> List[TrainingTimePoint]:
    """Measure ensemble training wall time at each space fraction.

    Each point averages ``repeats`` runs (the paper averages three).
    """
    if fractions is None:
        fractions = PAPER_FRACTIONS if full_scale() else DEFAULT_FRACTIONS
    if repeats is None:
        repeats = 3 if full_scale() else 1
    training = training or TrainingConfig()

    points: List[TrainingTimePoint] = []
    for study_name in study_names:
        study: Study = get_study(study_name)
        truth = full_space_ground_truth(study, benchmark)
        x_full = encoded_space(study)
        rng = np.random.default_rng(seed)
        for percent in fractions:
            n = max(50, int(round(len(study.space) * percent / 100.0)))
            elapsed = 0.0
            for _ in range(repeats):
                idx = rng.choice(len(study.space), size=n, replace=False)
                ensemble = CrossValidationEnsemble(
                    training=training, context=RunContext.seeded(seed)
                )
                started = time.perf_counter()
                ensemble.fit(x_full[idx], truth[idx])
                elapsed += time.perf_counter() - started
            points.append(
                TrainingTimePoint(
                    study=study_name,
                    percent_of_space=float(percent),
                    n_samples=n,
                    seconds=elapsed / repeats,
                )
            )
    return points


def render_training_times(points: List[TrainingTimePoint]) -> str:
    """Text rendering of Figure 5.8 (minutes vs percent sampled)."""
    panels = []
    for study in sorted({p.study for p in points}):
        series = [p for p in points if p.study == study]
        panels.append(
            format_series(
                title=f"Figure 5.8 - training times ({study} study)",
                x_label="%space",
                x_values=[p.percent_of_space for p in series],
                columns={
                    "minutes": [p.seconds / 60.0 for p in series],
                    "samples": [float(p.n_samples) for p in series],
                },
            )
        )
    return "\n\n".join(panels)


def is_roughly_linear(points: List[TrainingTimePoint]) -> bool:
    """Check the paper's claim that training time scales linearly with
    training-set size (R^2 of a linear fit >= 0.9 per study)."""
    for study in {p.study for p in points}:
        series = [p for p in points if p.study == study]
        if len(series) < 3:
            continue
        x = np.array([p.n_samples for p in series], dtype=np.float64)
        y = np.array([p.seconds for p in series], dtype=np.float64)
        slope, intercept = np.polyfit(x, y, 1)
        fitted = slope * x + intercept
        total = np.sum((y - y.mean()) ** 2)
        residual = np.sum((y - fitted) ** 2)
        if total > 0 and 1.0 - residual / total < 0.9:
            return False
    return True
