"""EXPERIMENTS.md generation: paper-vs-measured for every artifact.

``generate_experiments_md`` runs (or loads from cache) every evaluation
experiment and writes a Markdown report comparing the paper's published
numbers with this reproduction's, table by table and figure by figure.
It prints one line per section to stderr with the section's elapsed
seconds as it goes.
"""

from __future__ import annotations

import platform
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs.atomicio import atomic_write_text
from ..workloads.spec import SIMPOINT_BENCHMARKS, SPEC_WORKLOADS
from .error_estimation import estimation_quality
from .gains import gains_study
from .learning_curves import learning_curves
from .runner import curve_sizes, full_scale
from .simpoint_study import simpoint_curves
from .table51 import TABLE_ORDER, build_table51
from .training_time import measure_training_times

#: Table 5.1's "True" mean-error columns, straight from the paper
PAPER_TABLE51: Dict[str, Dict[str, Tuple[float, float, float]]] = {
    "memory-system": {
        "equake": (2.32, 1.40, 0.92),
        "applu": (3.11, 2.35, 1.28),
        "mcf": (4.61, 2.84, 1.74),
        "mesa": (2.85, 2.69, 1.97),
        "gzip": (1.82, 1.03, 0.81),
        "twolf": (5.63, 4.73, 4.16),
        "crafty": (2.16, 1.17, 0.87),
        "mgrid": (4.96, 1.53, 0.83),
    },
    "processor": {
        "equake": (2.11, 1.23, 0.53),
        "applu": (3.13, 0.93, 0.62),
        "mcf": (2.11, 1.29, 0.94),
        "mesa": (1.50, 0.81, 0.35),
        "gzip": (1.42, 1.07, 0.76),
        "twolf": (6.48, 5.81, 4.94),
        "crafty": (2.43, 1.11, 0.44),
        "mgrid": (4.29, 1.95, 0.88),
    },
}

#: paper's headline gain ranges (Section 5.3)
PAPER_GAINS = {
    "combined_min": 1000,
    "combined_max": 13018,
    "simpoint_min": 8,
    "simpoint_max": 63,
    "ann_min": 41,
    "ann_max": 208,
}


def _table51_section(lines: List[str], seed: int) -> None:
    lines.append("## Table 5.1 — true mean percentage error\n")
    lines.append(
        "Paper vs measured, at training sets of ~1%/2%/4% of each space "
        "(the paper's exact sample counts are used: 250/500/950 for the "
        "memory study, 200/400/850 for the processor study).\n"
    )
    for study_name in ("memory-system", "processor"):
        table = build_table51(study_name, seed=seed)
        lines.append(f"### {study_name} study\n")
        lines.append(
            "| app | paper ~1% | ours ~1% | paper ~2% | ours ~2% "
            "| paper ~4% | ours ~4% | ours est ~4% |"
        )
        lines.append("|---|---|---|---|---|---|---|---|")
        for app in TABLE_ORDER:
            paper = PAPER_TABLE51[study_name][app]
            cells = table.rows[app]
            lines.append(
                f"| {app} "
                f"| {paper[0]:.2f}% | {cells[0].true_mean:.2f}% "
                f"| {paper[1]:.2f}% | {cells[1].true_mean:.2f}% "
                f"| {paper[2]:.2f}% | {cells[2].true_mean:.2f}% "
                f"| {cells[2].estimated_mean:.2f}% |"
            )
        lines.append("")


def _learning_curve_section(
    lines: List[str], benchmarks: Sequence[str], seed: int
) -> None:
    lines.append("## Figures 5.1 / A.1 — learning curves\n")
    lines.append(
        "Mean percentage error over the full space vs percent of the "
        "space sampled for training.  Paper shape: 5-15% error in the "
        "sparse regime, dropping to roughly 1-5% (app-dependent) by ~4%.\n"
    )
    curves = learning_curves(benchmarks=benchmarks, seed=seed)
    lines.append("| study | app | sparsest (ours) | densest (ours) | decreasing? |")
    lines.append("|---|---|---|---|---|")
    for (study, benchmark), curve in sorted(curves.items()):
        first, last = curve.points[0], curve.points[-1]
        lines.append(
            f"| {study} | {benchmark} "
            f"| {first.true_mean:.2f}% @ {100 * first.fraction:.2f}% "
            f"| {last.true_mean:.2f}% @ {100 * last.fraction:.2f}% "
            f"| {'yes' if last.true_mean < first.true_mean else 'NO'} |"
        )
    lines.append("")


def _estimation_section(
    lines: List[str], benchmarks: Sequence[str], seed: int
) -> None:
    lines.append("## Figures 5.2 / 5.3 / A.2 / A.3 — estimated vs true error\n")
    lines.append(
        "Paper claim: cross-validation estimates are within ~0.5% of "
        "truth above 1% sampling and conservative below it.\n"
    )
    curves = learning_curves(benchmarks=benchmarks, seed=seed)
    lines.append(
        "| study | app | est-vs-true gap above 1% | below 1% "
        "| conservative rounds |"
    )
    lines.append("|---|---|---|---|---|")
    for (study, benchmark), curve in sorted(curves.items()):
        quality = estimation_quality(curve)
        above = quality["gap_above_1pct"]
        below = quality["gap_below_1pct"]
        lines.append(
            f"| {study} | {benchmark} "
            f"| {above:.2f}% "
            f"| {'n/a' if below != below else f'{below:.2f}%'} "
            f"| {100 * quality['conservative_fraction']:.0f}% |"
        )
    lines.append("")


def _simpoint_section(lines: List[str], seed: int) -> None:
    lines.append("## Figures 5.4 / 5.5 — ANN + SimPoint\n")
    lines.append(
        "Models trained on SimPoint's noisy estimates, error measured "
        "against the true full space.  Paper: slightly higher error than "
        "noise-free training, differences negligible.\n"
    )
    noisy = simpoint_curves(seed=seed)
    clean = learning_curves(
        benchmarks=SIMPOINT_BENCHMARKS, studies=("processor",), seed=seed
    )
    lines.append(
        "| app | noise-free densest | ANN+SimPoint densest | penalty |"
    )
    lines.append("|---|---|---|---|")
    for benchmark in SIMPOINT_BENCHMARKS:
        noisy_last = noisy[("processor", benchmark)].points[-1]
        clean_last = clean[("processor", benchmark)].points[-1]
        lines.append(
            f"| {benchmark} | {clean_last.true_mean:.2f}% "
            f"| {noisy_last.true_mean:.2f}% "
            f"| {noisy_last.true_mean - clean_last.true_mean:+.2f}% |"
        )
    lines.append("")


def _gains_section(lines: List[str], seed: int) -> None:
    lines.append("## Figures 5.6 / 5.7 — instruction-count reductions\n")
    lines.append(
        f"Paper: combined reductions of "
        f"{PAPER_GAINS['combined_min']:,}-{PAPER_GAINS['combined_max']:,}x; "
        f"SimPoint contributes {PAPER_GAINS['simpoint_min']}-"
        f"{PAPER_GAINS['simpoint_max']}x per experiment and the ANN "
        f"{PAPER_GAINS['ann_min']}-{PAPER_GAINS['ann_max']}x in experiment "
        f"count.\n"
    )
    gains = gains_study(seed=seed)
    lines.append(
        "| app | achieved error | sims | ANN factor | SimPoint factor "
        "| combined |"
    )
    lines.append("|---|---|---|---|---|---|")
    for benchmark, rows in gains.items():
        for row in rows:
            lines.append(
                f"| {benchmark} | {row.error_level:.1f}% "
                f"| {row.n_experiments} | {row.ann_factor:.0f}x "
                f"| {row.simpoint_factor:.0f}x "
                f"| {row.combined_factor:,.0f}x |"
            )
    lines.append("")


def _training_time_section(lines: List[str], seed: int) -> None:
    lines.append("## Figure 5.8 — training times\n")
    lines.append(
        "Paper: 30s to ~4 minutes as the sample grows 1%..9% (10 "
        "Pentium-4 nodes, folds in parallel); linear in training-set "
        "size, negligible vs simulation.  Ours (single host, one "
        "process; the folds train side by side through the "
        "fold-stacked kernel):\n"
    )
    points = measure_training_times(seed=seed)
    lines.append("| study | % of space | samples | minutes |")
    lines.append("|---|---|---|---|")
    for point in points:
        lines.append(
            f"| {point.study} | {point.percent_of_space:.0f}% "
            f"| {point.n_samples} | {point.seconds / 60:.2f} |"
        )
    lines.append("")


def generate_experiments_md(
    path: str = "EXPERIMENTS.md",
    benchmarks: Optional[Sequence[str]] = None,
    seed: int = 0,
) -> str:
    """Run/load every experiment and write the paper-vs-measured report.

    Returns the rendered Markdown (also written to ``path`` unless empty).
    """
    benchmarks = tuple(benchmarks) if benchmarks else tuple(SPEC_WORKLOADS)
    lines: List[str] = []
    lines.append("# EXPERIMENTS — paper vs measured\n")
    scale = "paper-scale (REPRO_FULL=1)" if full_scale() else "default"
    lines.append(
        f"Generated by `repro.experiments.summary.generate_experiments_md` "
        f"at {scale} scale on {platform.platform()} / Python "
        f"{platform.python_version()}.  Training-set grid: "
        f"{list(curve_sizes())}.\n"
    )
    lines.append(
        "Absolute errors are not expected to match the paper (our "
        "substrate is a from-scratch simulator over synthetic workloads; "
        "see DESIGN.md section 5) — the *shapes* are the reproduction "
        "targets: error magnitude and decay with sample size, estimate "
        "tracking/conservatism, SimPoint's small noise penalty, and "
        "multiplicative gains of 10^3-10^4.\n"
    )
    lines.append("## Known deviations\n")
    lines.append(
        "* **Dynamic range.** Our simulator's IPC spans a wider relative "
        "range per benchmark than SESC's (worst configurations are "
        "severely memory-bound), so percentage errors in the sparse "
        "(<1%) regime start higher than the paper's 5-15% before decaying "
        "the same way.\n"
        "* **twolf.** The paper's uniquely-hardest application lands "
        "*among* the hardest here (see DESIGN.md section 6): with 2-3 "
        "levels per processor parameter, single-parameter cliffs are "
        "trivially fit and twolf's real-world nonstationarity has no "
        "direct synthetic analogue.\n"
        "* **equake + SimPoint.** equake's interval-to-interval locality "
        "drift is invisible to basic-block vectors, so its SimPoint "
        "estimates carry ~10% noise and its ANN+SimPoint curve floors "
        "there; the other three SimPoint-study applications behave like "
        "the paper's.\n"
    )
    sections = (
        ("Table 5.1", lambda: _table51_section(lines, seed)),
        ("curves", lambda: _learning_curve_section(lines, benchmarks, seed)),
        ("estimation", lambda: _estimation_section(lines, benchmarks, seed)),
        ("SimPoint", lambda: _simpoint_section(lines, seed)),
        ("gains", lambda: _gains_section(lines, seed)),
        ("training times", lambda: _training_time_section(lines, seed)),
    )
    for name, section in sections:
        # one progress line per section on stderr, so a slow section
        # shows itself while the report runs
        started = time.perf_counter()
        section()
        print(
            f"report: {name} section done in "
            f"{time.perf_counter() - started:.1f} s",
            file=sys.stderr,
            flush=True,
        )

    text = "\n".join(lines)
    if path:
        atomic_write_text(path, text)
    return text
