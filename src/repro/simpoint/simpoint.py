"""SimPoint: representative-interval selection and noisy fast simulation.

Reimplements the SimPoint flow the paper combines with ANN modeling
(Section 5.3): split the run into fixed-length intervals, build a Basic
Block Vector per interval, project, cluster with k-means/BIC, pick the
interval closest to each centroid as that cluster's *simulation point*,
and weight it by cluster population.  A run's performance estimate is then
the weighted combination of its simulation points' IPCs — faster than
simulating everything, but noisy, which is exactly the property the
ANN+SimPoint study exercises.

The paper scales SimPoint's default 100M-instruction intervals down to 10M
for MinneSPEC; we scale once more to fit our synthetic traces, keeping the
ratio of interval length to run length comparable.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..cpu.config import MachineConfig
from ..cpu.interval import (
    ApplicationProfile,
    IntervalSimulator,
    build_interval_profiles,
)
from ..cpu.simulator import _profile_cache_dir
from ..obs.atomicio import atomic_write_pickle
from ..workloads.generator import generate_trace
from ..workloads.spec import get_workload
from ..workloads.trace import Trace
from .bbv import interval_bbvs, random_projection
from .kmeans import select_k

#: default interval length for our 200K-instruction traces; the paper uses
#: 10M-instruction intervals on full MinneSPEC runs (same ~10% granularity)
DEFAULT_INTERVAL_LENGTH = 20_000
#: maximum number of clusters SimPoint may select.  Our traces yield ~10
#: intervals; allowing up to 7 clusters keeps a real reduction while
#: letting BIC separate the phases it can see (equake's within-phase
#: locality drift is invisible to BBVs and stays noisy at any k < n)
DEFAULT_MAX_K = 7
#: nominal per-interval instruction count used for the paper-scale
#: instruction accounting in the gains study (Figs 5.6/5.7)
NOMINAL_INTERVAL_INSTRUCTIONS = 10_000_000

#: bump when the SimPoint or profile pipeline changes incompatibly
SIMPOINT_VERSION = 1


@dataclass
class SimPointSelection:
    """The chosen simulation points of one benchmark.

    Attributes
    ----------
    benchmark:
        Workload name.
    interval_length:
        Instructions per interval.
    intervals:
        ``(start, stop)`` bounds of every interval.
    points:
        Indices of the representative intervals.
    weights:
        Cluster-population weight of each representative (sums to 1).
    labels:
        Cluster assignment of every interval.
    """

    benchmark: str
    interval_length: int
    intervals: List[Tuple[int, int]]
    points: List[int]
    weights: List[float]
    labels: np.ndarray

    @property
    def k(self) -> int:
        return len(self.points)

    @property
    def simulated_fraction(self) -> float:
        """Fraction of the run SimPoint actually simulates."""
        total = self.intervals[-1][1]
        simulated = sum(
            self.intervals[p][1] - self.intervals[p][0] for p in self.points
        )
        return simulated / total

    def instruction_reduction_factor(self) -> float:
        """Paper-scale reduction in simulated instructions per experiment.

        Uses the benchmark's MinneSPEC dynamic instruction count and the
        nominal 10M-instruction interval, mirroring how the paper accounts
        SimPoint's 8-62x gains.
        """
        total = get_workload(self.benchmark).total_dynamic_instructions
        simulated = self.k * NOMINAL_INTERVAL_INSTRUCTIONS
        return total / simulated


def select_simpoints(
    trace: Trace,
    interval_length: int = DEFAULT_INTERVAL_LENGTH,
    max_k: int = DEFAULT_MAX_K,
    projection_dimensions: int = 15,
    seed: int = 42,
) -> SimPointSelection:
    """Run the SimPoint selection pipeline on ``trace``."""
    bbvs, bounds = interval_bbvs(trace, interval_length)
    projected = random_projection(bbvs, projection_dimensions, seed)
    rng = np.random.default_rng(seed)
    clustering = select_k(projected, min(max_k, len(bounds)), rng)

    points: List[int] = []
    weights: List[float] = []
    n_intervals = len(bounds)
    for j in range(clustering.k):
        members = np.flatnonzero(clustering.labels == j)
        if len(members) == 0:
            continue
        distances = np.linalg.norm(
            projected[members] - clustering.centroids[j], axis=1
        )
        representative = int(members[int(np.argmin(distances))])
        points.append(representative)
        weights.append(len(members) / n_intervals)
    return SimPointSelection(
        benchmark=trace.name,
        interval_length=interval_length,
        intervals=bounds,
        points=points,
        weights=weights,
        labels=clustering.labels,
    )


# ----------------------------------------------------------------------
# per-interval profiles and the noisy estimator
# ----------------------------------------------------------------------
_INTERVAL_PROFILE_CACHE: Dict[Tuple[str, int, int], List[ApplicationProfile]] = {}


def get_interval_profiles(
    benchmark: str,
    interval_length: int = DEFAULT_INTERVAL_LENGTH,
    trace_length: Optional[int] = None,
) -> List[ApplicationProfile]:
    """Measured profiles of every interval of ``benchmark`` (memoized in
    memory and on disk; interval profiling is the expensive step)."""
    trace = generate_trace(benchmark, trace_length)
    key = (benchmark, len(trace), interval_length)
    if key in _INTERVAL_PROFILE_CACHE:
        return _INTERVAL_PROFILE_CACHE[key]
    cache_dir = _profile_cache_dir()
    workload_seed = get_workload(benchmark).seed
    cache_path = (
        cache_dir
        / (
            f"intervals-v{SIMPOINT_VERSION}-{benchmark}-{len(trace)}-"
            f"{workload_seed}-{interval_length}.pkl"
        )
        if cache_dir
        else None
    )
    profiles: Optional[List[ApplicationProfile]] = None
    if cache_path is not None and cache_path.exists():
        try:
            with open(cache_path, "rb") as handle:
                profiles = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
            profiles = None
    if profiles is None:
        profiles = build_interval_profiles(trace, interval_length)
        if cache_path is not None:
            try:
                atomic_write_pickle(cache_path, profiles)
            except OSError:
                pass
    _INTERVAL_PROFILE_CACHE[key] = profiles
    return profiles


class SimPointSimulator:
    """Design-point evaluator that reports SimPoint's *estimate* of IPC.

    This is the noisy-but-cheap data source of the ANN+SimPoint study: per
    design point it evaluates only the representative intervals and
    combines them with SimPoint weights.  The difference from the
    full-trace result is SimPoint's estimation error, which the ANN must
    absorb during training.
    """

    def __init__(
        self,
        benchmark: str,
        interval_length: int = DEFAULT_INTERVAL_LENGTH,
        trace_length: Optional[int] = None,
        seed: int = 42,
    ):
        trace = generate_trace(benchmark, trace_length)
        self.benchmark = benchmark
        self.selection = select_simpoints(
            trace, interval_length=interval_length, seed=seed
        )
        profiles = get_interval_profiles(benchmark, interval_length, trace_length)
        self._evaluators = [
            IntervalSimulator(profiles[p]) for p in self.selection.points
        ]

    def simulate_ipc(self, config: MachineConfig) -> float:
        """SimPoint's estimate of whole-run IPC at ``config``.

        Per-interval CPIs are combined with SimPoint weights (intervals are
        equal-length, so whole-run IPC is the weighted *harmonic* mean of
        interval IPCs: total instructions over total cycles)."""
        weighted_cpi = sum(
            weight / evaluator.evaluate_ipc(config)
            for weight, evaluator in zip(self.selection.weights, self._evaluators)
        )
        return 1.0 / weighted_cpi

    def __call__(self, config: MachineConfig) -> float:
        return self.simulate_ipc(config)


_SIMULATOR_CACHE: Dict[Tuple[str, int, Optional[int], int], SimPointSimulator] = {}


def get_simpoint_simulator(
    benchmark: str,
    interval_length: int = DEFAULT_INTERVAL_LENGTH,
    trace_length: Optional[int] = None,
    seed: int = 42,
) -> SimPointSimulator:
    """Build (and memoize per process) the SimPoint evaluator.

    Selection + interval profiling dominate construction cost while
    per-point evaluation is microseconds, so a process that evaluates
    many design points (an exploration, a campaign cell, a service job)
    should pay the construction once — this is its entry point.
    """
    key = (benchmark, interval_length, trace_length, seed)
    if key not in _SIMULATOR_CACHE:
        _SIMULATOR_CACHE[key] = SimPointSimulator(
            benchmark,
            interval_length=interval_length,
            trace_length=trace_length,
            seed=seed,
        )
    return _SIMULATOR_CACHE[key]


def clear_simpoint_caches() -> None:
    """Drop memoized SimPoint simulators (used by tests)."""
    _SIMULATOR_CACHE.clear()
