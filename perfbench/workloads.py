"""The benchmark's three workloads, as plain data.

Every exploration the workloads run is seeded from :data:`SEED`, so the
accuracy metrics (simulations to target, estimated and true error) are
properties of one fixed trajectory and compare across runs.  The
benchmark's ``--seed`` drives what may vary without moving them: which
of the service's tenants submits which job, and in what order.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Tuple

#: program seed of every exploration (explore runs, and job seeds count
#: up from it)
SEED = 17

#: error target handed to explore runs: below anything their budgets
#: reach, so every run spends its whole budget and ``wall_s`` measures a
#: fixed amount of work; ``sims_to_target`` reads the trajectory against
#: the study threshold instead
STOP_ERROR = 1.0

#: closed-loop clients of the service
TENANTS = 2

#: service in-flight workers and campaign cell processes (the host's
#: core count the workloads were sized on)
WORKERS = 2

#: estimated mean-error threshold behind ``sims_to_target``, per study
#: (memory-system as in BENCH_strategies.json; cache-policy is first
#: reached after its first round)
THRESHOLDS = {"memory-system": 6.0, "cache-policy": 5.0}


@dataclass(frozen=True)
class Exploration:
    """One seeded exploration, in the fields a service job spec takes."""

    study: str
    workload: str
    seed: int
    budget: int
    batch_size: int
    training: str
    target_error: float
    agent: str = "random"

    def job_spec(self) -> Dict[str, object]:
        """The ``JobSpec`` payload of this exploration."""
        return asdict(self)

    @property
    def threshold(self) -> float:
        return THRESHOLDS[self.study]

    def key(self) -> str:
        """Stable file-name key of this exploration's reference result."""
        return (
            f"{self.study}-{self.workload}-s{self.seed}-b{self.budget}-"
            f"n{self.batch_size}-{self.training}-e{self.target_error:g}-"
            f"{self.agent}"
        )


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "explore" or "serve"
    #: timed repetitions a run makes at the least (each a fresh process)
    min_reps: int
    explore: Tuple[Exploration, ...] = ()
    checkpoint: bool = True

    def sample(self, n: int) -> Tuple[Exploration, ...]:
        """``n`` of the workload's explorations, spread over its list."""
        return self.explore[::2][:n] if len(self.explore) > n \
            else self.explore

    def pairs(self) -> List[Tuple[str, str]]:
        """(study, workload) pairs this workload simulates, in order."""
        seen: List[Tuple[str, str]] = []
        for e in self.explore:
            if (e.study, e.workload) not in seen:
                seen.append((e.study, e.workload))
        return seen


def _jobs() -> Tuple[Exploration, ...]:
    return tuple(
        Exploration("memory-system", "mesa", SEED + i, 25, 25, "fast", 6.0)
        for i in range(40)
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # one exploration reads ±20% from one to the next on a shared
        # 2-core host, so explore runs take the median of several
        Workload(
            "explore-scalar",
            "explore",
            min_reps=5,
            explore=(
                Exploration(
                    "memory-system", "mesa", SEED, 200, 50, "default",
                    STOP_ERROR,
                ),
            ),
        ),
        Workload(
            "explore-multitarget",
            "explore",
            min_reps=5,
            explore=(
                Exploration(
                    "cache-policy", "osc-tight", SEED, 100, 50, "default",
                    STOP_ERROR,
                ),
            ),
            checkpoint=False,
        ),
        Workload(
            "serve-jobs",
            "serve",
            min_reps=1,
            explore=_jobs(),
        ),
    )
}


#: target vector each study's runs must report errors for (scalar
#: studies report none)
TARGET_NAMES = {"cache-policy": ["ipc", "hit_rate", "energy_nj"]}


def truth_path(cache: Path, study: str, workload: str) -> Path:
    """Where the exhaustive primary-target truth of a pair is cached."""
    return cache / "truth" / f"{study}-{workload}.json"


def reference_path(cache: Path, e: Exploration) -> Path:
    """Where the in-process result of one exploration is cached."""
    return cache / "ref" / f"{e.key()}.json"


def sims_to_target(e: Exploration, rounds: List[List[float]]) -> float:
    """Simulations at the first round whose estimate reaches the study
    threshold, or budget + batch when none does."""
    for n_samples, error_mean in rounds:
        if error_mean <= e.threshold:
            return float(n_samples)
    return float(e.budget + e.batch_size)


def submission_order(
    workload: Workload, seed: int
) -> List[Tuple[str, List[Exploration]]]:
    """The service workload's tenants and the jobs each submits in turn,
    shuffled by the benchmark seed."""
    jobs = list(workload.explore)
    random.Random(seed).shuffle(jobs)
    return tenant_split(jobs)


def tenant_split(
    jobs: List[Exploration],
) -> List[Tuple[str, List[Exploration]]]:
    """Deal ``jobs`` round-robin to at most :data:`TENANTS` tenants."""
    return [
        (f"tenant-{i}", jobs[i::TENANTS])
        for i in range(min(TENANTS, len(jobs)))
    ]

