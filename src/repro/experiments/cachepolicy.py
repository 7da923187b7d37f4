"""The cache-replacement study: a policy-dominated, multi-target space.

The paper's two studies predict a single scalar (IPC) over numeric
parameter grids.  This third study stresses the two remaining axes of
the methodology: a *nominal* parameter (the replacement policy) that
dominates the space's structure, and *multi-output* targets — hit
rate, IPC and energy per instruction are predicted jointly by a
multi-target ensemble, with energy-delay products derived from the
predicted vector.

The simulator composes three existing substrates:

* hit rates from the per-set replacement-policy machines of
  :mod:`repro.memory.policies` driven by a phased synthetic trace;
* IPC from a first-order interval-style CPI model — base CPI from the
  trace's instruction mix and dependency distances, plus a memory CPI
  term from the measured miss rate and the CACTI-derived access
  latency of the configured geometry;
* energy from the CACTI-style dynamic-energy model
  (:func:`repro.memory.cacti.l1_access_energy_nj`).

Bigger, more associative caches hit more but cost latency and energy,
so the three targets trade off against each other and the derived
ED/ED² fronts are non-trivial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..designspace import CardinalParameter, DesignSpace, NominalParameter
from ..designspace.space import Config
from ..memory.cacti import (
    l1_access_energy_nj,
    l1_access_time_ns,
    miss_energy_nj,
    ns_to_cycles,
)
from ..memory.policies import POLICY_NAMES, cache_hit_rate
from ..workloads.generator import generate_trace
from ..workloads.phased import PHASED_BENCHMARKS
from ..workloads.spec import SPEC_WORKLOADS
from ..workloads.trace import OpClass

KB = 1024

#: the study's declared target vector; ``ipc`` first — the primary
#: target drives convergence and best-point selection, exactly like the
#: scalar studies
CACHE_POLICY_TARGETS: Tuple[str, str, str] = ("ipc", "hit_rate", "energy_nj")

#: workloads the study is defined over (oscillating synthetic traces)
CACHE_POLICY_WORKLOADS: Tuple[str, ...] = PHASED_BENCHMARKS

#: core clock of the modeled machine
_FREQUENCY_GHZ = 4.0

#: flat next-level access time; ~80 cycles at 4 GHz
_MISS_PENALTY_NS = 20.0

#: non-memory core energy per instruction (nanojoules)
_CORE_ENERGY_NJ = 0.05

#: effective issue width of the fixed core behind the cache under study
_ISSUE_WIDTH = 2.0


def build_cache_policy_space() -> DesignSpace:
    """Policy axis crossed with cache geometry: 5 x 6 x 5 x 4 = 600 points.

    Every size/associativity/block combination yields a power-of-two,
    >= 1 set count, so the space needs no constraints.
    """
    return DesignSpace(
        name="cache-policy",
        parameters=[
            NominalParameter("policy", POLICY_NAMES),
            CardinalParameter("size_kb", (4, 8, 16, 32, 64, 128)),
            CardinalParameter("associativity", (1, 2, 4, 8, 16)),
            CardinalParameter("block", (16, 32, 64, 128)),
        ],
    )


# ----------------------------------------------------------------------
# per-process memoization (workload stats and per-point evaluations)
# ----------------------------------------------------------------------
_TRACE_STATS: Dict[str, Tuple[float, float]] = {}
_EVAL_CACHE: Dict[Tuple[str, int, int, int, str], Tuple[float, float, float]] = {}


def _trace_stats(workload: str) -> Tuple[float, float]:
    """(memory references per instruction, base CPI) of one workload."""
    if workload not in _TRACE_STATS:
        trace = generate_trace(workload)
        refs_per_instr = float(np.mean(trace.memory_mask))
        mean_latency = float(np.mean(OpClass.LATENCY[trace.op]))
        ilp = min(_ISSUE_WIDTH, float(np.mean(np.maximum(trace.dep1, 1))))
        base_cpi = mean_latency / ilp
        _TRACE_STATS[workload] = (refs_per_instr, base_cpi)
    return _TRACE_STATS[workload]


def evaluate_cache_policy(
    workload: str, point: Config
) -> Tuple[float, float, float]:
    """(ipc, hit_rate, energy_nj) of one design point on one workload.

    Memoized per (workload, geometry, policy) in each process, so
    repeated evaluations — and the full 600-point space — stay cheap.
    """
    size_bytes = int(point["size_kb"]) * KB
    block = int(point["block"])
    assoc = int(point["associativity"])
    policy = str(point["policy"])
    key = (workload, size_bytes, assoc, block, policy)
    if key not in _EVAL_CACHE:
        trace = generate_trace(workload)
        hit_rate = cache_hit_rate(
            trace,
            size_bytes=size_bytes,
            block_bytes=block,
            associativity=assoc,
            policy=policy,
        )
        miss_rate = 1.0 - hit_rate
        refs_per_instr, base_cpi = _trace_stats(workload)
        hit_cycles = ns_to_cycles(
            l1_access_time_ns(size_bytes, block, assoc), _FREQUENCY_GHZ
        )
        miss_cycles = ns_to_cycles(_MISS_PENALTY_NS, _FREQUENCY_GHZ)
        cpi = base_cpi + refs_per_instr * (
            (hit_cycles - 1) + miss_rate * miss_cycles
        )
        energy_nj = _CORE_ENERGY_NJ + refs_per_instr * (
            l1_access_energy_nj(size_bytes, block, assoc)
            + miss_rate * miss_energy_nj()
        )
        _EVAL_CACHE[key] = (1.0 / cpi, hit_rate, energy_nj)
    return _EVAL_CACHE[key]


def clear_evaluation_cache() -> None:
    """Drop the per-process evaluation memo (tests)."""
    _EVAL_CACHE.clear()
    _TRACE_STATS.clear()


@dataclass(frozen=True)
class CachePolicySimulator:
    """Picklable multi-target ``SIM(p, A)`` for the cache-policy study.

    Calling it returns the *primary* target (IPC) — the scalar every
    backend, retry wrapper and fault injector already understands.
    The full declared vector is exposed through :meth:`targets_at`;
    both share one memoized underlying simulation, so the environment
    reading the auxiliary targets after the backend returned the
    primary costs nothing extra.
    """

    workload: str

    #: the declared target vector, primary first
    target_names: Tuple[str, ...] = CACHE_POLICY_TARGETS

    def __call__(self, point: Config) -> float:
        return evaluate_cache_policy(self.workload, point)[0]

    def targets_at(self, point: Config) -> Tuple[float, ...]:
        """The full (ipc, hit_rate, energy_nj) vector at ``point``."""
        return evaluate_cache_policy(self.workload, point)


def make_cache_policy_simulate_fn(benchmark: str) -> CachePolicySimulator:
    """Simulator factory registered on the cache-policy :class:`Study`."""
    known = tuple(CACHE_POLICY_WORKLOADS) + tuple(SPEC_WORKLOADS)
    if benchmark not in known:
        raise KeyError(
            f"unknown workload {benchmark!r} for study 'cache-policy'; "
            f"choices: {sorted(known)}"
        )
    return CachePolicySimulator(benchmark)


# ----------------------------------------------------------------------
# derived metrics
# ----------------------------------------------------------------------
def energy_delay(ipc: float, energy_nj: float) -> float:
    """Energy-delay product per instruction (nJ x cycles)."""
    if ipc <= 0:
        raise ValueError(f"ipc must be positive, got {ipc}")
    return energy_nj / ipc


def energy_delay_squared(ipc: float, energy_nj: float) -> float:
    """ED² product per instruction (nJ x cycles²)."""
    if ipc <= 0:
        raise ValueError(f"ipc must be positive, got {ipc}")
    return energy_nj / (ipc * ipc)
