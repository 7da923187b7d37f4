"""The ``SIM(p0 .. pM, A)`` facade.

The paper views the simulator as a nonlinear function from a parameter
configuration and an application to a performance result.  This module
provides that function with a pluggable engine:

* ``"interval"`` — the fast first-order model
  (:class:`repro.cpu.interval.IntervalSimulator`); used for full-space
  ground truth, exactly as the paper used its SESC cluster runs.
* ``"cycle"`` — the detailed scoreboard simulator
  (:class:`repro.cpu.ooo.CycleSimulator`); used for validation, examples
  and small sweeps.

Application profiles and interval simulators are memoized per benchmark so
sweeps pay the profiling cost once.
"""

from __future__ import annotations

import pickle
from pathlib import Path
from typing import Dict, Optional, Tuple

from ..core.context import default_cache_dir
from ..obs.atomicio import atomic_write_pickle
from ..workloads.generator import generate_trace
from ..workloads.spec import get_workload
from .config import MachineConfig
from .interval import ApplicationProfile, IntervalSimulator
from .ooo import CycleSimulator, SimulationResult

ENGINES = ("interval", "cycle")

#: bump when profile contents, the generator or the file key change
#: incompatibly (v2: files are named by the requested trace length, not
#: the generated one)
PROFILE_VERSION = 2

_PROFILE_CACHE: Dict[Tuple[str, int], ApplicationProfile] = {}
_INTERVAL_CACHE: Dict[Tuple[str, int], IntervalSimulator] = {}


def _profile_cache_dir() -> Optional[Path]:
    """On-disk profile cache location; None disables disk caching.

    Kept as an alias of :func:`repro.core.context.default_cache_dir`,
    the single source of truth a :class:`~repro.core.context.RunContext`
    resolves its ``cache_dir`` from.
    """
    return default_cache_dir()


def _load_cached_profile(path: Path) -> Optional[ApplicationProfile]:
    try:
        with open(path, "rb") as handle:
            profile = pickle.load(handle)
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
        return None
    return profile if isinstance(profile, ApplicationProfile) else None


def _store_cached_profile(path: Path, profile: ApplicationProfile) -> None:
    try:
        atomic_write_pickle(path, profile)
    except OSError:
        pass  # caching is best-effort


def _cache_key(benchmark: str, trace_length: Optional[int]) -> Tuple[str, int]:
    """``(benchmark, requested trace length)``: the key of both memos."""
    return benchmark, trace_length or get_workload(benchmark).trace_length


def get_application_profile(
    benchmark: str, trace_length: Optional[int] = None
) -> ApplicationProfile:
    """Build (and memoize, in memory and on disk) the measured profile for
    ``benchmark``.  Profile construction costs seconds; everything that
    consumes profiles costs microseconds, so caching dominates total cost
    for repeated studies.

    Both caches are keyed on the *requested* trace length (the key
    :func:`generate_trace` memoizes on), so a hit never generates the
    trace; it is generated only to build a missing profile."""
    key = _cache_key(benchmark, trace_length)
    if key in _PROFILE_CACHE:
        return _PROFILE_CACHE[key]
    length = key[1]
    seed = get_workload(benchmark).seed
    cache_dir = _profile_cache_dir()
    cache_path = (
        cache_dir
        / f"profile-v{PROFILE_VERSION}-{benchmark}-{length}-{seed}.pkl"
        if cache_dir
        else None
    )
    profile = _load_cached_profile(cache_path) if cache_path else None
    if profile is None:
        profile = ApplicationProfile.from_trace(generate_trace(benchmark, length))
        if cache_path:
            _store_cached_profile(cache_path, profile)
    _PROFILE_CACHE[key] = profile
    return profile


def get_interval_simulator(
    benchmark: str, trace_length: Optional[int] = None
) -> IntervalSimulator:
    """Build (and memoize) the interval evaluator for ``benchmark``."""
    key = _cache_key(benchmark, trace_length)
    if key not in _INTERVAL_CACHE:
        _INTERVAL_CACHE[key] = IntervalSimulator(
            get_application_profile(benchmark, trace_length)
        )
    return _INTERVAL_CACHE[key]


def clear_simulator_caches() -> None:
    """Drop memoized profiles and evaluators (used by tests)."""
    _PROFILE_CACHE.clear()
    _INTERVAL_CACHE.clear()


class Simulator:
    """Callable design-point evaluator for one engine.

    Parameters
    ----------
    engine:
        ``"interval"`` (default) or ``"cycle"``.
    trace_length:
        Optional trace-length override, mainly for fast tests.
    """

    def __init__(self, engine: str = "interval", trace_length: Optional[int] = None):
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; choices: {ENGINES}")
        self.engine = engine
        self.trace_length = trace_length

    def simulate_ipc(self, config: MachineConfig, benchmark: str) -> float:
        """Return the IPC of ``benchmark`` at design point ``config``."""
        if self.engine == "interval":
            return get_interval_simulator(
                benchmark, self.trace_length
            ).evaluate_ipc(config)
        result = self.simulate_detailed(config, benchmark)
        return result.ipc

    def simulate_detailed(
        self, config: MachineConfig, benchmark: str
    ) -> SimulationResult:
        """Run the detailed cycle engine regardless of the default engine."""
        trace = generate_trace(benchmark, self.trace_length)
        return CycleSimulator(config).run(trace)

    def __call__(self, config: MachineConfig, benchmark: str) -> float:
        return self.simulate_ipc(config, benchmark)
