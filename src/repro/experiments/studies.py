"""The paper's two sensitivity studies (Tables 4.1 and 4.2).

Defines the memory-system design space (23,040 points per benchmark) and
the processor design space (20,736 points per benchmark), the mapping from
design-space points to full machine configurations (including Table 4.2's
dependent-parameter rules), and cached full-space ground truth so every
figure/table harness measures error against exhaustive truth, as the paper
does with its 300K+ simulations.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..cpu.config import (
    MachineConfig,
    dependent_l1_associativity,
    dependent_l2_associativity,
)
from ..cpu.simulator import (
    ENGINES,
    Simulator,
    _profile_cache_dir,
    get_interval_simulator,
)
from ..designspace import (
    CardinalParameter,
    ContinuousParameter,
    DependentChoices,
    DesignSpace,
    NominalParameter,
)
from ..designspace.space import Config
from ..workloads.spec import SPEC_WORKLOADS

KB = 1024

#: bump when study definitions or the simulator pipeline change
GROUND_TRUTH_VERSION = 1


def build_memory_system_space() -> DesignSpace:
    """Table 4.1's variable parameters (cross product, no constraints)."""
    return DesignSpace(
        name="memory-system",
        parameters=[
            CardinalParameter("l1d_size_kb", (8, 16, 32, 64)),
            CardinalParameter("l1d_block", (32, 64)),
            CardinalParameter("l1d_associativity", (1, 2, 4, 8)),
            NominalParameter("l1d_write_policy", ("WT", "WB")),
            CardinalParameter("l2_size_kb", (256, 512, 1024, 2048)),
            CardinalParameter("l2_block", (64, 128)),
            CardinalParameter("l2_associativity", (1, 2, 4, 8, 16)),
            CardinalParameter("l2_bus_width", (8, 16, 32)),
            ContinuousParameter("fsb_frequency_ghz", (0.533, 0.8, 1.4)),
        ],
    )


def memory_system_machine(point: Config) -> MachineConfig:
    """Expand a memory-study point into a full machine configuration
    (constants from the right half of Table 4.1 are the defaults)."""
    return MachineConfig(
        l1d_size=point["l1d_size_kb"] * KB,
        l1d_block=point["l1d_block"],
        l1d_associativity=point["l1d_associativity"],
        l1d_write_policy=point["l1d_write_policy"],
        l2_size=point["l2_size_kb"] * KB,
        l2_block=point["l2_block"],
        l2_associativity=point["l2_associativity"],
        l2_bus_width=point["l2_bus_width"],
        fsb_frequency_ghz=point["fsb_frequency_ghz"],
    )


#: Table 4.2's rule pairing register-file sizes with ROB sizes
REGISTER_FILE_CHOICES: Dict[int, Tuple[int, int]] = {
    96: (64, 80),
    128: (80, 96),
    160: (96, 112),
}


def build_processor_space() -> DesignSpace:
    """Table 4.2's variable parameters with the register-file constraint."""
    return DesignSpace(
        name="processor",
        parameters=[
            CardinalParameter("width", (4, 6, 8)),
            ContinuousParameter("frequency_ghz", (2.0, 4.0)),
            CardinalParameter("max_branches", (16, 32)),
            CardinalParameter("predictor_entries", (1024, 2048, 4096)),
            CardinalParameter("btb_sets", (1024, 2048)),
            CardinalParameter("functional_units", (4, 8)),
            CardinalParameter("rob_size", (96, 128, 160)),
            CardinalParameter("register_file", (64, 80, 96, 112)),
            CardinalParameter("lsq_entries", (32, 48, 64)),
            CardinalParameter("l1i_size_kb", (8, 32)),
            CardinalParameter("l1d_size_kb", (8, 32)),
            CardinalParameter("l2_size_kb", (256, 1024)),
        ],
        constraints=[
            DependentChoices(
                parameter="register_file",
                depends_on="rob_size",
                allowed={
                    rob: choices for rob, choices in REGISTER_FILE_CHOICES.items()
                },
            )
        ],
    )


def processor_machine(point: Config) -> MachineConfig:
    """Expand a processor-study point, applying Table 4.2's dependent
    rules (cache associativities tied to sizes, 32B L1 / 64B L2 blocks,
    WB policy, 32B L2 bus, 800 MHz FSB)."""
    l1i_size = point["l1i_size_kb"] * KB
    l1d_size = point["l1d_size_kb"] * KB
    l2_size = point["l2_size_kb"] * KB
    return MachineConfig(
        width=point["width"],
        frequency_ghz=point["frequency_ghz"],
        max_branches=point["max_branches"],
        predictor_entries=point["predictor_entries"],
        btb_sets=point["btb_sets"],
        functional_units=point["functional_units"],
        rob_size=point["rob_size"],
        int_registers=point["register_file"],
        fp_registers=point["register_file"],
        lsq_entries=point["lsq_entries"],
        l1i_size=l1i_size,
        l1i_block=32,
        l1i_associativity=dependent_l1_associativity(l1i_size),
        l1d_size=l1d_size,
        l1d_block=32,
        l1d_associativity=dependent_l1_associativity(l1d_size),
        l1d_write_policy="WB",
        l2_size=l2_size,
        l2_block=64,
        l2_associativity=dependent_l2_associativity(l2_size),
        l2_bus_width=32,
        fsb_frequency_ghz=0.8,
    )


@dataclass(frozen=True)
class Study:
    """One sensitivity study: its space, targets, simulator and milestones.

    ``table51_samples`` are the training-set sizes behind Table 5.1's
    ~1%/2%/4% columns (training data accumulates in batches of 50, so the
    percentages are approximate, exactly as in the paper).

    ``targets`` declares the study's prediction vector, primary target
    first.  The paper's scalar-IPC studies are the 1-tuple special case
    ``("ipc",)``; studies declaring more than one target are fitted with
    multi-target ensembles and report per-target cross-validation error.
    ``workloads`` names the benchmarks the study is defined over, and
    ``simulator_factory`` (when set) replaces the default interval-engine
    ``SIM(p, A)`` construction in :func:`make_simulate_fn`.
    """

    name: str
    space: DesignSpace
    to_machine: Callable[[Config], MachineConfig]
    table51_samples: Tuple[int, int, int]
    table51_labels: Tuple[str, str, str]
    targets: Tuple[str, ...] = ("ipc",)
    workloads: Tuple[str, ...] = ()
    simulator_factory: Optional[Callable[[str], Callable[[Config], float]]] = None

    @property
    def primary_target(self) -> str:
        """The target that drives convergence and best-point selection."""
        return self.targets[0]

    @property
    def is_multi_target(self) -> bool:
        return len(self.targets) > 1

    def sample_fraction(self, n_samples: int) -> float:
        """Training-set size as a fraction of the full space."""
        return n_samples / len(self.space)

    def machine_at(self, index: int) -> MachineConfig:
        """Machine configuration of the ``index``-th design point."""
        return self.to_machine(self.space.config_at(index))


def memory_system_study() -> Study:
    """Construct the Table 4.1 study."""
    space = build_memory_system_space()
    return Study(
        name="memory-system",
        space=space,
        to_machine=memory_system_machine,
        table51_samples=(250, 500, 950),  # 1.08%, 2.17%, 4.12% of 23,040
        table51_labels=("1.08% Sample", "2.17% Sample", "4.12% Sample"),
        workloads=tuple(SPEC_WORKLOADS),
    )


def processor_study() -> Study:
    """Construct the Table 4.2 study."""
    space = build_processor_space()
    return Study(
        name="processor",
        space=space,
        to_machine=processor_machine,
        table51_samples=(200, 400, 850),  # 0.96%, 1.93%, 4.10% of 20,736
        table51_labels=("0.96% Sample", "1.93% Sample", "4.10% Sample"),
        workloads=tuple(SPEC_WORKLOADS),
    )


def _no_machine_mapping(point: Config) -> MachineConfig:
    raise TypeError(
        "cache-policy design points describe a cache and a replacement "
        "policy, not a full machine; the study has no MachineConfig mapping"
    )


def cache_policy_study() -> Study:
    """Construct the cache-replacement study (multi-target)."""
    from .cachepolicy import (
        CACHE_POLICY_TARGETS,
        CACHE_POLICY_WORKLOADS,
        build_cache_policy_space,
        make_cache_policy_simulate_fn,
    )

    space = build_cache_policy_space()
    return Study(
        name="cache-policy",
        space=space,
        to_machine=_no_machine_mapping,
        table51_samples=(50, 100, 200),  # 8.3%, 16.7%, 33.3% of 600
        table51_labels=("8.3% Sample", "16.7% Sample", "33.3% Sample"),
        targets=CACHE_POLICY_TARGETS,
        workloads=CACHE_POLICY_WORKLOADS,
        simulator_factory=make_cache_policy_simulate_fn,
    )


_STUDIES: Dict[str, Study] = {}

_STUDY_BUILDERS: Dict[str, Callable[[], Study]] = {
    "memory-system": memory_system_study,
    "processor": processor_study,
    "cache-policy": cache_policy_study,
}


def get_study(name: str) -> Study:
    """Look up (and cache) a study by name."""
    if name not in _STUDIES:
        if name not in _STUDY_BUILDERS:
            raise KeyError(
                f"unknown study {name!r}; choices: {sorted(_STUDY_BUILDERS)}"
            )
        _STUDIES[name] = _STUDY_BUILDERS[name]()
    return _STUDIES[name]


STUDY_NAMES = ("memory-system", "processor", "cache-policy")

#: the paper's original scalar-IPC studies (Tables 4.1/4.2); the
#: figure/table harnesses that reproduce Chapter 5 are defined over these
SCALAR_STUDY_NAMES = ("memory-system", "processor")


@dataclass(frozen=True)
class StudyInfo:
    """Introspection record for one registered study (see ``list_studies``)."""

    name: str
    n_points: int
    n_parameters: int
    targets: Tuple[str, ...]
    workloads: Tuple[str, ...]

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (``repro studies --json`` rows)."""
        return {
            "name": self.name,
            "n_points": self.n_points,
            "n_parameters": self.n_parameters,
            "targets": list(self.targets),
            "workloads": list(self.workloads),
        }


def list_studies() -> Tuple[StudyInfo, ...]:
    """Describe every registered study: name, space size, targets, workloads."""
    infos = []
    for name in STUDY_NAMES:
        study = get_study(name)
        infos.append(
            StudyInfo(
                name=study.name,
                n_points=len(study.space),
                n_parameters=len(study.space.parameters),
                targets=study.targets,
                workloads=study.workloads,
            )
        )
    return tuple(infos)


# ----------------------------------------------------------------------
# simulation endpoints and full-space ground truth
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StudySimulator:
    """Picklable ``SIM(p, A)`` callable for one (study, benchmark) pair.

    Holds only names, so it pickles in a few bytes; whichever process
    calls it resolves the study and the memoized interval simulator
    locally, once per process.
    """

    study_name: str
    benchmark: str
    engine: str = "interval"

    def __call__(self, point: Config) -> float:
        study = get_study(self.study_name)
        return Simulator(self.engine).simulate_ipc(
            study.to_machine(point), self.benchmark
        )


@dataclass(frozen=True)
class SimPointStudySimulator:
    """Picklable SimPoint-estimate callable for one (study, benchmark).

    The (expensive) SimPoint selection and interval profiles are built
    lazily in whichever process first evaluates a point, through the
    memoized :func:`repro.simpoint.get_simpoint_simulator` — once per
    process.
    """

    study_name: str
    benchmark: str

    def __call__(self, point: Config) -> float:
        from ..simpoint.simpoint import get_simpoint_simulator

        study = get_study(self.study_name)
        simulator = get_simpoint_simulator(self.benchmark)
        return simulator.simulate_ipc(study.to_machine(point))


def make_simulate_fn(
    study: Study, benchmark: str, engine: str = "interval"
) -> Callable[[Config], float]:
    """The ``SIM(p, A)`` callable the explorer drives for one benchmark.

    Wrap it in a :class:`~repro.core.backend.SerialBackend` (or pass
    it anywhere a backend is accepted; :func:`~repro.core.backend.as_backend`
    wraps it) to evaluate batches.

    Studies that register a ``simulator_factory`` (the multi-target
    cache-policy study) construct their simulator through it; the
    default is the interval-engine :class:`StudySimulator`.
    """
    if study.simulator_factory is not None:
        return study.simulator_factory(benchmark)
    if benchmark not in SPEC_WORKLOADS:
        raise KeyError(
            f"unknown benchmark {benchmark!r}; choices: "
            f"{sorted(SPEC_WORKLOADS)}"
        )
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choices: {ENGINES}")
    return StudySimulator(study.name, benchmark, engine)


_TRUTH_CACHE: Dict[Tuple[str, str], np.ndarray] = {}


def full_space_ground_truth(study: Study, benchmark: str) -> np.ndarray:
    """IPC of *every* design point of ``study`` for ``benchmark``.

    Evaluated with the interval engine and cached in memory and on disk
    (a few seconds per study/benchmark pair on first use; the paper spent
    cluster-months on the equivalent 23K/20.7K detailed simulations).
    """
    if study.is_multi_target:
        raise ValueError(
            f"study {study.name!r} declares targets {study.targets}; "
            "full-space ground truth is defined for scalar-IPC studies only"
        )
    key = (study.name, benchmark)
    if key in _TRUTH_CACHE:
        return _TRUTH_CACHE[key]
    cache_dir = _profile_cache_dir()
    workload_seed = SPEC_WORKLOADS[benchmark].seed
    path = (
        cache_dir
        / (
            f"truth-v{GROUND_TRUTH_VERSION}-{study.name}-{benchmark}-"
            f"{workload_seed}.npy"
        )
        if cache_dir
        else None
    )
    truth: Optional[np.ndarray] = None
    if path is not None and path.exists():
        try:
            truth = np.load(path)
            if len(truth) != len(study.space):
                truth = None
        except (OSError, ValueError):
            truth = None
    if truth is None:
        evaluator = get_interval_simulator(benchmark)
        truth = np.fromiter(
            (
                evaluator.evaluate_ipc(study.to_machine(point))
                for point in study.space
            ),
            dtype=np.float64,
            count=len(study.space),
        )
        if path is not None:
            try:
                fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".npy")
                os.close(fd)
                np.save(tmp, truth)
                os.replace(tmp, path)
            except OSError:
                pass
    _TRUTH_CACHE[key] = truth
    return truth
