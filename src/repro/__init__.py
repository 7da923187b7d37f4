"""repro: predictive modeling of architectural design spaces.

A from-scratch reproduction of Ipek et al., "Efficiently Exploring
Architectural Design Spaces via Predictive Modeling" (ASPLOS 2006):
ANN-ensemble surrogate models of simulator design spaces with
cross-validation-based error estimation and incremental sampling, plus
every substrate the paper depends on (out-of-order processor and memory
hierarchy simulation, synthetic SPEC-like workloads, SimPoint,
Plackett-Burman designs).

Quick start (the stable public surface lives in :mod:`repro.api`)::

    from repro.api import explore, get_study, make_simulate_fn

    study = get_study("memory-system")
    result = explore(
        study.space, make_simulate_fn(study, "mcf"),
        target_error=2.0, max_simulations=1000, seed=42)
    print(result.final_estimate)
"""

from .core import (
    CheckpointError,
    CrossApplicationModel,
    CrossValidationEnsemble,
    DesignSpaceExplorer,
    EnsemblePredictor,
    ErrorEstimate,
    ErrorStatistics,
    EvaluationBackend,
    EvaluationError,
    EvaluationTimeout,
    ExplorationResult,
    ExplorerCheckpoint,
    FaultInjectingBackend,
    FaultPlan,
    FeedForwardNetwork,
    MultiTaskNetwork,
    ParameterEncoder,
    ResilientBackend,
    RetryPolicy,
    RunContext,
    SerialBackend,
    TargetScaler,
    TrainingConfig,
    as_backend,
    percentage_errors,
    validate_targets,
)
from .cpu import (
    CycleSimulator,
    IntervalSimulator,
    MachineConfig,
    SimulationResult,
    Simulator,
    get_application_profile,
    get_interval_simulator,
)
from .designspace import (
    BooleanParameter,
    CardinalParameter,
    ContinuousParameter,
    DependentChoices,
    DesignSpace,
    NominalParameter,
    PredicateConstraint,
)
from .doe import PlackettBurmanStudy
from .experiments import (
    STUDY_NAMES,
    Study,
    full_space_ground_truth,
    get_study,
    make_simulate_fn,
    run_learning_curve,
)
from .obs import (
    METRICS,
    MetricsRegistry,
    RunTelemetry,
    TelemetryReport,
    enable_metrics,
)
from .simpoint import SimPointSelection, SimPointSimulator, select_simpoints
from .workloads import SPEC_WORKLOADS, Trace, generate_trace, get_workload

__version__ = "1.0.0"

__all__ = [
    "BooleanParameter",
    "CardinalParameter",
    "CheckpointError",
    "ContinuousParameter",
    "CrossApplicationModel",
    "CrossValidationEnsemble",
    "CycleSimulator",
    "DependentChoices",
    "DesignSpace",
    "DesignSpaceExplorer",
    "EnsemblePredictor",
    "ErrorEstimate",
    "ErrorStatistics",
    "EvaluationBackend",
    "EvaluationError",
    "EvaluationTimeout",
    "ExplorationResult",
    "ExplorerCheckpoint",
    "FaultInjectingBackend",
    "FaultPlan",
    "FeedForwardNetwork",
    "IntervalSimulator",
    "METRICS",
    "MachineConfig",
    "MetricsRegistry",
    "MultiTaskNetwork",
    "NominalParameter",
    "ParameterEncoder",
    "PlackettBurmanStudy",
    "PredicateConstraint",
    "ResilientBackend",
    "RetryPolicy",
    "RunContext",
    "RunTelemetry",
    "SerialBackend",
    "TelemetryReport",
    "SPEC_WORKLOADS",
    "STUDY_NAMES",
    "SimPointSelection",
    "SimPointSimulator",
    "SimulationResult",
    "Simulator",
    "Study",
    "TargetScaler",
    "Trace",
    "TrainingConfig",
    "as_backend",
    "enable_metrics",
    "full_space_ground_truth",
    "generate_trace",
    "get_application_profile",
    "get_interval_simulator",
    "get_study",
    "get_workload",
    "make_simulate_fn",
    "percentage_errors",
    "run_learning_curve",
    "select_simpoints",
    "validate_targets",
    "__version__",
]
