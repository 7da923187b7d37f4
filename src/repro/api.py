"""The stable public API of :mod:`repro`.

Everything a user of the library needs — running the paper's
exploration procedure, fitting standalone ensembles, predicting a whole
design space, resuming from checkpoints — is importable from this one
module, with keyword names that follow the conventions of
``docs/api.md`` (``seed`` for entry points, ``context`` for shared
plumbing, ``max_retries``):

    from repro.api import RunContext, explore, get_study, make_simulate_fn

    study = get_study("memory-system")
    result = explore(
        study.space,
        make_simulate_fn(study, "mcf"),
        target_error=2.0,
        max_simulations=1000,
        seed=42,
    )
    print(result.final_estimate)

Deeper imports (``repro.core.*``, ``repro.experiments.*``) keep
working, but only the names exported here are covered by the
deprecation policy: anything else may move without notice.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from .campaign import (
    CampaignError,
    CampaignResult,
    CampaignSpec,
    CampaignSpecError,
    campaign_status,
    load_campaign_spec,
    parse_campaign_spec,
    resume_campaign,
    run_campaign,
)
from .core.checkpoint import (
    CheckpointError,
    ExplorerCheckpoint,
    clear_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from .core.context import RunContext
from .core.crossval import DEFAULT_FOLDS
from .core.encoding import ParameterEncoder, design_matrix
from .core.ensemble import EnsemblePredictor
from .core.error import ErrorEstimate, ErrorStatistics
from .core.explorer import (
    DEFAULT_BATCH_SIZE,
    DesignSpaceExplorer,
    ExplorationResult,
)
from .core.fitting import FitOutcome, fit_cv_round
from .core.kernels import DEFAULT_PREDICT_CHUNK
from .core.training import TrainingConfig
from .designspace.space import DesignSpace
from .experiments.studies import (
    StudyInfo,
    get_study,
    list_studies,
    make_simulate_fn,
)
from .search import (
    AGENTS,
    Agent,
    BayesOptAgent,
    CommitteeAgent,
    Environment,
    EvolutionaryAgent,
    Observation,
    RandomAgent,
    SimulatedAnnealingAgent,
    make_agent,
)
from .serve import (
    AdmissionPolicy,
    ExplorationService,
    JobSpec,
    JobSpecError,
    ServeError,
    StudyRegistry,
    SubmitResult,
)

__all__ = [
    "AGENTS",
    "AdmissionPolicy",
    "Agent",
    "BayesOptAgent",
    "CampaignError",
    "CampaignResult",
    "CampaignSpec",
    "CampaignSpecError",
    "CheckpointError",
    "CommitteeAgent",
    "DesignSpace",
    "EnsemblePredictor",
    "Environment",
    "ErrorEstimate",
    "ErrorStatistics",
    "EvolutionaryAgent",
    "ExplorationResult",
    "ExplorationService",
    "ExplorerCheckpoint",
    "FitOutcome",
    "JobSpec",
    "JobSpecError",
    "Observation",
    "RandomAgent",
    "RunContext",
    "ServeError",
    "SimulatedAnnealingAgent",
    "StudyInfo",
    "StudyRegistry",
    "SubmitResult",
    "TrainingConfig",
    "campaign_status",
    "clear_checkpoint",
    "explore",
    "fit_ensemble",
    "get_study",
    "list_studies",
    "load_campaign_spec",
    "load_checkpoint",
    "make_agent",
    "make_simulate_fn",
    "parse_campaign_spec",
    "predict_space",
    "resume_campaign",
    "run_campaign",
    "save_checkpoint",
]


def _resolve(seed: Optional[int], context: Optional[RunContext]) -> RunContext:
    """One context from the ``seed`` / ``context`` pair (exclusive)."""
    if context is not None:
        if seed is not None:
            raise ValueError("pass either seed= or context=, not both")
        return context
    if seed is not None:
        return RunContext.seeded(seed)
    return RunContext()


def explore(
    space: Optional[DesignSpace] = None,
    simulate: object = None,
    *,
    study: Optional[str] = None,
    workload: Optional[str] = None,
    target_error: float,
    max_simulations: int,
    batch_size: int = DEFAULT_BATCH_SIZE,
    k: int = DEFAULT_FOLDS,
    training: Optional[TrainingConfig] = None,
    seed: Optional[int] = None,
    context: Optional[RunContext] = None,
    min_folds: Optional[int] = None,
    agent: Union[str, Agent, None] = None,
    initial_samples: Optional[int] = None,
    checkpoint: Optional[str] = None,
) -> ExplorationResult:
    """Run the paper's incremental exploration loop (Section 3.3).

    Simulates ``batch_size`` new points per round, trains a ``k``-fold
    cross-validation ensemble, and stops once the estimated mean
    percentage error reaches ``target_error`` or the simulation budget
    ``max_simulations`` is spent.  ``simulate`` may be a plain
    ``config -> float`` callable or any evaluation backend.

    Instead of a ``(space, simulate)`` pair you can name a registered
    study — ``explore(study="cache-policy", ...)`` — which resolves the
    study's design space and simulator for ``workload`` (defaulting to
    the study's first registered workload).  Multi-target studies
    report a per-target error breakdown on every round's estimate and
    the full target rows on the result.

    ``agent`` selects the search strategy proposing each round's batch:
    a name from :data:`AGENTS` (``"random"``, ``"committee"``,
    ``"evolutionary"``, ``"annealing"``, ``"bayesopt"``), an agent
    instance (e.g. ``CommitteeAgent(pool_size=500)``), or ``None`` for
    the paper's uniform random sampling.

    Pass ``seed`` for a reproducible run, or a full ``context``
    (:class:`RunContext`) to also control telemetry, metrics and the
    cache directory — one or the other, not both.  With
    ``checkpoint``, completed rounds persist to that path and a killed
    run resumes bit-identically (including the agent's own state).
    """
    if study is not None:
        if space is not None or simulate is not None:
            raise ValueError(
                "pass either a (space, simulate) pair or study=, not both"
            )
        study_obj = get_study(study)
        if workload is None:
            if not study_obj.workloads:
                raise ValueError(
                    f"study {study_obj.name!r} declares no workloads; "
                    "pass workload= explicitly"
                )
            workload = study_obj.workloads[0]
        space = study_obj.space
        simulate = make_simulate_fn(study_obj, workload)
    elif workload is not None:
        raise ValueError("workload= requires study=")
    if space is None or simulate is None:
        raise TypeError(
            "explore() needs a (space, simulate) pair or a study= name"
        )
    explorer = DesignSpaceExplorer(
        space,
        simulate,
        batch_size=batch_size,
        k=k,
        training=training,
        context=_resolve(seed, context),
        min_folds=min_folds,
        agent=agent,
    )
    return explorer.explore(
        target_error=target_error,
        max_simulations=max_simulations,
        initial_samples=initial_samples,
        checkpoint=checkpoint,
    )


def fit_ensemble(
    x: np.ndarray,
    y: np.ndarray,
    *,
    k: Optional[int] = None,
    training: Optional[TrainingConfig] = None,
    seed: Optional[int] = None,
    context: Optional[RunContext] = None,
    min_folds: Optional[int] = None,
    target_names: tuple = (),
) -> FitOutcome:
    """Fit one k-fold cross-validation ensemble on encoded samples.

    ``x`` is a feature matrix (e.g. rows of :func:`predict_space`'s
    design matrix), ``y`` the raw simulated targets; rows with
    non-finite targets are masked out and reported on the estimate.
    A 2-D ``y`` with matching ``target_names`` fits a multi-target
    ensemble whose estimate carries a per-target breakdown
    (``estimate.for_target(name)``); the first column is the primary
    target.
    Returns a :class:`FitOutcome` whose ``ensemble.predictor`` is the
    trained :class:`EnsemblePredictor` and whose ``estimate`` is the
    cross-validation :class:`ErrorEstimate`.
    """
    return fit_cv_round(
        x,
        y,
        k=k,
        training=training,
        min_folds=min_folds,
        context=_resolve(seed, context),
        target_names=tuple(target_names),
    )


def predict_space(
    predictor: EnsemblePredictor,
    space: Union[DesignSpace, ParameterEncoder],
    *,
    chunk_size: Optional[int] = DEFAULT_PREDICT_CHUNK,
) -> np.ndarray:
    """Predict every point of ``space``, in enumeration order.

    Uses the cached immutable design matrix of the space and the
    chunked batch-predict kernel, so repeated calls (and other
    consumers of the same space) share one encoding pass.  ``space``
    may also be a :class:`~repro.core.encoding.ParameterEncoder` when a
    non-default cardinal encoding is in play.
    """
    if isinstance(space, ParameterEncoder):
        matrix = space.encode_space()
    else:
        matrix = design_matrix(space)
    return predictor.predict(matrix, chunk_size=chunk_size)
