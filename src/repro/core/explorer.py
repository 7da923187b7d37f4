"""The incremental design-space exploration loop (Section 3.3's procedure).

1. identify the design parameters (a :class:`DesignSpace`);
2. simulate N random parameter combinations;
3. encode inputs/outputs;
4-6. train a k-fold cross-validation ensemble and estimate its error;
7. if the estimate is too high, simulate N more points and repeat;
8. predict any point by averaging the ensemble.

:class:`DesignSpaceExplorer` is a thin driver over the search layer
(:mod:`repro.search`): an :class:`~repro.search.environment.Environment`
owns simulation, fitting, convergence accounting and checkpointing,
while a pluggable agent proposes each round's batch.  The default
:class:`~repro.search.agents.RandomAgent` reproduces the paper's
uniform random sampling bit-for-bit; ``agent=`` selects committee /
evolutionary / annealing / Bayesian-optimization strategies (see
:data:`repro.search.AGENTS`).  Every round's batch is evaluated in one
:class:`~repro.core.backend.EvaluationBackend` call: in-process
through :class:`~repro.core.backend.SerialBackend` (plain simulate
callables are adapted automatically), with wrappers such as the
resilience layer composed around it.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

from ..designspace.space import Config, DesignSpace
from ..obs.metrics import MetricsRegistry
from ..obs.telemetry import RunTelemetry

# result types and the batch-size default moved to the search layer; they
# are re-exported here
from ..search.agents import AgentLike, make_agent
from ..search.protocol import DEFAULT_BATCH_SIZE
from ..search.result import ExplorationResult, ExplorationRound
from .backend import EvaluationBackend, as_backend
from .context import RunContext
from .crossval import DEFAULT_FOLDS
from .encoding import ParameterEncoder
from .supervise import poll_shutdown
from .training import TrainingConfig

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "DesignSpaceExplorer",
    "ExplorationResult",
    "ExplorationRound",
    "SimulateFn",
]

SimulateFn = Callable[[Config], float]


class DesignSpaceExplorer:
    """Incremental sampling + modeling of one design space.

    Parameters
    ----------
    space:
        The parameter space under study.
    simulate:
        What evaluates configurations: an
        :class:`~repro.core.backend.EvaluationBackend` (a
        :class:`~repro.core.backend.SerialBackend`, possibly wrapped
        by the resilience layer) or a plain
        ``Callable[[Config], float]``, which is adapted with
        :func:`~repro.core.backend.as_backend`.  The explorer always
        evaluates whole batches through the backend, so swapping
        backends never changes results — only where/how fast they are
        computed.  The explorer does not close backends it is given;
        the caller owns their lifetime.
    batch_size:
        Simulations added per round (the paper uses 50).
    k:
        Cross-validation folds.
    training:
        ANN hyperparameters (including each fold's divergence-restart
        budget, ``max_restarts``).
    min_folds:
        Folds that must survive training per round before the loop
        raises instead of degrading; ``None`` uses the ensemble default
        (see :data:`~repro.core.crossval.DEFAULT_MIN_FOLDS`).  Rounds
        with quarantined folds continue with a warning and report
        ``fold_coverage`` < 1 on their estimate.
    agent:
        Search strategy proposing each round's batch: a name from
        :data:`repro.search.AGENTS` (``"random"``, ``"committee"``,
        ``"evolutionary"``, ``"annealing"``, ``"bayesopt"``), an agent
        instance, or ``None`` for the paper's uniform random sampling.
        All agents draw from the context's generator, so seeded runs
        replay bit-identically.
    context:
        :class:`~repro.core.context.RunContext` carrying the seeded
        generator, telemetry, metrics and the cache directory;
        forwarded whole to the ensembles the loop trains.
        Each training round emits one ``search.propose`` and one
        ``explore.round`` event (cumulative simulation count, estimated
        error mean/SD, round wall time) on the context's telemetry,
        bracketed by ``explore.start`` and ``explore.done``; simulation
        and training wall time accumulate under the
        ``explore.simulate`` / ``explore.train`` phases.  The context's
        metrics receive the ``explore.simulations`` /
        ``search.proposals`` counters and round timers.
    """

    def __init__(
        self,
        space: DesignSpace,
        simulate: object,
        batch_size: int = DEFAULT_BATCH_SIZE,
        k: int = DEFAULT_FOLDS,
        training: Optional[TrainingConfig] = None,
        *,
        context: Optional[RunContext] = None,
        min_folds: Optional[int] = None,
        agent: AgentLike = None,
    ):
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.space = space
        self.simulate = simulate
        self.backend: EvaluationBackend = as_backend(simulate)
        self.batch_size = batch_size
        self.k = k
        self.training = training or TrainingConfig()
        self.min_folds = min_folds
        self.context = context if context is not None else RunContext()
        self.agent = make_agent(agent)
        self.encoder = ParameterEncoder(space)

    # -- context accessors (kept for pre-context call sites) -----------
    @property
    def rng(self) -> np.random.Generator:
        return self.context.rng

    @property
    def telemetry(self) -> RunTelemetry:
        return self.context.telemetry

    @property
    def metrics(self) -> MetricsRegistry:
        return self.context.metrics

    def explore(
        self,
        target_error: float,
        max_simulations: int,
        initial_samples: Optional[int] = None,
        checkpoint: Optional[Union[str, Path]] = None,
    ) -> ExplorationResult:
        """Run the loop until the CV estimate reaches ``target_error`` (mean
        percentage error) or ``max_simulations`` is exhausted.

        When ``checkpoint`` names a file, every completed round is
        persisted there atomically (sampled indices, targets, the
        trajectory, the trained predictor, the RNG bit-generator state
        and the agent's own state) and an existing compatible
        checkpoint is resumed from: the generator and agent state are
        restored to exactly the point the next batch would have been
        proposed at, so a killed-and-resumed run produces a
        bit-identical :class:`ExplorationResult` to an uninterrupted
        one.  The file is removed once the run completes.
        """
        # imported here, not at module top: the environment builds on
        # repro.core and importing it while this module initializes
        # would close an import cycle
        from ..search.environment import Environment

        env = Environment(
            self.space,
            self.backend,
            target_error=target_error,
            max_simulations=max_simulations,
            encoder=self.encoder,
            batch_size=self.batch_size,
            k=self.k,
            training=self.training,
            min_folds=self.min_folds,
            initial_samples=initial_samples,
            context=self.context,
            checkpoint=checkpoint,
        )
        agent = self.agent
        resumed_rounds = env.resume(agent)

        telemetry = self.telemetry
        explore_start = time.perf_counter()
        telemetry.emit(
            "explore.start",
            space=self.space.name,
            space_size=len(self.space),
            batch_size=self.batch_size,
            k=self.k,
            target_error=target_error,
            max_simulations=max_simulations,
            backend=type(self.backend).__name__,
            agent=agent.name,
            resumed_rounds=resumed_rounds,
        )

        while not env.done:
            round_start = time.perf_counter()
            want = env.next_batch_size()
            observation = env.observe()
            propose_start = time.perf_counter()
            configs = agent.propose(observation, want, self.rng)
            telemetry.emit(
                "search.propose",
                agent=agent.name,
                round=len(env.rounds) + 1,
                n_requested=want,
                n_proposed=len(configs),
                elapsed_s=time.perf_counter() - propose_start,
            )
            self.metrics.inc("search.proposals", len(configs))
            if not configs:
                # the agent cannot reach any more unsampled points;
                # stop with what the completed rounds learned
                env.exhausted = True
                break
            round_ = env.step(configs)
            env.save(agent)
            # the cooperative-shutdown safe point: the round just
            # completed and its checkpoint is on disk, so honouring a
            # SIGTERM here (campaign/serve workers install the handler)
            # loses nothing — the relaunched attempt resumes from this
            # exact round
            if not env.done:
                poll_shutdown()
            round_elapsed = time.perf_counter() - round_start
            self.metrics.observe("explore.round", round_elapsed)
            telemetry.emit(
                "explore.round",
                round=len(env.rounds),
                n_new=len(configs),
                n_simulations=env.n_simulations,
                error_mean=round_.estimate.mean,
                error_std=round_.estimate.std,
                fold_coverage=round_.estimate.fold_coverage,
                elapsed_s=round_elapsed,
            )

        telemetry.emit(
            "explore.done",
            converged=env.converged,
            n_simulations=env.n_simulations,
            n_rounds=len(env.rounds),
            elapsed_s=time.perf_counter() - explore_start,
        )
        env.finish()
        return env.result()
