"""The Agent/Environment protocol of the search layer.

The paper's procedure (Section 3.3) hard-codes one search strategy —
uniform random incremental sampling.  Framing design-space exploration
the way ArchGym does, as an *agent* interacting with a simulator-backed
*environment*, turns the strategy into a plug-in: each round the
environment produces an :class:`Observation` (everything sampled so
far plus the current cross-validation ensemble and its error estimate)
and asks the agent to :meth:`~Agent.propose` the next batch of
configurations.

This module is deliberately import-light: it depends only on
``repro.designspace`` and ``repro.obs``, never on ``repro.core``, so
agents (which need nothing but an observation) stay free of the
core ↔ search import cycle.  Everything that *does* need the core —
backends, fitting, checkpoints — lives in
:mod:`repro.search.environment`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..designspace.space import Config, DesignSpace
from ..obs.metrics import METRICS, MetricsRegistry
from ..obs.telemetry import NULL_TELEMETRY, RunTelemetry

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids core imports
    import numpy as np

    from ..core.encoding import ParameterEncoder
    from ..core.ensemble import EnsemblePredictor
    from ..core.error import ErrorEstimate

#: the paper collects simulation results in batches of 50
DEFAULT_BATCH_SIZE = 50

#: version of the agent-state slot in :class:`ExplorerCheckpoint`;
#: bump when the ``{"version", "state"}`` envelope changes incompatibly
AGENT_STATE_VERSION = 1


class SearchError(RuntimeError):
    """An agent proposed something the environment cannot accept.

    Raised when a proposal falls outside the design space (constraint
    violation, unknown parameter value) or would re-simulate an
    already-sampled point — both protocol violations by the agent, not
    recoverable conditions.
    """


@dataclass(frozen=True)
class Observation:
    """What an agent sees before proposing a round's batch.

    Attributes
    ----------
    space:
        The design space under exploration.
    encoder:
        Feature encoder of that space (backed by the process-wide
        cached design matrix, so ``encoder.encode_space()`` is a cheap
        lookup after the first call).
    sampled_indices:
        Design-space indices of every point simulated so far, in
        sampling order.  Proposals must avoid these.
    targets:
        Simulated results for those points, aligned with
        ``sampled_indices``.
    round:
        Completed training rounds (0 before the first batch).
    estimate:
        Cross-validation :class:`~repro.core.error.ErrorEstimate` of
        the latest round; ``None`` before the first round.
    predictor:
        The latest trained
        :class:`~repro.core.ensemble.EnsemblePredictor`; ``None``
        before the first round.  Its ``predict`` /
        ``prediction_variance`` are the surrogate mean/uncertainty
        model-guided agents build acquisitions from.
    telemetry / metrics:
        Observability hooks for ``agent.*`` events and counters
        (disabled no-ops by default).
    """

    space: DesignSpace
    encoder: "ParameterEncoder"
    sampled_indices: Tuple[int, ...]
    targets: Tuple[float, ...]
    round: int = 0
    estimate: Optional["ErrorEstimate"] = None
    predictor: Optional["EnsemblePredictor"] = None
    telemetry: RunTelemetry = field(default=NULL_TELEMETRY, repr=False)
    metrics: MetricsRegistry = field(default=METRICS, repr=False)

    @property
    def n_sampled(self) -> int:
        return len(self.sampled_indices)

    @property
    def n_remaining(self) -> int:
        """Unsampled points left in the space."""
        return len(self.space) - len(set(self.sampled_indices))


class Agent:
    """Protocol for search strategies (structural; subclassing optional).

    An agent is asked once per round for the next batch; it must return
    **valid, unsampled, mutually distinct** configurations of
    ``observation.space`` (the environment enforces this and raises
    :class:`SearchError` on violations).  All randomness must come from
    the ``rng`` argument — the run context's seeded generator — so a
    seeded run replays bit-identically and checkpoint resume works.

    Stateful agents (e.g. simulated annealing) round-trip their state
    through ``state_dict`` / ``load_state_dict``; the environment
    persists it in the checkpoint's versioned agent-state slot, as JSON.
    """

    #: registry name; also recorded in checkpoints for compatibility checks
    name: str = "agent"

    def propose(
        self,
        observation: Observation,
        batch_size: int,
        rng: "np.random.Generator",
    ) -> List[Config]:
        """Return up to ``batch_size`` new configurations to simulate.

        Returning fewer (even zero) configurations signals that the
        agent cannot reach any more unsampled points; the environment
        then stops the run rather than spinning.
        """
        raise NotImplementedError

    def state_dict(self) -> Dict[str, object]:
        """Checkpointable state; stateless agents return ``{}``."""
        return {}

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore ``state_dict`` output; stateless agents accept ``{}``."""
        if state:
            raise ValueError(
                f"{self.name!r} agent carries no state, got keys "
                f"{sorted(state)}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
