"""Search agents: the pluggable strategies of the exploration loop.

Five strategies compete on the paper's own metric, simulations-to-error
(the strategy shootout in ``benchmarks/test_bench_strategies.py``):

* :class:`RandomAgent` — the paper's procedure: uniform random batches.
  Bit-identical to the pre-search-layer explorer (locked by tests).
* :class:`CommitteeAgent` — query-by-committee active learning: the
  disagreement (variance) among the cross-validation ensemble's members
  is the acquisition signal, scored over a random candidate pool.
* :class:`EvolutionaryAgent` — mutation/crossover over the per-parameter
  value-index tuples of the best configurations seen so far.
* :class:`SimulatedAnnealingAgent` — a Metropolis walk over design-space
  neighborhoods with a geometric temperature schedule; its walker state
  round-trips through checkpoints.
* :class:`BayesOptAgent` — simple Bayesian optimization using the
  ensemble's mean/variance as the surrogate (upper-confidence-bound
  acquisition over a random pool).

Every agent draws randomness only from the ``rng`` it is handed (the
run context's seeded generator), respects design-space constraints (a
candidate is kept only if ``space.index_of`` accepts it), and never
proposes an already-sampled or duplicate point.  When a strategy cannot
fill a batch from its own mechanism it tops up with uniform random
draws, narrated as an ``agent.fallback`` telemetry event — degrading to
the paper's baseline beats stalling.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Set, Union

import numpy as np

from ..designspace.space import Config, DesignSpace
from .protocol import Agent, Observation

AgentLike = Union[str, Agent, None]


def _random_indices(
    space: DesignSpace,
    n: int,
    rng: np.random.Generator,
    exclude: Set[int],
) -> List[int]:
    """Up to ``n`` uniform random unsampled indices (never raises on
    an exhausted space — returns what remains)."""
    n = min(n, len(space) - len(exclude))
    if n <= 0:
        return []
    return [int(i) for i in space.sample_indices(n, rng, exclude)]


def _fallback(
    agent: Agent,
    observation: Observation,
    n: int,
    rng: np.random.Generator,
    exclude: Set[int],
    reason: str,
) -> List[int]:
    """Uniform random top-up, narrated so a run's telemetry shows when a
    strategy degraded to the baseline."""
    observation.telemetry.emit(
        "agent.fallback", agent=agent.name, reason=reason, n=n
    )
    observation.metrics.inc("agent.fallbacks")
    return _random_indices(observation.space, n, rng, exclude)


def _index_if_valid(space: DesignSpace, config: Config) -> Optional[int]:
    """The enumeration index of ``config``, or ``None`` when it violates
    the space (unknown value or failed constraint)."""
    try:
        return space.index_of(config)
    except ValueError:
        return None


def committee_select(
    space: DesignSpace,
    encoder: object,
    n: int,
    rng: np.random.Generator,
    exclude: Sequence[int],
    predictor: object,
    *,
    pool_size: int = 2000,
    exploration_fraction: float = 0.25,
) -> List[int]:
    """Variance-maximizing batch selection over a random candidate pool.

    The query-by-committee core of :class:`CommitteeAgent`.  It is
    total over its edge cases:

    * ``n`` is capped to the unsampled remainder of the space, so an
      ``exploration_fraction`` of 1.0 (or a nearly exhausted space) can
      no longer ask ``sample_indices`` for more points than exist;
    * the random and committee picks exclude each other and everything
      in ``exclude``, so a batch never duplicates an already-sampled
      configuration (regression-tested).

    Returns ``min(n, remaining)`` distinct unsampled indices.
    """
    excluded = set(exclude)
    n = min(n, len(space) - len(excluded))
    if n <= 0:
        return []
    if predictor is None:
        # first round: no committee yet, fall back to random
        return _random_indices(space, n, rng, excluded)

    n_random = min(n, int(round(n * exploration_fraction)))
    n_active = n - n_random
    chosen: List[int] = []
    if n_random:
        chosen.extend(_random_indices(space, n_random, rng, excluded))
        excluded.update(chosen)

    if n_active:
        pool_want = min(pool_size + n_active, len(space) - len(excluded))
        pool = space.sample_indices(pool_want, rng, excluded)
        # the cached design matrix turns pool scoring into a row
        # gather plus one chunked batch-predict per round
        variance = predictor.prediction_variance(
            encoder.encode_space()[np.asarray(pool, dtype=np.intp)]
        )
        ranked = np.argsort(variance)[::-1]
        chosen.extend(int(pool[int(i)]) for i in ranked[:n_active])
    return chosen


class SearchAgent(Agent):
    """Convenience base class for the built-in agents."""


class RandomAgent(SearchAgent):
    """The paper's strategy: uniform random batches without replacement.

    Makes exactly one ``space.sample_indices`` call per round — the same
    generator consumption as the pre-search-layer explorer, which is
    what keeps default trajectories bit-identical across the refactor.
    """

    name = "random"

    def propose(
        self,
        observation: Observation,
        batch_size: int,
        rng: np.random.Generator,
    ) -> List[Config]:
        """One uniform draw of ``batch_size`` unsampled configurations
        (capped to the remaining space, so exhaustion ends the run
        instead of raising)."""
        space = observation.space
        n = min(batch_size, observation.n_remaining)
        if n <= 0:
            return []
        indices = space.sample_indices(
            n, rng, observation.sampled_indices
        )
        return [space.config_at(int(i)) for i in indices]


class CommitteeAgent(SearchAgent):
    """Query-by-committee active learning.

    Parameters
    ----------
    pool_size:
        Candidate points scored per batch (scoring the entire space
        every round would be wasteful; a random pool preserves
        exploration).
    exploration_fraction:
        Fraction of each batch still drawn uniformly at random,
        guarding against the committee's blind spots.
    """

    name = "committee"

    def __init__(
        self, pool_size: int = 2000, exploration_fraction: float = 0.25
    ):
        if pool_size <= 0:
            raise ValueError(f"pool_size must be positive, got {pool_size}")
        if not 0.0 <= exploration_fraction <= 1.0:
            raise ValueError("exploration_fraction must be in [0, 1]")
        self.pool_size = pool_size
        self.exploration_fraction = exploration_fraction

    def propose(
        self,
        observation: Observation,
        batch_size: int,
        rng: np.random.Generator,
    ) -> List[Config]:
        """Highest-variance pool points, plus the exploration fraction."""
        space = observation.space
        if observation.predictor is None:
            indices = _fallback(
                self, observation, batch_size, rng,
                set(observation.sampled_indices),
                reason="no committee trained yet",
            )
        else:
            indices = committee_select(
                space,
                observation.encoder,
                batch_size,
                rng,
                observation.sampled_indices,
                observation.predictor,
                pool_size=self.pool_size,
                exploration_fraction=self.exploration_fraction,
            )
        return [space.config_at(i) for i in indices]


class EvolutionaryAgent(SearchAgent):
    """Genetic search over per-parameter value-index tuples.

    Each round the top ``parent_fraction`` of evaluated configurations
    (by target value) become parents; offspring are built by uniform
    crossover of two parents' index tuples plus per-gene mutation to a
    random value index.  Offspring that violate the space's constraints
    or revisit sampled points are discarded; if the mechanism cannot
    fill the batch within its try budget, the remainder is drawn
    uniformly at random (``agent.fallback``).

    Parameters
    ----------
    parent_fraction:
        Fraction of evaluated points used as parents (at least two).
    mutation_rate:
        Per-gene probability of mutating to a uniform random value.
    tries_per_point:
        Offspring attempts allowed per requested point before topping
        up randomly.
    maximize:
        Whether larger targets are fitter (IPC: yes).
    """

    name = "evolutionary"

    def __init__(
        self,
        parent_fraction: float = 0.25,
        mutation_rate: float = 0.15,
        tries_per_point: int = 20,
        maximize: bool = True,
    ):
        if not 0.0 < parent_fraction <= 1.0:
            raise ValueError("parent_fraction must be in (0, 1]")
        if not 0.0 <= mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in [0, 1]")
        if tries_per_point <= 0:
            raise ValueError(
                f"tries_per_point must be positive, got {tries_per_point}"
            )
        self.parent_fraction = parent_fraction
        self.mutation_rate = mutation_rate
        self.tries_per_point = tries_per_point
        self.maximize = maximize

    def propose(
        self,
        observation: Observation,
        batch_size: int,
        rng: np.random.Generator,
    ) -> List[Config]:
        """Crossover/mutation offspring of the fittest evaluated points."""
        space = observation.space
        taken = set(observation.sampled_indices)
        n = min(batch_size, len(space) - len(taken))
        if n <= 0:
            return []
        if len(observation.targets) < 2:
            indices = _fallback(
                self, observation, n, rng, taken,
                reason="fewer than two evaluated points",
            )
            return [space.config_at(i) for i in indices]

        fitness = np.asarray(observation.targets, dtype=float)
        order = np.argsort(fitness)
        if self.maximize:
            order = order[::-1]
        n_parents = max(2, int(round(len(order) * self.parent_fraction)))
        parents = [
            space.config_to_indices(
                space.config_at(observation.sampled_indices[int(i)])
            )
            for i in order[:n_parents]
        ]
        cardinalities = [p.cardinality for p in space.parameters]

        chosen: List[int] = []
        seen = set(taken)
        for _ in range(n * self.tries_per_point):
            if len(chosen) >= n:
                break
            a = parents[int(rng.integers(len(parents)))]
            b = parents[int(rng.integers(len(parents)))]
            child = [
                ai if rng.random() < 0.5 else bi for ai, bi in zip(a, b)
            ]
            for gene, cardinality in enumerate(cardinalities):
                if rng.random() < self.mutation_rate:
                    child[gene] = int(rng.integers(cardinality))
            index = _index_if_valid(space, space.indices_to_config(child))
            if index is None or index in seen:
                continue
            seen.add(index)
            chosen.append(index)
        if len(chosen) < n:
            chosen.extend(
                _fallback(
                    self, observation, n - len(chosen), rng, seen,
                    reason="offspring budget exhausted",
                )
            )
        return [space.config_at(i) for i in chosen]


class SimulatedAnnealingAgent(SearchAgent):
    """Metropolis walk over design-space neighborhoods.

    The walker keeps one *current* configuration.  Between rounds it
    digests the newly simulated results: a better point is always
    adopted; a worse one is adopted with probability
    ``exp(delta / temperature)`` (delta normalized by the observed
    target span), and the temperature decays geometrically per round.
    Proposals are neighbors of the current point — each parameter steps
    to an adjacent value index with probability ``step_probability``
    (at least one always moves) — so early rounds roam and late rounds
    refine.  Constraint-violating or already-sampled neighbors are
    retried; leftovers fall back to uniform random (``agent.fallback``).

    The walker (current point, temperature, digest cursor) is exposed
    through ``state_dict`` / ``load_state_dict``, so a killed run
    resumes bit-identically from the checkpoint's agent-state slot.
    """

    name = "annealing"

    def __init__(
        self,
        initial_temperature: float = 0.5,
        cooling: float = 0.85,
        step_probability: float = 0.4,
        tries_per_point: int = 20,
        maximize: bool = True,
    ):
        if initial_temperature <= 0:
            raise ValueError(
                f"initial_temperature must be positive, got "
                f"{initial_temperature}"
            )
        if not 0.0 < cooling <= 1.0:
            raise ValueError("cooling must be in (0, 1]")
        if not 0.0 < step_probability <= 1.0:
            raise ValueError("step_probability must be in (0, 1]")
        if tries_per_point <= 0:
            raise ValueError(
                f"tries_per_point must be positive, got {tries_per_point}"
            )
        self.initial_temperature = initial_temperature
        self.cooling = cooling
        self.step_probability = step_probability
        self.tries_per_point = tries_per_point
        self.maximize = maximize
        self._current: Optional[int] = None
        self._current_value: Optional[float] = None
        self._temperature = initial_temperature
        self._n_seen = 0

    # -- checkpointable walker state -----------------------------------
    def state_dict(self) -> Dict[str, object]:
        """The walker: current point/value, temperature, digest cursor."""
        return {
            "current": self._current,
            "current_value": self._current_value,
            "temperature": self._temperature,
            "n_seen": self._n_seen,
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore a checkpointed walker (empty state keeps defaults)."""
        if not state:
            return
        unknown = set(state) - {
            "current", "current_value", "temperature", "n_seen"
        }
        if unknown:
            raise ValueError(
                f"{self.name!r} agent state has unknown keys "
                f"{sorted(unknown)}"
            )
        self._current = state.get("current")
        self._current_value = state.get("current_value")
        self._temperature = float(state.get("temperature", self.initial_temperature))
        self._n_seen = int(state.get("n_seen", 0))

    def _digest(
        self, observation: Observation, rng: np.random.Generator
    ) -> None:
        """Metropolis-accept the results simulated since the last round."""
        new = list(
            zip(observation.sampled_indices, observation.targets)
        )[self._n_seen:]
        if not new:
            return
        targets = np.asarray(observation.targets, dtype=float)
        finite = targets[np.isfinite(targets)]
        span = float(finite.max() - finite.min()) if finite.size else 0.0
        span = span or 1.0
        sign = 1.0 if self.maximize else -1.0
        for index, value in new:
            if not math.isfinite(value):
                continue
            if self._current_value is None:
                accept = True
            else:
                delta = sign * (value - self._current_value) / span
                accept = delta >= 0 or rng.random() < math.exp(
                    delta / max(self._temperature, 1e-9)
                )
            if accept:
                self._current = int(index)
                self._current_value = float(value)
        self._temperature *= self.cooling
        self._n_seen = len(observation.sampled_indices)

    def _neighbor(
        self,
        space: DesignSpace,
        current: Sequence[int],
        rng: np.random.Generator,
    ) -> Config:
        """Perturb the current index tuple by ±1 steps (clamped)."""
        child = list(current)
        moved = False
        for gene, parameter in enumerate(space.parameters):
            if rng.random() >= self.step_probability:
                continue
            step = 1 if rng.random() < 0.5 else -1
            child[gene] = min(
                max(child[gene] + step, 0), parameter.cardinality - 1
            )
            moved = moved or child[gene] != current[gene]
        if not moved:
            gene = int(rng.integers(len(child)))
            step = 1 if rng.random() < 0.5 else -1
            cardinality = space.parameters[gene].cardinality
            child[gene] = min(max(child[gene] + step, 0), cardinality - 1)
        return space.indices_to_config(child)

    def propose(
        self,
        observation: Observation,
        batch_size: int,
        rng: np.random.Generator,
    ) -> List[Config]:
        """Digest new results, then propose neighbors of the current point."""
        space = observation.space
        taken = set(observation.sampled_indices)
        n = min(batch_size, len(space) - len(taken))
        if n <= 0:
            return []
        self._digest(observation, rng)
        if self._current is None:
            indices = _fallback(
                self, observation, n, rng, taken,
                reason="no accepted point yet",
            )
            return [space.config_at(i) for i in indices]

        current = space.config_to_indices(space.config_at(self._current))
        chosen: List[int] = []
        seen = set(taken)
        for _ in range(n * self.tries_per_point):
            if len(chosen) >= n:
                break
            index = _index_if_valid(
                space, self._neighbor(space, current, rng)
            )
            if index is None or index in seen:
                continue
            seen.add(index)
            chosen.append(index)
        if len(chosen) < n:
            chosen.extend(
                _fallback(
                    self, observation, n - len(chosen), rng, seen,
                    reason="neighborhood exhausted",
                )
            )
        return [space.config_at(i) for i in chosen]


class BayesOptAgent(SearchAgent):
    """Simple Bayesian optimization on the ensemble surrogate.

    The cross-validation ensemble already provides a posterior-like
    surrogate — ``predict`` for the mean, ``prediction_variance`` for
    member disagreement — so acquisition is one upper-confidence-bound
    pass, ``mean + kappa * sqrt(variance)``, over a random candidate
    pool (negated mean when minimizing).  Before the first ensemble
    exists the batch is uniform random (``agent.fallback``).

    Where :class:`CommitteeAgent` chases model *uncertainty* alone,
    this agent balances exploiting predicted-good regions against
    exploring uncertain ones via ``kappa``.
    """

    name = "bayesopt"

    def __init__(
        self, pool_size: int = 2000, kappa: float = 2.0,
        maximize: bool = True,
    ):
        if pool_size <= 0:
            raise ValueError(f"pool_size must be positive, got {pool_size}")
        if kappa < 0:
            raise ValueError(f"kappa must be non-negative, got {kappa}")
        self.pool_size = pool_size
        self.kappa = kappa
        self.maximize = maximize

    def propose(
        self,
        observation: Observation,
        batch_size: int,
        rng: np.random.Generator,
    ) -> List[Config]:
        """Top-``batch_size`` pool points by upper confidence bound."""
        space = observation.space
        taken = set(observation.sampled_indices)
        n = min(batch_size, len(space) - len(taken))
        if n <= 0:
            return []
        if observation.predictor is None:
            indices = _fallback(
                self, observation, n, rng, taken,
                reason="no surrogate trained yet",
            )
            return [space.config_at(i) for i in indices]

        pool_want = min(self.pool_size + n, len(space) - len(taken))
        pool = space.sample_indices(pool_want, rng, taken)
        x = observation.encoder.encode_space()[np.asarray(pool, dtype=np.intp)]
        mean = observation.predictor.predict(x)
        variance = observation.predictor.prediction_variance(x)
        spread = self.kappa * np.sqrt(np.maximum(variance, 0.0))
        acquisition = mean + spread if self.maximize else spread - mean
        ranked = np.argsort(acquisition)[::-1]
        return [
            space.config_at(int(pool[int(i)])) for i in ranked[:n]
        ]


#: registry behind ``agent="name"`` (api, CLI ``--agent``, benchmarks)
AGENTS: Dict[str, Callable[[], SearchAgent]] = {
    RandomAgent.name: RandomAgent,
    CommitteeAgent.name: CommitteeAgent,
    EvolutionaryAgent.name: EvolutionaryAgent,
    SimulatedAnnealingAgent.name: SimulatedAnnealingAgent,
    BayesOptAgent.name: BayesOptAgent,
}


def make_agent(agent: AgentLike) -> Agent:
    """Resolve ``agent=`` inputs: ``None`` (the paper's random strategy),
    a registry name from :data:`AGENTS`, or an agent instance."""
    if agent is None:
        return RandomAgent()
    if isinstance(agent, str):
        try:
            factory = AGENTS[agent]
        except KeyError:
            raise ValueError(
                f"unknown agent {agent!r}; choose from "
                f"{', '.join(sorted(AGENTS))}"
            ) from None
        return factory()
    if callable(getattr(agent, "propose", None)):
        return agent
    raise TypeError(
        "agent must be an agent name, an object with propose(), or None; "
        f"got {type(agent).__name__}"
    )
