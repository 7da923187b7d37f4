"""The ``repro.search`` layer: agents, the environment, and the refactor lock.

Three families of guarantees:

* **Refactor lock** — the default ``RandomAgent`` explorer reproduces the
  pre-search-layer loop (reimplemented inline here) bit-for-bit.
* **Protocol correctness** — every agent proposes only valid, unsampled,
  distinct points; the environment rejects protocol violations loudly;
  stateful agents round-trip through the versioned checkpoint slot.
* **Edge cases** — the query-by-committee core does not crash on
  ``exploration_fraction`` extremes, tiny candidate pools, or a nearly
  exhausted space, and ``CommitteeAgent`` falls back to random draws
  before a committee exists.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.api as api
from repro.core import CrossValidationEnsemble
from repro.core.backend import as_backend
from repro.core.checkpoint import CheckpointError
from repro.core.context import RunContext
from repro.core.encoding import ParameterEncoder
from repro.core.explorer import DesignSpaceExplorer
from repro.core.fitting import evaluate_batch, fit_cv_round
from repro.obs.telemetry import RunTelemetry
from repro.search import (
    AGENTS,
    CommitteeAgent,
    Environment,
    RandomAgent,
    SearchError,
    SimulatedAnnealingAgent,
    committee_select,
    make_agent,
)


def smooth_simulator(config):
    """A positive, smooth function of the tiny space's parameters."""
    size_term = {8: 0.4, 16: 0.55, 32: 0.68, 64: 0.75}[config["size"]]
    ways_term = {1: 0.0, 2: 0.05, 4: 0.08}[config["ways"]]
    policy_term = 0.04 if config["policy"] == "WB" else 0.0
    prefetch_term = 0.03 if config["prefetch"] else 0.0
    return size_term + ways_term + policy_term + prefetch_term


class _InterruptedSimulator:
    """Dies with a non-retryable error after ``fail_after`` evaluations."""

    def __init__(self, fail_after):
        self.calls = 0
        self.fail_after = fail_after

    def __call__(self, config):
        self.calls += 1
        if self.calls > self.fail_after:
            raise RuntimeError("host preempted")
        return smooth_simulator(config)


# ----------------------------------------------------------------------
# the refactor lock: new loop == old loop, bit for bit
# ----------------------------------------------------------------------
def _legacy_explore(
    space, simulate, *, batch_size, k, training, target_error,
    max_simulations, seed,
):
    """The pre-search-layer exploration loop, reimplemented verbatim.

    Sample -> evaluate -> fit, all drawing from one context generator in
    that order — the exact RNG consumption of the old
    ``DesignSpaceExplorer.explore`` body.  If the refactored driver ever
    reorders a generator draw, the trajectory comparison below breaks.
    """
    context = RunContext.seeded(seed)
    backend = as_backend(simulate)
    encoder = ParameterEncoder(space)
    matrix = encoder.encode_space()
    sampled, targets, means = [], [], []
    predictor = None
    converged = False
    while not converged and len(sampled) < max_simulations:
        want = min(batch_size, max_simulations - len(sampled))
        indices = space.sample_indices(want, context.rng, sampled)
        configs = [space.config_at(int(i)) for i in indices]
        values = evaluate_batch(backend, configs, context=context)
        sampled.extend(int(i) for i in indices)
        targets.extend(float(v) for v in values)
        outcome = fit_cv_round(
            matrix[np.asarray(sampled, dtype=np.intp)],
            np.asarray(targets),
            k=k, training=training, context=context,
        )
        predictor = outcome.ensemble.predictor
        means.append(outcome.estimate.mean)
        converged = outcome.estimate.meets(target_error)
    return sampled, targets, means, predictor


class TestRefactorLock:
    def test_default_agent_matches_legacy_loop(self, tiny_space, fast_training):
        """The paper's procedure survived the refactor bit-identically."""
        sampled, targets, means, predictor = _legacy_explore(
            tiny_space, smooth_simulator, batch_size=8, k=4,
            training=fast_training, target_error=1.0,
            max_simulations=32, seed=77,
        )
        result = api.explore(
            tiny_space, smooth_simulator, batch_size=8, k=4,
            training=fast_training, target_error=1.0,
            max_simulations=32, seed=77,
        )
        assert result.sampled_indices == sampled
        assert result.primary_targets == targets
        assert [r.estimate.mean for r in result.rounds] == means
        np.testing.assert_array_equal(
            result.predict_space(),
            predictor.predict(ParameterEncoder(tiny_space).encode_space()),
        )

    def test_sampler_kwarg_removed(self, tiny_space):
        """The pre-search-layer ``sampler=`` hook is gone;
        ``agent=CommitteeAgent(...)`` replaces it."""
        with pytest.raises(TypeError, match="sampler"):
            DesignSpaceExplorer(
                tiny_space, smooth_simulator, sampler=lambda *args: [],
            )


# ----------------------------------------------------------------------
# every agent respects the proposal protocol end to end
# ----------------------------------------------------------------------
class TestAgentsEndToEnd:
    @pytest.mark.parametrize("name", sorted(AGENTS))
    def test_agent_explores_without_duplicates(
        self, name, tiny_space, fast_training
    ):
        result = api.explore(
            tiny_space, smooth_simulator, agent=name, batch_size=8, k=4,
            training=fast_training, target_error=0.001,
            max_simulations=24, seed=11,
        )
        assert len(result.sampled_indices) == 24
        assert len(set(result.sampled_indices)) == 24
        assert all(0 <= i < len(tiny_space) for i in result.sampled_indices)

    @pytest.mark.parametrize("name", sorted(AGENTS))
    def test_agent_is_deterministic_at_equal_seed(
        self, name, tiny_space, fast_training
    ):
        def run():
            return api.explore(
                tiny_space, smooth_simulator, agent=name, batch_size=8,
                k=4, training=fast_training, target_error=0.001,
                max_simulations=16, seed=23,
            )

        first, second = run(), run()
        assert first.sampled_indices == second.sampled_indices
        assert first.primary_targets == second.primary_targets

    def test_agents_can_exhaust_the_space(self, tiny_space, fast_training):
        """Budget beyond the space size: the run stops gracefully once
        every point is simulated instead of crashing in sample_indices."""
        result = api.explore(
            tiny_space, smooth_simulator, batch_size=16, k=4,
            training=fast_training, target_error=0.0001,
            max_simulations=len(tiny_space) + 16, seed=2,
        )
        assert sorted(result.sampled_indices) == list(range(len(tiny_space)))


class TestMakeAgent:
    def test_default_is_random(self):
        assert isinstance(make_agent(None), RandomAgent)

    def test_registry_names_resolve(self):
        for name in AGENTS:
            assert make_agent(name).name == name

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="annealing"):
            make_agent("gradient-descent")

    def test_instances_pass_through(self):
        agent = CommitteeAgent(pool_size=9)
        assert make_agent(agent) is agent

    def test_non_agents_rejected(self):
        with pytest.raises(TypeError):
            make_agent(42)


# ----------------------------------------------------------------------
# stateful agents: the versioned checkpoint slot
# ----------------------------------------------------------------------
class TestAgentState:
    def test_annealing_state_round_trips(self):
        agent = SimulatedAnnealingAgent()
        agent._current = (1, 0, 1, 0)
        agent._current_value = 0.8
        agent._temperature = 0.25
        agent._n_seen = 12
        clone = SimulatedAnnealingAgent()
        clone.load_state_dict(agent.state_dict())
        assert clone.state_dict() == agent.state_dict()

    def test_annealing_rejects_unknown_state_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            SimulatedAnnealingAgent().load_state_dict({"momentum": 0.9})

    def test_stateless_agents_reject_foreign_state(self):
        with pytest.raises(ValueError, match="no state"):
            RandomAgent().load_state_dict({"current": (0, 0)})

    def test_annealing_kill_resume_is_bit_identical(
        self, tiny_space, fast_training, tmp_path
    ):
        """A stateful agent's walker survives kill/resume: the resumed
        run reproduces the uninterrupted one exactly, which requires the
        agent-state slot (not just the RNG state) to round-trip."""
        def run(simulate, seed, checkpoint=None):
            explorer = DesignSpaceExplorer(
                tiny_space, simulate, batch_size=8, k=4,
                training=fast_training, context=RunContext.seeded(seed),
                agent="annealing",
            )
            return explorer.explore(
                target_error=0.001, max_simulations=24, checkpoint=checkpoint,
            )

        baseline = run(smooth_simulator, seed=3)
        assert len(baseline.rounds) == 3

        path = tmp_path / "anneal.ckpt"
        dying = _InterruptedSimulator(fail_after=18)  # dies in round 3
        with pytest.raises(RuntimeError, match="preempted"):
            run(dying, seed=3, checkpoint=path)
        assert path.exists()

        resumed = run(smooth_simulator, seed=99, checkpoint=path)
        assert resumed.sampled_indices == baseline.sampled_indices
        assert resumed.primary_targets == baseline.primary_targets
        assert [r.estimate.mean for r in resumed.rounds] == [
            r.estimate.mean for r in baseline.rounds
        ]

    def test_resume_with_different_agent_rejected(
        self, tiny_space, fast_training, tmp_path
    ):
        """A checkpoint records which agent produced it; resuming under a
        different strategy would silently change the trajectory."""
        path = tmp_path / "explore.ckpt"
        dying = _InterruptedSimulator(fail_after=10)
        with pytest.raises(RuntimeError, match="preempted"):
            DesignSpaceExplorer(
                tiny_space, dying, batch_size=8, k=4,
                training=fast_training, context=RunContext.seeded(3),
            ).explore(target_error=0.001, max_simulations=24, checkpoint=path)

        with pytest.raises(CheckpointError, match="agent"):
            DesignSpaceExplorer(
                tiny_space, smooth_simulator, batch_size=8, k=4,
                training=fast_training, context=RunContext.seeded(3),
                agent="annealing",
            ).explore(target_error=0.001, max_simulations=24, checkpoint=path)


# ----------------------------------------------------------------------
# the environment enforces the proposal protocol
# ----------------------------------------------------------------------
class TestEnvironment:
    def _env(self, space, **kwargs):
        kwargs.setdefault("target_error", 1.0)
        kwargs.setdefault("max_simulations", 24)
        kwargs.setdefault("k", 4)
        return Environment(space, smooth_simulator, **kwargs)

    def test_rejects_out_of_space_proposals(self, tiny_space, fast_training):
        env = self._env(tiny_space, training=fast_training)
        bad = dict(tiny_space.config_at(0))
        bad["size"] = 128  # not a value of the size parameter
        with pytest.raises(SearchError, match="outside the design space"):
            env.step([bad])

    def test_rejects_resimulation(self, tiny_space, fast_training):
        env = self._env(tiny_space, training=fast_training)
        config = tiny_space.config_at(7)
        with pytest.raises(SearchError, match="already sampled"):
            env.step([config, config])

    def test_validates_run_bounds(self, tiny_space):
        with pytest.raises(ValueError, match="target_error"):
            self._env(tiny_space, target_error=0.0)
        with pytest.raises(ValueError, match="max_simulations"):
            self._env(tiny_space, max_simulations=2)

    def test_observation_reflects_progress(self, tiny_space, fast_training):
        env = self._env(tiny_space, training=fast_training)
        before = env.observe()
        assert before.round == 0
        assert before.n_sampled == 0
        assert before.n_remaining == len(tiny_space)
        assert before.predictor is None
        env.step([tiny_space.config_at(i) for i in range(8)])
        after = env.observe()
        assert after.round == 1
        assert after.n_sampled == 8
        assert after.estimate is not None
        assert after.predictor is not None


# ----------------------------------------------------------------------
# the query-by-committee core's edge cases (regression tests)
# ----------------------------------------------------------------------
class TestCommitteeSelect:
    @pytest.fixture()
    def trained(self, tiny_space, fast_training, rng):
        encoder = ParameterEncoder(tiny_space)
        x = encoder.encode_many(
            [tiny_space.config_at(i) for i in range(40)]
        )
        y = np.array(
            [smooth_simulator(tiny_space.config_at(i)) for i in range(40)]
        )
        ensemble = CrossValidationEnsemble(
            k=4, training=fast_training, context=RunContext.seeded(8)
        )
        ensemble.fit(x, y)
        return encoder, ensemble.predictor

    def test_full_exploration_fraction_no_longer_crashes(
        self, tiny_space, trained, rng
    ):
        """exploration_fraction=1.0 used to ask sample_indices for the
        random picks *and* a candidate pool on top, overrunning the
        space; now it simply returns n random unsampled points."""
        encoder, predictor = trained
        chosen = committee_select(
            tiny_space, encoder, 10, rng, list(range(30)), predictor,
            pool_size=2000, exploration_fraction=1.0,
        )
        assert len(chosen) == 10
        assert len(set(chosen)) == 10
        assert not set(chosen) & set(range(30))

    def test_batch_capped_to_remaining_space(self, tiny_space, trained, rng):
        encoder, predictor = trained
        sampled = list(range(len(tiny_space) - 3))
        for fraction in (0.0, 0.5, 1.0):
            chosen = committee_select(
                tiny_space, encoder, 10, rng, sampled, predictor,
                exploration_fraction=fraction,
            )
            assert sorted(chosen) == [
                len(tiny_space) - 3, len(tiny_space) - 2, len(tiny_space) - 1,
            ]

    def test_pool_smaller_than_batch(self, tiny_space, trained, rng):
        encoder, predictor = trained
        chosen = committee_select(
            tiny_space, encoder, 8, rng, list(range(20)), predictor,
            pool_size=2, exploration_fraction=0.0,
        )
        assert len(chosen) == 8
        assert len(set(chosen)) == 8
        assert not set(chosen) & set(range(20))

    def test_pure_committee_never_duplicates_sampled(
        self, tiny_space, trained, rng
    ):
        encoder, predictor = trained
        sampled = list(range(0, 40, 2))
        chosen = committee_select(
            tiny_space, encoder, 6, rng, sampled, predictor,
            exploration_fraction=0.0,
        )
        assert len(set(chosen)) == 6
        assert not set(chosen) & set(sampled)

    def test_exhausted_space_returns_empty(self, tiny_space, trained, rng):
        encoder, predictor = trained
        chosen = committee_select(
            tiny_space, encoder, 5, rng, list(range(len(tiny_space))),
            predictor,
        )
        assert chosen == []


class TestCommitteeAgent:
    def test_first_round_falls_back_to_random(
        self, tiny_space, fast_training, rng
    ):
        env = Environment(
            tiny_space, smooth_simulator, target_error=1.0,
            max_simulations=24, k=4, training=fast_training,
        )
        configs = CommitteeAgent().propose(env.observe(), 5, rng)
        assert len({tiny_space.index_of(config) for config in configs}) == 5
        chosen = committee_select(
            tiny_space, ParameterEncoder(tiny_space), 5, rng, [], None,
        )
        assert len(set(chosen)) == 5

    def test_later_rounds_use_committee(self, tiny_space, fast_training, rng):
        env = Environment(
            tiny_space, smooth_simulator, target_error=0.001,
            max_simulations=64, k=4, training=fast_training,
            context=RunContext(rng=rng),
        )
        env.step([tiny_space.config_at(i) for i in range(40)])
        agent = CommitteeAgent(pool_size=20, exploration_fraction=0.0)
        configs = agent.propose(env.observe(), 6, rng)
        chosen = {tiny_space.index_of(config) for config in configs}
        assert len(chosen) == 6
        assert not chosen & set(range(40))

    def test_validation(self):
        with pytest.raises(ValueError, match="pool_size"):
            CommitteeAgent(pool_size=0)
        with pytest.raises(ValueError, match="exploration_fraction"):
            CommitteeAgent(exploration_fraction=2.0)
        with pytest.raises(ValueError, match="exploration_fraction"):
            CommitteeAgent(exploration_fraction=-0.1)


# ----------------------------------------------------------------------
# telemetry: the search layer narrates its decisions
# ----------------------------------------------------------------------
class TestSearchTelemetry:
    def test_propose_events_and_fallbacks(self, tiny_space, fast_training):
        telemetry = RunTelemetry()
        context = RunContext(
            rng=np.random.default_rng(4), telemetry=telemetry,
        )
        result = api.explore(
            tiny_space, smooth_simulator, agent="committee", batch_size=8,
            k=4, training=fast_training, target_error=0.001,
            max_simulations=24, context=context,
        )
        starts = telemetry.events_named("explore.start")
        assert starts and starts[0].payload["agent"] == "committee"

        proposes = telemetry.events_named("search.propose")
        assert len(proposes) == len(result.rounds)
        assert all(e.payload["agent"] == "committee" for e in proposes)
        assert [e.payload["n_proposed"] for e in proposes] == [8, 8, 8]

        # round 1 has no trained committee yet: the fallback is narrated
        fallbacks = telemetry.events_named("agent.fallback")
        assert fallbacks
        assert fallbacks[0].payload["reason"] == "no committee trained yet"
