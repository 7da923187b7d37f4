"""The cache-replacement study: policies, phased workloads, multi-target API.

Three layers under test:

* :mod:`repro.memory.policies` — the flat-loop replacement-policy
  simulators, held against hand-computed hit/miss sequences, the
  Belady OPT oracle bound, the detailed LRU ``Cache``, the per-set
  classes of ``tests/reference_policies.py`` and a digest of the
  study's hit rates;
* the phased synthetic workloads and the ``cache-policy`` design space
  (config/index round-trips, one-hot encoding bounds under a
  policy-dominated space);
* the redesigned multi-target ``Study`` surface: ``explore(study=...)``
  end-to-end with every registered agent, per-target error estimates,
  the removed scalar spellings, and the bit-identity lock on the two
  pre-existing scalar studies.
"""

import functools
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tests.reference_policies import LRUSet, reference_simulate_policy

from repro import api
from repro.core import ParameterEncoder
from repro.core.context import RunContext
from repro.core.fitting import fit_cv_round
from repro.core.kernels import DEFAULT_PREDICT_CHUNK
from repro.core.training import TrainingConfig
from repro.experiments import (
    CACHE_POLICY_TARGETS,
    build_cache_policy_space,
    energy_delay,
    energy_delay_squared,
    evaluate_cache_policy,
    get_study,
    make_simulate_fn,
)
from repro.memory import Cache
from repro.memory.policies import (
    ORACLE_POLICY,
    POLICY_NAMES,
    cache_hit_rate,
    simulate_policy,
)
from repro.search import AGENTS
from repro.workloads import PHASED_BENCHMARKS, generate_trace, get_workload


def _fast():
    return TrainingConfig(
        hidden_layers=(8,),
        max_epochs=200,
        patience=6,
        check_interval=10,
        batch_size=32,
    )


# ----------------------------------------------------------------------
# replacement policies vs hand-computed sequences
# ----------------------------------------------------------------------
class TestPoliciesByHand:
    def test_lru_sequence(self):
        # 1m 2m 1h 3m(evicts 2) 2m -> 1 hit of 5
        rate = simulate_policy(
            np.array([1, 2, 1, 3, 2]), n_sets=1, n_ways=2, policy="lru"
        )
        assert rate == pytest.approx(1 / 5)

    def test_fifo_does_not_refresh_on_hit(self):
        # 1m 2m 1h 3m(evicts 1, the oldest *insertion*) 2h -> 2 hits
        rate = simulate_policy(
            np.array([1, 2, 1, 3, 2]), n_sets=1, n_ways=2, policy="fifo"
        )
        assert rate == pytest.approx(2 / 5)

    def test_lfu_keeps_frequent_blocks(self):
        # 1m 1h 2m 3m(evicts 2: freq 1 < freq 2) 3h 1h -> 3 hits of 6
        rate = simulate_policy(
            np.array([1, 1, 2, 3, 3, 1]), n_sets=1, n_ways=2, policy="lfu"
        )
        assert rate == pytest.approx(3 / 6)

    def test_lfu_tie_breaks_by_insertion_order(self):
        # 1m 2m 3m(freq tie: evicts 1, inserted first) 2h -> 1 hit
        rate = simulate_policy(
            np.array([1, 2, 3, 2]), n_sets=1, n_ways=2, policy="lfu"
        )
        assert rate == pytest.approx(1 / 4)

    def test_twoq_probation_hit(self):
        # both blocks sit in the A1in probation FIFO; re-touching one
        # hits without promoting it
        rate = simulate_policy(
            np.array([1, 2, 1]), n_sets=1, n_ways=2, policy="2q"
        )
        assert rate == pytest.approx(1 / 3)

    def test_twoq_ghost_promotion(self):
        # ways=4 (kin=1): block 1 falls out of A1in into the ghost
        # queue, its next miss promotes it to Am, the touch after hits
        rate = simulate_policy(
            np.array([1, 2, 3, 4, 5, 1, 1]), n_sets=1, n_ways=4, policy="2q"
        )
        assert rate == pytest.approx(1 / 7)

    def test_arc_promotes_on_reuse(self):
        # 1m 1h(t1->t2) 2m 3m(evicts 2 from t1, 1 survives in t2) 1h
        rate = simulate_policy(
            np.array([1, 1, 2, 3, 1]), n_sets=1, n_ways=2, policy="arc"
        )
        assert rate == pytest.approx(2 / 5)

    def test_opt_beats_lru_on_cyclic_scan(self):
        # the classic LRU-pathological loop: 1 2 3 1 2 3 with 2 ways
        stream = np.array([1, 2, 3, 1, 2, 3])
        lru = simulate_policy(stream, n_sets=1, n_ways=2, policy="lru")
        opt = simulate_policy(stream, n_sets=1, n_ways=2, policy="opt")
        assert lru == 0.0
        assert opt == pytest.approx(2 / 6)

    def test_set_index_mapping(self):
        # with 2 sets, even/odd blocks land in different sets; a single
        # repeated block per set hits on every re-reference
        rate = simulate_policy(
            np.array([0, 1, 0, 1]), n_sets=2, n_ways=1, policy="lru"
        )
        assert rate == pytest.approx(0.5)
        # conflicting even blocks in a 1-way set never hit
        rate = simulate_policy(
            np.array([0, 2, 0, 2]), n_sets=2, n_ways=1, policy="lru"
        )
        assert rate == 0.0

    def test_unknown_policy_names_choices(self):
        with pytest.raises(ValueError, match="arc"):
            simulate_policy(
                np.array([1]), n_sets=1, n_ways=1, policy="random"
            )

    def test_non_power_of_two_sets_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            simulate_policy(np.array([1]), n_sets=3, n_ways=1, policy="lru")

    def test_empty_stream(self):
        for policy in POLICY_NAMES + (ORACLE_POLICY,):
            for blocks in ([], np.array([], dtype=np.uint64)):
                for n_sets, n_ways in ((1, 1), (8192, 16)):
                    assert simulate_policy(
                        blocks, n_sets=n_sets, n_ways=n_ways, policy=policy
                    ) == 0.0
        # the policy name is checked before the stream is looked at
        for blocks in ([], np.array([], dtype=np.uint64)):
            with pytest.raises(ValueError, match="unknown policy"):
                simulate_policy(blocks, n_sets=1, n_ways=1, policy="lur")


class TestOracleBound:
    @given(
        blocks=st.lists(st.integers(0, 15), min_size=1, max_size=200),
        n_sets=st.sampled_from((1, 2, 4)),
        n_ways=st.sampled_from((1, 2, 4)),
        policy=st.sampled_from(POLICY_NAMES),
    )
    @settings(max_examples=120, deadline=None)
    def test_no_policy_beats_opt(self, blocks, n_sets, n_ways, policy):
        """Belady's OPT is optimal: every realizable policy, and the
        detailed :class:`Cache`, is bounded by the oracle's hit rate on
        any reference stream."""
        stream = np.asarray(blocks, dtype=np.uint64)
        realized = simulate_policy(
            stream, n_sets=n_sets, n_ways=n_ways, policy=policy
        )
        oracle = simulate_policy(
            stream, n_sets=n_sets, n_ways=n_ways, policy=ORACLE_POLICY
        )
        assert realized <= oracle + 1e-12
        cache = Cache(n_sets * n_ways * 64, 64, n_ways)
        for block in blocks:
            cache.access(block * 64)
        assert cache.stats.hit_ratio <= oracle + 1e-12

    @given(
        blocks=st.lists(st.integers(0, 31), min_size=1, max_size=120),
        policy=st.sampled_from(POLICY_NAMES + (ORACLE_POLICY,)),
    )
    @settings(max_examples=60, deadline=None)
    def test_hit_rate_in_unit_interval(self, blocks, policy):
        rate = simulate_policy(
            np.asarray(blocks, dtype=np.uint64),
            n_sets=2, n_ways=2, policy=policy,
        )
        assert 0.0 <= rate <= 1.0


class TestCacheMatchesLRUSet:
    @given(
        blocks=st.lists(st.integers(0, 63), min_size=1, max_size=300),
        n_sets=st.sampled_from((1, 2, 4, 8)),
        n_ways=st.sampled_from((1, 2, 4, 8)),
        block_bytes=st.sampled_from((16, 64)),
    )
    @settings(max_examples=120, deadline=None)
    def test_read_stream_matches_policy_lru(
        self, blocks, n_sets, n_ways, block_bytes
    ):
        """The detailed cache and the reference per-set LRU state machine
        are one replacement policy: identical per-access hit/miss
        sequences on any read-only stream and geometry, and the same
        hit rate as ``simulate_policy(..., policy="lru")``."""
        cache = Cache(n_sets * n_ways * block_bytes, block_bytes, n_ways)
        set_bits = n_sets.bit_length() - 1
        sets = {}
        expected = []
        for block in blocks:
            lru = sets.setdefault(block & (n_sets - 1), LRUSet(n_ways))
            expected.append(lru.access(block >> set_bits))
        observed = [cache.access(block * block_bytes).hit for block in blocks]
        assert observed == expected
        assert cache.stats.hits / cache.stats.accesses == simulate_policy(
            np.asarray(blocks, dtype=np.uint64),
            n_sets=n_sets, n_ways=n_ways, policy="lru",
        )


class TestCacheHitRateOnTraces:
    def test_oracle_dominates_on_real_trace(self):
        trace = generate_trace("osc-scan", 4000)
        rates = {
            policy: cache_hit_rate(
                trace,
                size_bytes=8 * 1024,
                block_bytes=64,
                associativity=4,
                policy=policy,
            )
            for policy in POLICY_NAMES + (ORACLE_POLICY,)
        }
        for policy in POLICY_NAMES:
            assert rates[policy] <= rates[ORACLE_POLICY] + 1e-12
        # the stream has genuine locality: policies actually differ
        assert len({round(r, 6) for r in rates.values()}) > 1

    def test_more_ways_never_validates_bad_geometry(self):
        trace = generate_trace("osc-tight", 2000)
        with pytest.raises(ValueError):
            cache_hit_rate(
                trace,
                size_bytes=48 * 1024,  # not a power of two
                block_bytes=64,
                associativity=4,
                policy="lru",
            )


@st.composite
def _block_streams(draw):
    """``(stream, n_sets, n_ways)`` shaped like a program's reference
    stream.  A hot working set is packed into one to three sets, with
    more blocks per set than ways (up to twice as many), so those sets
    evict, refresh and re-reference evicted blocks at any geometry.  The
    stream strings together random touches of it, loops over parts of
    it, sequential scans and one-off references."""
    n_sets = draw(st.sampled_from(tuple(1 << k for k in range(14))))
    n_ways = draw(st.sampled_from((1, 2, 4, 8, 16)))
    rng = draw(st.randoms(use_true_random=False))
    set_bits = n_sets.bit_length() - 1
    hot = [
        (tag << set_bits) | index
        for index in range(rng.randint(1, 3))
        for tag in rng.sample(
            range(1 << 12), rng.randint(n_ways + 1, 2 * n_ways + 2)
        )
    ]
    stream = []
    for _ in range(rng.randint(1, 12)):
        kind = rng.choice(("random", "loop", "scan", "once"))
        if kind == "random":
            stream += rng.choices(hot, k=rng.randint(4, 80))
        elif kind == "loop":
            stream += rng.sample(hot, rng.randint(2, len(hot))) * rng.randint(2, 4)
        elif kind == "scan":
            start = rng.randrange(1 << 20)
            stream += range(start, start + rng.randint(1, 96))
        else:
            stream += [rng.randrange(1 << 30) for _ in range(rng.randint(0, 8))]
    return stream, n_sets, n_ways


class TestFlatLoopsMatchReference:
    """The flat-loop simulators against the per-set classes."""

    @pytest.mark.parametrize("policy", POLICY_NAMES + (ORACLE_POLICY,))
    @settings(max_examples=150, deadline=None)
    @given(case=_block_streams(), as_array=st.booleans())
    def test_hit_rate_matches_reference(self, policy, case, as_array):
        stream, n_sets, n_ways = case
        blocks = np.asarray(stream, dtype=np.uint64) if as_array else stream
        got = simulate_policy(
            blocks, n_sets=n_sets, n_ways=n_ways, policy=policy
        )
        want = reference_simulate_policy(
            blocks, n_sets=n_sets, n_ways=n_ways, policy=policy
        )
        assert got == want

    @pytest.mark.parametrize(
        "n_sets,n_ways", [(1, 16), (16, 4), (256, 2), (8192, 1)]
    )
    def test_oracle_matches_reference_on_phased_traces(self, n_sets, n_ways):
        """OPT is outside the design space, so the hit-rate digests
        below do not cover it."""
        for workload in PHASED_BENCHMARKS:
            blocks = generate_trace(workload, 3000).block_addresses(32)
            assert simulate_policy(
                blocks, n_sets=n_sets, n_ways=n_ways, policy=ORACLE_POLICY
            ) == reference_simulate_policy(
                blocks, n_sets=n_sets, n_ways=n_ways, policy=ORACLE_POLICY
            )


#: sha256 of the float64 hit rates at every point of the 600-point
#: cache-policy space (``space.config_at`` order) on a 4000-instruction
#: trace of each phased workload, recorded from the per-set classes of
#: ``tests/reference_policies.py``
HIT_RATE_DIGESTS = {
    "osc-tight": "89052192f4fbf782650e8d52f0cc50a7cb32c3312a74e965b2f4dab7083076e2",
    "osc-scan": "a4cf3ab13f4634826a98f16f69b08bf3476f1f4d31ec95c617dc900bfff04303",
    "osc-pointer": "33b2731901263cf2a6ea5b05fc79e7d3affc147e186f1a41f3a8c246ca2d4593",
}


class TestHitRateDigestLock:
    @pytest.mark.parametrize("workload", PHASED_BENCHMARKS)
    def test_space_hit_rates_match_digest(self, workload):
        space = build_cache_policy_space()
        trace = generate_trace(workload, 4000)
        rates = [
            cache_hit_rate(
                trace,
                size_bytes=int(point["size_kb"]) * 1024,
                block_bytes=int(point["block"]),
                associativity=int(point["associativity"]),
                policy=str(point["policy"]),
            )
            for point in map(space.config_at, range(len(space)))
        ]
        digest = hashlib.sha256(np.asarray(rates, dtype=np.float64).tobytes())
        assert digest.hexdigest() == HIT_RATE_DIGESTS[workload]


# ----------------------------------------------------------------------
# phased workloads
# ----------------------------------------------------------------------
class TestPhasedWorkloads:
    def test_registered_and_resolvable(self):
        assert PHASED_BENCHMARKS == ("osc-tight", "osc-scan", "osc-pointer")
        for name in PHASED_BENCHMARKS:
            workload = get_workload(name)
            assert workload.suite == "SYNTH"

    def test_unknown_workload_names_union(self):
        with pytest.raises(KeyError, match="osc-tight"):
            get_workload("osc-bogus")

    def test_traces_deterministic(self):
        from repro.workloads.generator import SyntheticTraceGenerator

        characteristics = get_workload("osc-tight")
        a = SyntheticTraceGenerator(
            characteristics, trace_length=3000
        ).generate()
        b = SyntheticTraceGenerator(
            characteristics, trace_length=3000
        ).generate()
        np.testing.assert_array_equal(a.addr, b.addr)
        np.testing.assert_array_equal(a.op, b.op)

    def test_phases_change_locality(self):
        """The oscillation is real: per-phase hit rates differ."""
        trace = generate_trace("osc-scan", 6000)
        blocks = trace.block_addresses(64)
        half = len(blocks) // 2
        first = simulate_policy(
            blocks[:half], n_sets=32, n_ways=4, policy="lru"
        )
        second = simulate_policy(
            blocks[half:], n_sets=32, n_ways=4, policy="lru"
        )
        assert abs(first - second) > 0.01


# ----------------------------------------------------------------------
# the cache-policy design space and its targets
# ----------------------------------------------------------------------
class TestCachePolicySpace:
    def setup_method(self):
        self.space = build_cache_policy_space()

    def test_size_and_axes(self):
        assert len(self.space) == 600
        assert self.space.parameter("policy").values == POLICY_NAMES
        assert self.space.parameter("size_kb").values == (
            4, 8, 16, 32, 64, 128
        )
        assert self.space.parameter("associativity").values == (1, 2, 4, 8, 16)
        assert self.space.parameter("block").values == (16, 32, 64, 128)

    @given(st.integers(0, 599))
    @settings(max_examples=80, deadline=None)
    def test_config_index_round_trip(self, index):
        config = self.space.config_at(index)
        assert self.space.index_of(config) == index

    @given(st.integers(0, 599))
    @settings(max_examples=80, deadline=None)
    def test_one_hot_encoding_bounds(self, index):
        """The wide nominal policy axis one-hot encodes cleanly: every
        feature is in [0, 1] and the policy block is exactly one-hot."""
        encoder = ParameterEncoder(self.space)
        row = encoder.encode(self.space.config_at(index))
        assert row.shape == (encoder.n_features,)
        assert np.all(np.isfinite(row))
        assert np.all(row >= 0.0) and np.all(row <= 1.0)
        # the nominal axis contributes exactly one hot feature
        policy_block = row[: len(POLICY_NAMES)]
        assert policy_block.sum() == pytest.approx(1.0)
        assert set(np.round(policy_block, 12)) <= {0.0, 1.0}

    def test_targets_positive_and_consistent(self):
        ipc, hit_rate, energy = evaluate_cache_policy(
            "osc-tight", self.space.config_at(123)
        )
        assert 0.0 < ipc
        assert 0.0 < hit_rate <= 1.0
        assert 0.0 < energy
        assert energy_delay(ipc, energy) == pytest.approx(energy / ipc)
        assert energy_delay_squared(ipc, energy) == pytest.approx(
            energy / ipc**2
        )

    def test_geometry_improves_hit_rate(self):
        """Within one policy, the biggest cache beats the smallest."""
        base = {"policy": "lru", "associativity": 4, "block": 64}
        _, small, _ = evaluate_cache_policy(
            "osc-tight", {**base, "size_kb": 4}
        )
        _, large, _ = evaluate_cache_policy(
            "osc-tight", {**base, "size_kb": 128}
        )
        assert large > small


# ----------------------------------------------------------------------
# the multi-target study end to end
# ----------------------------------------------------------------------
class TestMultiTargetExplore:
    @pytest.mark.parametrize("agent", sorted(AGENTS))
    def test_every_agent_reports_per_target_errors(self, agent):
        result = api.explore(
            study="cache-policy",
            workload="osc-tight",
            target_error=0.5,
            max_simulations=24,
            batch_size=12,
            k=4,
            seed=11,
            training=_fast(),
            agent=agent,
        )
        assert result.n_simulations == 24
        assert result.target_names == CACHE_POLICY_TARGETS
        assert len(result.target_rows) == 24
        assert all(len(row) == 3 for row in result.target_rows)
        estimate = result.final_estimate
        assert estimate.target_names == CACHE_POLICY_TARGETS
        for name in CACHE_POLICY_TARGETS:
            per = estimate.for_target(name)
            assert per.mean > 0.0
        # the primary target's breakdown IS the headline estimate
        assert estimate.for_target("ipc").mean == pytest.approx(estimate.mean)
        with pytest.raises(KeyError):
            estimate.for_target("power")

    def test_default_workload_is_first_registered(self):
        explicit = api.explore(
            study="cache-policy",
            workload="osc-tight",
            target_error=0.5,
            max_simulations=12,
            batch_size=6,
            k=4,
            seed=5,
            training=_fast(),
        )
        defaulted = api.explore(
            study="cache-policy",
            target_error=0.5,
            max_simulations=12,
            batch_size=6,
            k=4,
            seed=5,
            training=_fast(),
        )
        assert defaulted.sampled_indices == explicit.sampled_indices
        assert defaulted.target_rows == explicit.target_rows

    def test_deterministic_across_runs(self):
        runs = [
            api.explore(
                study="cache-policy",
                workload="osc-scan",
                target_error=0.5,
                max_simulations=24,
                batch_size=12,
                k=4,
                seed=3,
                training=_fast(),
            )
            for _ in range(2)
        ]
        assert runs[0].sampled_indices == runs[1].sampled_indices
        assert runs[0].target_rows == runs[1].target_rows
        assert runs[0].final_estimate.mean == runs[1].final_estimate.mean
        for name in CACHE_POLICY_TARGETS:
            assert (
                runs[0].final_estimate.for_target(name).mean
                == runs[1].final_estimate.for_target(name).mean
            )

    def test_study_and_space_are_exclusive(self):
        study = get_study("cache-policy")
        with pytest.raises(ValueError, match="not both"):
            api.explore(
                study.space,
                lambda c: 1.0,
                study="cache-policy",
                target_error=1.0,
                max_simulations=8,
            )

    def test_workload_requires_study(self):
        with pytest.raises(ValueError, match="requires study"):
            api.explore(
                workload="osc-tight", target_error=1.0, max_simulations=8
            )

    def test_missing_everything_is_a_type_error(self):
        with pytest.raises(TypeError):
            api.explore(target_error=1.0, max_simulations=8)

    def test_unknown_cache_policy_workload_names_choices(self):
        study = get_study("cache-policy")
        with pytest.raises(KeyError, match="osc-tight"):
            make_simulate_fn(study, "povray")


class TestMultiTargetFit:
    def _data(self, n=40, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.uniform(size=(n, 3))
        primary = 1.0 + x @ np.array([0.5, 0.3, 0.2])
        aux = 2.0 + x @ np.array([0.1, 0.7, 0.2])
        return x, np.column_stack([primary, aux])

    def test_two_dee_y_gives_per_target_estimate(self):
        x, y = self._data()
        outcome = fit_cv_round(
            x, y,
            k=4,
            training=_fast(),
            context=RunContext.seeded(0),
            target_names=("ipc", "hit_rate"),
        )
        estimate = outcome.estimate
        assert estimate.target_names == ("ipc", "hit_rate")
        assert estimate.for_target("ipc").mean == pytest.approx(estimate.mean)
        predictor = outcome.ensemble.predictor
        preds = predictor.predict(x)
        assert preds.shape == (len(x),)
        all_preds = predictor.predict_all(x)
        assert all_preds.shape == (len(x), 2)
        np.testing.assert_allclose(all_preds[:, 0], preds)
        assert predictor.prediction_variance(x).shape == (len(x),)
        # chunked prediction is the same prediction
        np.testing.assert_array_equal(preds, predictor.predict(x, chunk_size=7))

    def test_target_names_must_match_columns(self):
        x, y = self._data()
        with pytest.raises(ValueError):
            fit_cv_round(
                x, y,
                k=4,
                training=_fast(),
                context=RunContext.seeded(0),
                target_names=("ipc",),
            )

    def test_single_column_y_is_rejected(self):
        x, y = self._data()
        with pytest.raises(ValueError, match="1 target columns"):
            fit_cv_round(
                x, y[:, :1],
                k=4,
                training=_fast(),
                context=RunContext.seeded(0),
            )
        with pytest.raises(ValueError, match="1 target columns"):
            api.fit_ensemble(x, y[:, :1], k=4, training=_fast(), seed=0)

    def test_api_fit_ensemble_passes_target_names(self):
        x, y = self._data()
        outcome = api.fit_ensemble(
            x, y,
            k=4,
            training=_fast(),
            seed=0,
            target_names=("ipc", "hit_rate"),
        )
        assert outcome.estimate.target_names == ("ipc", "hit_rate")


class TestMultiTargetResume:
    def test_kill_and_resume_is_bit_identical(self, tmp_path, monkeypatch):
        """A multi-target run killed in round 2 resumes from its round
        checkpoint to exactly the uninterrupted run: samples, target
        rows, per-target estimates and full-space predictions."""
        from repro.search.environment import Environment

        kwargs = dict(
            study="cache-policy", workload="osc-tight", target_error=0.001,
            max_simulations=60, batch_size=20, seed=7, training=_fast(),
        )
        baseline = api.explore(**kwargs)
        assert len(baseline.rounds) == 3

        path = tmp_path / "run.ckpt"
        step = Environment.step

        def killed_in_round_two(self, configs):
            if len(self.rounds) == 1:
                raise RuntimeError("host preempted")
            return step(self, configs)

        with monkeypatch.context() as patch:
            patch.setattr(Environment, "step", killed_in_round_two)
            with pytest.raises(RuntimeError, match="preempted"):
                api.explore(checkpoint=str(path), **kwargs)
        assert path.exists()

        resumed = api.explore(checkpoint=str(path), **{**kwargs, "seed": 99})
        assert resumed.sampled_indices == baseline.sampled_indices
        assert resumed.target_rows == baseline.target_rows
        assert [r.estimate for r in resumed.rounds] == [
            r.estimate for r in baseline.rounds
        ]
        assert resumed.final_estimate.target_names == baseline.target_names
        assert (
            resumed.predict_space().tobytes()
            == baseline.predict_space().tobytes()
        )
        assert not path.exists()


class TestScalarDeprecations:
    def test_result_targets_alias_removed(self, tiny_space, fast_training):
        result = api.explore(
            tiny_space,
            lambda config: 1.0 + config["size"] / 64.0,
            target_error=1.0,
            max_simulations=12,
            batch_size=6,
            k=4,
            seed=2,
            training=fast_training,
        )
        with pytest.raises(AttributeError, match="targets"):
            result.targets
        # scalar runs carry no multi-target payload
        assert result.target_names == ()
        assert result.target_rows is None
        assert result.final_estimate.target_names == ()


# ----------------------------------------------------------------------
# campaign / serve reachability
# ----------------------------------------------------------------------
class TestServiceReachability:
    def test_execute_exploration_carries_per_target_errors(self, tmp_path):
        """The shared campaign-cell / serve-job worker reports the
        multi-target breakdown for the new study."""
        from repro.serve import JobSpec
        from repro.serve.supervisor import execute_exploration

        spec = JobSpec(
            study="cache-policy",
            workload="osc-tight",
            agent="random",
            seed=0,
            budget=24,
            target_error=1.0,
            batch_size=12,
            training="fast",
            k=4,
            min_folds=None,
            max_retries=0,
            eval_timeout_s=None,
        )
        message = execute_exploration(spec, str(tmp_path / "cell.ckpt"))
        result = message["result"]
        assert result["n_simulations"] == 24
        assert result["target_names"] == list(CACHE_POLICY_TARGETS)
        per = result["per_target_error"]
        assert set(per) == set(CACHE_POLICY_TARGETS)
        assert per["ipc"]["mean"] == pytest.approx(result["error_mean"])

    def test_campaign_spec_accepts_phased_workloads(self):
        from repro.campaign import parse_campaign_spec

        spec = parse_campaign_spec(
            """
            [campaign]
            name = "cp"

            [matrix]
            studies   = ["cache-policy"]
            workloads = ["osc-scan"]
            budgets   = [24]

            [cells]
            training = "fast"
            """
        )
        assert spec.workloads == ("osc-scan",)

    def test_serve_runs_cache_policy_job(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.telemetry import RunTelemetry
        from repro.serve import AdmissionPolicy, ExplorationService, JobSpec
        from repro.serve.registry import STATUS_DONE

        service = ExplorationService(
            tmp_path,
            policy=AdmissionPolicy(max_depth=4, max_inflight=1),
            job_retries=0,
            telemetry=RunTelemetry(),
            metrics=MetricsRegistry(enabled=True),
        )
        submit = service.submit(
            JobSpec(
                study="cache-policy",
                workload="osc-tight",
                seed=0,
                budget=24,
                target_error=1.0,
                batch_size=12,
                training="fast",
                max_retries=0,
            ),
            tenant="t",
        )
        assert submit.accepted
        service.run_until_idle()
        (entry,) = service.report().values()
        assert entry["status"] == STATUS_DONE
        assert entry["result"]["per_target_error"]["hit_rate"]["mean"] > 0


# ----------------------------------------------------------------------
# the scalar studies are bit-identical to before the redesign
# ----------------------------------------------------------------------
class TestScalarTrajectoryLock:
    """Golden trajectories of every study, scalar and multi-target.

    ``explore`` with these exact arguments must reproduce the recorded
    sampling order and error trajectory bit-for-bit.  The scalar entries
    were captured before the multi-target redesign, the cache-policy
    entry before multi-target folds moved onto the fold-stacked trainer;
    refactors of the training engine may not perturb any of them.

    The memory-system ``mean``/``std`` were re-recorded when a decaying
    fit came to stop at the last plateau decay its ``patience`` reaches:
    ``fast_settings`` (patience 15, ``decay_after`` 10) now stops 10
    checks after a fold's best instead of 15, so the folds no longer
    find the late improvements some made at the halved learning rate.
    Its sampling order is unchanged (random agent).  The processor fits
    made no improvement in those checks and the cache-policy fits never
    decay, so both entries are as first recorded.
    """

    GOLDEN = {
        ("memory-system", "mesa"): {
            "sampled": [
                6912, 21752, 14390, 15751, 11512, 5186, 18362, 1278, 10781,
                6565, 18917, 21020, 2743, 121, 20657, 20119, 13315, 19196,
                17860, 3027, 4429, 20068, 16295, 15207, 14815, 11693, 12460,
                15800, 13778, 16735, 2107, 17076, 8321, 1365, 2493, 14726,
                969, 10901, 14115, 5630,
            ],
            "targets3": [0.245861252392, 0.539844591568, 0.68129461507],
            "mean": 29.444626356604,
            "std": 24.832878417284,
        },
        ("processor", "mcf"): {
            "sampled": [
                6221, 19575, 12950, 14175, 10361, 4667, 16526, 1150, 9703,
                5908, 17025, 18917, 2469, 109, 18590, 18107, 11982, 17275,
                16073, 2725, 3986, 18060, 14664, 13686, 13333, 10523, 11213,
                14219, 12400, 15060, 1896, 15367, 7489, 1229, 2243, 13252,
                872, 9810, 12702, 5066,
            ],
            "targets3": [0.089321636257, 0.097380045312, 0.033080535081],
            "mean": 42.857796183968,
            "std": 30.789899077095,
        },
        ("cache-policy", "osc-tight"): {
            "sampled": [
                177, 548, 363, 398, 297, 132, 476, 32, 280, 168, 595, 541,
                71, 3, 523, 517, 338, 489, 454, 78, 111, 514, 409, 393, 381,
                298, 316, 405, 355, 426, 53, 431, 214, 36, 64, 371, 24, 275,
                360, 143,
            ],
            "targets3": [0.119539531513, 0.137509273555, 0.0771117547],
            "mean": 18.957342671391,
            "std": 15.911056938850,
            "per_target": {
                "ipc": 18.957342671391,
                "hit_rate": 7.304575704132,
                "energy_nj": 18.150407003481,
            },
        },
    }

    @pytest.mark.parametrize("study_name,bench", sorted(GOLDEN))
    def test_trajectory_matches_golden(self, study_name, bench):
        golden = self.GOLDEN[(study_name, bench)]
        result = _golden_run(study_name, bench)
        assert result.sampled_indices == golden["sampled"]
        np.testing.assert_allclose(
            result.primary_targets[:3], golden["targets3"], rtol=1e-9
        )
        np.testing.assert_allclose(
            [result.final_estimate.mean, result.final_estimate.std],
            [golden["mean"], golden["std"]],
            rtol=1e-9,
        )
        per_target = golden.get("per_target", {})
        assert result.final_estimate.target_names == tuple(per_target)
        np.testing.assert_allclose(
            [
                result.final_estimate.for_target(name).mean
                for name in per_target
            ],
            list(per_target.values()),
            rtol=1e-9,
        )


@functools.lru_cache(maxsize=None)
def _golden_run(study_name, bench):
    """One golden exploration, shared by the trajectory and prediction
    locks."""
    study = get_study(study_name)
    return api.explore(
        study.space,
        make_simulate_fn(study, bench),
        target_error=1.0,
        max_simulations=40,
        batch_size=20,
        seed=7,
        training=TrainingConfig.fast_settings(),
    )


def _float_digest(values):
    return hashlib.sha256(
        np.ascontiguousarray(values, dtype=np.float64).tobytes()
    ).hexdigest()


class TestPredictionDigestLock:
    """The golden runs' predictors, predicting their whole design space,
    must reproduce these sha256 digests of the float64 result bytes:
    ``predict_space``, ``predict_all``, ``prediction_variance`` and
    ``member_predictions``, in that order.  ``"bulk"`` holds for
    ``chunk_size`` ``None``, 8192 and ``DEFAULT_PREDICT_CHUNK`` (one
    chunk or a few large ones), ``"7"`` for seven-row chunks, whose
    matmuls may round differently.
    Recorded on x86-64 with numpy 2.4 and its bundled OpenBLAS, before
    the two target scalers and four prediction kernels were merged; a
    change to scaling or prediction must leave every byte in place.
    The memory-system digests were re-recorded with the trajectory lock
    above, when ``fast_settings`` fits came to stop at their first
    fruitless plateau decay (10 checks, not 15); the processor and
    cache-policy digests are as first recorded.
    """

    DIGESTS = {
        ("memory-system", "mesa"): {
            "bulk": (
                "cfc9a69eb79e86afaa6b0686e076c7c7"
                "4d55b29e9154a33bf7aa6ff9eb992b42",
                "cfc9a69eb79e86afaa6b0686e076c7c7"
                "4d55b29e9154a33bf7aa6ff9eb992b42",
                "9d98044c842721f1a9097c433fdaf222"
                "e92368c30e4f5b69c0275c155ed98fc5",
                "bc213df938f93cf1276edd7a68dd380c"
                "e4437377d87b7064e4b0b2c33ed63d95",
            ),
            "7": (
                "c1a49c1cdf9a19308bbe383cd89a3d2a"
                "76b1182d473976fdf9397d128f7bc134",
                "c1a49c1cdf9a19308bbe383cd89a3d2a"
                "76b1182d473976fdf9397d128f7bc134",
                "e9579dd8fefe05ebfd92c3d30b1d6420"
                "a300350488d2edcac7c59a0ebbb065c9",
                "28bcf5058d4ea0f60b48ca50814dbff3"
                "7b21123e00e408aaf5c0edf954678114",
            ),
        },
        ("processor", "mcf"): {
            "bulk": (
                "b96d1dab441905df3698daab111b249d"
                "c2dfba3d4fad78e40b93685abea43d60",
                "b96d1dab441905df3698daab111b249d"
                "c2dfba3d4fad78e40b93685abea43d60",
                "ae72b8d342b123fde60e26267fed0156"
                "3f3c4ee147516f7b0df0845adc602068",
                "be4cb1236ac318ca8e3c0f73d71a4fb0"
                "a492c67daf46fbad2660a8cc08936535",
            ),
            "7": (
                "14a4a3d5998cadab9ce0de56ed9c32ca"
                "f56fd9c829f9bd7c23f93a2d86ae3ebb",
                "14a4a3d5998cadab9ce0de56ed9c32ca"
                "f56fd9c829f9bd7c23f93a2d86ae3ebb",
                "b2352ccca2303f935700e0d56837f605"
                "bf726eec74ab6cf9777c4df4f184f901",
                "d309e91a8089b87c21e85b4a63f72a0b"
                "2e7ec6d8aabd398293064d3cc3e4ef10",
            ),
        },
        ("cache-policy", "osc-tight"): {
            "bulk": (
                "003b3f40bfbe6b121dff198bfa3fa10f"
                "b4e36571d3bfc866243c00356f310868",
                "e09b8251e0e9459be8ed8ffe15cc86a3"
                "3cbec398b0c6bd19eb59474ab2f3c0cd",
                "779d098c49e6b9e40a1c357bd5f923e6"
                "14c047c2814d5e3264bda95d239cb694",
                "558f7de61ea90083a469e153cbddfe6b"
                "777723e9c8c974f527eab120eac31cd8",
            ),
            "7": (
                "5c6eff48b9c72921fb025a1a9931af94"
                "d0a6374fb290e883e75d04463bcf92b3",
                "a7b8af872c9cd41807e5eb259e8b4162"
                "aa0fe5472e2c85aa7bda742446c062fc",
                "dd38fa7c76b481126461619e19f54c0f"
                "c70c6a696e8941e5f29cc381320f1a65",
                "918ea9278532a41ff5745a6927abf29c"
                "90b96c5862c577d8c150d829735d1d45",
            ),
        },
    }

    @pytest.mark.parametrize(
        "chunk_size", [None, 7, DEFAULT_PREDICT_CHUNK, 8192]
    )
    @pytest.mark.parametrize("study_name,bench", sorted(DIGESTS))
    def test_predictions_match_digests(self, study_name, bench, chunk_size):
        study = get_study(study_name)
        predictor = _golden_run(study_name, bench).predictor
        x = api.design_matrix(study.space)
        got = tuple(
            _float_digest(values)
            for values in (
                api.predict_space(predictor, study.space, chunk_size=chunk_size),
                predictor.predict_all(x, chunk_size=chunk_size),
                predictor.prediction_variance(x, chunk_size=chunk_size),
                predictor.member_predictions(x, chunk_size=chunk_size),
            )
        )
        label = "7" if chunk_size == 7 else "bulk"
        assert got == self.DIGESTS[(study_name, bench)][label]
