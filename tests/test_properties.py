"""Cross-cutting property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ParameterEncoder
from repro.cpu import MachineConfig, SlotScheduler, get_interval_simulator
from repro.experiments import get_study
from repro.memory import Cache, ReuseProfile
from repro.obs.telemetry import NULL_TELEMETRY
from repro.search import AGENTS, Observation, make_agent


# ----------------------------------------------------------------------
# interval engine: physical sanity over random design points
# ----------------------------------------------------------------------
@st.composite
def memory_study_config(draw):
    return MachineConfig(
        l1d_size=draw(st.sampled_from((8, 16, 32, 64))) * 1024,
        l1d_block=draw(st.sampled_from((32, 64))),
        l1d_associativity=draw(st.sampled_from((1, 2, 4, 8))),
        l1d_write_policy=draw(st.sampled_from(("WT", "WB"))),
        l2_size=draw(st.sampled_from((256, 512, 1024, 2048))) * 1024,
        l2_block=draw(st.sampled_from((64, 128))),
        l2_associativity=draw(st.sampled_from((1, 2, 4, 8, 16))),
        l2_bus_width=draw(st.sampled_from((8, 16, 32))),
        fsb_frequency_ghz=draw(st.sampled_from((0.533, 0.8, 1.4))),
    )


class TestIntervalEngineProperties:
    @given(memory_study_config())
    @settings(max_examples=60, deadline=None)
    def test_ipc_positive_and_width_bounded(self, config):
        evaluator = get_interval_simulator("gzip", 8000)
        ipc = evaluator.evaluate_ipc(config)
        assert 0.0 < ipc <= config.width

    @given(memory_study_config())
    @settings(max_examples=30, deadline=None)
    def test_doubling_l2_never_hurts_much(self, config):
        """Monotonicity modulo the CACTI latency increase: doubling L2
        capacity may cost a little latency but must not crater IPC."""
        if config.l2_size >= 2048 * 1024:
            return
        evaluator = get_interval_simulator("mcf", 8000)
        small = evaluator.evaluate_ipc(config)
        large = evaluator.evaluate_ipc(
            config.with_updates(l2_size=config.l2_size * 2)
        )
        assert large >= small * 0.9

    @given(memory_study_config())
    @settings(max_examples=30, deadline=None)
    def test_deterministic(self, config):
        evaluator = get_interval_simulator("mesa", 8000)
        assert evaluator.evaluate_ipc(config) == evaluator.evaluate_ipc(config)


# ----------------------------------------------------------------------
# caches: miss counts bounded by the reference stream's structure
# ----------------------------------------------------------------------
class TestCacheProperties:
    @given(
        st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=400),
        st.sampled_from([(512, 64, 1), (1024, 64, 2), (2048, 64, 8)]),
    )
    @settings(max_examples=40, deadline=None)
    def test_misses_at_least_distinct_blocks(self, blocks, geometry):
        size, block, ways = geometry
        cache = Cache(size, block, ways)
        for b in blocks:
            cache.access(b * 64)
        distinct = len(set(blocks))
        assert cache.stats.misses >= distinct or distinct > size // block
        assert cache.stats.cold_misses == min(
            distinct, cache.stats.misses
        ) or cache.stats.cold_misses <= distinct

    @given(
        st.lists(st.integers(min_value=0, max_value=31), min_size=1, max_size=300)
    )
    @settings(max_examples=40, deadline=None)
    def test_bigger_cache_never_misses_more_fully_assoc(self, blocks):
        """LRU inclusion: a larger fully-associative cache's misses are a
        subset of a smaller one's."""
        small = Cache(8 * 64, 64, 8)
        large = Cache(16 * 64, 64, 16)
        small_misses = sum(
            0 if small.access(b * 64).hit else 1 for b in blocks
        )
        large_misses = sum(
            0 if large.access(b * 64).hit else 1 for b in blocks
        )
        assert large_misses <= small_misses

    @given(
        st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=300)
    )
    @settings(max_examples=40, deadline=None)
    def test_reuse_profile_monotone_in_capacity(self, blocks):
        profile = ReuseProfile(np.array(blocks))
        previous = float("inf")
        for capacity in (1, 2, 4, 8, 16, 32, 64):
            misses = profile.miss_count(capacity)
            assert misses <= previous + 1e-9
            previous = misses


# ----------------------------------------------------------------------
# schedulers: bandwidth limits always respected
# ----------------------------------------------------------------------
class TestSchedulerProperties:
    @given(
        st.lists(
            st.floats(min_value=0, max_value=50, allow_nan=False),
            min_size=1,
            max_size=100,
        ),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_slots_per_cycle_never_exceeded(self, requests, slots):
        scheduler = SlotScheduler(slots)
        allocations = [scheduler.allocate(r) for r in requests]
        for request, cycle in zip(requests, allocations):
            assert cycle >= request
        counts = {}
        for cycle in allocations:
            counts[cycle] = counts.get(cycle, 0) + 1
        assert max(counts.values()) <= slots


# ----------------------------------------------------------------------
# studies: every sampled point maps to a valid machine
# ----------------------------------------------------------------------
class TestStudyProperties:
    @given(st.integers(min_value=0, max_value=23_039))
    @settings(max_examples=60, deadline=None)
    def test_memory_point_builds_valid_machine(self, index):
        study = get_study("memory-system")
        machine = study.machine_at(index)
        assert machine.l1d_size in (8192, 16384, 32768, 65536)
        assert machine.l1d_latency >= 1
        assert machine.l2_latency > machine.l1d_latency

    @given(st.integers(min_value=0, max_value=20_735))
    @settings(max_examples=60, deadline=None)
    def test_processor_point_builds_valid_machine(self, index):
        study = get_study("processor")
        point = study.space.config_at(index)
        machine = study.machine_at(index)
        assert machine.int_registers == point["register_file"]
        assert machine.rob_size == point["rob_size"]
        # Table 4.2's pairing rule
        from repro.experiments.studies import REGISTER_FILE_CHOICES

        assert point["register_file"] in REGISTER_FILE_CHOICES[point["rob_size"]]


# ----------------------------------------------------------------------
# design spaces: enumeration, sampling and encoding invariants
# ----------------------------------------------------------------------
class TestDesignSpaceProperties:
    @given(st.integers(min_value=0, max_value=20_735))
    @settings(max_examples=100, deadline=None)
    def test_config_index_round_trip_satisfies_constraints(self, index):
        """The constrained processor space only ever enumerates points
        that satisfy its dependent-choices constraint, and the
        config <-> index mapping round-trips exactly."""
        space = get_study("processor").space
        config = space.config_at(index)
        space.validate(config)  # raises on a constraint violation
        assert space.index_of(config) == index

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_sampled_indices_satisfy_constraints(self, seed):
        space = get_study("processor").space
        rng = np.random.default_rng(seed)
        indices = space.sample_indices(16, rng)
        assert len(set(indices)) == 16  # sampling is without replacement
        for index in indices:
            space.validate(space.config_at(int(index)))

    @given(st.integers(min_value=0, max_value=20_735))
    @settings(max_examples=60, deadline=None)
    def test_encoding_unit_interval_and_deterministic(self, index):
        """Section 3.3: every encoded feature lands in [0, 1], and
        encoding is a pure function of the configuration."""
        space = get_study("processor").space
        encoder = ParameterEncoder(space)
        config = space.config_at(index)
        vec = encoder.encode(config)
        assert vec.shape == (encoder.n_features,)
        assert np.all(vec >= 0.0) and np.all(vec <= 1.0)
        np.testing.assert_array_equal(vec, encoder.encode(config))

    @given(st.integers(min_value=0, max_value=20_735))
    @settings(max_examples=60, deadline=None)
    def test_encoding_separates_distinct_configs(self, index):
        """Distinct configurations never collide in feature space (here
        checked against the space's first point)."""
        space = get_study("processor").space
        encoder = ParameterEncoder(space)
        if index == 0:
            return
        first = encoder.encode(space.config_at(0))
        other = encoder.encode(space.config_at(index))
        assert not np.array_equal(first, other)


# ----------------------------------------------------------------------
# search agents: every proposal is valid, unsampled and distinct
# ----------------------------------------------------------------------
class _FakeSurrogate:
    """Deterministic duck-typed predictor, so the committee/UCB paths
    run without any network training inside the hypothesis loop."""

    def predict(self, x):
        return np.asarray(x).sum(axis=1)

    def prediction_variance(self, x):
        return np.abs(np.sin(np.asarray(x).sum(axis=1) * 7.0))


class TestAgentProposalProperties:
    @given(
        st.sampled_from(sorted(AGENTS)),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_trajectory_valid_and_duplicate_free(self, name, seed):
        """Over a whole trajectory on the *constrained* processor space,
        every agent proposes only constraint-satisfying points and never
        repeats one — for arbitrary seeds, with and without a trained
        surrogate in the observation."""
        space = get_study("processor").space
        encoder = ParameterEncoder(space)
        agent = make_agent(name)
        rng = np.random.default_rng(seed)
        sampled, targets = [], []
        for round_number in range(3):
            observation = Observation(
                space=space,
                encoder=encoder,
                sampled_indices=tuple(sampled),
                targets=tuple(targets),
                round=round_number,
                predictor=_FakeSurrogate() if round_number else None,
                telemetry=NULL_TELEMETRY,
            )
            proposals = agent.propose(observation, 10, rng)
            assert len(proposals) == 10
            indices = []
            for config in proposals:
                space.validate(config)  # raises on a constraint violation
                indices.append(space.index_of(config))
            assert len(set(indices)) == len(indices)
            assert not set(indices) & set(sampled)
            sampled.extend(indices)
            targets.extend(0.5 + (i % 97) / 100.0 for i in indices)


# ----------------------------------------------------------------------
# JSON-checkpoint envelope: round-trip, corruption, canonical form
# ----------------------------------------------------------------------
json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**53), max_value=2**53)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=20)
)
json_payloads = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


class TestJsonCheckpointEnvelopeProperties:
    @given(json_payloads)
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_payloads_round_trip(self, payload):
        import tempfile
        from pathlib import Path

        from repro.core.checkpoint import (
            canonical_json,
            load_checkpoint,
            save_checkpoint,
        )

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "state.json"
            save_checkpoint(path, payload)
            loaded = load_checkpoint(path, strict=True)
            assert canonical_json(loaded) == canonical_json(payload)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_single_byte_corruption_yields_intact_or_previous(self, data):
        """Flip any one byte of the primary file: the load must return
        either the primary payload (the corruption was benign — e.g. it
        hit insignificant whitespace) or the rotated ``.prev`` payload,
        and must never raise or return garbage."""
        import tempfile
        from pathlib import Path

        from repro.core.checkpoint import (
            canonical_json,
            load_checkpoint,
            save_checkpoint,
        )

        older = data.draw(json_payloads, label="older")
        newer = data.draw(json_payloads, label="newer")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "state.json"
            save_checkpoint(path, older)
            save_checkpoint(path, newer)  # rotates older to .prev
            raw = bytearray(path.read_bytes())
            position = data.draw(
                st.integers(min_value=0, max_value=len(raw) - 1),
                label="position",
            )
            raw[position] = data.draw(
                st.integers(min_value=0, max_value=255), label="byte"
            )
            path.write_bytes(bytes(raw))
            loaded = load_checkpoint(path, strict=True)
            assert canonical_json(loaded) in (
                canonical_json(newer),
                canonical_json(older),
            )

    @given(st.dictionaries(st.text(max_size=8), json_scalars, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_canonical_json_is_insertion_order_insensitive(self, payload):
        from repro.core.checkpoint import canonical_json

        reordered = dict(reversed(list(payload.items())))
        assert canonical_json(reordered) == canonical_json(payload)


# ----------------------------------------------------------------------
# round-state codec: ExplorerCheckpoint <-> JSON payload
# ----------------------------------------------------------------------
any_floats = st.floats(allow_nan=True, allow_infinity=True)
finite_floats = st.floats(allow_nan=False, allow_infinity=False)
counts = st.integers(min_value=0, max_value=10**6)


@st.composite
def error_estimates(draw, depth=1):
    per_target = None
    if depth and draw(st.booleans()):
        names = draw(
            st.lists(st.text(max_size=6), min_size=0, max_size=3, unique=True)
        )
        per_target = tuple(
            (name, draw(error_estimates(depth=depth - 1))) for name in names
        )
    from repro.core import ErrorEstimate

    return ErrorEstimate(
        mean=draw(finite_floats), std=draw(finite_floats),
        n_training=draw(counts), n_failed=draw(counts),
        n_folds_used=draw(counts), n_folds=draw(counts),
        per_target=per_target,
    )


def _tiny_predictor(seed):
    from repro.core import EnsemblePredictor, TargetScaler
    from repro.core.network import FeedForwardNetwork

    rng = np.random.default_rng(seed)
    networks = [
        FeedForwardNetwork(3, (4,), n_outputs=2, rng=rng) for _ in range(2)
    ]
    scalers = [TargetScaler().fit(rng.random((5, 2)) + 1.0) for _ in range(2)]
    return EnsemblePredictor(networks, scalers, target_names=("ipc", "hits"))


@st.composite
def explorer_checkpoints(draw):
    from repro.core import CHECKPOINT_VERSION, ExplorerCheckpoint

    n = draw(st.integers(min_value=0, max_value=6))
    multi = draw(st.booleans())
    annealing = {
        "version": 1,
        "state": {
            "current": draw(st.none() | st.integers(0, 10**6)),
            "current_value": draw(st.none() | finite_floats),
            "temperature": draw(finite_floats),
            "n_seen": draw(counts),
        },
    }
    seed = draw(st.integers(min_value=0, max_value=2**64 - 1))
    return ExplorerCheckpoint(
        version=CHECKPOINT_VERSION,
        space_name=draw(st.text(max_size=12)),
        space_size=draw(counts),
        batch_size=draw(counts),
        k=draw(counts),
        target_error=draw(any_floats),
        max_simulations=draw(counts),
        sampled_indices=draw(st.lists(counts, min_size=n, max_size=n)),
        targets=draw(st.lists(any_floats, min_size=n, max_size=n)),
        rounds=draw(st.lists(st.tuples(counts, error_estimates()), max_size=3)),
        rng_state=draw(st.sampled_from([
            None, np.random.default_rng(seed).bit_generator.state,
        ])),
        predictor=_tiny_predictor(seed % 1000) if draw(st.booleans()) else None,
        converged=draw(st.booleans()),
        agent=draw(st.sampled_from(["random", "annealing"])),
        agent_state=draw(st.sampled_from([None, annealing])),
        target_rows=draw(st.lists(
            st.tuples(any_floats, any_floats), min_size=n, max_size=n,
        )) if multi else None,
    )


def _reloaded(state):
    """``state`` through its payload, canonical JSON text and back."""
    import json

    from repro.core import ExplorerCheckpoint
    from repro.core.checkpoint import canonical_json

    text = canonical_json(state.to_payload())
    return ExplorerCheckpoint.from_payload(json.loads(text))


class TestExplorerCheckpointCodecProperties:
    @given(explorer_checkpoints())
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, state):
        loaded = _reloaded(state)
        np.testing.assert_array_equal(loaded.targets, state.targets)
        assert loaded.target_error == state.target_error or (
            np.isnan(loaded.target_error) and np.isnan(state.target_error)
        )
        if state.target_rows is None:
            assert loaded.target_rows is None
        else:
            np.testing.assert_array_equal(
                np.array(loaded.target_rows, dtype=float).reshape(-1, 2),
                np.array(state.target_rows, dtype=float).reshape(-1, 2),
            )
            assert all(type(row) is tuple for row in loaded.target_rows)
        for name in (
            "version", "space_name", "space_size", "batch_size", "k",
            "max_simulations", "sampled_indices", "rounds", "rng_state",
            "converged", "agent", "agent_state",
        ):
            assert getattr(loaded, name) == getattr(state, name), name
        if state.predictor is None:
            assert loaded.predictor is None
        else:
            x = np.random.default_rng(0).random((7, 3))
            assert (
                loaded.predictor.predict_all(x).tobytes()
                == state.predictor.predict_all(x).tobytes()
            )
            assert loaded.predictor.target_names == ("ipc", "hits")
        if state.rng_state is not None:
            rng = np.random.default_rng()
            rng.bit_generator.state = loaded.rng_state
            twin = np.random.default_rng()
            twin.bit_generator.state = state.rng_state
            assert rng.random(4).tolist() == twin.random(4).tolist()

    @given(explorer_checkpoints(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_missing_or_mistyped_field_is_a_checkpoint_error(
        self, state, data
    ):
        import pytest

        from repro.core import CheckpointError, ExplorerCheckpoint

        payload = state.to_payload()
        name = data.draw(st.sampled_from(sorted(payload)), label="field")
        if data.draw(st.booleans(), label="drop"):
            del payload[name]
        else:
            payload[name] = 1 if name in ("space_name", "agent") else "x"
        with pytest.raises(CheckpointError):
            ExplorerCheckpoint.from_payload(payload)

    @given(explorer_checkpoints())
    @settings(max_examples=30, deadline=None)
    def test_nested_damage_is_a_checkpoint_error(self, state):
        import pytest

        from repro.core import CheckpointError, ExplorerCheckpoint

        payload = state.to_payload()
        payload["batch_size"] = True  # a bool is no count
        damaged = [payload]
        payload = state.to_payload()
        if payload["rounds"]:
            payload["rounds"][0]["estimate"].pop("n_folds")
            damaged.append(payload)
        payload = state.to_payload()
        if payload["predictor"] is not None:
            payload["predictor"]["net0_w0"]["data"] = "not base64!"
            damaged.append(payload)
        payload = state.to_payload()
        if payload["targets"]:
            payload["targets"][0] = None
            damaged.append(payload)
        for payload in damaged:
            with pytest.raises(CheckpointError):
                ExplorerCheckpoint.from_payload(payload)
