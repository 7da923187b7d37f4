"""Tests for branch predictors and the BTB."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tests.reference_branch import (
    reference_btb_miss_flags,
    reference_misprediction_flags,
)

from repro.cpu import (
    BimodalPredictor,
    BranchTargetBuffer,
    GSharePredictor,
    LocalPredictor,
    TournamentPredictor,
    measure_btb_miss_rate,
    measure_misprediction_rate,
)
from repro.cpu.branch import btb_miss_flags, misprediction_flags
from repro.cpu.interval import BTB_SETS, PREDICTOR_SIZES
from repro.workloads.generator import generate_trace

#: sha256 of ``np.packbits(flags)`` over mesa's default-length branch
#: stream (26,318 branches); the BTB sees only 20 cold misses at both sizes
MESA_MISPREDICTION_DIGESTS = {
    1024: "dffaa7c230ebed3fbcde7e3e7ba449cdb918be7ce1d4dc39535185debd4e9ca8",
    2048: "de61e42b7603290182eedc1447b699b2dc3329461830d2835aae553473422052",
    4096: "5c7e74a248c6363710232422cc3766fbf6dbfbf594cedfcdc0da5b5cdaf7b7f7",
}
MESA_BTB_DIGESTS = {
    1024: "2713d1447886c5127af7513c0abc8196e60562c9acec3d9cf2f3bfe9fc328296",
    2048: "2713d1447886c5127af7513c0abc8196e60562c9acec3d9cf2f3bfe9fc328296",
}


@st.composite
def _branch_streams(draw, max_size=600):
    """``(pc, target, taken)`` streams over a few static branches, as in a
    program.  Each branch recurs and repeats its own short outcome
    pattern, so counters, histories and BTB sets are revisited in the
    same contexts and actually train; tiny tables alias heavily."""
    static = draw(
        st.lists(
            st.tuples(
                st.integers(0, 1 << 14),
                st.integers(0, 1 << 14),
                st.lists(st.booleans(), min_size=1, max_size=8),
            ),
            min_size=1,
            max_size=48,
        )
    )
    picks = draw(st.lists(st.integers(0, len(static) - 1), max_size=max_size))
    seen = [0] * len(static)
    stream = []
    for i in picks:
        pc, target, pattern = static[i]
        stream.append((pc, target, pattern[seen[i] % len(pattern)]))
        seen[i] += 1
    return stream


class TestBimodal:
    def test_learns_bias(self):
        p = BimodalPredictor(1024)
        for _ in range(10):
            p.update(0x100, True)
        assert p.predict(0x100) is True
        for _ in range(10):
            p.update(0x100, False)
        assert p.predict(0x100) is False

    def test_hysteresis(self):
        p = BimodalPredictor(1024)
        for _ in range(10):
            p.update(0x100, True)
        p.update(0x100, False)  # single flip must not change prediction
        assert p.predict(0x100) is True

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            BimodalPredictor(1000)

    def test_aliasing(self):
        p = BimodalPredictor(4)  # tiny table -> pcs alias
        for _ in range(10):
            p.update(0x0, True)
        # 0x0 and 0x10 alias in a 4-entry table (pc >> 2 & 3)
        assert p.predict(0x10 * 4) is True


class TestGShare:
    def test_learns_alternating_pattern(self):
        p = GSharePredictor(1024)
        outcomes = [True, False] * 200
        correct = 0
        for taken in outcomes:
            if p.predict(0x40) == taken:
                correct += 1
            p.update(0x40, taken)
        # after warmup, the pattern is perfectly predictable via history
        assert correct > 300

    def test_history_updates(self):
        p = GSharePredictor(256, history_bits=4)
        for taken in (True, False, True, True):
            p.update(0x0, taken)
        assert p.history == 0b1011


class TestLocal:
    def test_learns_short_loop(self):
        p = LocalPredictor(1024)
        # loop: taken 3x then not-taken, repeating
        pattern = [True, True, True, False] * 100
        correct = 0
        for taken in pattern:
            if p.predict(0x80) == taken:
                correct += 1
            p.update(0x80, taken)
        assert correct > 300


class TestTournament:
    def test_beats_components_on_mixed_workload(self, rng):
        """Tournament should roughly match the better component per branch."""
        tournament = TournamentPredictor(1024)
        # branch A: strongly biased; branch B: alternating
        sequence = []
        for i in range(600):
            sequence.append((0x100, rng.random() < 0.95))
            sequence.append((0x200, i % 2 == 0))
        mispredicts = 0
        for pc, taken in sequence:
            if tournament.predict(pc) != taken:
                mispredicts += 1
            tournament.update(pc, taken)
        assert mispredicts / len(sequence) < 0.15

    def test_statistics(self):
        p = TournamentPredictor(256)
        for i in range(100):
            p.update(0x10, i % 3 == 0)
        assert p.predictions == 100
        assert 0 <= p.misprediction_rate <= 1

    def test_more_entries_never_much_worse(self, gzip_trace):
        pcs = gzip_trace.pc[gzip_trace.branch_mask]
        outcomes = gzip_trace.taken[gzip_trace.branch_mask]
        small = measure_misprediction_rate(pcs, outcomes, 512)
        large = measure_misprediction_rate(pcs, outcomes, 4096)
        assert large <= small + 0.02

    def test_flags_match_rate(self, gzip_trace):
        pcs = gzip_trace.pc[gzip_trace.branch_mask][:500]
        outcomes = gzip_trace.taken[gzip_trace.branch_mask][:500]
        flags = misprediction_flags(pcs, outcomes, 1024)
        rate = measure_misprediction_rate(pcs, outcomes, 1024)
        assert float(np.mean(flags)) == pytest.approx(rate)

    def test_empty_stream(self):
        assert measure_misprediction_rate([], [], 1024) == 0.0


class TestBTB:
    def test_caches_targets(self):
        btb = BranchTargetBuffer(256, 2)
        assert btb.lookup(0x100) == -1
        btb.update(0x100, 0x500)
        assert btb.lookup(0x100) == 0x500

    def test_lru_within_set(self):
        btb = BranchTargetBuffer(1, 2)  # single set, 2 ways
        btb.update(0x0, 1)
        btb.update(0x4, 2)
        btb.lookup(0x0)  # refresh
        btb.update(0x8, 3)  # evicts 0x4
        assert btb.lookup(0x0) == 1
        assert btb.lookup(0x4) == -1

    def test_update_existing_changes_target(self):
        btb = BranchTargetBuffer(16, 2)
        btb.update(0x100, 0x500)
        btb.update(0x100, 0x900)
        assert btb.lookup(0x100) == 0x900

    def test_miss_rate_measurement(self, gzip_trace):
        mask = gzip_trace.branch_mask
        rate_small = measure_btb_miss_rate(
            gzip_trace.pc[mask],
            gzip_trace.target[mask],
            gzip_trace.taken[mask],
            sets=16,
        )
        rate_large = measure_btb_miss_rate(
            gzip_trace.pc[mask],
            gzip_trace.target[mask],
            gzip_trace.taken[mask],
            sets=2048,
        )
        assert 0.0 <= rate_large <= rate_small <= 1.0

    def test_flags_only_mark_taken(self, gzip_trace):
        mask = gzip_trace.branch_mask
        flags = btb_miss_flags(
            gzip_trace.pc[mask][:300],
            gzip_trace.target[mask][:300],
            gzip_trace.taken[mask][:300],
            sets=64,
        )
        not_taken = ~np.asarray(gzip_trace.taken[mask][:300])
        assert not np.any(flags & not_taken)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            BranchTargetBuffer(100, 2)
        with pytest.raises(ValueError):
            BranchTargetBuffer(128, 0)


def _flags_digest(flags):
    return hashlib.sha256(np.packbits(flags).tobytes()).hexdigest()


@pytest.fixture(scope="module")
def mesa_branches():
    trace = generate_trace("mesa")
    mask = trace.branch_mask
    return trace.pc[mask], trace.target[mask], trace.taken[mask]


class TestFlatLoops:
    """The flat-loop passes against the class-stepped reference."""

    @settings(max_examples=120, deadline=None)
    @given(
        stream=_branch_streams(),
        entries=st.sampled_from((4, 8, 16, 32, 64) + PREDICTOR_SIZES),
        as_arrays=st.booleans(),
    )
    def test_misprediction_flags_match_reference(self, stream, entries, as_arrays):
        pcs = [pc for pc, _, _ in stream]
        outcomes = [int(taken) for _, _, taken in stream]  # 0/1, not bool
        if as_arrays:
            pcs = np.array(pcs, dtype=np.uint64)
            outcomes = np.array(outcomes, dtype=bool)
        got = misprediction_flags(pcs, outcomes, entries)
        want = reference_misprediction_flags(pcs, outcomes, entries)
        assert got.dtype == want.dtype == bool
        np.testing.assert_array_equal(got, want)

    @settings(max_examples=120, deadline=None)
    @given(
        stream=_branch_streams(),
        sets=st.sampled_from((1, 2, 4, 16, 64) + BTB_SETS),
        ways=st.sampled_from((1, 2, 4)),
        as_arrays=st.booleans(),
    )
    def test_btb_miss_flags_match_reference(self, stream, sets, ways, as_arrays):
        pcs = [pc for pc, _, _ in stream]
        targets = [target for _, target, _ in stream]
        taken = [int(t) for _, _, t in stream]  # 0/1, not bool
        if as_arrays:
            pcs = np.array(pcs, dtype=np.uint64)
            targets = np.array(targets, dtype=np.uint64)
            taken = np.array(taken, dtype=bool)
        got = btb_miss_flags(pcs, targets, taken, sets, ways)
        want = reference_btb_miss_flags(pcs, targets, taken, sets, ways)
        assert got.dtype == want.dtype == bool
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("entries", (4, 16, 64) + PREDICTOR_SIZES)
    def test_misprediction_flags_match_reference_on_traces(
        self, gzip_trace, mcf_trace, entries
    ):
        for trace in (gzip_trace, mcf_trace):
            pcs = trace.pc[trace.branch_mask]
            taken = trace.taken[trace.branch_mask]
            np.testing.assert_array_equal(
                misprediction_flags(pcs, taken, entries),
                reference_misprediction_flags(pcs, taken, entries),
            )

    @pytest.mark.parametrize("ways", (1, 2, 4))
    @pytest.mark.parametrize("sets", (1, 4, 16) + BTB_SETS)
    def test_btb_miss_flags_match_reference_on_traces(
        self, gzip_trace, mcf_trace, sets, ways
    ):
        for trace in (gzip_trace, mcf_trace):
            mask = trace.branch_mask
            args = (trace.pc[mask], trace.target[mask], trace.taken[mask], sets, ways)
            np.testing.assert_array_equal(
                btb_miss_flags(*args), reference_btb_miss_flags(*args)
            )

    def test_empty_streams(self):
        for pcs in ([], np.array([], dtype=np.uint64)):
            flags = misprediction_flags(pcs, [], 1024)
            assert flags.dtype == bool and flags.shape == (0,)
            flags = btb_miss_flags(pcs, [], [], 1024)
            assert flags.dtype == bool and flags.shape == (0,)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            misprediction_flags([0], [1], 1000)
        with pytest.raises(ValueError):
            btb_miss_flags([0], [0], [1], 100)
        with pytest.raises(ValueError):
            btb_miss_flags([0], [0], [1], 128, ways=0)

    @pytest.mark.parametrize("entries", PREDICTOR_SIZES)
    def test_mesa_misprediction_digest(self, mesa_branches, entries):
        pcs, _, taken = mesa_branches
        flags = misprediction_flags(pcs, taken, entries)
        assert _flags_digest(flags) == MESA_MISPREDICTION_DIGESTS[entries]

    @pytest.mark.parametrize("sets", BTB_SETS)
    def test_mesa_btb_digest(self, mesa_branches, sets):
        pcs, targets, taken = mesa_branches
        flags = btb_miss_flags(pcs, targets, taken, sets)
        assert _flags_digest(flags) == MESA_BTB_DIGESTS[sets]
