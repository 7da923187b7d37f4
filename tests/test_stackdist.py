"""Tests for stack-distance profiling, including property-based checks
against a naive reference implementation and the detailed cache model."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.interval import _dedupe_consecutive
from repro.memory import Cache, ReuseProfile, compute_stack_distances
from repro.memory.stackdist import effective_capacity
from repro.workloads.generator import generate_trace

#: sha256 of the distances of mesa's seven profiled streams, concatenated
#: in :meth:`ApplicationProfile.from_trace` order
MESA_DISTANCES_SHA256 = (
    "db9d0b78a0e2c7d4c0e0b77c693285dd80441373908187ad67c4a04e4e62468a"
)


def naive_stack_distances(blocks):
    """O(N^2) reference: distinct blocks since the previous access."""
    out = []
    for i, b in enumerate(blocks):
        prev = None
        for j in range(i - 1, -1, -1):
            if blocks[j] == b:
                prev = j
                break
        if prev is None:
            out.append(-1)
        else:
            out.append(len(set(blocks[prev + 1 : i])))
    return np.array(out, dtype=np.int64)


@st.composite
def reference_streams(draw):
    """Up to 300 references over a small or large alphabet of block ids,
    which span the whole ``uint64`` range (half of them are >= 2**63) or
    a narrow band of small values."""
    length = draw(st.sampled_from([1, 2, 20, 100, 300]))
    alphabet_size = draw(st.sampled_from([1, 3, 12, 300]))
    high = draw(st.sampled_from([16, 2**64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alphabet = rng.integers(0, high, alphabet_size, dtype=np.uint64)
    return rng.choice(alphabet, length)


class TestComputeStackDistances:
    def test_simple_sequence(self):
        # a b a  -> a cold, b cold, a at distance 1
        dist = compute_stack_distances(np.array([1, 2, 1]))
        assert dist.tolist() == [-1, -1, 1]

    def test_immediate_reuse_distance_zero(self):
        dist = compute_stack_distances(np.array([5, 5]))
        assert dist.tolist() == [-1, 0]

    def test_empty_stream(self):
        assert len(compute_stack_distances(np.array([], dtype=np.int64))) == 0

    def test_all_distinct(self):
        dist = compute_stack_distances(np.arange(10))
        assert np.all(dist == -1)

    def test_rejects_2d_input(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            compute_stack_distances(np.zeros((3, 3)))

    @given(reference_streams())
    @settings(max_examples=200, deadline=None)
    def test_matches_naive_reference(self, blocks):
        fast = compute_stack_distances(blocks)
        assert fast.dtype == np.int64
        assert np.array_equal(fast, naive_stack_distances(blocks.tolist()))

    def test_mesa_streams_golden_digest(self):
        """Bit-identity lock over every stream a mesa profile is built from:
        data and load blocks at 32/64/128 B, then 32 B instruction blocks."""
        trace = generate_trace("mesa")
        loads = trace.addr[trace.load_mask]
        streams = [trace.block_addresses(size) for size in (32, 64, 128)]
        streams += [loads >> np.uint64(shift) for shift in (5, 6, 7)]
        streams.append(_dedupe_consecutive(trace.pc >> np.uint64(5)))
        digest = hashlib.sha256()
        for stream in streams:
            distances = compute_stack_distances(stream)
            assert distances.dtype == np.int64
            digest.update(distances.tobytes())
        assert digest.hexdigest() == MESA_DISTANCES_SHA256


class TestEffectiveCapacity:
    def test_monotonic_in_associativity(self):
        capacities = [effective_capacity(64, a) for a in (1, 2, 4, 8, 16)]
        assert capacities == sorted(capacities)

    def test_bounded_by_full_capacity(self):
        assert effective_capacity(64, 64) <= 64

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            effective_capacity(0, 2)
        with pytest.raises(ValueError):
            effective_capacity(64, 0)


class TestReuseProfile:
    def test_miss_curve_monotonic_in_capacity(self, rng):
        blocks = rng.integers(0, 200, 5000)
        profile = ReuseProfile(blocks)
        curve = [profile.miss_count(c) for c in (8, 16, 32, 64, 128, 256)]
        assert all(b <= a + 1e-9 for a, b in zip(curve, curve[1:]))

    def test_huge_cache_only_cold_misses(self, rng):
        blocks = rng.integers(0, 50, 1000)
        profile = ReuseProfile(blocks)
        assert profile.miss_count(10**6) == pytest.approx(profile.n_cold)

    def test_cold_weight_scales_compulsory(self, rng):
        blocks = rng.integers(0, 50, 1000)
        profile = ReuseProfile(blocks)
        full = profile.miss_count(10**6, cold_weight=1.0)
        none = profile.miss_count(10**6, cold_weight=0.0)
        assert none == pytest.approx(0.0)
        assert full == pytest.approx(profile.n_cold)

    def test_cold_weight_validated(self, rng):
        profile = ReuseProfile(rng.integers(0, 5, 100))
        with pytest.raises(ValueError):
            profile.miss_count(8, cold_weight=1.5)

    def test_store_fraction(self):
        blocks = np.array([1, 2, 3, 4])
        stores = np.array([True, True, False, False])
        assert ReuseProfile(blocks, stores).store_fraction == pytest.approx(0.5)

    def test_from_distances_equivalent(self, rng):
        blocks = rng.integers(0, 100, 2000)
        direct = ReuseProfile(blocks)
        via_distances = ReuseProfile.from_distances(
            compute_stack_distances(blocks)
        )
        for capacity in (4, 16, 64, 256):
            assert direct.miss_count(capacity) == pytest.approx(
                via_distances.miss_count(capacity)
            )

    def test_rejects_2d_input(self):
        with pytest.raises(ValueError):
            ReuseProfile(np.zeros((3, 3)))

    def test_miss_ratio_bounds(self, rng):
        profile = ReuseProfile(rng.integers(0, 64, 1000))
        for capacity in (1, 8, 64, 1024):
            ratio = profile.miss_ratio(capacity)
            assert 0.0 <= ratio <= 1.0


class TestAgainstDetailedCache:
    """The stack-distance oracle must agree with the detailed cache for
    fully-associative LRU (where the stack property is exact)."""

    @pytest.mark.parametrize("capacity_blocks", [4, 8, 16, 32])
    def test_fully_associative_exact(self, rng, capacity_blocks):
        blocks = rng.integers(0, 48, 3000)
        profile = ReuseProfile(blocks)
        cache = Cache(capacity_blocks * 64, 64, capacity_blocks)
        for b in blocks:
            cache.access(int(b) * 64)
        assert cache.stats.misses == pytest.approx(
            profile.miss_count(capacity_blocks), abs=0.5
        )

    def test_set_associative_approximation(self, rng, gzip_trace):
        """For real set-associative geometry the effective-capacity model
        must land within a modest relative error of detailed simulation."""
        blocks = gzip_trace.block_addresses(64)
        profile = ReuseProfile(blocks)
        cache = Cache(16 * 1024, 64, 2)
        for b in blocks:
            cache.access(int(b) * 64)
        predicted = profile.miss_count(16 * 1024 // 64, 2)
        actual = cache.stats.misses
        assert predicted == pytest.approx(actual, rel=0.35)
