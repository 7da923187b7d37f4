"""Tests for the SIM(p, A) facade and its caches."""

import dataclasses
import pickle

import pytest

from repro.cpu import (
    MachineConfig,
    Simulator,
    clear_simulator_caches,
    get_application_profile,
    get_interval_simulator,
)
from repro.cpu.interval import ApplicationProfile
from repro.workloads.generator import generate_trace
from repro.workloads.spec import get_workload

TRACE_LEN = 6_000


class TestFacade:
    def test_interval_engine(self):
        sim = Simulator("interval", trace_length=TRACE_LEN)
        ipc = sim.simulate_ipc(MachineConfig(), "gzip")
        assert 0.0 < ipc < 4.0

    def test_cycle_engine(self):
        sim = Simulator("cycle", trace_length=TRACE_LEN)
        ipc = sim.simulate_ipc(MachineConfig(), "gzip")
        assert 0.0 < ipc < 4.0

    def test_callable(self):
        sim = Simulator("interval", trace_length=TRACE_LEN)
        assert sim(MachineConfig(), "gzip") == sim.simulate_ipc(
            MachineConfig(), "gzip"
        )

    def test_detailed_result(self):
        sim = Simulator("interval", trace_length=TRACE_LEN)
        result = sim.simulate_detailed(MachineConfig(), "gzip")
        assert result.instructions > 0

    def test_unknown_engine(self):
        with pytest.raises(ValueError):
            Simulator("magic")


class TestCaches:
    def test_profile_memoized(self):
        a = get_application_profile("gzip", TRACE_LEN)
        b = get_application_profile("gzip", TRACE_LEN)
        assert a is b

    def test_interval_simulator_memoized(self):
        a = get_interval_simulator("gzip", TRACE_LEN)
        b = get_interval_simulator("gzip", TRACE_LEN)
        assert a is b

    def test_clear_caches(self):
        a = get_interval_simulator("gzip", TRACE_LEN)
        clear_simulator_caches()
        b = get_interval_simulator("gzip", TRACE_LEN)
        assert a is not b

    def test_disk_cache_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_simulator_caches()
        first = get_application_profile("gzip", TRACE_LEN)
        clear_simulator_caches()
        second = get_application_profile("gzip", TRACE_LEN)
        assert first.mix == second.mix
        assert first.mispredict_rates == second.mispredict_rates
        assert any(tmp_path.glob("profile-*.pkl"))
        clear_simulator_caches()

    def test_disk_cache_disabled_by_empty_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "")
        clear_simulator_caches()
        profile = get_application_profile("gzip", TRACE_LEN)
        assert profile.n_instructions > 0
        clear_simulator_caches()

    def test_corrupt_cache_entry_rebuilt(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_simulator_caches()
        get_application_profile("gzip", TRACE_LEN)
        for path in tmp_path.glob("profile-*.pkl"):
            path.write_bytes(b"not a pickle")
        clear_simulator_caches()
        profile = get_application_profile("gzip", TRACE_LEN)
        assert profile.n_instructions > 0
        clear_simulator_caches()


class TestProfileCacheKey:
    """Profiles are keyed on the requested trace length, so a warm cache
    never regenerates the trace."""

    @pytest.fixture
    def cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_simulator_caches()
        yield tmp_path
        clear_simulator_caches()

    def test_disk_hit_never_generates_the_trace(self, cache_dir, monkeypatch):
        get_application_profile("gzip", TRACE_LEN)
        clear_simulator_caches()

        def no_trace(*args, **kwargs):
            raise AssertionError("generate_trace called on a cache hit")

        monkeypatch.setattr("repro.cpu.simulator.generate_trace", no_trace)
        cached = get_application_profile("gzip", TRACE_LEN)
        built = ApplicationProfile.from_trace(generate_trace("gzip", TRACE_LEN))
        assert pickle.dumps(cached) == pickle.dumps(built)

    def test_default_and_explicit_length_share_one_entry(
        self, cache_dir, monkeypatch
    ):
        gzip = get_workload("gzip")
        short = dataclasses.replace(gzip, trace_length=TRACE_LEN)
        monkeypatch.setattr(
            "repro.cpu.simulator.get_workload", lambda name: short
        )
        # a second memo entry would load its own copy from disk
        assert get_application_profile("gzip") is get_application_profile(
            "gzip", TRACE_LEN
        )
        assert get_interval_simulator("gzip") is get_interval_simulator(
            "gzip", TRACE_LEN
        )
        assert [p.name for p in cache_dir.glob("profile-*.pkl")] == [
            f"profile-v2-gzip-{TRACE_LEN}-{gzip.seed}.pkl"
        ]

    def test_version_1_file_is_ignored(self, cache_dir):
        seed = get_workload("gzip").seed
        planted = ApplicationProfile.from_trace(generate_trace("crafty", TRACE_LEN))
        stale = cache_dir / f"profile-v1-gzip-{TRACE_LEN}-{seed}.pkl"
        stale.write_bytes(pickle.dumps(planted))
        profile = get_application_profile("gzip", TRACE_LEN)
        assert profile.name == "gzip"
        assert (cache_dir / f"profile-v2-gzip-{TRACE_LEN}-{seed}.pkl").exists()
