"""Tests for the fault-tolerance layer (resilience, faults, validation)."""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CellFaultPlan,
    DesignSpaceExplorer,
    EvaluationError,
    EvaluationTimeout,
    FaultInjectingBackend,
    FaultPlan,
    InjectedFault,
    ResilientBackend,
    RetryPolicy,
    RunContext,
    SerialBackend,
    validate_targets,
)
from repro.core.backend import invalid_target_mask
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import RunTelemetry

from .test_explorer import smooth_simulator


def constant_fn(config):
    return 1.5


class TestValidation:
    def test_invalid_target_mask(self):
        mask = invalid_target_mask([1.0, np.nan, np.inf, -2.0, 0.0])
        assert mask.tolist() == [False, True, True, True, True]

    def test_validate_targets_passes_clean_values(self):
        values = validate_targets([0.5, 1.25], [{"a": 1}, {"a": 2}])
        np.testing.assert_array_equal(values, [0.5, 1.25])

    def test_validate_targets_names_the_config(self):
        with pytest.raises(EvaluationError) as excinfo:
            validate_targets([1.0, np.nan], [{"a": 1}, {"a": 2}])
        assert "'a': 2" in str(excinfo.value)
        assert "1 invalid of 2" in str(excinfo.value)

    def test_serial_backend_rejects_negative_ipc(self):
        backend = SerialBackend(lambda config: -1.0)
        with pytest.raises(EvaluationError):
            backend.evaluate([{"a": 1}])


class TestRetryPolicy:
    def test_validates_attempts(self):
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(max_retries=-1)

    def test_validates_delays(self):
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=-1.0)

    def test_is_retryable(self):
        policy = RetryPolicy()
        assert policy.is_retryable(EvaluationError("x"))
        assert policy.is_retryable(EvaluationTimeout("x"))
        assert policy.is_retryable(InjectedFault("x"))
        assert not policy.is_retryable(ValueError("x"))

    def test_zero_base_delay_never_sleeps(self):
        policy = RetryPolicy(base_delay_s=0.0)
        assert all(policy.delay_s(attempt) == 0.0 for attempt in range(1, 5))

    def test_exponential_backoff_is_capped(self):
        policy = RetryPolicy(
            max_retries=9, base_delay_s=1.0, backoff=10.0,
            max_delay_s=5.0, jitter=0.0,
        )
        assert policy.delay_s(1) == 1.0
        assert policy.delay_s(2) == 5.0  # 10.0 capped
        assert policy.delay_s(5) == 5.0

    def test_jitter_is_seeded(self):
        def delays(seed):
            policy = RetryPolicy(
                base_delay_s=0.1, jitter=0.5, seed=seed
            )
            return [policy.delay_s(a) for a in range(1, 6)]

        assert delays(7) == delays(7)
        assert delays(7) != delays(8)
        base = RetryPolicy(base_delay_s=0.1, jitter=0.5)
        for attempt in range(1, 6):
            delay = base.delay_s(attempt)
            floor = min(0.1 * 2.0 ** (attempt - 1), 30.0)
            assert floor <= delay <= floor * 1.5


class TestResilientBackend:
    def test_clean_batch_passes_through(self):
        backend = ResilientBackend(constant_fn)
        values = backend.evaluate([{"a": 1}, {"a": 2}])
        np.testing.assert_array_equal(values, [1.5, 1.5])
        assert backend.failures == []

    def test_empty_batch(self):
        assert ResilientBackend(constant_fn).evaluate([]).shape == (0,)

    def test_rejects_bad_timeout(self):
        with pytest.raises(ValueError):
            ResilientBackend(constant_fn, timeout_s=0.0)

    def test_transient_crash_recovers(self):
        calls = {"n": 0}

        def flaky(config):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise EvaluationError("transient")
            return 2.0

        metrics = MetricsRegistry(enabled=True)
        telemetry = RunTelemetry()
        backend = ResilientBackend(
            flaky, policy=RetryPolicy(max_retries=3),
            telemetry=telemetry, metrics=metrics,
        )
        values = backend.evaluate([{"a": 1}])
        np.testing.assert_array_equal(values, [2.0])
        assert backend.failures == []
        # batch attempt + one per-config failure, then success
        assert metrics.counter("retry.batch_failures") == 1
        assert metrics.counter("retry.attempts") == 1
        assert metrics.counter("retry.recovered") == 1
        assert telemetry.events_named("retry.recovered")

    def test_exhausted_retries_degrade_to_nan(self):
        def always_broken(config):
            raise EvaluationError("permanently broken")

        metrics = MetricsRegistry(enabled=True)
        telemetry = RunTelemetry()
        backend = ResilientBackend(
            always_broken, policy=RetryPolicy(max_retries=2),
            telemetry=telemetry, metrics=metrics,
        )
        values = backend.evaluate([{"a": 1}, {"a": 2}])
        assert np.isnan(values).all()
        assert len(backend.failures) == 2
        failure = backend.failures[0]
        assert failure.attempts == 3
        assert "permanently broken" in failure.error
        assert metrics.counter("retry.exhausted") == 2
        exhausted = telemetry.events_named("retry.exhausted")
        assert [e.payload["config"] for e in exhausted] == [
            {"a": 1}, {"a": 2}
        ]

    def test_invalid_values_are_retried_per_config(self):
        calls = {"n": 0}

        def nan_once(config):
            calls["n"] += 1
            return float("nan") if calls["n"] == 1 else 3.0

        # bypass SerialBackend's validate_targets so the NaN reaches the
        # resilience layer as a *value*, the way an injected fault does
        class RawBackend(SerialBackend):
            def evaluate(self, configs):
                return np.asarray(
                    [float(self.fn(c)) for c in configs], dtype=np.float64
                )

        backend = ResilientBackend(RawBackend(nan_once))
        values = backend.evaluate([{"a": 1}, {"a": 2}])
        np.testing.assert_array_equal(values, [3.0, 3.0])
        assert backend.failures == []

    def test_non_retryable_exception_propagates(self):
        def broken(config):
            raise ValueError("a bug, not an infrastructure fault")

        backend = ResilientBackend(broken)
        with pytest.raises(ValueError):
            backend.evaluate([{"a": 1}])

    def test_timeout_aborts_and_retries(self):
        calls = {"n": 0}

        def slow_once(config):
            calls["n"] += 1
            if calls["n"] == 1:
                time.sleep(0.5)
            return 4.0

        metrics = MetricsRegistry(enabled=True)
        backend = ResilientBackend(
            slow_once, policy=RetryPolicy(max_retries=2),
            timeout_s=0.05, metrics=metrics,
        )
        values = backend.evaluate([{"a": 1}])
        np.testing.assert_array_equal(values, [4.0])
        assert metrics.counter("retry.batch_failures") == 1

    def test_timeout_exhaustion_marks_failed(self):
        def always_hung(config):
            time.sleep(10.0)
            return 1.0  # pragma: no cover - never reached in time

        backend = ResilientBackend(
            always_hung, policy=RetryPolicy(max_retries=1),
            timeout_s=0.02,
        )
        values = backend.evaluate([{"a": 1}])
        assert np.isnan(values).all()
        assert backend.failures[0].attempts == 2
        assert "EvaluationTimeout" in backend.failures[0].error

    def test_hung_evaluation_is_abandoned_and_retried(self):
        """A timed-out evaluation is left on its daemon watchdog thread
        (a thread cannot be killed) and the retry runs on a fresh one."""
        release = threading.Event()
        calls = []

        def hang_first(config):
            calls.append(threading.current_thread())
            if len(calls) == 1:
                release.wait(5.0)
            return 1.5

        metrics = MetricsRegistry(enabled=True)
        backend = ResilientBackend(
            hang_first, policy=RetryPolicy(max_retries=2),
            timeout_s=0.05, metrics=metrics,
        )
        try:
            values = backend.evaluate([{"a": 1}])
            abandoned = calls[0]
            assert abandoned.is_alive() and abandoned.daemon
        finally:
            release.set()
        np.testing.assert_array_equal(values, [1.5])
        assert len(calls) == 2 and calls[1] is not abandoned
        assert metrics.counter("retry.batch_failures") == 1
        assert metrics.counter("retry.recovered") == 1

    def test_close_closes_inner(self):
        class Closeable(SerialBackend):
            closed = False

            def close(self):
                self.closed = True

        inner = Closeable(constant_fn)
        ResilientBackend(inner).close()
        assert inner.closed


class TestFaultPlan:
    def test_validates_probabilities(self):
        with pytest.raises(ValueError):
            FaultPlan(crash=1.5)
        with pytest.raises(ValueError):
            FaultPlan(crash=0.6, nan=0.6)

    def test_pick_maps_cumulative_ranges(self):
        plan = FaultPlan(crash=0.2, nan=0.2, hang=0.1, slow=0.1)
        assert plan.pick(0.0) == "crash"
        assert plan.pick(0.19) == "crash"
        assert plan.pick(0.2) == "nan"
        assert plan.pick(0.45) == "hang"
        assert plan.pick(0.55) == "slow"
        assert plan.pick(0.9) is None

    def test_parse(self):
        plan = FaultPlan.parse("crash=0.15, nan=0.1, slow_s=0.001")
        assert plan.crash == 0.15
        assert plan.nan == 0.1
        assert plan.slow_s == 0.001

    def test_parse_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("explode=0.5")
        with pytest.raises(ValueError):
            FaultPlan.parse("crash")


class TestFaultInjectingBackend:
    def test_fault_stream_is_seeded(self):
        def run(seed):
            backend = FaultInjectingBackend(
                constant_fn, FaultPlan(nan=0.5), seed=seed
            )
            values = backend.evaluate([{"a": i} for i in range(20)])
            return np.isnan(values).tolist(), backend.injected

        assert run(3) == run(3)
        assert run(3) != run(4)

    def test_crash_raises_injected_fault(self):
        backend = FaultInjectingBackend(
            constant_fn, FaultPlan(crash=1.0), seed=0
        )
        with pytest.raises(InjectedFault):
            backend.evaluate([{"a": 1}])
        assert backend.injected == 1

    def test_injections_are_narrated(self):
        metrics = MetricsRegistry(enabled=True)
        telemetry = RunTelemetry()
        backend = FaultInjectingBackend(
            constant_fn, FaultPlan(nan=1.0), seed=0,
            telemetry=telemetry, metrics=metrics,
        )
        backend.evaluate([{"a": 1}, {"a": 2}])
        assert metrics.counter("fault.injected") == 2
        assert metrics.counter("fault.nan") == 2
        assert len(telemetry.events_named("fault.injected")) == 2

    def test_slow_fault_still_returns_correct_value(self):
        backend = FaultInjectingBackend(
            constant_fn, FaultPlan(slow=1.0, slow_s=0.001), seed=0
        )
        values = backend.evaluate([{"a": 1}])
        np.testing.assert_array_equal(values, [1.5])


class TestChaosEquivalence:
    def test_faulty_run_converges_to_fault_free_trajectory(
        self, tiny_space, fast_training
    ):
        """The resilience layer's central claim: a chaos run (seeded
        crash/NaN/slow faults + retries) loses zero simulations and
        reproduces the fault-free exploration bit for bit, because the
        fault and retry streams are independent of the sampling RNG."""

        def explore(backend):
            explorer = DesignSpaceExplorer(
                tiny_space, backend, batch_size=10, k=4,
                training=fast_training, context=RunContext.seeded(3),
            )
            return explorer.explore(target_error=3.0, max_simulations=30)

        clean = explore(SerialBackend(smooth_simulator))

        plan = FaultPlan(crash=0.15, nan=0.1, slow=0.05, slow_s=0.0)
        chaotic_backend = ResilientBackend(
            FaultInjectingBackend(smooth_simulator, plan, seed=7),
            policy=RetryPolicy(max_retries=9),
        )
        chaotic = explore(chaotic_backend)

        assert chaotic_backend.inner.injected > 0, "chaos run saw no faults"
        assert chaotic_backend.failures == []
        assert chaotic.sampled_indices == clean.sampled_indices
        assert chaotic.primary_targets == clean.primary_targets
        assert chaotic.final_estimate.mean == clean.final_estimate.mean
        np.testing.assert_array_equal(
            chaotic.predict_space(), clean.predict_space()
        )


class TestRetryPolicyProperties:
    """Hypothesis property tests for the backoff schedule (satellite of
    the campaign PR: the whole-cell retry loop trusts these invariants)."""

    @given(
        max_retries=st.integers(min_value=0, max_value=8),
        base=st.floats(min_value=0.001, max_value=2.0),
        backoff=st.floats(min_value=1.0, max_value=4.0),
        cap=st.floats(min_value=0.5, max_value=10.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(deadline=None, max_examples=60)
    def test_capped_schedule_is_monotone_nondecreasing(
        self, max_retries, base, backoff, cap, seed
    ):
        policy = RetryPolicy(
            max_retries=max_retries, base_delay_s=base, backoff=backoff,
            max_delay_s=cap, jitter=0.0, seed=seed,
        )
        schedule = policy.schedule(max_retries)
        assert len(schedule) == max_retries
        assert all(a <= b for a, b in zip(schedule, schedule[1:]))
        assert all(d <= cap for d in schedule)

    @given(
        base=st.floats(min_value=0.001, max_value=2.0),
        jitter=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(deadline=None, max_examples=60)
    def test_jitter_stays_within_bounds(self, base, jitter, seed):
        policy = RetryPolicy(
            max_retries=6, base_delay_s=base, jitter=jitter, seed=seed,
        )
        for attempt, delay in enumerate(policy.schedule(6), start=1):
            floor = min(base * 2.0 ** (attempt - 1), policy.max_delay_s)
            assert floor <= delay <= floor * (1.0 + jitter) + 1e-12

    @given(
        base=st.floats(min_value=0.001, max_value=2.0),
        jitter=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**16),
        n=st.integers(min_value=0, max_value=10),
    )
    @settings(deadline=None, max_examples=60)
    def test_schedule_is_bit_identical_for_fixed_seed(
        self, base, jitter, seed, n
    ):
        def build():
            return RetryPolicy(
                max_retries=10, base_delay_s=base, jitter=jitter, seed=seed,
            )

        assert build().schedule(n) == build().schedule(n)
        # schedule() must agree with sequential delay_s() draws on a
        # fresh policy: both views of the backoff are the same stream
        assert build().schedule(n) == [
            build_once.delay_s(attempt)
            for build_once in [build()]
            for attempt in range(1, n + 1)
        ]

    def test_schedule_rejects_negative_length(self):
        with pytest.raises(ValueError):
            RetryPolicy().schedule(-1)


class TestFaultPlanMessages:
    """Parse errors must name the offending token and the valid kinds."""

    def test_unknown_kind_names_token_and_choices(self):
        with pytest.raises(ValueError) as excinfo:
            FaultPlan.parse("explode=0.5")
        message = str(excinfo.value)
        assert "explode" in message
        for kind in FaultPlan.KINDS:
            assert kind in message

    def test_missing_value_names_component(self):
        with pytest.raises(ValueError) as excinfo:
            FaultPlan.parse("crash")
        assert "crash" in str(excinfo.value)

    def test_bad_float_names_token(self):
        with pytest.raises(ValueError) as excinfo:
            FaultPlan.parse("crash=lots")
        assert "lots" in str(excinfo.value)


class TestCellFaultPlan:
    def test_validates_probabilities(self):
        with pytest.raises(ValueError):
            CellFaultPlan(crash=1.5)
        with pytest.raises(ValueError):
            CellFaultPlan(crash=0.6, hang=0.6)
        with pytest.raises(ValueError):
            CellFaultPlan(hang=0.1, hang_s=0.0)

    def test_decide_is_a_pure_function_of_seed_and_id(self):
        plan = CellFaultPlan(crash=0.3, seed=7)
        cell_ids = [f"study.mcf.random.s{i}.n40" for i in range(50)]
        first = [plan.decide(cid) for cid in cell_ids]
        again = [plan.decide(cid) for cid in cell_ids]
        assert first == again
        other_seed = [
            CellFaultPlan(crash=0.3, seed=8).decide(cid) for cid in cell_ids
        ]
        assert first != other_seed

    def test_decide_rates_are_roughly_honoured(self):
        plan = CellFaultPlan(crash=0.5, seed=0)
        decisions = [plan.decide(f"cell-{i}") for i in range(400)]
        crashes = decisions.count("crash")
        assert 120 < crashes < 280  # ~50% with generous slack

    def test_roundtrips_through_dict(self):
        plan = CellFaultPlan(crash=0.2, hang=0.1, hang_s=42.0, seed=9)
        assert CellFaultPlan.from_dict(plan.to_dict()) == plan

    def test_parse(self):
        plan = CellFaultPlan.parse("crash=0.2, hang=0.1, hang_s=60", seed=3)
        assert plan.crash == 0.2
        assert plan.hang == 0.1
        assert plan.hang_s == 60.0
        assert plan.seed == 3

    def test_parse_rejects_unknown_kind_naming_choices(self):
        with pytest.raises(ValueError) as excinfo:
            CellFaultPlan.parse("nan=0.5")
        message = str(excinfo.value)
        assert "nan" in message
        assert "crash" in message and "hang" in message
