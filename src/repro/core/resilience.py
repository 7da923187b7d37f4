"""Fault tolerance around the evaluation pipeline.

The paper's premise is that simulation is the scarce resource — days per
design point at full scale (Section 5, Table 5.1) — so a production
deployment of the explorer must survive simulator crashes, hung
evaluations and flaky hosts *without losing already-simulated points*.
This module wraps any :class:`~repro.core.backend.EvaluationBackend` in
that discipline:

* :class:`RetryPolicy` — how many attempts a configuration gets, which
  exception classes are worth retrying, and how long to back off
  between attempts (exponential, with jitter drawn from a *seeded*
  generator so delay sequences are reproducible);
* :class:`ResilientBackend` — the wrapper itself.  A batch is first
  attempted whole; on a retryable failure it degrades to
  per-configuration evaluation with retries, enforces an optional
  per-evaluation timeout, and on exhausted retries marks the
  configuration *failed* (NaN target) instead of aborting the run.
  Downstream, :func:`repro.core.fitting.fit_cv_round` masks NaN rows
  before training and the error estimate reports coverage, so one
  irrecoverable design point costs exactly one design point, not the
  whole run.

Everything the wrapper does is narrated through the run's telemetry
(``retry.*`` events) and metrics (``retry.*`` counters); see
``docs/robustness.md`` for the full vocabulary and
:mod:`repro.core.faults` for the chaos harness that proves the
semantics in CI.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Type

import numpy as np

from ..designspace.space import Config
from ..obs.metrics import METRICS, MetricsRegistry
from ..obs.telemetry import NULL_TELEMETRY, RunTelemetry
from .backend import (
    EvaluationError,
    _BaseBackend,
    as_backend,
    invalid_target_mask,
)


class EvaluationTimeout(EvaluationError):
    """A single evaluation exceeded the configured wall-clock budget."""


class DeadlineExceeded(RuntimeError):
    """The enclosing job's wall-clock deadline expired mid-evaluation.

    Deliberately **not** an :class:`~repro.core.backend.EvaluationError`
    (and therefore not retryable): a per-evaluation timeout is worth
    another attempt, but no number of retries can beat an absolute
    deadline that has already passed.  It propagates straight out of
    ``evaluate`` so the worker fails fast; the service classifies the
    failure as ``deadline`` and — because the exploration checkpoint
    survives — a retried attempt resumes from the last completed round
    with a fresh deadline instead of starting over.
    """


@dataclass
class RetryPolicy:
    """When and how to retry a failed evaluation.

    Parameters
    ----------
    max_retries:
        Retries each configuration gets after its first attempt (the
        CLI's ``--max-retries`` spelling, now canonical across the
        library — see ``docs/api.md``).  ``0`` disables retries
        entirely; the default is 2 (three total attempts).
        :attr:`max_attempts` reads the total, ``max_retries + 1``.
    base_delay_s:
        Backoff before the second attempt; ``0`` (the default) sleeps
        not at all, which is what tests want.
    backoff:
        Multiplier applied to the delay after each failed attempt.
    max_delay_s:
        Upper bound on any single backoff sleep.
    jitter:
        Fraction of random spread added to each delay: the sleep is
        ``delay * (1 + jitter * u)`` with ``u`` uniform in ``[0, 1)``.
        The jitter stream is seeded (``seed``), so a replayed run backs
        off identically — "jittered but seeded".
    retryable:
        Exception classes worth retrying.  Defaults to
        :class:`~repro.core.backend.EvaluationError` (which covers
        invalid simulator outputs, timeouts and injected faults);
        anything else propagates immediately.
    seed:
        Seed for the jitter generator.  Deliberately *not* the run
        context's generator: retries must never perturb the sampling
        stream, or a recovered run would diverge from a fault-free one.
    """

    max_retries: int = 2
    base_delay_s: float = 0.0
    backoff: float = 2.0
    max_delay_s: float = 30.0
    jitter: float = 0.5
    retryable: Tuple[Type[BaseException], ...] = (EvaluationError,)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be non-negative")
        if self.backoff < 1.0:
            raise ValueError(
                f"backoff must be >= 1 (delays may never shrink between "
                f"attempts), got {self.backoff}"
            )
        if self.jitter < 0:
            raise ValueError(f"jitter must be non-negative, got {self.jitter}")
        self._rng = np.random.default_rng(self.seed)

    @property
    def max_attempts(self) -> int:
        """Total attempts per configuration, first try included."""
        return self.max_retries + 1

    def is_retryable(self, exc: BaseException) -> bool:
        """Whether ``exc`` is worth another attempt."""
        return isinstance(exc, self.retryable)

    def _capped_delay(self, attempt: int) -> float:
        """The un-jittered exponential delay before attempt ``attempt + 1``."""
        return min(
            self.base_delay_s * self.backoff ** (attempt - 1),
            self.max_delay_s,
        )

    def delay_s(self, attempt: int) -> float:
        """Backoff before attempt ``attempt + 1`` (``attempt`` >= 1).

        Exponential in the attempt number, capped at ``max_delay_s``,
        jittered from the policy's own seeded generator.
        """
        if self.base_delay_s <= 0:
            return 0.0
        delay = self._capped_delay(attempt)
        if self.jitter > 0:
            delay *= 1.0 + self.jitter * float(self._rng.random())
        return delay

    def schedule(self, n_delays: int) -> List[float]:
        """The first ``n_delays`` backoff sleeps a fresh policy would take.

        Uses a generator freshly seeded with ``seed`` rather than the
        policy's own (stateful) one, so the returned schedule is
        bit-identical no matter how many delays were already consumed —
        and identical to the sequence ``delay_s(1..n)`` returns on a
        newly constructed policy.  This is what lets a resumed campaign
        driver replay the exact backoff a crashed driver would have
        used (see :mod:`repro.campaign.runner`).
        """
        if n_delays < 0:
            raise ValueError(f"n_delays must be non-negative, got {n_delays}")
        rng = np.random.default_rng(self.seed)
        delays = []
        for attempt in range(1, n_delays + 1):
            if self.base_delay_s <= 0:
                delays.append(0.0)
                continue
            delay = self._capped_delay(attempt)
            if self.jitter > 0:
                delay *= 1.0 + self.jitter * float(rng.random())
            delays.append(delay)
        return delays


@dataclass
class FailedEvaluation:
    """One configuration that exhausted its retry budget."""

    config: Config
    attempts: int
    error: str


@dataclass
class _AttemptOutcome:
    """Result slot filled by the timeout-guarded evaluation thread."""

    value: Optional[np.ndarray] = None
    error: Optional[BaseException] = None
    done: bool = False


class ResilientBackend(_BaseBackend):
    """Retry / timeout / graceful-degradation wrapper for any backend.

    Parameters
    ----------
    inner:
        The backend (or plain callable) doing the real work.
    policy:
        :class:`RetryPolicy`; defaults to three attempts, no sleep.
    timeout_s:
        Optional wall-clock budget per ``inner.evaluate`` call.  When
        set, evaluations run on a daemon watchdog thread; exceeding the
        budget raises :class:`EvaluationTimeout` internally (retryable).
        A thread cannot be killed, so the hung evaluation is abandoned,
        not stopped: it keeps its thread until it returns or the
        process exits.  The boundary that kills hung work is the
        campaign-cell / service-job worker process
        (:mod:`repro.core.supervise`).
    deadline:
        Optional **absolute** ``time.monotonic()`` deadline for the
        whole exploration this backend serves (how the service
        propagates per-job deadlines down to evaluations).  Each inner
        call's effective timeout is clipped to the time remaining;
        once the deadline passes, evaluations raise
        :class:`DeadlineExceeded` — which is *not* retryable — instead
        of consuming simulator time nobody is waiting for.
    telemetry / metrics:
        Observability hooks; every retry, recovery and exhausted budget
        is emitted as a ``retry.*`` event and counted under a
        ``retry.*`` counter.

    Semantics
    ---------
    ``evaluate`` first attempts the whole batch through the inner
    backend.  On a retryable failure, or when the batch comes back with
    invalid values (NaN/inf/<= 0), it falls back to per-configuration
    evaluation: each affected configuration gets up to
    ``policy.max_attempts`` total attempts (the batch attempt counts as
    the first).  A configuration that
    exhausts its budget is marked **failed** — its slot in the returned
    array is NaN, it is recorded in :attr:`failures`, and the run
    continues — rather than aborting the whole exploration.
    """

    def __init__(
        self,
        inner: object,
        policy: Optional[RetryPolicy] = None,
        timeout_s: Optional[float] = None,
        telemetry: Optional[RunTelemetry] = None,
        metrics: Optional[MetricsRegistry] = None,
        deadline: Optional[float] = None,
    ):
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {timeout_s}")
        self.inner = as_backend(inner)
        self.policy = policy or RetryPolicy()
        self.timeout_s = timeout_s
        self.deadline = deadline
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.metrics = metrics if metrics is not None else METRICS
        self.failures: List[FailedEvaluation] = []

    # -- low-level call plumbing ---------------------------------------
    def _deadline_exceeded(self, n_configs: int) -> DeadlineExceeded:
        """Note and build the (deterministic-message) deadline failure."""
        self.telemetry.emit("retry.deadline_exceeded", n_configs=n_configs)
        self.metrics.inc("retry.deadline_exceeded")
        return DeadlineExceeded(
            f"job deadline expired with {n_configs} configuration(s) "
            f"unevaluated"
        )

    def _call_inner(self, configs: Sequence[Config]) -> np.ndarray:
        """One ``inner.evaluate`` call, wall-clock-bounded if configured."""
        timeout = self.timeout_s
        if self.deadline is not None:
            remaining = self.deadline - time.monotonic()
            if remaining <= 0:
                raise self._deadline_exceeded(len(configs))
            timeout = remaining if timeout is None else min(timeout, remaining)
        if timeout is None:
            return self.inner.evaluate(configs)
        outcome = _AttemptOutcome()

        def run() -> None:
            try:
                outcome.value = self.inner.evaluate(configs)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                outcome.error = exc
            finally:
                outcome.done = True

        # a daemon thread so an abandoned (hung) evaluation can never
        # block interpreter shutdown
        thread = threading.Thread(
            target=run, name="repro-eval-watchdog", daemon=True
        )
        thread.start()
        thread.join(timeout)
        if not outcome.done:
            # the watchdog fired: the job deadline when it was the
            # binding bound (or has passed), the per-eval budget else
            if self.deadline is not None and (
                self.timeout_s is None or time.monotonic() >= self.deadline
            ):
                raise self._deadline_exceeded(len(configs))
            raise EvaluationTimeout(
                f"evaluation of {len(configs)} configuration(s) exceeded "
                f"{self.timeout_s}s"
            )
        if outcome.error is not None:
            raise outcome.error
        assert outcome.value is not None
        return outcome.value

    def _sleep(self, attempt: int) -> None:
        delay = self.policy.delay_s(attempt)
        if delay > 0:
            time.sleep(delay)

    # -- per-configuration recovery ------------------------------------
    def _evaluate_single(self, config: Config, attempts_used: int) -> float:
        """Retry one configuration until it yields a valid value.

        ``attempts_used`` attempts were already spent on it (the batch
        attempt); returns NaN after the total budget is exhausted.
        """
        last_error: Optional[BaseException] = None
        attempt = attempts_used
        while attempt < self.policy.max_attempts:
            self._sleep(attempt)
            attempt += 1
            try:
                value = float(self._call_inner([config])[0])
            except self.policy.retryable as exc:
                last_error = exc
                self.telemetry.emit(
                    "retry.attempt",
                    attempt=attempt,
                    max_attempts=self.policy.max_attempts,
                    error=repr(exc),
                )
                self.metrics.inc("retry.attempts")
                continue
            if invalid_target_mask(np.asarray([value])).any():
                last_error = EvaluationError(
                    f"invalid target {value!r} for config {config!r}"
                )
                self.telemetry.emit(
                    "retry.attempt",
                    attempt=attempt,
                    max_attempts=self.policy.max_attempts,
                    error=repr(last_error),
                )
                self.metrics.inc("retry.attempts")
                continue
            if attempt > 1:
                self.telemetry.emit("retry.recovered", attempts=attempt)
                self.metrics.inc("retry.recovered")
            return value
        failure = FailedEvaluation(
            config=dict(config),
            attempts=attempt,
            error=repr(last_error),
        )
        self.failures.append(failure)
        self.telemetry.emit(
            "retry.exhausted",
            attempts=attempt,
            config=dict(config),
            error=failure.error,
        )
        self.metrics.inc("retry.exhausted")
        return float("nan")

    # -- the backend protocol ------------------------------------------
    def evaluate(self, configs: Sequence[Config]) -> np.ndarray:
        """Evaluate a batch, surviving crashes, hangs and bad outputs.

        Returns one float64 per configuration, in order; slots whose
        configuration exhausted its retry budget hold NaN.
        """
        configs = list(configs)
        if not configs:
            return np.empty(0, dtype=np.float64)
        try:
            values = np.asarray(
                self._call_inner(configs), dtype=np.float64
            ).copy()
            pending = invalid_target_mask(values)
        except BaseException as exc:
            if not self.policy.is_retryable(exc):
                raise
            self.telemetry.emit(
                "retry.batch_failure",
                n_configs=len(configs),
                error=repr(exc),
            )
            self.metrics.inc("retry.batch_failures")
            values = np.full(len(configs), np.nan, dtype=np.float64)
            pending = np.ones(len(configs), dtype=bool)
        for index in np.flatnonzero(pending):
            values[index] = self._evaluate_single(
                configs[index], attempts_used=1
            )
        return values

    def close(self) -> None:
        """Close the wrapped backend."""
        self.inner.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResilientBackend({self.inner!r}, "
            f"max_attempts={self.policy.max_attempts}, "
            f"timeout_s={self.timeout_s})"
        )
