"""Batch-first evaluation backends.

The paper collects simulation results in batches of 50 (Section 3.3)
and farms each batch out to a cluster (Section 5.4), because one of its
simulations costs minutes.  This module keeps batching a property of
the architecture rather than of any one loop: everything that consumes
simulation results — the exploration loop, the learning-curve runner,
the CLI — evaluates design points through an :class:`EvaluationBackend`
whose single operation is *evaluate a batch of configurations*.

Here a simulation costs microseconds, so a batch is evaluated
in-process by :class:`SerialBackend` (the adapter :func:`as_backend`
wraps any plain ``Callable[[Config], float]`` in one).  Wrappers such
as :class:`~repro.core.resilience.ResilientBackend` and the fault
injectors of :mod:`repro.core.faults` compose around it; the unit of
process-level parallelism is the campaign cell or service job
(:mod:`repro.core.supervise`), not the batch.
"""

from __future__ import annotations

from typing import Callable, Protocol, Sequence, runtime_checkable

import numpy as np

from ..designspace.space import Config

SimulateFn = Callable[[Config], float]


class EvaluationError(RuntimeError):
    """A backend failed to evaluate a batch.

    Raised by :func:`validate_targets` when a simulator hands back a
    non-finite or non-positive value; its subclasses mark an evaluation
    timeout (:mod:`repro.core.resilience`) and an injected crash
    (:mod:`repro.core.faults`).  The resilience layer treats this class
    (and subclasses) as retryable.
    """


def invalid_target_mask(values: np.ndarray) -> np.ndarray:
    """Boolean mask of simulator outputs that cannot be real IPC values.

    A valid target is finite and strictly positive: IPC is a rate, and
    the percentage-error metrics downstream are undefined at zero.
    """
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        return ~np.isfinite(values) | (values <= 0.0)


def validate_targets(values: np.ndarray, configs: Sequence[Config]) -> np.ndarray:
    """Reject non-finite / non-positive simulator outputs loudly.

    This is the backend boundary check: a simulator bug that produces
    NaN, inf or a negative IPC raises a clear :class:`EvaluationError`
    naming the offending configuration instead of flowing silently into
    training.  Returns ``values`` (as float64) when everything is valid.
    """
    values = np.asarray(values, dtype=np.float64)
    bad = invalid_target_mask(values)
    if bad.any():
        first = int(np.flatnonzero(bad)[0])
        raise EvaluationError(
            f"simulator returned invalid target {values[first]!r} for "
            f"config {configs[first]!r} "
            f"({int(bad.sum())} invalid of {len(values)} in batch)"
        )
    return values


@runtime_checkable
class EvaluationBackend(Protocol):
    """Anything that can evaluate a batch of configurations.

    ``evaluate`` must return one float per configuration, in input
    order.  ``close`` releases whatever resources the backend holds;
    calling it twice is harmless.
    """

    def evaluate(self, configs: Sequence[Config]) -> np.ndarray:
        """Evaluate every configuration; one float64 per config, in order."""
        ...

    def close(self) -> None:
        """Release backend resources; safe to call more than once."""
        ...


class _BaseBackend:
    """Shared context-manager plumbing for concrete backends."""

    def close(self) -> None:
        """Release backend resources (default: nothing to release)."""

    def __enter__(self) -> "_BaseBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SerialBackend(_BaseBackend):
    """Evaluate a batch in-process, one configuration at a time.

    The one evaluation path; :func:`as_backend` wraps plain callables
    in one.
    """

    def __init__(self, fn: SimulateFn):
        if not callable(fn):
            raise TypeError(f"fn must be callable, got {type(fn).__name__}")
        self.fn = fn

    def evaluate(self, configs: Sequence[Config]) -> np.ndarray:
        """Call ``fn`` on each configuration, in order."""
        values = np.fromiter(
            (float(self.fn(config)) for config in configs),
            dtype=np.float64,
            count=len(configs),
        )
        return validate_targets(values, configs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SerialBackend({getattr(self.fn, '__name__', self.fn)!r})"


def as_backend(target: object) -> EvaluationBackend:
    """Adapt ``target`` into an :class:`EvaluationBackend`.

    Backends pass through unchanged; plain ``Callable[[Config], float]``
    simulate functions are wrapped in a :class:`SerialBackend`, which is
    how every pre-backend call site migrates without behaviour change.
    """
    if isinstance(target, EvaluationBackend):
        return target
    if callable(target):
        return SerialBackend(target)
    raise TypeError(
        f"cannot adapt {type(target).__name__} into an EvaluationBackend; "
        "pass a backend or a Callable[[Config], float]"
    )
