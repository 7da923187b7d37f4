"""Structured event stream describing one run end to end.

Where :mod:`repro.obs.metrics` aggregates (how many, how long in total),
:class:`RunTelemetry` *narrates*: an append-only stream of timestamped
events — one per exploration round, per cross-validation fit, per
training early-stopping check — that downstream tooling can replay to
reconstruct exactly how a run spent its simulation and training budget.
This is the machine-readable form of the paper's cost accounting: the
``explore.round`` events carry the (simulations, estimated error)
trajectory behind Table 5.1, and ``crossval.fit`` events the per-fit
wall times behind Figure 5.8.

Event names and payload fields are documented in
``docs/observability.md``; the JSON form round-trips through
:meth:`RunTelemetry.to_json` / :meth:`RunTelemetry.from_json`.

Phases nest: :meth:`RunTelemetry.phase` records each one under the
``/``-joined path of the phases open around it (``cli.explore/
explore.train``), with tracemalloc peak/net allocation whenever
tracemalloc traced the phase from entry to exit (``repro profile``).

A disabled stream (or the shared :data:`NULL_TELEMETRY`) makes ``emit``
and ``phase`` no-ops, so instrumentation hooks can be unconditional in
library code.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

from .metrics import MetricsRegistry

#: bump when event names or payload fields change incompatibly
SCHEMA_VERSION = 1

#: events kept in memory before further emits only count drops
MAX_EVENTS = 100_000


@dataclass(frozen=True)
class TelemetryEvent:
    """One timestamped event.

    ``t`` is seconds since the stream was created (monotonic clock), so
    event spacing is meaningful even if the wall clock steps.
    """

    name: str
    t: float
    payload: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form."""
        return {"name": self.name, "t": self.t, "payload": dict(self.payload)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TelemetryEvent":
        """Inverse of :meth:`to_dict`."""
        return cls(
            name=str(data["name"]),
            t=float(data["t"]),
            payload=dict(data.get("payload", {})),
        )


@dataclass
class PhaseStats:
    """Accumulated wall time of one phase path.

    ``alloc_peak_kb`` (max over calls) and ``alloc_net_kb`` (summed) are
    None unless tracemalloc traced a call from entry to exit.
    """

    count: int = 0
    total_s: float = 0.0
    alloc_peak_kb: Optional[float] = None
    alloc_net_kb: Optional[float] = None

    def to_dict(self) -> Dict[str, float]:
        """JSON-ready form; the alloc keys only when measured."""
        out = {"count": self.count, "total_s": self.total_s}
        if self.alloc_peak_kb is not None:
            out["alloc_peak_kb"] = self.alloc_peak_kb
            out["alloc_net_kb"] = self.alloc_net_kb
        return out


@dataclass
class _OpenPhase:
    """A phase on the stack; ``base`` is None unless tracemalloc traces it."""

    path: str
    base: Optional[int] = None  # traced bytes at entry
    peak: int = 0  # running peak, kept across children's reset_peak()


class RunTelemetry:
    """Append-only event stream plus per-phase wall-clock accounting.

    Parameters
    ----------
    enabled:
        When False, :meth:`emit` and :meth:`phase` are no-ops.
    metrics:
        Optional registry that phase durations are mirrored into (as
        ``phase.<path>`` timers), keeping the two views consistent.
    """

    def __init__(
        self,
        enabled: bool = True,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.enabled = enabled
        self.metrics = metrics
        self.started_at = time.time()
        self._t0 = time.perf_counter()
        self.events: List[TelemetryEvent] = []
        self.phases: Dict[str, PhaseStats] = {}
        self.dropped = 0
        self._open: List[_OpenPhase] = []
        self._subscribers: List[Callable[[TelemetryEvent], None]] = []

    # -- producing -----------------------------------------------------
    def emit(self, name: str, **payload: object) -> None:
        """Append one event (dropped with a count past :data:`MAX_EVENTS`)."""
        if not self.enabled:
            return
        if len(self.events) >= MAX_EVENTS:
            self.dropped += 1
            return
        event = TelemetryEvent(
            name=name, t=time.perf_counter() - self._t0, payload=payload
        )
        self.events.append(event)
        for subscriber in self._subscribers:
            subscriber(event)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a named phase of the run.

        The phase is recorded under the ``/``-joined path of the phases
        open around it (a phase with none open keeps its flat name);
        a path takes its place in :attr:`phases` when first entered, so
        parents precede their children.  Repeated phases accumulate
        (``explore.train`` across rounds); durations are mirrored into
        the attached metrics registry as ``phase.<path>`` timers when
        one is present.  While tracemalloc traces the whole phase, its
        peak and net allocation are recorded too.
        """
        if not self.enabled:
            yield
            return
        parent = self._open[-1] if self._open else None
        path = f"{parent.path}/{name}" if parent else name
        stats = self.phases.get(path)
        if stats is None:
            stats = self.phases[path] = PhaseStats()
        frame = _OpenPhase(path)
        if tracemalloc.is_tracing():
            frame.base, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent.peak = max(parent.peak, peak)
            tracemalloc.reset_peak()
        self._open.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._open.pop()
            stats.count += 1
            stats.total_s += elapsed
            if frame.base is not None and tracemalloc.is_tracing():
                current, peak = tracemalloc.get_traced_memory()
                peak = max(peak, frame.peak)
                if parent is not None:
                    parent.peak = max(parent.peak, peak)
                stats.alloc_peak_kb = max(
                    stats.alloc_peak_kb or 0.0, (peak - frame.base) / 1024.0
                )
                stats.alloc_net_kb = (stats.alloc_net_kb or 0.0) + (
                    current - frame.base
                ) / 1024.0
            if self.metrics is not None:
                self.metrics.observe(f"phase.{path}", elapsed)

    def subscribe(self, callback: Callable[[TelemetryEvent], None]) -> None:
        """Invoke ``callback`` with every subsequently emitted event."""
        self._subscribers.append(callback)

    # -- consuming -----------------------------------------------------
    def events_named(self, name: str) -> List[TelemetryEvent]:
        """All events with the given name, in emission order."""
        return [event for event in self.events if event.name == name]

    @property
    def elapsed_s(self) -> float:
        """Seconds since the stream was created."""
        return time.perf_counter() - self._t0

    # -- serialization -------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot of the full stream."""
        return {
            "schema_version": SCHEMA_VERSION,
            "started_at": self.started_at,
            "elapsed_s": self.elapsed_s,
            "dropped": self.dropped,
            "phases": {
                path: stats.to_dict() for path, stats in self.phases.items()
            },
            "events": [event.to_dict() for event in self.events],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """:meth:`to_dict` as JSON text, ``phases`` in first-entry order."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunTelemetry":
        """Rebuild a stream from :meth:`to_dict` output (for analysis;
        the rebuilt stream's clock restarts, but stored events keep
        their original relative timestamps)."""
        stream = cls(enabled=True)
        stream.started_at = float(data.get("started_at", 0.0))
        stream.dropped = int(data.get("dropped", 0))
        stream.events = [
            TelemetryEvent.from_dict(e) for e in data.get("events", [])
        ]
        for path, stats in dict(data.get("phases", {})).items():
            stream.phases[path] = PhaseStats(**stats)
        return stream

    @classmethod
    def from_json(cls, text: str) -> "RunTelemetry":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))


#: shared disabled stream: the default hook target in library code
NULL_TELEMETRY = RunTelemetry(enabled=False)
