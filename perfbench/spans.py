"""In-memory span recording around calls into the program's layers.

The benchmark never edits the program: a traced process wraps the
public entry points it calls (or the methods those calls reach) with
:meth:`Tracer.wrap`, and feeds evaluations through
:class:`TimedBackend`.  Spans stay in memory and are written out when
the process ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from stats import self_time


@dataclass
class Span:
    """One timed call: name, interval, the span that caused it, and the
    request (exploration, job or cell) it belongs to."""

    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    request: str = ""
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of one process (single-threaded callers)."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.request = ""
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs: float) -> Iterator[Span]:
        record = Span(
            name=name,
            start=time.perf_counter(),
            parent=self._stack[-1] if self._stack else -1,
            request=self.request,
            attrs=dict(attrs),
        )
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = time.perf_counter()

    def wrap(
        self,
        fn: Callable,
        name: str,
        count: Optional[Callable[[tuple, object], Dict[str, float]]] = None,
    ) -> Callable:
        """``fn`` recording one span per call; ``count(args, result)``
        adds per-call counts to the span."""
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name) as record:
                result = fn(*args, **kwargs)
                if count is not None:
                    record.attrs.update(count(args, result))
                return result

        return traced

    def patch(self, owner: object, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` (a class method or module function) with
        its traced form, for the rest of this process."""
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, count))

    # -- queries ----------------------------------------------------------
    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def children(self, index: int) -> List[Span]:
        return [s for s in self.spans if s.parent == index]

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s.duration for s in self.named(name))

    def last(self, name: str) -> int:
        """Index of the latest span called ``name``."""
        return max(i for i, s in enumerate(self.spans) if s.name == name)

    def self_of(self, index: int) -> float:
        """Self time of the span at ``index``: its duration minus the
        part its child spans cover."""
        record = self.spans[index]
        return self_time(
            (record.start, record.end),
            [(c.start, c.end) for c in self.children(index)],
        )

    def total_self(self, name: str) -> float:
        """Summed self time of every span called ``name``."""
        return sum(
            self.self_of(i) for i, s in enumerate(self.spans) if s.name == name
        )

    def attr_sum(self, name: str, attr: str) -> float:
        return sum(s.attrs.get(attr, 0.0) for s in self.named(name))

    def to_list(self) -> List[Dict[str, object]]:
        return [asdict(s) for s in self.spans]


class NullTracer(Tracer):
    """Tracing off: spans cost one generator frame and record nothing."""

    enabled = False

    @contextmanager
    def span(self, name: str, **attrs: float) -> Iterator[Span]:
        yield Span(name=name, start=0.0)


class TimedBackend:
    """An evaluation backend that times its inner backend's batches.

    It keeps the ``inner`` attribute, the link the program follows
    (``resolve_multi_target_simulator``) to find a multi-target
    simulator; a wrapper without it would silently turn a multi-target
    study into a scalar fit.
    """

    def __init__(self, inner: object, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def evaluate(self, configs: Sequence[object]):
        with self.tracer.span("simulate.evaluate", evals=len(configs)):
            return self.inner.evaluate(configs)

    def close(self) -> None:
        self.inner.close()
