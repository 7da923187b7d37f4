"""Bounded admission: the service's load-shedding front door.

A serving layer that accepts everything degrades everything — queues
grow without bound, workers thrash, and *every* tenant's deadline
blows.  This module implements the opposite discipline: a bounded FIFO
job queue plus an :class:`AdmissionPolicy` that **rejects with a
reason** the moment a submission would push the service past what it
can actually run:

* ``queue-full`` — accepted-but-unfinished jobs (queued + running)
  would exceed ``max_depth``;
* ``rss-budget`` — the sum of the RSS estimates of all in-flight jobs
  plus the new one would exceed ``rss_budget_kb``;
* ``tenant-quota`` — one tenant would hold more than
  ``tenant_max_depth`` unfinished jobs (one noisy tenant must not
  starve the rest);
* ``draining`` — the service is shutting down and admits nothing.

Rejections are cheap by design — no registry write, no worker, just a
counter (``serve.rejected`` plus a per-reason breakdown) and a
``serve.rejected`` event — so shedding load never *adds* load, and
accepted jobs keep their guarantees instead of everyone degrading
together.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional

#: rejection reason vocabulary (stable: it reaches clients and metrics)
REJECT_QUEUE_FULL = "queue-full"
REJECT_RSS_BUDGET = "rss-budget"
REJECT_TENANT_QUOTA = "tenant-quota"
REJECT_DRAINING = "draining"


@dataclass(frozen=True)
class AdmissionPolicy:
    """What the service is willing to hold in flight at once.

    Parameters
    ----------
    max_depth:
        Maximum accepted-but-unfinished jobs (queued + running).
    max_inflight:
        Maximum concurrent worker processes.
    rss_budget_kb:
        Bound on the summed ``rss_estimate_kb`` of all unfinished jobs
        (default 4 GiB).  Admission bills estimates, not live RSS — the
        decision must be makable *before* the job runs.
    tenant_max_depth:
        Per-tenant bound on unfinished jobs; ``None`` disables the
        quota (single-tenant deployments).
    """

    max_depth: int = 16
    max_inflight: int = 2
    rss_budget_kb: int = 4 * 1024 * 1024
    tenant_max_depth: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise ValueError(
                f"max_depth must be >= 1, got {self.max_depth}"
            )
        if self.max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )
        if self.rss_budget_kb < 1:
            raise ValueError(
                f"rss_budget_kb must be >= 1, got {self.rss_budget_kb}"
            )
        if self.tenant_max_depth is not None and self.tenant_max_depth < 1:
            raise ValueError(
                f"tenant_max_depth must be >= 1 or None, "
                f"got {self.tenant_max_depth}"
            )


@dataclass(frozen=True)
class Rejection:
    """Why a submission was shed; ``reason`` is from the stable
    vocabulary above, ``detail`` is the human-readable specifics."""

    reason: str
    detail: str


class JobQueue:
    """FIFO of accepted-but-not-yet-running job ids.

    The queue holds only ids — the registry is the source of truth for
    job state — so rebuilding it after a restart is just re-enqueueing
    the registry's ``accepted`` jobs in submission order.
    """

    def __init__(self) -> None:
        self._queue: Deque[str] = deque()

    def __len__(self) -> int:
        return len(self._queue)

    def push(self, job_id: str) -> None:
        """Append ``job_id`` to the back of the queue."""
        self._queue.append(job_id)

    def push_front(self, job_id: str) -> None:
        """Requeue at the head (retries keep their submission priority)."""
        self._queue.appendleft(job_id)

    def pop(self) -> Optional[str]:
        """Dequeue the oldest job id, or ``None`` when empty."""
        return self._queue.popleft() if self._queue else None


def check_admission(
    policy: AdmissionPolicy,
    *,
    draining: bool,
    depth: int,
    inflight_rss_kb: int,
    job_rss_kb: int,
    tenant: str,
    tenant_depth: int,
) -> Optional[Rejection]:
    """Decide one submission; ``None`` means admit.

    ``depth`` counts accepted-but-unfinished jobs *before* this one,
    ``inflight_rss_kb`` their summed estimates, ``tenant_depth`` the
    submitting tenant's share of them.  Checks are ordered
    cheapest-signal-first; the first violated bound names the reason.
    """
    if draining:
        return Rejection(
            REJECT_DRAINING,
            "service is draining and admits no new jobs",
        )
    if depth >= policy.max_depth:
        return Rejection(
            REJECT_QUEUE_FULL,
            f"queue depth {depth} is at the limit of {policy.max_depth}",
        )
    if inflight_rss_kb + job_rss_kb > policy.rss_budget_kb:
        return Rejection(
            REJECT_RSS_BUDGET,
            f"in-flight RSS estimate {inflight_rss_kb + job_rss_kb} kB "
            f"would exceed the budget of {policy.rss_budget_kb} kB",
        )
    if policy.tenant_max_depth is not None \
            and tenant_depth >= policy.tenant_max_depth:
        return Rejection(
            REJECT_TENANT_QUOTA,
            f"tenant {tenant!r} already holds {tenant_depth} unfinished "
            f"job(s), the per-tenant limit of {policy.tenant_max_depth}",
        )
    return None


class TenantAccounting:
    """Per-tenant submission accounting (in-memory, surfaced via
    ``/readyz``; rejections are deliberately not persisted — shedding
    load must not cost registry writes)."""

    def __init__(self) -> None:
        self._accepted: Dict[str, int] = {}
        self._rejected: Dict[str, int] = {}

    def note_accepted(self, tenant: str) -> None:
        """Count one admitted submission for ``tenant``."""
        self._accepted[tenant] = self._accepted.get(tenant, 0) + 1

    def note_rejected(self, tenant: str) -> None:
        """Count one shed submission for ``tenant``."""
        self._rejected[tenant] = self._rejected.get(tenant, 0) + 1

    def to_dict(self) -> Dict[str, Dict[str, int]]:
        """``{tenant: {"accepted": n, "rejected": n}}``, sorted."""
        tenants = sorted(set(self._accepted) | set(self._rejected))
        return {
            tenant: {
                "accepted": self._accepted.get(tenant, 0),
                "rejected": self._rejected.get(tenant, 0),
            }
            for tenant in tenants
        }
