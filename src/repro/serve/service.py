"""The exploration service core: admission → queue → supervised workers.

:class:`ExplorationService` is the long-lived engine behind ``repro
serve`` (the asyncio front end in :mod:`repro.serve.frontend` is a thin
I/O shell around it).  One instance owns a service directory and drives
the full job lifecycle:

* **submit** — validate the spec, consult admission control
  (:mod:`repro.serve.queue`); a shed submission costs one counter and
  one event, an admitted one is durable in the registry *before* the
  caller hears "accepted";
* **poll** — the pump, delegated to the
  :class:`~repro.serve.supervisor.JobEngine` campaigns also run on:
  up to ``max_inflight`` workers, seeded-backoff retries, quarantine —
  one poisoned study costs exactly one quarantine record, never the
  service;
* **drain / shutdown** — stop admitting (``draining`` rejections),
  SIGTERM in-flight workers so they exit at their next round-checkpoint
  boundary, demote whatever is still unfinished back to ``accepted``,
  and rewrite the registry atomically.  A SIGKILL'd service skips all
  of that and *still* recovers: :meth:`open` replays the registry,
  demotes ``running`` jobs and re-enqueues every accepted one.

The registry is the same :class:`~repro.serve.registry.StudyRegistry`
a campaign keeps its cells in; a service record adds the job's tenant,
submission sequence number and spec.

Determinism: a job's result is a pure function of its spec (and the
seeded fault plan, under chaos) — never of queue order, worker count,
retries, restarts or which service instance ran it.
:meth:`ExplorationService.report` exposes exactly the deterministic
subset, which the chaos smoke byte-compares across a fault-free run
and a crashed-and-restarted one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..core.faults import CellFaultPlan
from ..obs.metrics import METRICS, MetricsRegistry
from ..obs.telemetry import NULL_TELEMETRY, RunTelemetry
from .queue import (
    AdmissionPolicy,
    Rejection,
    TenantAccounting,
    check_admission,
)
from .registry import (
    JOBS_DIR,
    STATUS_ACCEPTED,
    STATUS_DONE,
    STATUS_QUARANTINED,
    STATUS_RUNNING,
    JobSpec,
    StudyRegistry,
    sanitize_tenant,
)
from .supervisor import POLL_S, JobEngine

PathLike = Union[str, Path]


@dataclass(frozen=True)
class SubmitResult:
    """What one submission attempt came back with."""

    accepted: bool
    job_id: Optional[str] = None
    rejection: Optional[Rejection] = None


class ExplorationService:
    """The service: one instance per service directory.

    Parameters
    ----------
    directory:
        Service working directory: the registry, per-job checkpoints
        under ``jobs/``.
    policy:
        :class:`~repro.serve.queue.AdmissionPolicy` (depth, in-flight
        worker and RSS bounds; per-tenant quota).
    job_retries:
        Attempts a failed job gets after its first, before quarantine.
    retry_base_delay_s / retry_seed:
        Seeded-jitter backoff between attempts (same
        :class:`~repro.core.resilience.RetryPolicy` schedule discipline
        as campaign cells: prefix-stable, replayable).
    watchdog_grace_s:
        Supervisor-side slack past a job's soft ``deadline_s`` before
        the watchdog kills the worker.
    job_timeout_s:
        Watchdog bound for jobs that set no deadline (``None`` = no
        bound).
    job_faults:
        Optional seeded chaos plan keyed by job id (the chaos smoke's
        crash/hang injection).
    telemetry / metrics:
        Observability hooks for the ``serve.*`` vocabulary.
    """

    def __init__(
        self,
        directory: PathLike,
        *,
        policy: Optional[AdmissionPolicy] = None,
        job_retries: int = 2,
        retry_base_delay_s: float = 0.05,
        retry_seed: int = 0,
        watchdog_grace_s: float = 30.0,
        job_timeout_s: Optional[float] = None,
        job_faults: Optional[CellFaultPlan] = None,
        telemetry: Optional[RunTelemetry] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if job_retries < 0:
            raise ValueError(
                f"job_retries must be non-negative, got {job_retries}"
            )
        self.directory = Path(directory)
        self.policy = policy or AdmissionPolicy()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.metrics = metrics if metrics is not None else METRICS
        self.draining = False
        self.n_submitted = 0
        self.n_rejected = 0
        self.rejected_by_reason: Dict[str, int] = {}
        self.tenants = TenantAccounting()
        self.registry = StudyRegistry.open(
            self.directory, self.telemetry, self.metrics
        )
        self.engine = JobEngine(
            self.registry,
            self.directory / JOBS_DIR,
            namespace="serve",
            unit="job",
            max_workers=self.policy.max_inflight,
            retries=job_retries,
            retry_base_delay_s=retry_base_delay_s,
            retry_seed=retry_seed,
            telemetry=self.telemetry,
            metrics=self.metrics,
            faults=job_faults,
            timeout_s=job_timeout_s,
            watchdog_grace_s=watchdog_grace_s,
        )
        self._recover()

    # -- recovery -------------------------------------------------------
    def _recover(self) -> None:
        """Re-enqueue the registry's unfinished jobs after (re)open."""
        demoted = self.registry.recover()
        if demoted:
            self.metrics.inc("serve.jobs_recovered", len(demoted))
        accepted = self.registry.by_status(STATUS_ACCEPTED)
        for job_id in sorted(accepted, key=lambda j: accepted[j]["seq"]):
            record = accepted[job_id]
            self.engine.push(
                job_id, JobSpec.from_dict(record["spec"]),
                tenant=record["tenant"],
            )
        self.telemetry.emit(
            "serve.start",
            directory=str(self.directory),
            n_jobs=len(self.registry.records),
            n_recovered=len(demoted),
            n_queued=self.engine.n_queued,
            chaos=self.engine.faults is not None,
        )
        self._update_gauges()

    # -- accounting helpers ---------------------------------------------
    def _unfinished(self) -> List[Dict[str, object]]:
        """Accepted-but-unfinished jobs (queued, waiting and running)."""
        return list(
            self.registry.by_status(STATUS_ACCEPTED, STATUS_RUNNING).values()
        )

    def _committed_rss_kb(self) -> int:
        """Summed RSS estimates of every unfinished job."""
        return sum(
            int(record["spec"].get("rss_estimate_kb", 0))  # type: ignore[union-attr]
            for record in self._unfinished()
        )

    def _update_gauges(self) -> None:
        self.metrics.gauge("serve.queue_depth", float(self.engine.n_queued))
        self.metrics.gauge(
            "serve.inflight", float(self.engine.supervisor.n_running)
        )
        self.metrics.gauge(
            "serve.rss_committed_kb", float(self._committed_rss_kb())
        )

    # -- submission -----------------------------------------------------
    def submit(
        self,
        spec: Union[JobSpec, Dict[str, object]],
        tenant: str = "anonymous",
    ) -> SubmitResult:
        """Admit or shed one submission; admitted jobs are durable.

        Raises :class:`~repro.serve.registry.JobSpecError` for a
        malformed spec or tenant (the front end's 400); resource
        rejections come back as a non-accepted :class:`SubmitResult`
        (the front end's 429/503) with ``serve.rejected`` accounting.
        """
        if isinstance(spec, JobSpec):
            spec.check_submission()
        else:
            spec = JobSpec.from_dict(spec)
        # before admission: a malformed tenant is a 400, never a shed
        # submission counted against a tenant that cannot exist
        tenant = sanitize_tenant(tenant)
        rejection = check_admission(
            self.policy,
            draining=self.draining,
            depth=len(self._unfinished()),
            inflight_rss_kb=self._committed_rss_kb(),
            job_rss_kb=spec.rss_estimate_kb,
            tenant=tenant,
            tenant_depth=sum(
                record["tenant"] == tenant for record in self._unfinished()
            ),
        )
        if rejection is not None:
            self.n_rejected += 1
            self.rejected_by_reason[rejection.reason] = (
                self.rejected_by_reason.get(rejection.reason, 0) + 1
            )
            self.tenants.note_rejected(tenant)
            self.metrics.inc("serve.rejected")
            self.metrics.inc(f"serve.rejected.{rejection.reason}")
            self.telemetry.emit(
                "serve.rejected",
                tenant=tenant,
                reason=rejection.reason,
                detail=rejection.detail,
            )
            return SubmitResult(accepted=False, rejection=rejection)
        # jobs are never deleted, so the record count numbers them
        seq = len(self.registry.records) + 1
        job_id = f"j{seq:06d}-{tenant}"
        self.registry.admit({
            job_id: {"tenant": tenant, "seq": seq, "spec": spec.to_dict()}
        })
        self.engine.push(job_id, spec, tenant=tenant)
        self.n_submitted += 1
        self.tenants.note_accepted(tenant)
        self.metrics.inc("serve.submitted")
        self.telemetry.emit(
            "serve.submit",
            job_id=job_id,
            tenant=tenant,
            study=spec.study,
            workload=spec.workload,
        )
        self._update_gauges()
        return SubmitResult(accepted=True, job_id=job_id)

    # -- the pump -------------------------------------------------------
    def poll(self) -> bool:
        """One pump iteration: launch ready work, reap terminal workers.

        Returns whether anything progressed (the async front end sleeps
        when nothing did).  Never blocks.
        """
        progressed = self.engine.poll()
        if progressed:
            self._update_gauges()
        return progressed

    @property
    def idle(self) -> bool:
        """No queued, waiting or running work."""
        return self.engine.idle

    def run_until_idle(self, poll_s: float = POLL_S) -> None:
        """Synchronously pump until every admitted job is terminal.

        The test/smoke drive loop; the asyncio front end uses
        :meth:`poll` directly instead.
        """
        while not self.idle:
            if not self.poll():
                time.sleep(poll_s)

    # -- drain / shutdown -----------------------------------------------
    def drain(self) -> None:
        """Stop admitting; everything already accepted keeps running."""
        if not self.draining:
            self.draining = True
            self.metrics.inc("serve.drains")
            self.telemetry.emit(
                "serve.drain",
                n_queued=self.engine.n_queued,
                n_running=self.engine.supervisor.n_running,
            )

    def shutdown(self, grace_s: float = 10.0, finish_jobs: bool = False) -> None:
        """Graceful stop: drain, checkpoint (or finish) in-flight work.

        With ``finish_jobs=False`` (the SIGTERM path) in-flight workers
        are asked to exit at their next round-checkpoint boundary and
        unfinished jobs are demoted to ``accepted``; a restarted
        service resumes each from its checkpoint, bit-identically.
        With ``finish_jobs=True`` the pump runs until every admitted
        job is terminal first (``grace_s`` is ignored).  Either way the
        registry on disk is consistent when this returns.
        """
        self.drain()
        if finish_jobs:
            self.run_until_idle()
        self.engine.stop(grace_s)
        # demote anything the force-kill left marked running — the same
        # recovery a SIGKILL'd service performs on reopen, done eagerly
        self.registry.recover()
        self._update_gauges()
        self.telemetry.emit(
            "serve.stop",
            n_done=self.registry.counts()["done"],
            n_quarantined=self.registry.counts()["quarantined"],
            n_unfinished=len(self._unfinished()),
        )

    # -- introspection --------------------------------------------------
    def job_status(self, job_id: str) -> Optional[Dict[str, object]]:
        """One job's public status record (``None`` for unknown ids)."""
        record = self.registry.records.get(job_id)
        if record is None:
            return None
        payload = {"job_id": job_id, **record}
        # live worker pid, for operators (and the chaos smoke's aim):
        # explicitly non-deterministic, never part of the report
        pid = self.engine.supervisor.pids().get(job_id)
        if pid is not None:
            payload["worker_pid"] = pid
        return payload

    def status(self) -> Dict[str, object]:
        """The service-level status snapshot feeding ``/healthz``."""
        return {
            "draining": self.draining,
            "queue_depth": self.engine.n_queued,
            "inflight": self.engine.supervisor.n_running,
            "rss_committed_kb": self._committed_rss_kb(),
            "jobs": self.registry.counts(),
            "submitted": self.n_submitted,
            "rejected": self.n_rejected,
            "rejected_by_reason": dict(sorted(
                self.rejected_by_reason.items()
            )),
            "tenants": self.tenants.to_dict(),
            "worker_pids": dict(
                sorted(self.engine.supervisor.pids().items())
            ),
        }

    def report(self) -> Dict[str, object]:
        """The deterministic per-job outcome map.

        Only fields that are deterministic functions of (spec, fault
        plan) appear — results and quarantine reasons, never resource
        accounting or attempt counts — so two services that accepted the
        same jobs produce byte-identical reports regardless of crashes,
        retries, restarts or scheduling.  This is what the chaos smoke
        byte-compares.
        """
        out: Dict[str, object] = {}
        for job_id, record in sorted(self.registry.records.items()):
            entry: Dict[str, object] = {
                "tenant": record["tenant"],
                "spec": dict(record["spec"]),  # type: ignore[call-overload]
                "status": record["status"],
            }
            if record["status"] == STATUS_DONE:
                entry["result"] = record["result"]
            elif record["status"] == STATUS_QUARANTINED:
                entry["kind"] = record["kind"]
                entry["error"] = record["error"]
            out[job_id] = entry
        return out
