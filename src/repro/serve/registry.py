"""The crash-safe study registry: the service's durable job ledger.

Every job the service *accepts* is recorded here before the submitter
hears "accepted", and every state transition (running, done,
quarantined) is persisted atomically before the service acts on it —
via the same checksummed JSON-checkpoint envelope (sha256 + ``.prev``
rotation, :func:`repro.core.checkpoint.save_json_checkpoint`) that
makes campaign manifests SIGKILL-safe.  At any instant the file on
disk describes a consistent prefix of the service's history, so a
killed-and-restarted service re-opens the registry, demotes jobs
caught ``running`` back to ``accepted`` (their exploration checkpoints
survive under ``jobs/``), and finishes every accepted job
bit-identically.

:class:`JobSpec` is the validated unit of submission — one seeded
exploration, the same coordinates as a campaign cell plus service-only
knobs (per-job deadline, RSS estimate for admission control).
Validation mirrors :class:`~repro.campaign.spec.CampaignSpec`: loud,
fail-fast, naming the offending field, so a malformed submission is a
400 at the front door rather than a crashed worker.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..core.checkpoint import (
    CheckpointError,
    load_json_checkpoint,
    previous_path,
    save_json_checkpoint,
)
from ..obs.metrics import METRICS, MetricsRegistry
from ..obs.telemetry import NULL_TELEMETRY, RunTelemetry

PathLike = Union[str, Path]

#: bump when the registry payload layout changes incompatibly
REGISTRY_VERSION = 1

#: file name of the registry inside a service directory
REGISTRY_NAME = "REGISTRY.json"

#: subdirectory of a service directory holding per-job checkpoints
JOBS_DIR = "jobs"

#: job lifecycle states the registry records
STATUS_ACCEPTED = "accepted"
STATUS_RUNNING = "running"
STATUS_DONE = "done"
STATUS_QUARANTINED = "quarantined"

#: default admission-control RSS estimate per job (256 MiB) — what a
#: default-sized exploration worker peaks at, with headroom
DEFAULT_JOB_RSS_KB = 262144


class ServeError(RuntimeError):
    """The service cannot do what was asked (the message says why)."""


class JobSpecError(ServeError, ValueError):
    """A submitted job spec is invalid; the message names the field."""


def registry_path(directory: PathLike) -> Path:
    """Where a service directory keeps its registry."""
    return Path(directory) / REGISTRY_NAME


def registry_exists(directory: PathLike) -> bool:
    """Whether ``directory`` holds a (possibly mid-rotation) registry."""
    path = registry_path(directory)
    return path.exists() or previous_path(path).exists()


@dataclass(frozen=True)
class JobSpec:
    """One submitted unit of work: a seeded exploration plus budgets.

    The exploration coordinates (``study`` … ``min_folds``) are exactly
    a campaign cell's; the trailing fields are the service's robustness
    knobs:

    * ``max_retries`` / ``eval_timeout_s`` — the in-worker
      :class:`~repro.core.resilience.ResilientBackend` configuration;
    * ``deadline_s`` — per-job wall-clock budget, propagated down to
      the backend as an absolute deadline (and up to the supervisor's
      watchdog, which adds a grace period before killing);
    * ``rss_estimate_kb`` — what admission control bills this job
      against the service's in-flight RSS budget.
    """

    study: str
    workload: str
    agent: str = "random"
    seed: int = 0
    budget: int = 100
    target_error: float = 2.0
    batch_size: int = 50
    training: str = "default"
    k: Optional[int] = None
    min_folds: Optional[int] = None
    max_retries: int = 2
    eval_timeout_s: Optional[float] = None
    deadline_s: Optional[float] = None
    rss_estimate_kb: int = DEFAULT_JOB_RSS_KB

    def __post_init__(self) -> None:
        for name in ("study", "workload", "agent", "training"):
            value = getattr(self, name)
            if not isinstance(value, str) or not value:
                raise JobSpecError(
                    f"job spec field {name!r} must be a non-empty string, "
                    f"got {value!r}"
                )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise JobSpecError(
                f"job spec field 'seed' must be an integer, got {self.seed!r}"
            )
        for name in ("budget", "batch_size"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 1:
                raise JobSpecError(
                    f"job spec field {name!r} must be a positive integer, "
                    f"got {value!r}"
                )
        if not isinstance(self.target_error, (int, float)) \
                or isinstance(self.target_error, bool) \
                or not self.target_error > 0:
            raise JobSpecError(
                f"job spec field 'target_error' must be a positive number, "
                f"got {self.target_error!r}"
            )
        for name, low in (("k", 2), ("min_folds", 1)):
            value = getattr(self, name)
            if value is not None and (
                not isinstance(value, int) or isinstance(value, bool)
                or value < low
            ):
                raise JobSpecError(
                    f"job spec field {name!r} must be an integer >= {low} "
                    f"or null, got {value!r}"
                )
        if not isinstance(self.max_retries, int) \
                or isinstance(self.max_retries, bool) or self.max_retries < 0:
            raise JobSpecError(
                f"job spec field 'max_retries' must be a non-negative "
                f"integer, got {self.max_retries!r}"
            )
        for name in ("eval_timeout_s", "deadline_s"):
            value = getattr(self, name)
            if value is not None and (
                not isinstance(value, (int, float)) or isinstance(value, bool)
                or not value > 0
            ):
                raise JobSpecError(
                    f"job spec field {name!r} must be a positive number "
                    f"or null, got {value!r}"
                )
        if not isinstance(self.rss_estimate_kb, int) \
                or isinstance(self.rss_estimate_kb, bool) \
                or self.rss_estimate_kb < 1:
            raise JobSpecError(
                f"job spec field 'rss_estimate_kb' must be a positive "
                f"integer, got {self.rss_estimate_kb!r}"
            )

    def check_submission(self) -> None:
        """The service's admission bounds, stricter than what an
        exploration (or a campaign cell) can run."""
        for name, low in (("seed", 0), ("min_folds", 2)):
            value = getattr(self, name)
            if value is not None and value < low:
                raise JobSpecError(
                    f"job spec field {name!r} must be >= {low} in a "
                    f"submission, got {value!r}"
                )

    def to_dict(self) -> Dict[str, object]:
        """Serialise the spec to a JSON-friendly dict."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: object) -> "JobSpec":
        """Build a validated spec from a submission payload.

        Strict about unknown keys — a typoed field name in a submission
        must be a loud 400, not a silently ignored knob.
        """
        if not isinstance(data, dict):
            raise JobSpecError(
                f"job spec must be an object, got {type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise JobSpecError(
                f"unknown job spec field(s) {', '.join(map(repr, unknown))}; "
                f"valid fields: {', '.join(sorted(known))}"
            )
        missing = [
            name for name in ("study", "workload") if name not in data
        ]
        if missing:
            raise JobSpecError(
                f"job spec is missing required field(s) "
                f"{', '.join(map(repr, missing))}"
            )
        spec = cls(**data)
        spec.check_submission()
        return spec


def sanitize_tenant(tenant: str) -> str:
    """Validate a tenant identifier (it becomes part of job ids/paths)."""
    if not isinstance(tenant, str) or not tenant:
        raise JobSpecError(
            f"tenant must be a non-empty string, got {tenant!r}"
        )
    if not all(c.isalnum() or c in "-_" for c in tenant) or len(tenant) > 64:
        raise JobSpecError(
            f"tenant {tenant!r} must be <= 64 chars of [a-zA-Z0-9_-]"
        )
    return tenant


@dataclass
class JobRecord:
    """One job's registry entry across its lifecycle."""

    job_id: str
    tenant: str
    seq: int
    spec: Dict[str, object]
    status: str = STATUS_ACCEPTED
    attempts: int = 0
    result: Optional[Dict[str, object]] = None
    resources: Optional[Dict[str, float]] = None
    kind: Optional[str] = None
    error: Optional[str] = None

    def to_payload(self) -> Dict[str, object]:
        """This record as the JSON object the registry persists."""
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "seq": self.seq,
            "spec": self.spec,
            "status": self.status,
            "attempts": self.attempts,
            "result": self.result,
            "resources": self.resources,
            "kind": self.kind,
            "error": self.error,
        }

    @classmethod
    def from_payload(cls, payload: object) -> "JobRecord":
        """Rebuild a record from a persisted ledger object (validated)."""
        if not isinstance(payload, dict):
            raise ServeError(
                f"registry job record must be an object, "
                f"got {type(payload).__name__}"
            )
        status = str(payload.get("status", ""))
        if status not in (
            STATUS_ACCEPTED, STATUS_RUNNING, STATUS_DONE, STATUS_QUARANTINED
        ):
            raise ServeError(f"registry job has unknown status {status!r}")
        return cls(
            job_id=str(payload["job_id"]),
            tenant=str(payload["tenant"]),
            seq=int(payload["seq"]),
            spec=dict(payload["spec"]),
            status=status,
            attempts=int(payload.get("attempts", 0)),
            result=payload.get("result"),
            resources=payload.get("resources"),
            kind=payload.get("kind"),
            error=payload.get("error"),
        )


class StudyRegistry:
    """The persisted job ledger of one service directory.

    Every mutating method rewrites the registry atomically *before*
    returning, so callers may treat a returned transition as durable.
    """

    def __init__(
        self,
        directory: PathLike,
        telemetry: Optional[RunTelemetry] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.directory = Path(directory)
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.metrics = metrics if metrics is not None else METRICS
        self.jobs: Dict[str, JobRecord] = {}
        self.next_seq = 1

    # -- persistence ----------------------------------------------------
    def to_payload(self) -> Dict[str, object]:
        """The whole ledger as the JSON object ``save`` persists."""
        return {
            "version": REGISTRY_VERSION,
            "next_seq": self.next_seq,
            "jobs": {
                job_id: record.to_payload()
                for job_id, record in sorted(self.jobs.items())
            },
        }

    def save(self) -> Path:
        """Atomically persist the ledger (checksummed, ``.prev``-rotated)."""
        path = registry_path(self.directory)
        save_json_checkpoint(
            path, self.to_payload(), self.telemetry, self.metrics
        )
        return path

    def load(self) -> None:
        """Load the on-disk ledger into this instance; loud on failure.

        Self-healing like every checkpoint: a corrupt primary falls back
        to the rotated ``.prev``, costing at most one recorded
        transition — which recovery then simply redoes.
        """
        path = registry_path(self.directory)
        try:
            payload = load_json_checkpoint(
                path, self.telemetry, self.metrics, strict=True
            )
        except CheckpointError as exc:
            raise ServeError(
                f"service registry {path} is unusable: {exc}"
            ) from exc
        if payload is None:
            raise ServeError(f"no service registry at {path}")
        if not isinstance(payload, dict) \
                or payload.get("version") != REGISTRY_VERSION:
            raise ServeError(
                f"service registry {path} has unsupported layout "
                f"(version {payload.get('version')!r} if it is one at all)"
            )
        jobs_payload = payload.get("jobs") or {}
        if not isinstance(jobs_payload, dict):
            raise ServeError("service registry jobs must be an object")
        self.jobs = {
            job_id: JobRecord.from_payload(record)
            for job_id, record in jobs_payload.items()
        }
        self.next_seq = int(payload.get("next_seq", len(self.jobs) + 1))

    @classmethod
    def open(
        cls,
        directory: PathLike,
        telemetry: Optional[RunTelemetry] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> "StudyRegistry":
        """Open (or create) the registry of ``directory``."""
        registry = cls(directory, telemetry, metrics)
        if registry_exists(directory):
            registry.load()
        else:
            registry.directory.mkdir(parents=True, exist_ok=True)
            registry.save()
        (registry.directory / JOBS_DIR).mkdir(exist_ok=True)
        return registry

    # -- transitions ----------------------------------------------------
    def admit(self, spec: JobSpec, tenant: str) -> JobRecord:
        """Record a newly accepted job; durable before it returns."""
        tenant = sanitize_tenant(tenant)
        seq = self.next_seq
        self.next_seq += 1
        job_id = f"j{seq:06d}-{tenant}"
        record = JobRecord(
            job_id=job_id,
            tenant=tenant,
            seq=seq,
            spec=spec.to_dict(),
        )
        self.jobs[job_id] = record
        self.save()
        return record

    def _require(self, job_id: str) -> JobRecord:
        record = self.jobs.get(job_id)
        if record is None:
            raise ServeError(f"unknown job {job_id!r}")
        return record

    def mark_running(self, job_id: str, attempt: int) -> None:
        """Record that attempt ``attempt`` of the job has a live worker."""
        record = self._require(job_id)
        record.status = STATUS_RUNNING
        record.attempts = attempt
        self.save()

    def mark_accepted(self, job_id: str) -> None:
        """Demote a job back to the queueable state (retry / recovery)."""
        record = self._require(job_id)
        record.status = STATUS_ACCEPTED
        self.save()

    def mark_done(
        self,
        job_id: str,
        result: Dict[str, object],
        resources: Dict[str, float],
        attempts: int,
    ) -> None:
        """Record the job's terminal success (result + resource bill)."""
        record = self._require(job_id)
        record.status = STATUS_DONE
        record.attempts = attempts
        record.result = result
        record.resources = resources
        record.kind = None
        record.error = None
        self.save()

    def mark_quarantined(
        self, job_id: str, kind: str, error: str, attempts: int
    ) -> None:
        """Record the job's terminal failure with its kind and reason."""
        record = self._require(job_id)
        record.status = STATUS_QUARANTINED
        record.attempts = attempts
        record.kind = kind
        record.error = error
        self.save()

    def recover(self) -> List[str]:
        """Demote every ``running`` job to ``accepted`` after a restart.

        A job the previous service instance had in flight when it died
        is simply not-yet-finished: its exploration checkpoint under
        ``jobs/`` holds every completed round, so re-running it resumes
        bit-identically.  Returns the demoted ids (seq order).
        """
        demoted = [
            record.job_id
            for record in sorted(self.jobs.values(), key=lambda r: r.seq)
            if record.status == STATUS_RUNNING
        ]
        for job_id in demoted:
            self.jobs[job_id].status = STATUS_ACCEPTED
        if demoted:
            self.save()
        return demoted

    # -- queries --------------------------------------------------------
    def by_status(self, status: str) -> List[JobRecord]:
        """Records in ``status``, in submission (seq) order."""
        return sorted(
            (r for r in self.jobs.values() if r.status == status),
            key=lambda r: r.seq,
        )

    def counts(self) -> Dict[str, int]:
        """Job counts by lifecycle state (all four keys always present)."""
        counts = {
            STATUS_ACCEPTED: 0,
            STATUS_RUNNING: 0,
            STATUS_DONE: 0,
            STATUS_QUARANTINED: 0,
        }
        for record in self.jobs.values():
            counts[record.status] += 1
        return counts

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
        for job_id, record in sorted(self.jobs.items()):
            entry: Dict[str, object] = {
                "tenant": record.tenant,
                "spec": dict(record.spec),
                "status": record.status,
            }
            if record.status == STATUS_DONE:
                entry["result"] = record.result
            elif record.status == STATUS_QUARANTINED:
                entry["kind"] = record.kind
                entry["error"] = record.error
            out[job_id] = entry
        return out
