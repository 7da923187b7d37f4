"""The crash-safe job ledger of campaigns and the service, and job specs.

:class:`StudyRegistry` is the one durable ledger both drivers of the
:class:`~repro.serve.supervisor.JobEngine` record through: the service
in a service directory's ``REGISTRY.json``, a campaign in a campaign
directory's ``MANIFEST.json``.  Every job is recorded ``accepted``
before its driver acts on it, and every transition (running, done,
quarantined, a retry's demotion back to accepted) is persisted
atomically before the engine moves on — via the checksummed
JSON-checkpoint envelope (sha256 + ``.prev`` rotation,
:func:`repro.core.checkpoint.save_checkpoint`).  At any instant
the file on disk describes a consistent prefix of the driver's
history, so a killed-and-restarted driver re-opens it, demotes jobs
caught ``running`` back to ``accepted`` (their exploration checkpoints
survive), and finishes every job bit-identically.

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
from typing import Dict, List, Optional, Tuple, Type, Union

from ..core.checkpoint import (
    CheckpointError,
    load_checkpoint,
    previous_path,
    save_checkpoint,
)
from ..obs.metrics import METRICS, MetricsRegistry
from ..obs.telemetry import NULL_TELEMETRY, RunTelemetry

PathLike = Union[str, Path]

#: bump when the ledger payload layout changes incompatibly (one
#: version for campaign manifests and service registries alike)
LEDGER_VERSION = 2

#: file name of the registry inside a service directory
REGISTRY_NAME = "REGISTRY.json"

#: subdirectory of a service directory holding per-job checkpoints
JOBS_DIR = "jobs"

#: job lifecycle states the ledger records
STATUS_ACCEPTED = "accepted"
STATUS_RUNNING = "running"
STATUS_DONE = "done"
STATUS_QUARANTINED = "quarantined"
STATUSES = (STATUS_ACCEPTED, STATUS_RUNNING, STATUS_DONE, STATUS_QUARANTINED)

#: the states a job never leaves
TERMINAL = (STATUS_DONE, STATUS_QUARANTINED)

#: fields of every ledger record
RECORD_FIELDS = ("status", "attempts", "result", "resources", "kind", "error")

#: the extra fields of a service job's record
JOB_FIELDS = ("tenant", "seq", "spec")

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


class StudyRegistry:
    """The durable job ledger: one record per job id, every state saved.

    The one ledger of the :class:`~repro.serve.supervisor.JobEngine`,
    whichever driver pumps it: the service keeps its jobs in a service
    directory's ``REGISTRY.json`` (:meth:`open`), a campaign its cells
    in a campaign directory's ``MANIFEST.json``, with the spec, its
    digest and the fault plan in :attr:`header`.  A record is a plain
    JSON object holding :data:`RECORD_FIELDS`; service records add
    :data:`JOB_FIELDS`.  Every mutating method rewrites the file
    atomically *before* returning, so callers may treat a returned
    transition as durable.  ``error`` is the exception class every
    failure raises (:class:`ServeError`, or the campaign's
    ``CampaignError``).
    """

    def __init__(
        self,
        path: PathLike,
        header: Optional[Dict[str, object]] = None,
        *,
        error: Type[Exception] = ServeError,
        telemetry: Optional[RunTelemetry] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.path = Path(path)
        self.header: Dict[str, object] = dict(header or {})
        self.records: Dict[str, Dict[str, object]] = {}
        self.error = error
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.metrics = metrics if metrics is not None else METRICS

    @property
    def cells(self) -> Dict[str, Dict[str, object]]:
        """Read-only name of :attr:`records` for a campaign's cells
        (``CampaignResult.manifest.cells[cell_id]``)."""
        return self.records

    # -- persistence ----------------------------------------------------
    @staticmethod
    def exists(path: PathLike) -> bool:
        """Whether ``path`` holds a (possibly mid-rotation) ledger.

        A crash between the rotation and the rewrite of a save leaves
        only ``<path>.prev`` on disk; :meth:`load` recovers from it, so
        it still counts as recorded progress.
        """
        path = Path(path)
        return path.exists() or previous_path(path).exists()

    def save(self) -> Path:
        """Atomically persist the ledger (checksummed, ``.prev``-rotated)."""
        payload = {
            "version": LEDGER_VERSION,
            "header": self.header,
            "records": self.records,
        }
        save_checkpoint(self.path, payload, self.telemetry, self.metrics)
        return self.path

    @classmethod
    def load(
        cls,
        path: PathLike,
        *,
        error: Type[Exception] = ServeError,
        required: Tuple[str, ...] = RECORD_FIELDS,
        telemetry: Optional[RunTelemetry] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> "StudyRegistry":
        """Load the ledger at ``path``; raises ``error`` on every failure.

        Self-healing like every checkpoint: a corrupt primary falls back
        to the rotated ``.prev``, costing at most one recorded
        transition, which the driver's recovery then simply redoes.
        Every record must be an object holding the ``required`` fields
        and a known status.
        """
        ledger = cls(path, error=error, telemetry=telemetry, metrics=metrics)
        path = ledger.path
        try:
            payload = load_checkpoint(
                path, ledger.telemetry, ledger.metrics, strict=True
            )
        except CheckpointError as exc:
            raise error(f"ledger {path} is unusable: {exc}") from exc
        if payload is None:
            raise error(f"no ledger at {path}")
        if not isinstance(payload, dict):
            raise error(
                f"ledger {path} must hold an object, "
                f"got {type(payload).__name__}"
            )
        version = payload.get("version")
        if version != LEDGER_VERSION:
            raise error(
                f"ledger {path} has version {version!r}, expected "
                f"{LEDGER_VERSION}; older ledgers are not migrated — "
                f"finish it with the release that wrote it"
            )
        header, records = payload.get("header"), payload.get("records")
        if not isinstance(header, dict) or not isinstance(records, dict):
            raise error(f"ledger {path} needs a 'header' and 'records' object")
        for key, record in records.items():
            if not isinstance(record, dict):
                raise error(
                    f"ledger {path} record {key!r} must be an object, "
                    f"got {type(record).__name__}"
                )
            missing = [name for name in required if name not in record]
            if missing:
                raise error(
                    f"ledger {path} record {key!r} is missing field(s) "
                    f"{', '.join(map(repr, missing))}"
                )
            if record["status"] not in STATUSES:
                raise error(
                    f"ledger {path} record {key!r} has unknown status "
                    f"{record['status']!r}"
                )
        ledger.header, ledger.records = header, records
        return ledger

    @classmethod
    def open(
        cls,
        directory: PathLike,
        telemetry: Optional[RunTelemetry] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> "StudyRegistry":
        """Open (or create) the registry of service ``directory``."""
        path = registry_path(directory)
        if cls.exists(path):
            registry = cls.load(
                path, required=RECORD_FIELDS + JOB_FIELDS,
                telemetry=telemetry, metrics=metrics,
            )
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
            registry = cls(path, telemetry=telemetry, metrics=metrics)
            registry.save()
        (path.parent / JOBS_DIR).mkdir(exist_ok=True)
        return registry

    # -- transitions ----------------------------------------------------
    def admit(self, entries: Dict[str, Dict[str, object]]) -> None:
        """Record each new key of ``entries`` as ``accepted``, with its
        extra fields, in one save; durable before it returns."""
        clash = [key for key in entries if key in self.records]
        if clash:
            raise self.error(
                f"{', '.join(map(repr, clash))} already in {self.path.name}"
            )
        for key, extra in entries.items():
            self.records[key] = {
                **extra, "status": STATUS_ACCEPTED, "attempts": 0,
                "result": None, "resources": None, "kind": None,
                "error": None,
            }
        self.save()

    def _update(self, key: str, **fields: object) -> None:
        record = self.records.get(key)
        if record is None:
            raise self.error(f"unknown job {key!r} in {self.path.name}")
        record.update(fields)
        self.save()

    def mark_running(self, key: str, attempt: int) -> None:
        """Record that attempt ``attempt`` of ``key`` has a live worker."""
        self._update(key, status=STATUS_RUNNING, attempts=attempt)

    def mark_accepted(self, key: str) -> None:
        """Demote ``key`` back to the queueable state (retry, requeue)."""
        self._update(key, status=STATUS_ACCEPTED)

    def mark_done(
        self,
        key: str,
        result: Dict[str, object],
        resources: Dict[str, float],
        attempts: int,
    ) -> None:
        """Record ``key``'s terminal success (result + resource bill)."""
        self._update(
            key, status=STATUS_DONE, attempts=attempts, result=result,
            resources=resources, kind=None, error=None,
        )

    def mark_quarantined(
        self, key: str, kind: str, error: str, attempts: int
    ) -> None:
        """Record ``key``'s terminal failure with its kind and reason."""
        self._update(
            key, status=STATUS_QUARANTINED, attempts=attempts, kind=kind,
            error=error,
        )

    def recover(self) -> List[str]:
        """Demote every ``running`` record to ``accepted`` after a restart.

        A job the previous driver had in flight when it died is simply
        not-yet-finished: its exploration checkpoint holds every
        completed round, so re-running it resumes bit-identically.
        Returns the demoted keys in record order.
        """
        demoted = list(self.by_status(STATUS_RUNNING))
        for key in demoted:
            self.records[key]["status"] = STATUS_ACCEPTED
        if demoted:
            self.save()
        return demoted

    # -- queries --------------------------------------------------------
    def status_of(self, key: str) -> Optional[str]:
        """The recorded status of ``key``, or ``None``."""
        record = self.records.get(key)
        return None if record is None else str(record["status"])

    def by_status(self, *statuses: str) -> Dict[str, Dict[str, object]]:
        """The records in any of ``statuses``, in record order."""
        return {
            key: record for key, record in self.records.items()
            if record["status"] in statuses
        }

    def counts(self) -> Dict[str, int]:
        """Record counts by lifecycle state (all four keys always present)."""
        counts = dict.fromkeys(STATUSES, 0)
        for record in self.records.values():
            counts[str(record["status"])] += 1
        return counts
