"""Fault-isolated campaign runner: a process pool of crash-safe cells.

Each cell of the matrix runs as its **own** ``multiprocessing.Process``
— one seeded exploration per worker, results returned over a pipe (the
shared :class:`~repro.core.supervise.ProcessSupervisor` machinery, also
used by the exploration service) — so a cell that crashes, hangs or
corrupts its interpreter takes down only itself, never the driver or
its siblings.  The driver supervises:

* a **watchdog** terminates (then kills) any cell past the spec's
  ``cell_timeout_s`` wall-clock budget;
* failed cells are **retried** up to ``cell_retries`` times with
  seeded-jitter backoff (reusing
  :class:`~repro.core.resilience.RetryPolicy`); thanks to the per-cell
  exploration checkpoint, a retried cell resumes from its last
  completed round instead of starting over;
* cells that exhaust the retry budget are **quarantined** — the
  campaign completes degraded and the report enumerates them;
* the checksummed :class:`~repro.campaign.manifest.CampaignManifest`
  is rewritten atomically after every terminal cell, so ``kill -9`` of
  the *driver* loses at most in-flight cells: ``resume`` replays the
  recorded ones and produces a byte-identical aggregated report.

Workers install the cooperative SIGTERM handler
(:func:`~repro.core.supervise.install_sigterm_flush_handler`), so a
plain ``kill <pid>`` of a cell worker exits *after* the in-flight
round's checkpoint is flushed — the relaunched attempt resumes
bit-identically, same as the SIGKILL story.

Determinism: every cell is an independently seeded exploration whose
result does not depend on scheduling, worker count, retries or resume
— the properties PRs 1-7 established for a single run, lifted to a
whole matrix.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..core.faults import CellFaultPlan
from ..core.resilience import RetryPolicy
from ..core.supervise import (
    OUTCOME_DONE,
    OUTCOME_HANG,
    OUTCOME_SHUTDOWN,
    ProcessSupervisor,
    WorkerResult,
    run_worker,
)
from ..obs.metrics import METRICS, MetricsRegistry
from ..obs.telemetry import NULL_TELEMETRY, RunTelemetry
from .manifest import CampaignError, CampaignManifest, manifest_exists
from .matrix import CampaignCell, expand_matrix
from .report import build_report, write_reports
from .spec import CampaignSpec

PathLike = Union[str, Path]

#: subdirectory of a campaign directory holding per-cell checkpoints
CELLS_DIR = "cells"

#: scheduler poll interval; cells run for seconds-to-minutes so a
#: coarse poll costs nothing and keeps the driver loop legible
_POLL_S = 0.02


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def execute_exploration(
    *,
    study: str,
    workload: str,
    agent: str,
    seed: int,
    budget: int,
    target_error: float,
    batch_size: int,
    training: str,
    k: Optional[int],
    min_folds: Optional[int],
    max_retries: int,
    eval_timeout_s: Optional[float],
    checkpoint: str,
    deadline_s: Optional[float] = None,
) -> Dict[str, object]:
    """Run one seeded exploration; returns the worker's pipe message.

    This is the unit of work both the campaign runner (one call per
    cell) and the exploration service (one call per job) execute inside
    a fault-isolated worker.  Everything under ``"result"`` is a
    deterministic function of the arguments — it feeds byte-compared
    reports — while the accounting under ``"resources"`` is explicitly
    non-deterministic and is kept out of them.

    ``deadline_s`` (relative seconds, service jobs only) becomes an
    absolute monotonic deadline on the
    :class:`~repro.core.resilience.ResilientBackend`, so a job that
    outlives its budget fails fast with ``DeadlineExceeded`` instead of
    burning simulator time the tenant no longer wants.
    """
    # imported here so an injected-crash worker never pays (or breaks
    # on) the numeric stack import
    from ..core.backend import SerialBackend
    from ..core.context import RunContext
    from ..core.crossval import DEFAULT_FOLDS
    from ..core.explorer import DesignSpaceExplorer
    from ..core.training import TrainingConfig
    from ..experiments.studies import get_study, make_simulate_fn
    from ..obs.resources import ResourceMeter

    study_obj = get_study(study)
    backend: object = SerialBackend(make_simulate_fn(study_obj, workload))
    if max_retries > 0 or eval_timeout_s is not None or deadline_s is not None:
        from ..core.resilience import ResilientBackend

        backend = ResilientBackend(
            backend,
            policy=RetryPolicy(max_retries=max_retries),
            timeout_s=eval_timeout_s,
            deadline=(
                time.monotonic() + deadline_s
                if deadline_s is not None else None
            ),
        )
    with ResourceMeter() as meter:
        explorer = DesignSpaceExplorer(
            study_obj.space,
            backend,
            batch_size=batch_size,
            k=k if k is not None else DEFAULT_FOLDS,
            training=TrainingConfig.from_preset(training),
            # n_jobs=1: the worker process IS the unit of parallelism —
            # nested evaluation pools would oversubscribe the host
            context=RunContext.seeded(seed, n_jobs=1),
            min_folds=min_folds,
            agent=agent,
        )
        result = explorer.explore(
            target_error=target_error,
            max_simulations=budget,
            checkpoint=checkpoint,
        )
        predictions = result.predict_space()
        best_index = int(predictions.argmax())
        estimate = result.final_estimate
    n_failed = len(getattr(backend, "failures", ()))
    cell_result: Dict[str, object] = {
        "converged": bool(result.converged),
        "n_simulations": int(result.n_simulations),
        "n_rounds": len(result.rounds),
        "error_mean": float(estimate.mean),
        "error_std": float(estimate.std),
        "coverage": float(estimate.coverage),
        "fold_coverage": float(estimate.fold_coverage),
        "n_failed_evals": n_failed,
        "best_index": best_index,
        "best_ipc": float(predictions[best_index]),
        "rounds": [
            {"n_samples": r.n_samples, "error_mean": float(r.estimate.mean)}
            for r in result.rounds
        ],
    }
    if estimate.target_names:
        # only multi-target studies grow these keys, so scalar cells'
        # result dicts — and the byte-compared reports built from them —
        # are unchanged
        cell_result["target_names"] = list(estimate.target_names)
        cell_result["per_target_error"] = {
            name: {
                "mean": float(estimate.for_target(name).mean),
                "std": float(estimate.for_target(name).std),
            }
            for name in estimate.target_names
        }
    return {
        "status": "done",
        "result": cell_result,
        "resources": meter.usage.to_dict(),
    }


def _execute_cell(
    spec: CampaignSpec, cell: CampaignCell, checkpoint: str
) -> Dict[str, object]:
    """Run one cell's exploration; returns the pipe message payload."""
    return execute_exploration(
        study=cell.study,
        workload=cell.workload,
        agent=cell.agent,
        seed=cell.seed,
        budget=cell.budget,
        target_error=spec.target_error,
        batch_size=spec.batch_size,
        training=spec.training,
        k=spec.k,
        min_folds=spec.min_folds,
        max_retries=spec.max_retries,
        eval_timeout_s=spec.eval_timeout_s,
        checkpoint=checkpoint,
    )


def _cell_entry(conn: object, payload: Dict[str, object]) -> None:
    """Child-process entry point for one cell attempt.

    Delegates the fault-injection / SIGTERM / error-reporting
    discipline to :func:`~repro.core.supervise.run_worker`.
    """

    def execute(p: Dict[str, object]) -> Dict[str, object]:
        return _execute_cell(
            CampaignSpec.from_dict(p["spec"]),  # type: ignore[arg-type]
            CampaignCell.from_dict(p["cell"]),  # type: ignore[arg-type]
            str(p["checkpoint"]),
        )

    run_worker(conn, payload, execute)


# ----------------------------------------------------------------------
# driver side
# ----------------------------------------------------------------------
@dataclass
class CampaignResult:
    """What a campaign run/resume produced."""

    spec: CampaignSpec
    directory: Path
    manifest: CampaignManifest
    cells: Tuple[CampaignCell, ...]
    report_paths: Dict[str, Path] = field(default_factory=dict)
    n_replayed: int = 0

    @property
    def n_completed(self) -> int:
        return len(self.manifest.completed)

    @property
    def n_quarantined(self) -> int:
        return len(self.manifest.quarantined)

    @property
    def quarantined_cells(self) -> List[str]:
        """Identifiers of quarantined cells, sorted."""
        return sorted(self.manifest.quarantined)

    @property
    def degraded(self) -> bool:
        """True when the campaign completed with quarantined cells."""
        return self.n_quarantined > 0

    def report(self) -> Dict[str, object]:
        """The deterministic aggregate (same dict report.json holds)."""
        return build_report(self.manifest, self.cells)


class CampaignRunner:
    """Drives one campaign matrix to completion (or degraded completion).

    Parameters
    ----------
    spec:
        The validated campaign spec.
    directory:
        Campaign working directory: holds the manifest, per-cell
        checkpoints under ``cells/`` and the final reports.
    n_jobs:
        Concurrent cell processes.  Determinism never depends on this —
        cells are independent seeded runs keyed by cell id.
    cell_faults:
        Optional campaign-scoped chaos plan
        (:class:`~repro.core.faults.CellFaultPlan`); recorded in the
        manifest so a resumed driver re-applies the identical plan.
    telemetry / metrics:
        Observability hooks for the ``campaign.*`` vocabulary.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        directory: PathLike,
        *,
        n_jobs: int = 1,
        cell_faults: Optional[CellFaultPlan] = None,
        telemetry: Optional[RunTelemetry] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
        self.spec = spec
        self.directory = Path(directory)
        self.n_jobs = n_jobs
        self.cell_faults = cell_faults
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.metrics = metrics if metrics is not None else METRICS
        self.cells = expand_matrix(spec)
        self._cells_by_id = {cell.cell_id: cell for cell in self.cells}
        # whole-cell retry backoff: one deterministic schedule shared by
        # every cell (delays never reach the report, so sharing is safe)
        self._delays = RetryPolicy(
            max_retries=spec.cell_retries,
            base_delay_s=spec.retry_base_delay_s,
            jitter=0.1 if spec.retry_base_delay_s > 0 else 0.0,
            seed=spec.retry_seed,
        ).schedule(spec.cell_retries)

    # -- paths ----------------------------------------------------------
    def _checkpoint_for(self, cell: CampaignCell) -> Path:
        return self.directory / CELLS_DIR / f"{cell.cell_id}.ckpt"

    # -- manifest lifecycle ---------------------------------------------
    def _fresh_manifest(self) -> CampaignManifest:
        return CampaignManifest(
            spec=self.spec.to_dict(),
            spec_digest=self.spec.digest(),
            cell_faults=(
                self.cell_faults.to_dict() if self.cell_faults else None
            ),
        )

    def _load_manifest(self) -> CampaignManifest:
        manifest = CampaignManifest.load(
            self.directory, self.telemetry, self.metrics
        )
        if manifest.spec_digest != self.spec.digest():
            raise CampaignError(
                f"campaign directory {self.directory} belongs to a "
                f"different spec (manifest digest "
                f"{manifest.spec_digest[:12]}..., this spec "
                f"{self.spec.digest()[:12]}...); use a fresh directory"
            )
        if manifest.cell_faults is not None:
            # the killed driver's chaos plan wins over whatever (if
            # anything) was passed to resume — same faults, same report
            self.cell_faults = CellFaultPlan.from_dict(manifest.cell_faults)
        return manifest

    # -- scheduling -----------------------------------------------------
    def _launch(
        self, supervisor: ProcessSupervisor, cell: CampaignCell, attempt: int
    ) -> None:
        fault = self.cell_faults.decide(cell.cell_id) if self.cell_faults \
            else None
        payload: Dict[str, object] = {
            "spec": self.spec.to_dict(),
            "cell": cell.to_dict(),
            "checkpoint": str(self._checkpoint_for(cell)),
            "fault": fault,
            "hang_s": self.cell_faults.hang_s if self.cell_faults else 0.0,
        }
        supervisor.launch(
            cell.cell_id, payload, attempt,
            timeout_s=self.spec.cell_timeout_s,
        )
        self.telemetry.emit(
            "campaign.cell_start",
            cell_id=cell.cell_id,
            attempt=attempt,
            fault=fault,
        )

    def _record_failure(
        self,
        manifest: CampaignManifest,
        cell: CampaignCell,
        outcome: WorkerResult,
        waiting: List[Tuple[float, CampaignCell, int]],
    ) -> None:
        """Retry with backoff, or quarantine when the budget is spent."""
        if outcome.attempt <= self.spec.cell_retries:
            delay = self._delays[outcome.attempt - 1]
            self.metrics.inc("campaign.cell_retries")
            self.telemetry.emit(
                "campaign.cell_retry",
                cell_id=cell.cell_id,
                attempt=outcome.attempt,
                kind=outcome.status,
                delay_s=delay,
                error=outcome.error,
            )
            waiting.append(
                (time.monotonic() + delay, cell, outcome.attempt + 1)
            )
            return
        manifest.record_quarantined(
            cell.cell_id,
            kind=outcome.status,
            error=outcome.error,
            attempts=outcome.attempt,
        )
        manifest.save(self.directory, self.telemetry, self.metrics)
        self.metrics.inc("campaign.cells_quarantined")
        self.telemetry.emit(
            "campaign.cell_quarantined",
            cell_id=cell.cell_id,
            kind=outcome.status,
            attempts=outcome.attempt,
            error=outcome.error,
        )

    def _record_done(
        self,
        manifest: CampaignManifest,
        cell: CampaignCell,
        outcome: WorkerResult,
    ) -> None:
        resources = dict(outcome.message.get("resources") or {})
        manifest.record_done(
            cell.cell_id,
            result=dict(outcome.message["result"]),  # type: ignore[arg-type]
            resources=resources,
            attempts=outcome.attempt,
        )
        manifest.save(self.directory, self.telemetry, self.metrics)
        self.metrics.inc("campaign.cells_completed")
        self.metrics.inc(
            "campaign.cpu_user_s", float(resources.get("cpu_user_s", 0.0))
        )
        self.metrics.inc(
            "campaign.cpu_system_s", float(resources.get("cpu_system_s", 0.0))
        )
        self.metrics.observe(
            "campaign.cell_wall_s", float(resources.get("wall_s", 0.0))
        )
        rss = float(resources.get("max_rss_kb", 0))
        if rss > (self.metrics.gauge_value("campaign.max_rss_kb") or 0.0):
            self.metrics.gauge("campaign.max_rss_kb", rss)
        self.telemetry.emit(
            "campaign.cell_done",
            cell_id=cell.cell_id,
            attempt=outcome.attempt,
            wall_s=resources.get("wall_s"),
            max_rss_kb=resources.get("max_rss_kb"),
        )

    # -- public API -----------------------------------------------------
    def run(self, resume: bool = False) -> CampaignResult:
        """Execute the matrix; returns once every cell is terminal.

        With ``resume=True`` an existing manifest is loaded and its
        terminal cells are replayed instead of re-run; without it, an
        existing manifest is a loud error (clobbering recorded progress
        must be an explicit decision — pick a fresh directory).  A
        manifest caught mid-rotation (only ``.prev`` on disk after a
        crash) counts as existing for both checks.
        """
        has_manifest = manifest_exists(self.directory)
        if resume:
            if not has_manifest:
                raise CampaignError(
                    f"nothing to resume: no campaign manifest in "
                    f"{self.directory}"
                )
            manifest = self._load_manifest()
        else:
            if has_manifest:
                raise CampaignError(
                    f"campaign directory {self.directory} already has a "
                    f"manifest; use resume to continue it or pick a "
                    f"fresh directory"
                )
            self.directory.mkdir(parents=True, exist_ok=True)
            manifest = self._fresh_manifest()
            manifest.save(self.directory, self.telemetry, self.metrics)
        (self.directory / CELLS_DIR).mkdir(exist_ok=True)

        todo = [
            cell for cell in self.cells
            if manifest.status_of(cell.cell_id) is None
        ]
        n_replayed = len(self.cells) - len(todo)
        if n_replayed:
            self.metrics.inc("campaign.cells_replayed", n_replayed)
        self.telemetry.emit(
            "campaign.start",
            campaign=self.spec.name,
            n_cells=len(self.cells),
            n_replayed=n_replayed,
            n_jobs=self.n_jobs,
            resume=resume,
            chaos=self.cell_faults is not None,
        )

        supervisor = ProcessSupervisor(
            _cell_entry, unit="cell", name_prefix="repro-cell"
        )
        pending: List[Tuple[CampaignCell, int]] = [(c, 1) for c in todo]
        waiting: List[Tuple[float, CampaignCell, int]] = []
        try:
            while pending or waiting or supervisor.n_running:
                now = time.monotonic()
                ready = [w for w in waiting if w[0] <= now]
                if ready:
                    waiting = [w for w in waiting if w[0] > now]
                    pending.extend(
                        (cell, attempt) for _, cell, attempt in ready
                    )
                while pending and supervisor.n_running < self.n_jobs:
                    cell, attempt = pending.pop(0)
                    self._launch(supervisor, cell, attempt)
                finished = supervisor.poll()
                for outcome in finished:
                    cell = self._cells_by_id[outcome.key]
                    if outcome.status == OUTCOME_DONE:
                        self._record_done(manifest, cell, outcome)
                        continue
                    if outcome.status == OUTCOME_SHUTDOWN:
                        # the worker honoured a SIGTERM after flushing
                        # its round checkpoint: the cell is unfinished,
                        # not failed — relaunch at the same attempt so
                        # no retry budget is spent and the next worker
                        # resumes from that exact round
                        self.telemetry.emit(
                            "campaign.cell_checkpointed",
                            cell_id=cell.cell_id,
                            attempt=outcome.attempt,
                        )
                        pending.append((cell, outcome.attempt))
                        continue
                    if outcome.status == OUTCOME_HANG:
                        self.metrics.inc("campaign.watchdog_kills")
                        self.telemetry.emit(
                            "campaign.watchdog_kill",
                            cell_id=cell.cell_id,
                            attempt=outcome.attempt,
                        )
                    self._record_failure(manifest, cell, outcome, waiting)
                if not finished:
                    time.sleep(_POLL_S)
        finally:
            # a dying driver must not leak cell processes
            supervisor.shutdown()

        report_paths = write_reports(self.directory, manifest, self.cells)
        self.telemetry.emit(
            "campaign.done",
            campaign=self.spec.name,
            n_completed=len(manifest.completed),
            n_quarantined=len(manifest.quarantined),
            n_replayed=n_replayed,
        )
        return CampaignResult(
            spec=self.spec,
            directory=self.directory,
            manifest=manifest,
            cells=self.cells,
            report_paths=report_paths,
            n_replayed=n_replayed,
        )


# ----------------------------------------------------------------------
# module-level conveniences (exported through repro.api)
# ----------------------------------------------------------------------
def run_campaign(
    spec: CampaignSpec,
    directory: PathLike,
    *,
    n_jobs: int = 1,
    cell_faults: Optional[CellFaultPlan] = None,
    telemetry: Optional[RunTelemetry] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> CampaignResult:
    """Run ``spec`` to (possibly degraded) completion in ``directory``."""
    runner = CampaignRunner(
        spec,
        directory,
        n_jobs=n_jobs,
        cell_faults=cell_faults,
        telemetry=telemetry,
        metrics=metrics,
    )
    return runner.run(resume=False)


def resume_campaign(
    directory: PathLike,
    *,
    n_jobs: int = 1,
    telemetry: Optional[RunTelemetry] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> CampaignResult:
    """Continue the campaign recorded in ``directory``'s manifest.

    The spec (and any chaos plan) is recovered from the manifest itself
    — resuming needs nothing but the directory, which is exactly what a
    ``kill -9``'d driver leaves behind.
    """
    manifest = CampaignManifest.load(directory)
    spec = CampaignSpec.from_dict(manifest.spec)  # type: ignore[arg-type]
    runner = CampaignRunner(
        spec,
        directory,
        n_jobs=n_jobs,
        telemetry=telemetry,
        metrics=metrics,
    )
    return runner.run(resume=True)


def campaign_status(directory: PathLike) -> Dict[str, object]:
    """The deterministic report of whatever the manifest records so far.

    Works on live, killed, completed *and mid-rotation* campaign
    directories alike — the report shape is identical, with unfinished
    cells ``pending``.
    """
    manifest = CampaignManifest.load(directory)
    spec = CampaignSpec.from_dict(manifest.spec)  # type: ignore[arg-type]
    return build_report(manifest, expand_matrix(spec))
