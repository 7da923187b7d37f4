"""Fault-isolated campaign runner: every matrix cell runs as a job.

:class:`CampaignRunner` turns each cell of the matrix into a
:class:`~repro.serve.registry.JobSpec` whose id is the cell id, pushes
the unfinished ones onto the :class:`~repro.serve.supervisor.JobEngine`
the exploration service also runs on, pumps it until idle and renders
the reports.  The engine gives each cell attempt its own worker
process, the ``cell_timeout_s`` watchdog, ``cell_retries``
seeded-backoff retries that resume from the cell's round checkpoint
under ``cells/``, and quarantine — the campaign completes degraded and
the report enumerates the quarantined cells.

The engine's ledger is the campaign directory's ``MANIFEST.json``, a
:class:`~repro.serve.registry.StudyRegistry` like the service's
registry: ``run`` records every cell ``accepted`` in one save, then
every transition is rewritten atomically before the engine moves on.
Its header holds the spec, the spec's digest (resuming with a
different spec fails loudly) and the campaign-scoped fault plan (a
resumed driver re-applies the identical chaos).  ``kill -9`` of the
*driver* therefore loses at most the in-flight attempts: ``resume``
demotes cells caught ``running`` back to ``accepted``, replays the
terminal ones and produces a byte-identical aggregated report.  Every
cell is an independently seeded exploration whose result does not
depend on scheduling, worker count, retries or resume, and the
:class:`~repro.core.faults.CellFaultPlan` decides by cell id, so a
resumed driver faces the identical chaos.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..core.faults import CellFaultPlan
from ..obs.metrics import METRICS, MetricsRegistry
from ..obs.telemetry import NULL_TELEMETRY, RunTelemetry
from ..serve.registry import (
    STATUS_DONE,
    STATUS_QUARANTINED,
    TERMINAL,
    JobSpec,
    StudyRegistry,
)
from ..serve.supervisor import POLL_S, JobEngine
from .matrix import CampaignCell, expand_matrix
from .report import build_report, write_reports
from .spec import CampaignSpec

PathLike = Union[str, Path]

#: subdirectory of a campaign directory holding per-cell checkpoints
CELLS_DIR = "cells"

#: file name of the ledger inside a campaign directory
MANIFEST_NAME = "MANIFEST.json"


class CampaignError(RuntimeError):
    """A campaign cannot run/resume as asked (the message says why)."""


def manifest_path(directory: PathLike) -> Path:
    """Where a campaign directory keeps its ledger."""
    return Path(directory) / MANIFEST_NAME


def _load_manifest(
    directory: PathLike,
    telemetry: Optional[RunTelemetry] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> StudyRegistry:
    """Load a campaign directory's ledger; loud on every failure mode.

    Self-healing like every checkpoint: a corrupt (or, mid-rotation,
    missing) primary falls back to ``MANIFEST.json.prev``, costing at
    most one recorded transition, which resume simply redoes.
    """
    path = manifest_path(directory)
    if not StudyRegistry.exists(path):
        raise CampaignError(
            f"no campaign manifest at {path}; run `repro campaign run` first"
        )
    ledger = StudyRegistry.load(
        path, error=CampaignError, telemetry=telemetry, metrics=metrics
    )
    header = ledger.header
    if not isinstance(header.get("spec"), dict) \
            or not isinstance(header.get("spec_digest"), str):
        raise CampaignError(
            f"campaign manifest {path} is missing its spec / spec_digest"
        )
    if not isinstance(header.get("cell_faults"), (dict, type(None))):
        raise CampaignError(
            f"campaign manifest {path} cell_faults must be an object or null"
        )
    return ledger


# ----------------------------------------------------------------------
# driver side
# ----------------------------------------------------------------------
@dataclass
class CampaignResult:
    """What a campaign run/resume produced."""

    spec: CampaignSpec
    directory: Path
    manifest: StudyRegistry
    cells: Tuple[CampaignCell, ...]
    report_paths: Dict[str, Path] = field(default_factory=dict)
    n_replayed: int = 0

    @property
    def n_completed(self) -> int:
        return len(self.manifest.by_status(STATUS_DONE))

    @property
    def n_quarantined(self) -> int:
        return len(self.manifest.by_status(STATUS_QUARANTINED))

    @property
    def quarantined_cells(self) -> List[str]:
        """Identifiers of quarantined cells, sorted."""
        return sorted(self.manifest.by_status(STATUS_QUARANTINED))

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

    # -- manifest lifecycle ---------------------------------------------
    def _adopt(self, manifest: StudyRegistry) -> None:
        """Check a recorded manifest belongs to this spec; take its faults."""
        digest = str(manifest.header["spec_digest"])
        if digest != self.spec.digest():
            raise CampaignError(
                f"campaign directory {self.directory} belongs to a "
                f"different spec (manifest digest {digest[:12]}..., this "
                f"spec {self.spec.digest()[:12]}...); use a fresh directory"
            )
        if set(manifest.records) != {cell.cell_id for cell in self.cells}:
            raise CampaignError(
                f"campaign manifest {manifest.path} does not record "
                f"exactly the cells of its spec's matrix"
            )
        faults = manifest.header.get("cell_faults")
        if faults is not None:
            # the killed driver's chaos plan wins over whatever (if
            # anything) was passed to resume — same faults, same report
            self.cell_faults = CellFaultPlan.from_dict(faults)  # type: ignore[arg-type]

    def _job_spec(self, cell: CampaignCell) -> JobSpec:
        """The service job a matrix cell runs as (its id is the cell's)."""
        spec = self.spec
        return JobSpec(
            **cell.to_dict(),
            target_error=spec.target_error,
            batch_size=spec.batch_size,
            training=spec.training,
            k=spec.k,
            min_folds=spec.min_folds,
            max_retries=spec.max_retries,
            eval_timeout_s=spec.eval_timeout_s,
        )

    # -- public API -----------------------------------------------------
    def run(self, resume: bool = False) -> CampaignResult:
        """Execute the matrix; returns once every cell is terminal.

        With ``resume=True`` an existing manifest is loaded, cells it
        caught ``running`` are demoted to ``accepted`` and its terminal
        cells are replayed instead of re-run; without it, an existing
        manifest is a loud error (clobbering recorded progress must be
        an explicit decision — pick a fresh directory).  A manifest
        caught mid-rotation (only ``.prev`` on disk after a crash)
        counts as existing for both checks.
        """
        if resume:
            return self._run(
                _load_manifest(self.directory, self.telemetry, self.metrics),
                resume=True,
            )
        path = manifest_path(self.directory)
        if StudyRegistry.exists(path):
            raise CampaignError(
                f"campaign directory {self.directory} already has a "
                f"manifest; use resume to continue it or pick a "
                f"fresh directory"
            )
        self.directory.mkdir(parents=True, exist_ok=True)
        manifest = StudyRegistry(
            path,
            {
                "spec": self.spec.to_dict(),
                "spec_digest": self.spec.digest(),
                "cell_faults": (
                    self.cell_faults.to_dict() if self.cell_faults else None
                ),
            },
            error=CampaignError,
            telemetry=self.telemetry,
            metrics=self.metrics,
        )
        manifest.admit({cell.cell_id: {} for cell in self.cells})
        return self._run(manifest, resume=False)

    def _run(self, manifest: StudyRegistry, resume: bool) -> CampaignResult:
        """Drive every non-terminal cell of ``manifest`` to a terminal state."""
        if resume:
            self._adopt(manifest)
            manifest.recover()
        (self.directory / CELLS_DIR).mkdir(exist_ok=True)

        todo = [
            cell for cell in self.cells
            if manifest.status_of(cell.cell_id) not in TERMINAL
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

        engine = JobEngine(
            manifest,
            self.directory / CELLS_DIR,
            namespace="campaign",
            unit="cell",
            max_workers=self.n_jobs,
            retries=self.spec.cell_retries,
            retry_base_delay_s=self.spec.retry_base_delay_s,
            retry_seed=self.spec.retry_seed,
            telemetry=self.telemetry,
            metrics=self.metrics,
            faults=self.cell_faults,
            timeout_s=self.spec.cell_timeout_s,
        )
        for cell in todo:
            engine.push(cell.cell_id, self._job_spec(cell))
        try:
            while not engine.idle:
                if not engine.poll():
                    time.sleep(POLL_S)
        finally:
            # a dying driver must not leak cell processes
            engine.stop(grace_s=0.0)

        report_paths = write_reports(self.directory, manifest, self.cells)
        self.telemetry.emit(
            "campaign.done",
            campaign=self.spec.name,
            n_completed=len(manifest.by_status(STATUS_DONE)),
            n_quarantined=len(manifest.by_status(STATUS_QUARANTINED)),
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
    manifest = _load_manifest(directory, telemetry, metrics)
    spec = CampaignSpec.from_dict(manifest.header["spec"])  # type: ignore[arg-type]
    runner = CampaignRunner(
        spec,
        directory,
        n_jobs=n_jobs,
        telemetry=telemetry,
        metrics=metrics,
    )
    return runner._run(manifest, resume=True)


def campaign_status(directory: PathLike) -> Dict[str, object]:
    """The deterministic report of whatever the manifest records so far.

    Works on live, killed, completed *and mid-rotation* campaign
    directories alike — the report shape is identical, with unfinished
    (``accepted`` or ``running``) cells ``pending``.
    """
    manifest = _load_manifest(directory)
    spec = CampaignSpec.from_dict(manifest.header["spec"])  # type: ignore[arg-type]
    return build_report(manifest, expand_matrix(spec))
