"""The checksummed campaign manifest: the driver's crash-safe ledger.

The manifest is what makes ``kill -9`` of the campaign *driver* a
recoverable event.  It is the campaign's ledger for the shared
:class:`~repro.serve.supervisor.JobEngine`, and records only terminal
cells: it is rewritten atomically (with rotation to ``.prev`` and a
sha256 checksum, via :func:`repro.core.checkpoint.save_json_checkpoint`)
every time a cell is marked done or quarantined, so at any instant the
file on disk describes a complete prefix of the campaign:

* which spec (by digest) the directory belongs to — resuming with a
  different spec fails loudly;
* the campaign-scoped fault plan in force, so a resumed driver
  re-applies the *identical* chaos a killed driver was running under;
* one record per terminal cell — ``done`` records carry the cell's
  deterministic exploration result plus its (non-deterministic)
  resource accounting; ``quarantined`` records carry the failure kind,
  attempt count and final error.

``repro campaign resume`` replays ``done``/``quarantined`` records
instead of re-running their cells, runs whatever is missing, and
regenerates the aggregated report — byte-identical to an uninterrupted
run, because every field the report includes is a deterministic
function of (spec, fault plan).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Dict, Optional, Union

from ..core.checkpoint import (
    CheckpointError,
    load_json_checkpoint,
    previous_path,
    save_json_checkpoint,
)
from ..obs.metrics import MetricsRegistry
from ..obs.telemetry import RunTelemetry

#: bump when the manifest payload layout changes incompatibly
MANIFEST_VERSION = 1

#: file name of the manifest inside a campaign directory
MANIFEST_NAME = "MANIFEST.json"

#: terminal cell states a manifest records
STATUS_DONE = "done"
STATUS_QUARANTINED = "quarantined"

PathLike = Union[str, Path]


class CampaignError(RuntimeError):
    """A campaign cannot run/resume as asked (the message says why)."""


def manifest_path(directory: PathLike) -> Path:
    """Where a campaign directory keeps its manifest."""
    return Path(directory) / MANIFEST_NAME


def manifest_exists(directory: PathLike) -> bool:
    """Whether ``directory`` holds a (possibly mid-rotation) manifest.

    A crash between ``save_json_checkpoint``'s rotation and its atomic
    rewrite leaves only ``MANIFEST.json.prev`` on disk.  That directory
    still *has* a campaign — :meth:`CampaignManifest.load` recovers it
    from the rotated copy — so existence checks must consider both
    files: ``resume`` on a mid-rotation directory must work, and a
    fresh ``run`` must refuse to clobber it.
    """
    path = manifest_path(directory)
    return path.exists() or previous_path(path).exists()


@dataclass
class CampaignManifest:
    """In-memory form of the on-disk manifest.

    After :meth:`persist_to`, which only the runner that owns the
    campaign directory calls, each terminal transition is saved there
    before it returns.
    """

    spec: Dict[str, object]
    spec_digest: str
    cell_faults: Optional[Dict[str, object]] = None
    cells: Dict[str, Dict[str, object]] = field(default_factory=dict)
    version: int = MANIFEST_VERSION
    _persist: Optional[Callable[[], Path]] = field(
        default=None, init=False, repr=False, compare=False
    )

    # -- transitions ----------------------------------------------------
    def mark_running(self, cell_id: str, attempt: int) -> None:
        """Nothing to record: the manifest holds terminal cells only."""

    def mark_accepted(self, cell_id: str) -> None:
        """Nothing to record: the manifest holds terminal cells only."""

    def mark_done(
        self,
        cell_id: str,
        result: Dict[str, object],
        resources: Dict[str, float],
        attempts: int,
    ) -> None:
        """Mark ``cell_id`` completed with its result and accounting."""
        self._record(
            cell_id, status=STATUS_DONE, attempts=attempts, result=result,
            resources=resources,
        )

    def mark_quarantined(
        self, cell_id: str, kind: str, error: str, attempts: int
    ) -> None:
        """Mark ``cell_id`` permanently failed (kept out of the matrix)."""
        self._record(
            cell_id, status=STATUS_QUARANTINED, attempts=attempts,
            kind=kind, error=error,
        )

    def _record(self, cell_id: str, **record: object) -> None:
        self.cells[cell_id] = record
        if self._persist is not None:
            self._persist()

    # -- queries --------------------------------------------------------
    def status_of(self, cell_id: str) -> Optional[str]:
        """Return the recorded status for ``cell_id``, or ``None``."""
        record = self.cells.get(cell_id)
        return None if record is None else str(record["status"])

    @property
    def completed(self) -> Dict[str, Dict[str, object]]:
        return {
            cid: record for cid, record in self.cells.items()
            if record.get("status") == STATUS_DONE
        }

    @property
    def quarantined(self) -> Dict[str, Dict[str, object]]:
        return {
            cid: record for cid, record in self.cells.items()
            if record.get("status") == STATUS_QUARANTINED
        }

    # -- persistence ----------------------------------------------------
    def to_payload(self) -> Dict[str, object]:
        """Serialise the manifest to a JSON-friendly dict."""
        return {
            "version": self.version,
            "spec": self.spec,
            "spec_digest": self.spec_digest,
            "cell_faults": self.cell_faults,
            "cells": self.cells,
        }

    @classmethod
    def from_payload(cls, payload: object) -> "CampaignManifest":
        """Rebuild a manifest from :meth:`to_payload` output."""
        if not isinstance(payload, dict):
            raise CampaignError(
                f"campaign manifest payload must be an object, "
                f"got {type(payload).__name__}"
            )
        version = payload.get("version")
        if version != MANIFEST_VERSION:
            raise CampaignError(
                f"campaign manifest has version {version!r}, "
                f"expected {MANIFEST_VERSION}"
            )
        spec = payload.get("spec")
        digest = payload.get("spec_digest")
        if not isinstance(spec, dict) or not isinstance(digest, str):
            raise CampaignError(
                "campaign manifest is missing its spec / spec_digest"
            )
        cells = payload.get("cells") or {}
        if not isinstance(cells, dict):
            raise CampaignError("campaign manifest cells must be an object")
        faults = payload.get("cell_faults")
        if faults is not None and not isinstance(faults, dict):
            raise CampaignError(
                "campaign manifest cell_faults must be an object or null"
            )
        return cls(
            spec=spec,
            spec_digest=digest,
            cell_faults=faults,
            cells=dict(cells),
            version=int(version),
        )

    def save(
        self,
        directory: PathLike,
        telemetry: Optional[RunTelemetry] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> Path:
        """Atomically persist to ``directory``'s manifest file."""
        path = manifest_path(directory)
        save_json_checkpoint(path, self.to_payload(), telemetry, metrics)
        return path

    @classmethod
    def load(
        cls,
        directory: PathLike,
        telemetry: Optional[RunTelemetry] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> "CampaignManifest":
        """Load the manifest of ``directory``; loud on every failure mode.

        Self-healing like every checkpoint: a corrupt primary file falls
        back to the rotated ``.prev`` (costing at most one cell of
        recorded progress, which resume simply re-runs).
        """
        path = manifest_path(directory)
        try:
            payload = load_json_checkpoint(
                path, telemetry, metrics, strict=True
            )
        except CheckpointError as exc:
            raise CampaignError(
                f"campaign manifest {path} is unusable: {exc}"
            ) from exc
        if payload is None:
            raise CampaignError(
                f"no campaign manifest at {path}; "
                "run `repro campaign run` first"
            )
        return cls.from_payload(payload)

    def persist_to(
        self,
        directory: PathLike,
        telemetry: Optional[RunTelemetry] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        """Save every later terminal transition to ``directory``."""
        self._persist = partial(self.save, directory, telemetry, metrics)
