"""Aggregated campaign reports: one JSON + one Markdown across all cells.

Two JSON artifacts are written, split on purpose:

* ``report.json`` — the **deterministic** aggregate.  Every field is a
  pure function of (spec, fault plan): per-cell exploration results,
  quarantine records, summary counts.  No wall-clock, no CPU seconds,
  no paths.  This is the file the crash-safety guarantee speaks about:
  an uninterrupted run and a ``kill -9``-then-resume run of the same
  spec produce **byte-identical** ``report.json`` (asserted in CI's
  chaos smoke).
* ``resources.json`` — the accounting: per-cell wall/CPU/peak-RSS from
  :class:`repro.obs.resources.ResourceMeter`, plus totals.  Inherently
  non-deterministic, hence quarantined from the comparable report.

``report.md`` renders both for humans.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..obs.atomicio import atomic_write_text
from ..serve.registry import (
    STATUS_DONE,
    STATUS_QUARANTINED,
    TERMINAL,
    StudyRegistry,
)
from .matrix import CampaignCell

#: bump when the report layout changes incompatibly
REPORT_SCHEMA = 1

#: the `kind` marker scripts/check_bench_schema.py keys on
REPORT_KIND = "campaign-report"

REPORT_NAME = "report.json"
RESOURCES_NAME = "resources.json"
MARKDOWN_NAME = "report.md"

PathLike = Union[str, Path]


def _cell_row(
    cell: CampaignCell, record: Dict[str, object]
) -> Dict[str, object]:
    """One deterministic report row for a terminal cell."""
    row: Dict[str, object] = dict(cell.to_dict())
    row["cell_id"] = cell.cell_id
    row["status"] = record["status"]
    if record["status"] == STATUS_DONE:
        # the result block is deterministic by construction (seeded
        # exploration); attempts/resources are *not* copied here — they
        # belong to resources.json
        row.update(record["result"])  # type: ignore[arg-type]
    else:
        row["kind"] = record["kind"]
        row["attempts"] = record["attempts"]
        row["error"] = record["error"]
    return row


def build_report(
    manifest: StudyRegistry, cells: Tuple[CampaignCell, ...]
) -> Dict[str, object]:
    """The deterministic aggregate of every terminal cell.

    ``cells`` is the expanded matrix (defines which rows exist);
    non-terminal cells (``accepted`` or ``running``: possible only while
    a campaign is still running or after its driver died) are reported
    with status ``"pending"`` so a status probe can render the same
    document shape.
    """
    rows: List[Dict[str, object]] = []
    n_done = n_quarantined = n_converged = 0
    header = manifest.header
    for cell in sorted(cells, key=lambda c: c.cell_id):
        record = manifest.records.get(cell.cell_id)
        if record is None or record["status"] not in TERMINAL:
            row = dict(cell.to_dict())
            row["cell_id"] = cell.cell_id
            row["status"] = "pending"
        else:
            row = _cell_row(cell, record)
            if record["status"] == STATUS_DONE:
                n_done += 1
                if row.get("converged"):
                    n_converged += 1
            else:
                n_quarantined += 1
        rows.append(row)
    return {
        "schema": REPORT_SCHEMA,
        "kind": REPORT_KIND,
        "name": header["spec"].get("name"),  # type: ignore[union-attr]
        "spec_digest": header["spec_digest"],
        "cell_faults": header.get("cell_faults"),
        "summary": {
            "n_cells": len(cells),
            "n_completed": n_done,
            "n_quarantined": n_quarantined,
            "n_converged": n_converged,
            "n_pending": len(cells) - n_done - n_quarantined,
        },
        "cells": rows,
    }


def build_resources(manifest: StudyRegistry) -> Dict[str, object]:
    """Per-cell resource accounting plus campaign totals."""
    per_cell: Dict[str, Dict[str, object]] = {}
    total_wall = total_user = total_system = 0.0
    max_rss = 0
    completed = manifest.by_status(STATUS_DONE)
    for cell_id in sorted(completed):
        record = completed[cell_id]
        resources = dict(record.get("resources") or {})
        resources["attempts"] = record.get("attempts", 1)
        per_cell[cell_id] = resources
        total_wall += float(resources.get("wall_s", 0.0))
        total_user += float(resources.get("cpu_user_s", 0.0))
        total_system += float(resources.get("cpu_system_s", 0.0))
        max_rss = max(max_rss, int(resources.get("max_rss_kb", 0)))
    return {
        "schema": REPORT_SCHEMA,
        "kind": "campaign-resources",
        "spec_digest": manifest.header["spec_digest"],
        "cells": per_cell,
        "total": {
            "wall_s": total_wall,
            "cpu_user_s": total_user,
            "cpu_system_s": total_system,
            "max_rss_kb": max_rss,
        },
    }


def render_markdown(
    report: Dict[str, object], resources: Dict[str, object]
) -> str:
    """Human-readable rendering of report + accounting."""
    summary = report["summary"]  # type: ignore[index]
    lines = [
        f"# Campaign report: {report['name']}",  # type: ignore[index]
        "",
        f"Spec digest: `{report['spec_digest']}`",
        "",
        "## Summary",
        "",
        "| Cells | Completed | Converged | Quarantined | Pending |",
        "|---|---|---|---|---|",
        "| {n_cells} | {n_completed} | {n_converged} | {n_quarantined} "
        "| {n_pending} |".format(**summary),  # type: ignore[arg-type]
        "",
        "## Cells",
        "",
        "| Cell | Status | Sims | Rounds | Error mean % | Error SD % "
        "| Best IPC |",
        "|---|---|---|---|---|---|---|",
    ]
    for row in report["cells"]:  # type: ignore[union-attr]
        if row["status"] == STATUS_DONE:
            lines.append(
                "| {cell_id} | {flag} | {n_simulations} | {n_rounds} "
                "| {mean:.3f} | {std:.3f} | {best:.4f} |".format(
                    cell_id=row["cell_id"],
                    flag="converged" if row["converged"] else "budget",
                    n_simulations=row["n_simulations"],
                    n_rounds=row["n_rounds"],
                    mean=row["error_mean"],
                    std=row["error_std"],
                    best=row["best_ipc"],
                )
            )
        else:
            lines.append(
                "| {cell_id} | {status} | - | - | - | - | - |".format(
                    cell_id=row["cell_id"], status=row["status"]
                )
            )
    quarantined = [
        row for row in report["cells"]  # type: ignore[union-attr]
        if row["status"] == STATUS_QUARANTINED
    ]
    if quarantined:
        lines += [
            "",
            "## Quarantined cells",
            "",
            "The campaign completed **degraded**: these cells exhausted "
            "their retry budget and were excluded from the matrix.",
            "",
            "| Cell | Failure | Attempts | Last error |",
            "|---|---|---|---|",
        ]
        for row in quarantined:
            lines.append(
                "| {cell_id} | {kind} | {attempts} | {error} |".format(
                    cell_id=row["cell_id"],
                    kind=row["kind"],
                    attempts=row["attempts"],
                    error=str(row["error"]).replace("|", "\\|"),
                )
            )
    totals = resources.get("total", {})
    lines += [
        "",
        "## Resource accounting",
        "",
        "| Cell | Wall s | CPU user s | CPU sys s | Peak RSS KiB "
        "| Attempts |",
        "|---|---|---|---|---|---|",
    ]
    for cell_id, row in resources.get("cells", {}).items():  # type: ignore[union-attr]
        lines.append(
            "| {cell_id} | {wall:.2f} | {user:.2f} | {system:.2f} "
            "| {rss} | {attempts} |".format(
                cell_id=cell_id,
                wall=float(row.get("wall_s", 0.0)),
                user=float(row.get("cpu_user_s", 0.0)),
                system=float(row.get("cpu_system_s", 0.0)),
                rss=int(row.get("max_rss_kb", 0)),
                attempts=row.get("attempts", 1),
            )
        )
    lines.append(
        "| **total** | {wall:.2f} | {user:.2f} | {system:.2f} | {rss} "
        "| - |".format(
            wall=float(totals.get("wall_s", 0.0)),
            user=float(totals.get("cpu_user_s", 0.0)),
            system=float(totals.get("cpu_system_s", 0.0)),
            rss=int(totals.get("max_rss_kb", 0)),
        )
    )
    lines.append("")
    return "\n".join(lines)


def write_reports(
    directory: PathLike,
    manifest: StudyRegistry,
    cells: Tuple[CampaignCell, ...],
) -> Dict[str, Path]:
    """Write report.json / resources.json / report.md atomically.

    ``report.json`` is serialized with sorted keys and a fixed indent:
    identical report dicts yield identical bytes, which is the form the
    resume-equals-uninterrupted guarantee is asserted in.
    """
    directory = Path(directory)
    report = build_report(manifest, cells)
    resources = build_resources(manifest)
    paths = {
        "report": directory / REPORT_NAME,
        "resources": directory / RESOURCES_NAME,
        "markdown": directory / MARKDOWN_NAME,
    }
    atomic_write_text(
        paths["report"],
        json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n",
    )
    atomic_write_text(
        paths["resources"],
        json.dumps(resources, sort_keys=True, indent=2) + "\n",
    )
    atomic_write_text(paths["markdown"], render_markdown(report, resources))
    return paths


def load_report(directory: PathLike) -> Optional[Dict[str, object]]:
    """Read a previously written report.json (None when absent)."""
    path = Path(directory) / REPORT_NAME
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))
