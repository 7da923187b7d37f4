#!/usr/bin/env python
"""Validate bench artifact JSON documents before CI uploads them.

Four document kinds are understood:

* ``kernels`` — the ``BENCH_kernels.json`` report written by
  ``benchmarks/test_bench_kernels.py`` (schema 5: ``predict_space``,
  ``ensemble_fit``, ``branch_profile``, ``policy_sim`` and ``gate``
  sections);
* ``explore`` — ``--telemetry-out`` documents from ``repro explore``
  (``BENCH_explore_*.json``: the ``repro.obs.report`` shape with
  ``summary``/``iterations``/``telemetry``; every ``telemetry.phases``
  path carries a numeric ``count``/``total_s``, and the parent of an
  ``a/b`` path is a phase too);
* ``strategies`` — the ``BENCH_strategies.json`` shootout written by
  ``benchmarks/test_bench_strategies.py`` (schema 2: per-study
  simulations-to-threshold for every search agent, a per-target error
  breakdown for multi-target studies, plus the gate);
* ``campaign`` — the deterministic ``report.json`` a campaign
  directory ends with (schema 1, ``kind: campaign-report``:
  ``summary`` counts plus one row per cell, done/quarantined/pending);
* ``serve-status`` — the ``/readyz`` body of ``repro serve`` (schema
  1, ``kind: serve-status``: readiness flags plus the admission and
  job accounting snapshot).

The kind is inferred from the filename
(``kernels``/``explore``/``strategies``/``campaign``/``serve``) and
double-checked against the content, so a renamed or truncated artifact
fails loudly here instead of producing a confusing downstream diff.

Usage::

    python scripts/check_bench_schema.py BENCH_kernels.json \
        BENCH_strategies.json BENCH_explore_serial.json \
        campaign_dir/report.json

Exits non-zero listing every violation; prints one OK line per file
otherwise.  Stdlib-only so it runs before the package is importable.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List

KERNELS_SCHEMA = 5
EXPLORE_SCHEMA = 1
STRATEGIES_SCHEMA = 2
CAMPAIGN_SCHEMA = 1
CAMPAIGN_KIND = "campaign-report"
SERVE_STATUS_SCHEMA = 1
SERVE_STATUS_KIND = "serve-status"

#: required numeric fields in the predict_space section
PREDICT_KEYS = (
    "n_points",
    "n_members",
    "per_config_full_equiv_s",
    "chunked_warm_s",
    "chunked_cold_s",
    "speedup_warm",
    "speedup_cold",
)
#: required studies and per-config fields in the ensemble_fit section
ENSEMBLE_STUDIES = ("memory-system", "processor")
ENSEMBLE_CONFIGS = ("paper", "batch_default")
ENSEMBLE_KEYS = ("batch_size", "max_epochs", "stacked_s", "perfold_s", "speedup")
#: required passes and per-pass fields in the branch_profile section
BRANCH_PASSES = ("tournament", "btb")
BRANCH_KEYS = ("reference_s", "flat_s", "speedup")
#: required numeric fields in the policy_sim section
POLICY_SIM_KEYS = (
    "n_accesses",
    "n_geometries",
    "reference_s",
    "flat_s",
    "speedup",
)
GATE_KEYS = (
    "tolerance",
    "predict_floor",
    "ensemble_fit_floor",
    "branch_profile_floor",
    "policy_sim_floor",
)

#: required studies in a strategies document, and the minimum number of
#: competing agents each must report
STRATEGY_STUDIES = ("memory-system", "processor", "cache-policy")
STRATEGY_MIN_AGENTS = 5
#: required numeric fields per agent row in a strategies document
STRATEGY_AGENT_KEYS = ("n_simulations", "rounds", "final_error_mean")
#: multi-target studies must break the error estimate down per target;
#: hardcoded (this script is stdlib-only and runs before the package
#: is importable) and cross-checked by tests/test_cachepolicy.py
STRATEGY_MULTI_TARGET_STUDIES = {
    "cache-policy": ("energy_nj", "hit_rate", "ipc"),
}

#: required count fields in a campaign report's summary block
CAMPAIGN_SUMMARY_KEYS = (
    "n_cells",
    "n_completed",
    "n_quarantined",
    "n_converged",
    "n_pending",
)
#: required axis fields of every campaign cell row
CAMPAIGN_CELL_KEYS = ("cell_id", "study", "workload", "agent")
#: required numeric fields of a completed campaign cell row
CAMPAIGN_DONE_KEYS = (
    "n_simulations",
    "n_rounds",
    "error_mean",
    "error_std",
    "best_index",
    "best_ipc",
)
#: cell statuses a campaign report may record
CAMPAIGN_STATUSES = ("done", "quarantined", "pending")

#: boolean fields of a serve-status document
SERVE_BOOL_KEYS = ("ready", "draining")
#: numeric fields of a serve-status document
SERVE_NUMBER_KEYS = (
    "queue_depth",
    "inflight",
    "rss_committed_kb",
    "submitted",
    "rejected",
)
#: job statuses every serve-status ``jobs`` block must count
SERVE_JOB_STATUSES = ("accepted", "running", "done", "quarantined")


class Checker:
    """Accumulates dotted-path violations for one document."""

    def __init__(self) -> None:
        self.problems: List[str] = []

    def fail(self, path: str, message: str) -> None:
        self.problems.append(f"{path}: {message}")

    def require(self, doc: Dict[str, Any], path: str, key: str, kind) -> Any:
        value = doc.get(key)
        if key not in doc:
            self.fail(f"{path}.{key}", "missing")
        elif not isinstance(value, kind):
            name = getattr(kind, "__name__", str(kind))
            self.fail(
                f"{path}.{key}",
                f"expected {name}, got {type(value).__name__}",
            )
        else:
            return value
        return None

    def number(self, doc: Dict[str, Any], path: str, key: str) -> None:
        value = self.require(doc, path, key, (int, float))
        if isinstance(value, bool):
            self.fail(f"{path}.{key}", "expected a number, got bool")


def check_kernels(doc: Dict[str, Any], check: Checker) -> None:
    if doc.get("schema") != KERNELS_SCHEMA:
        check.fail("schema", f"expected {KERNELS_SCHEMA}, got {doc.get('schema')!r}")
    check.require(doc, "$", "small", bool)
    check.require(doc, "$", "repeats", int)

    predict = check.require(doc, "$", "predict_space", dict)
    if predict is not None:
        check.require(predict, "predict_space", "study", str)
        for key in PREDICT_KEYS:
            check.number(predict, "predict_space", key)

    ensemble = check.require(doc, "$", "ensemble_fit", dict) or {}
    for study in ENSEMBLE_STUDIES:
        block = check.require(ensemble, "ensemble_fit", study, dict)
        if block is None:
            continue
        path = f"ensemble_fit.{study}"
        check.number(block, path, "n_points")
        check.number(block, path, "k")
        for config in ENSEMBLE_CONFIGS:
            section = check.require(block, path, config, dict)
            for key in ENSEMBLE_KEYS if section is not None else ():
                check.number(section, f"{path}.{config}", key)

    branch = check.require(doc, "$", "branch_profile", dict)
    if branch is not None:
        check.require(branch, "branch_profile", "benchmark", str)
        check.number(branch, "branch_profile", "n_branches")
        for name in BRANCH_PASSES:
            section = check.require(branch, "branch_profile", name, dict)
            for key in BRANCH_KEYS if section is not None else ():
                check.number(section, f"branch_profile.{name}", key)

    policy = check.require(doc, "$", "policy_sim", dict)
    if policy is not None:
        check.require(policy, "policy_sim", "workload", str)
        for key in POLICY_SIM_KEYS:
            check.number(policy, "policy_sim", key)

    gate = check.require(doc, "$", "gate", dict)
    if gate is not None:
        for key in GATE_KEYS:
            check.number(gate, "gate", key)


def check_explore(doc: Dict[str, Any], check: Checker) -> None:
    if doc.get("schema_version") != EXPLORE_SCHEMA:
        check.fail(
            "schema_version",
            f"expected {EXPLORE_SCHEMA}, got {doc.get('schema_version')!r}",
        )
    check.require(doc, "$", "title", str)
    check.require(doc, "$", "summary", dict)

    iterations = check.require(doc, "$", "iterations", list)
    if iterations is not None:
        if not iterations:
            check.fail("iterations", "empty (run produced no rounds)")
        for i, row in enumerate(iterations):
            if not isinstance(row, dict):
                check.fail(f"iterations[{i}]", "expected an object")
                continue
            check.number(row, f"iterations[{i}]", "n_simulations")
            check.number(row, f"iterations[{i}]", "error_mean")

    telemetry = check.require(doc, "$", "telemetry", dict)
    if telemetry is not None:
        check.number(telemetry, "telemetry", "elapsed_s")
        phases = check.require(telemetry, "telemetry", "phases", dict) or {}
        for path, stats in phases.items():
            where = f"telemetry.phases[{path!r}]"
            if not isinstance(stats, dict):
                check.fail(where, "expected {count, total_s}")
                continue
            check.number(stats, where, "count")
            check.number(stats, where, "total_s")
            parent = path.rpartition("/")[0]
            if parent and parent not in phases:
                check.fail(where, f"parent phase {parent!r} missing")
        events = check.require(telemetry, "telemetry", "events", list)
        for i, event in enumerate(events or ()):
            if not isinstance(event, dict) or "name" not in event:
                check.fail(f"telemetry.events[{i}]", "expected {name, t, payload}")

    if "metrics" in doc and not isinstance(doc["metrics"], dict):
        check.fail("metrics", "expected an object when present")


def check_strategies(doc: Dict[str, Any], check: Checker) -> None:
    if doc.get("schema") != STRATEGIES_SCHEMA:
        check.fail(
            "schema",
            f"expected {STRATEGIES_SCHEMA}, got {doc.get('schema')!r}",
        )
    check.require(doc, "$", "seed", int)
    check.number(doc, "$", "batch_size")
    check.number(doc, "$", "max_simulations")
    benchmarks = check.require(doc, "$", "benchmarks", dict)
    if benchmarks is not None:
        for study in STRATEGY_STUDIES:
            check.require(benchmarks, "benchmarks", study, str)

    studies = check.require(doc, "$", "studies", dict) or {}
    for study in STRATEGY_STUDIES:
        block = check.require(studies, "studies", study, dict)
        if block is None:
            continue
        path = f"studies.{study}"
        check.require(block, path, "benchmark", str)
        check.number(block, path, "target_error")
        targets = STRATEGY_MULTI_TARGET_STUDIES.get(study)
        agents = check.require(block, path, "agents", dict)
        if agents is None:
            continue
        if len(agents) < STRATEGY_MIN_AGENTS:
            check.fail(
                f"{path}.agents",
                f"expected at least {STRATEGY_MIN_AGENTS} agents, "
                f"got {len(agents)}",
            )
        for agent, row in agents.items():
            if not isinstance(row, dict):
                check.fail(f"{path}.agents.{agent}", "expected an object")
                continue
            agent_path = f"{path}.agents.{agent}"
            check.require(row, agent_path, "converged", bool)
            for key in STRATEGY_AGENT_KEYS:
                check.number(row, agent_path, key)
            if targets is None:
                continue
            per_target = check.require(row, agent_path, "per_target_error", dict)
            if per_target is None:
                continue
            for target in targets:
                section = check.require(
                    per_target, f"{agent_path}.per_target_error", target, dict
                )
                if section is None:
                    continue
                target_path = f"{agent_path}.per_target_error.{target}"
                check.number(section, target_path, "mean")
                check.number(section, target_path, "std")
            for target in per_target:
                if target not in targets:
                    check.fail(
                        f"{agent_path}.per_target_error.{target}",
                        f"unknown target (expected {targets})",
                    )

    gate = check.require(doc, "$", "gate", dict)
    if gate is not None:
        check.require(gate, "gate", "study", str)
        reference = check.require(gate, "gate", "reference", str)
        if reference is not None and studies:
            block = studies.get(gate.get("study"), {})
            if (
                isinstance(block, dict)
                and reference not in block.get("agents", {})
            ):
                check.fail(
                    "gate.reference",
                    f"{reference!r} is not a reported agent of the "
                    f"gated study",
                )


def check_campaign(doc: Dict[str, Any], check: Checker) -> None:
    if doc.get("schema") != CAMPAIGN_SCHEMA:
        check.fail(
            "schema", f"expected {CAMPAIGN_SCHEMA}, got {doc.get('schema')!r}"
        )
    if doc.get("kind") != CAMPAIGN_KIND:
        check.fail(
            "kind", f"expected {CAMPAIGN_KIND!r}, got {doc.get('kind')!r}"
        )
    check.require(doc, "$", "name", str)
    digest = check.require(doc, "$", "spec_digest", str)
    if digest is not None and len(digest) != 64:
        check.fail("spec_digest", f"expected a sha256 hex digest, got {digest!r}")

    summary = check.require(doc, "$", "summary", dict)
    if summary is not None:
        for key in CAMPAIGN_SUMMARY_KEYS:
            check.number(summary, "summary", key)

    cells = check.require(doc, "$", "cells", list)
    if cells is not None:
        if not cells:
            check.fail("cells", "empty (campaign matrix had no cells)")
        n_done = n_quarantined = 0
        for i, row in enumerate(cells):
            if not isinstance(row, dict):
                check.fail(f"cells[{i}]", "expected an object")
                continue
            path = f"cells[{i}]"
            for key in CAMPAIGN_CELL_KEYS:
                check.require(row, path, key, str)
            check.number(row, path, "seed")
            check.number(row, path, "budget")
            status = row.get("status")
            if status not in CAMPAIGN_STATUSES:
                check.fail(
                    f"{path}.status",
                    f"expected one of {CAMPAIGN_STATUSES}, got {status!r}",
                )
            elif status == "done":
                n_done += 1
                check.require(row, path, "converged", bool)
                for key in CAMPAIGN_DONE_KEYS:
                    check.number(row, path, key)
            elif status == "quarantined":
                n_quarantined += 1
                check.require(row, path, "kind", str)
                check.require(row, path, "error", str)
                check.number(row, path, "attempts")
        if isinstance(summary, dict):
            recorded = summary.get("n_completed")
            if isinstance(recorded, int) and recorded != n_done:
                check.fail(
                    "summary.n_completed",
                    f"says {recorded} but {n_done} cell rows are done",
                )
            recorded = summary.get("n_quarantined")
            if isinstance(recorded, int) and recorded != n_quarantined:
                check.fail(
                    "summary.n_quarantined",
                    f"says {recorded} but {n_quarantined} cell rows are "
                    f"quarantined",
                )


def check_serve_status(doc: Dict[str, Any], check: Checker) -> None:
    if doc.get("schema") != SERVE_STATUS_SCHEMA:
        check.fail(
            "schema",
            f"expected {SERVE_STATUS_SCHEMA}, got {doc.get('schema')!r}",
        )
    if doc.get("kind") != SERVE_STATUS_KIND:
        check.fail(
            "kind", f"expected {SERVE_STATUS_KIND!r}, got {doc.get('kind')!r}"
        )
    for key in SERVE_BOOL_KEYS:
        check.require(doc, "$", key, bool)
    for key in SERVE_NUMBER_KEYS:
        check.number(doc, "$", key)

    jobs = check.require(doc, "$", "jobs", dict)
    if jobs is not None:
        for status in SERVE_JOB_STATUSES:
            check.number(jobs, "jobs", status)
        for status in jobs:
            if status not in SERVE_JOB_STATUSES:
                check.fail(
                    f"jobs.{status}",
                    f"unknown job status (expected {SERVE_JOB_STATUSES})",
                )

    by_reason = check.require(doc, "$", "rejected_by_reason", dict)
    if by_reason is not None:
        for reason, count in by_reason.items():
            if not isinstance(count, int) or isinstance(count, bool):
                check.fail(
                    f"rejected_by_reason.{reason}",
                    f"expected an int, got {type(count).__name__}",
                )

    tenants = check.require(doc, "$", "tenants", dict)
    if tenants is not None:
        for tenant, row in tenants.items():
            if not isinstance(row, dict):
                check.fail(f"tenants.{tenant}", "expected an object")
                continue
            check.number(row, f"tenants.{tenant}", "accepted")
            check.number(row, f"tenants.{tenant}", "rejected")


def detect_kind(path: Path, doc: Dict[str, Any]) -> str:
    name = path.name.lower()
    if "kernels" in name:
        return "kernels"
    if "strategies" in name:
        return "strategies"
    if "explore" in name:
        return "explore"
    if doc.get("kind") == CAMPAIGN_KIND or "campaign" in name:
        return "campaign"
    if doc.get("kind") == SERVE_STATUS_KIND or "serve" in name:
        return "serve-status"
    if "ensemble_fit" in doc:
        return "kernels"
    if "studies" in doc:
        return "strategies"
    if "iterations" in doc:
        return "explore"
    raise SystemExit(f"{path}: cannot infer document kind from name or content")


def check_file(path: Path) -> List[str]:
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        return ["file not found"]
    except json.JSONDecodeError as exc:
        return [f"invalid JSON: {exc}"]
    if not isinstance(doc, dict):
        return ["top-level value must be an object"]
    check = Checker()
    kind = detect_kind(path, doc)
    if kind == "kernels":
        check_kernels(doc, check)
    elif kind == "strategies":
        check_strategies(doc, check)
    elif kind == "campaign":
        check_campaign(doc, check)
    elif kind == "serve-status":
        check_serve_status(doc, check)
    else:
        check_explore(doc, check)
    return check.problems


def main(argv: List[str]) -> int:
    if not argv:
        print(__doc__)
        return 2
    status = 0
    for name in argv:
        path = Path(name)
        problems = check_file(path)
        if problems:
            status = 1
            print(f"FAIL {path}")
            for problem in problems:
                print(f"  {problem}")
        else:
            print(f"ok   {path}")
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
