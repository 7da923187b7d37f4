#!/usr/bin/env python
"""Campaign crash-safety smoke: chaos cells + a driver kill, end to end.

This is the acceptance test of the campaign orchestrator, runnable
locally and in CI:

1. **Run A** executes a small study matrix with injected cell faults
   (a deterministic fraction of cells crash on entry), uninterrupted.
   The campaign must *complete degraded*: faulted cells quarantined
   after their retries, healthy cells done, one aggregated report.
2. **Run B** executes the identical campaign in a fresh directory, but
   the *driver process* is ``SIGKILL``-ed as soon as its manifest
   records the first terminal cell — the failure mode checkpoints
   cannot see coming.  ``repro campaign resume`` then finishes the
   matrix from the manifest.
3. The two ``report.json`` files must be **byte-identical**, run B's
   metrics must show replayed cells, and both must count the same
   quarantined cells.

Usage::

    python scripts/chaos_campaign_smoke.py [--keep] [--workdir DIR]

Exits non-zero with a diagnostic on the first violated property.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

#: chaos plan: at seed 0, exactly half of the matrix's four cells
#: (seeds 0 and 2) draw "crash" — deterministic, see CellFaultPlan
FAULTS = "crash=0.3"
FAULT_SEED = 0

SPEC = """\
[campaign]
name = "chaos-smoke"

[matrix]
studies   = ["memory-system"]
workloads = ["mcf"]
seeds     = [0, 1, 2, 3]
budgets   = [40]

[cells]
target_error = 1.0
batch_size   = 20
training     = "fast"

[robustness]
cell_timeout_s     = 300.0
cell_retries       = 1
retry_base_delay_s = 0.01
"""


def run_cli(*argv: str, check: bool = True) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "repro.cli", *argv]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if check and proc.returncode != 0:
        raise SystemExit(
            f"command failed ({proc.returncode}): {' '.join(cmd)}\n"
            f"{proc.stdout}{proc.stderr}"
        )
    return proc


def records_a_terminal_cell(manifest: Path) -> bool:
    """Whether the manifest holds a done or quarantined cell.

    The manifest records every cell ``accepted`` from the start, so the
    kill keys on a terminal record.  A save rotates the file away for an
    instant; a missing file simply means "not yet".
    """
    try:
        records = json.loads(manifest.read_text())["payload"]["records"]
    except FileNotFoundError:
        return False
    return any(
        record["status"] in ("done", "quarantined")
        for record in records.values()
    )


def killed_campaign_run(spec_path: Path, campaign_dir: Path) -> None:
    """Start ``campaign run`` and SIGKILL it at the first terminal cell."""
    cmd = [
        sys.executable, "-m", "repro.cli", "campaign", "run", str(spec_path),
        "--dir", str(campaign_dir), "--n-jobs", "1",
        "--inject-cell-faults", FAULTS, "--fault-seed", str(FAULT_SEED),
    ]
    proc = subprocess.Popen(
        cmd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )
    manifest = campaign_dir / "MANIFEST.json"
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise SystemExit(
                "campaign driver finished before it could be killed -- "
                "matrix too small or machine too fast for this smoke"
            )
        if records_a_terminal_cell(manifest):
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait()
            return
        time.sleep(0.02)
    proc.kill()
    raise SystemExit("campaign driver never recorded a terminal cell")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workdir", default=None,
        help="directory for campaign dirs (default: a fresh temp dir)",
    )
    parser.add_argument(
        "--keep", action="store_true",
        help="keep the campaign directories for inspection",
    )
    args = parser.parse_args()

    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="chaos-campaign-"))
    workdir.mkdir(parents=True, exist_ok=True)
    dir_a = workdir / "uninterrupted"
    dir_b = workdir / "killed"
    for directory in (dir_a, dir_b):
        shutil.rmtree(directory, ignore_errors=True)
    spec_path = workdir / "campaign.toml"
    spec_path.write_text(SPEC)

    print("== run A: chaos campaign, uninterrupted ==")
    proc = run_cli(
        "campaign", "run", str(spec_path), "--dir", str(dir_a),
        "--n-jobs", "2",
        "--inject-cell-faults", FAULTS, "--fault-seed", str(FAULT_SEED),
        "--metrics-out", str(workdir / "metrics_a.json"),
    )
    sys.stdout.write(proc.stdout)

    print("== run B: identical campaign, driver SIGKILL'd mid-flight ==")
    killed_campaign_run(spec_path, dir_b)
    print("driver killed; resuming from the manifest")
    proc = run_cli(
        "campaign", "resume", "--dir", str(dir_b), "--n-jobs", "2",
        "--metrics-out", str(workdir / "metrics_b.json"),
    )
    sys.stdout.write(proc.stdout)

    print("== checks ==")
    report_a = json.loads((dir_a / "report.json").read_text())
    quarantined = [
        row["cell_id"] for row in report_a["cells"]
        if row["status"] == "quarantined"
    ]
    completed = [
        row["cell_id"] for row in report_a["cells"]
        if row["status"] == "done"
    ]
    assert quarantined, "chaos plan injected no quarantined cells"
    assert completed, "chaos plan quarantined the whole matrix"
    assert report_a["summary"]["n_pending"] == 0, report_a["summary"]
    print(
        f"degraded completion: {len(completed)} done, "
        f"{len(quarantined)} quarantined ({', '.join(quarantined)})"
    )

    counters_a = json.loads((workdir / "metrics_a.json").read_text())["counters"]
    assert counters_a.get("campaign.cells_quarantined", 0) == len(quarantined), \
        counters_a
    assert counters_a.get("campaign.cell_retries", 0) > 0, counters_a
    print("quarantine + retry counters fired")

    bytes_a = (dir_a / "report.json").read_bytes()
    bytes_b = (dir_b / "report.json").read_bytes()
    assert bytes_a == bytes_b, (
        "kill -9 + resume produced a different report than the "
        "uninterrupted run"
    )
    print(f"report.json byte-identical across driver kill ({len(bytes_a)} bytes)")

    counters_b = json.loads((workdir / "metrics_b.json").read_text())["counters"]
    assert counters_b.get("campaign.cells_replayed", 0) >= 1, counters_b
    print(
        f"resume replayed {counters_b['campaign.cells_replayed']:.0f} "
        f"recorded cell(s) without re-running them"
    )

    schema = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).with_name("check_bench_schema.py")),
            str(dir_a / "report.json"),
        ],
        capture_output=True, text=True,
    )
    sys.stdout.write(schema.stdout)
    if schema.returncode != 0:
        raise SystemExit(f"campaign report failed schema check:\n{schema.stderr}")

    if not args.keep and args.workdir is None:
        shutil.rmtree(workdir, ignore_errors=True)
    print("chaos campaign smoke: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
