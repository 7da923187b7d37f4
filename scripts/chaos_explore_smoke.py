#!/usr/bin/env python
"""Explore kill-and-resume smoke: a round checkpoint outlives its process.

The round checkpoint's acceptance test across processes, runnable
locally and in CI:

1. **Reference.** ``repro explore`` runs fault-free and uninterrupted.
2. **Killed run.** The identical exploration starts with
   ``--checkpoint`` under an injected ``slow`` fault (every evaluation
   sleeps, so a round takes seconds), and is ``SIGKILL``-ed as soon as
   its first round checkpoint exists.  The checkpoint must survive the
   kill.
3. **Resume.** A new process reruns the exploration with ``--resume``
   and no faults.  It must load the checkpoint, and its printed rounds
   and predicted-best design point must equal the reference's line for
   line.

Usage::

    python scripts/chaos_explore_smoke.py [--keep] [--workdir DIR]

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
from typing import List

#: three rounds of 20 at a target no fast run reaches
EXPLORE = (
    "explore", "--training", "fast", "--batch-size", "20",
    "--max-simulations", "60", "--target-error", "0.01", "--seed", "17",
)

#: every evaluation sleeps 0.1 s: ~2 s of simulation per round
SLOW = ("--inject-faults", "slow=1.0,slow_s=0.1", "--fault-seed", "7")


def explore(*extra: str) -> List[str]:
    """Run ``repro explore`` to completion; its stdout lines."""
    cmd = [sys.executable, "-m", "repro.cli", *EXPLORE, *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(
            f"command failed ({proc.returncode}): {' '.join(cmd)}\n"
            f"{proc.stdout}{proc.stderr}"
        )
    return proc.stdout.splitlines()


def killed_explore(checkpoint: Path) -> None:
    """Start a slowed, checkpointed exploration and SIGKILL it once its
    first round checkpoint is on disk."""
    cmd = [
        sys.executable, "-m", "repro.cli", *EXPLORE, *SLOW,
        "--checkpoint", str(checkpoint),
    ]
    proc = subprocess.Popen(
        cmd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )
    deadline = time.monotonic() + 300
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise SystemExit(
                f"exploration exited ({proc.returncode}) before it could "
                "be killed"
            )
        if checkpoint.exists():
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait()
            return
        time.sleep(0.02)
    proc.kill()
    raise SystemExit("exploration never wrote a round checkpoint")


def outcome(lines: List[str]) -> List[str]:
    """The printed rounds and the predicted-best point (with its
    configuration lines)."""
    rounds = [line for line in lines if line.startswith("round ")]
    best = next(
        (i for i, line in enumerate(lines) if line.startswith("predicted-best")),
        None,
    )
    assert rounds, f"no rounds printed:\n{lines}"
    assert best is not None, f"no predicted-best point printed:\n{lines}"
    config = [line for line in lines[best + 1:] if line.startswith("  ")]
    return rounds + [lines[best]] + config


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workdir", default=None,
        help="directory for the checkpoint (default: a fresh temp dir)",
    )
    parser.add_argument(
        "--keep", action="store_true",
        help="keep the work directory for inspection",
    )
    args = parser.parse_args()

    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="chaos-explore-"))
    workdir.mkdir(parents=True, exist_ok=True)
    checkpoint = workdir / "c.ckpt"
    for path in (checkpoint, workdir / "c.ckpt.prev"):
        path.unlink(missing_ok=True)

    print("== reference: fault-free, uninterrupted ==")
    reference = outcome(explore())
    print("\n".join(reference))

    print("== killed: slowed run, SIGKILL'd after its first checkpoint ==")
    killed_explore(checkpoint)
    assert checkpoint.exists(), "the round checkpoint did not survive kill -9"
    print(f"killed; {checkpoint.name} holds {checkpoint.stat().st_size} bytes")

    print("== resumed in a new process ==")
    metrics = workdir / "resume-metrics.json"
    resumed = outcome(explore(
        "--checkpoint", str(checkpoint), "--resume",
        "--metrics-out", str(metrics),
    ))
    print("\n".join(resumed))
    counters = json.loads(metrics.read_text())["counters"]
    assert counters.get("checkpoint.loads", 0) == 1, counters

    assert resumed == reference, (
        "resumed run diverged from the uninterrupted one:\n"
        + "\n".join(reference) + "\n---\n" + "\n".join(resumed)
    )
    assert not checkpoint.exists(), "a completed run left its checkpoint"
    print("resumed rounds and predicted-best point equal the reference")
    if not args.keep and args.workdir is None:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
