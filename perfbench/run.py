"""Benchmark of the repro exploration platform, end to end and by layer.

    python3 perfbench/run.py --workload explore-scalar --seed 1 \\
        --seconds 5 --trace 0

runs one workload of ``BENCHMARK.json`` from the root of a checkout and
prints, as its last line, ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Earlier lines describe the host and list
every metric with its unit.

Each timed repetition, and each extra set-up sample, is a fresh
``worker.py`` process, so memoized profiles, simulators and design
matrices never make a later repetition cheaper.  The first
:data:`MIN_SETUPS` of them start from an empty ``REPRO_CACHE_DIR`` of
their own and give the set-up samples; later repetitions reuse the
first one's on-disk profile cache, which shortens their set-up but not
their timed region (set-up always ends with the profile in memory).  A
run repeats until it has measured ``--seconds`` of timed work and made
the workload's minimum number of repetitions, and reports medians.  A
traced run makes one untraced repetition, one
traced one and one probe (see ``worker.py``); its spans are written to
``perfbench/.cache/traces/<workload>.json`` when it ends.

Outputs are checked on every run: every repetition, traced or not, must
reproduce the same trajectory (simulations and per-round error means)
as the first run of the same program, and every job or cell must equal
an in-process exploration of its spec.  In a traced run the spans must
account for each traced exploration's wall, and its fit span must agree
with the program's own ``explore.train`` phase, both within 5%.  A
mismatch prints the differences, reports ``"correct": false`` and exits
1.

What the checks compare against (exhaustive truths, in-process results,
the first trajectory) is computed once per version of the program, into
``perfbench/.cache/<digest of src/repro>``, so a program that changes
its numerics is checked against itself and never against an older one.
All scratch files live under ``perfbench/.work`` and are removed when
the run ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import stats
from workloads import (
    TARGET_NAMES,
    WORKLOADS,
    Workload,
    reference_path,
    sims_to_target,
    truth_path,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = HERE / ".cache"
WORK = HERE / ".work"

#: a run stops starting repetitions once this much time has passed
RUN_BUDGET_S = 150.0
#: hard bound on one child process
CHILD_TIMEOUT_S = 170.0
#: set-up samples a run takes at the least
MIN_SETUPS = 2
#: share of explore wall the spans may leave unexplained, and by which
#: the fit span may miss the program's explore.train phase
RESIDUE_LIMIT = 0.05
#: quantile of ``turnaround_p75_s``; ``serve-jobs`` must leave
#: ``stats.TAIL_SAMPLES`` turnarounds beyond it
TAIL_Q = 0.75

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "completed_share": "ratio",
    "sims_to_target": "count",
    "final_error_pct": "%",
    "true_error_pct": "%",
    "jobs_per_s": "1/s",
    "turnaround_p50_s": "s",
    "turnaround_p75_s": "s",
}

PER_LAYER = {
    "search.propose_s": "s",
    "search.proposals": "count",
    "simulate.evaluate_s": "s",
    "simulate.evals": "count",
    "simulate.evals_per_s": "1/s",
    "core.fit_s": "s",
    "core.fit_share": "ratio",
    "core.fits": "count",
    "core.fold_coverage": "ratio",
    "core.restarts": "count",
    "core.train_phase_s": "s",
    "core.checkpoint_s": "s",
    "core.checkpoint_bytes": "bytes",
    "core.predict_space_s": "s",
    "core.design_matrix_s": "s",
    "workloads.profile_s": "s",
    "explore.unaccounted_s": "s",
    "trace.overhead_share": "ratio",
    "serve.submit_s": "s",
    "serve.poll_s": "s",
    "serve.queue_wait_s": "s",
    "serve.worker_wall_s": "s",
    "serve.dispatch_s": "s",
    "serve.job_inproc_s": "s",
    "serve.worker_setup_s": "s",
    "serve.retries": "count",
    "serve.registry_bytes": "bytes",
    "campaign.cell_wall_s": "s",
    "campaign.driver_s": "s",
    "campaign.manifest_bytes": "bytes",
    "campaign.retries": "count",
}


class BenchError(RuntimeError):
    """The benchmark could not run (not a wrong output)."""


def program_digest() -> str:
    """Digest of every file under ``src/repro``: the version of the
    program whose references a run may use."""
    digest = hashlib.sha256()
    src = ROOT / "src" / "repro"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(src).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class Launcher:
    """Starts fresh worker processes, one directory each."""

    def __init__(self, w: Workload, seed: int, work: Path, refs: Path):
        self.w = w
        self.seed = seed
        self.work = work
        self.refs = refs
        self.count = 0
        self.started = time.monotonic()

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def __call__(self, mode: str, trace: bool = False,
                 cache: Optional[Path] = None) -> Dict[str, object]:
        self.count += 1
        pdir = self.work / f"{self.count:02d}-{mode}"
        pdir.mkdir(parents=True)
        cache = cache or pdir / "cache"
        cache.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env.pop("REPRO_N_JOBS", None)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        env["REPRO_CACHE_DIR"] = str(cache)
        env["TMPDIR"] = str(pdir)
        out = pdir / "out.json"
        cfg = {
            "mode": mode, "workload": self.w.name, "seed": self.seed,
            "trace": trace, "work": str(pdir), "out": str(out),
            "cache": str(self.refs),
        }
        spawned = time.time()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
            env=env, cwd=str(ROOT), stdout=sys.stderr.fileno(),
            start_new_session=True,
        )
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            # the worker's own children (service and campaign workers)
            # share its process group
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        if code != 0:
            raise BenchError(f"{mode} process exited with code {code}")
        result = json.loads(out.read_text())
        result["dir"] = str(pdir)
        if "ready" in result:
            result["setup_s"] = result["ready"] - spawned
        return result


def prepared(w: Workload, refs: Path) -> bool:
    """Whether the checks' references for ``w`` are cached already."""
    paths = [truth_path(refs, s, wl) for s, wl in w.pairs()]
    if w.kind != "explore":
        paths += [reference_path(refs, e) for e in w.explore]
    return all(p.exists() for p in paths)


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def _same(job: Dict[str, object], want: Dict[str, object]) -> bool:
    return all(job.get(k) == want[k]
               for k in ("n_simulations", "error_mean", "rounds"))


def check_spans(outs: List[Dict[str, object]]) -> List[str]:
    """Traced explorations whose spans leave more than
    :data:`RESIDUE_LIMIT` of their wall unexplained, or whose fit span
    strays that far from the program's ``explore.train`` phase."""
    errors: List[str] = []
    for out in outs:
        for a in out.get("explores", []):
            residue = a["unaccounted_s"] / a["wall_s"]
            drift = abs(a["fit_s"] / a["train_phase_s"] - 1.0)
            if residue >= RESIDUE_LIMIT:
                errors.append(
                    f"{a['key']}: spans leave {residue:.2%} of its "
                    f"{a['wall_s']:.3f} s explore wall unexplained"
                )
            if drift >= RESIDUE_LIMIT:
                errors.append(
                    f"{a['key']}: fit span {a['fit_s']:.4f} s is "
                    f"{drift:.2%} off the explore.train phase "
                    f"{a['train_phase_s']:.4f} s"
                )
    return errors


def check(w: Workload, outs: List[Dict[str, object]],
          refs: Path) -> List[str]:
    """Every mismatch between the run's outputs and their references."""
    errors = check_spans(outs)
    by_key = {e.key(): e for e in w.explore}
    if w.kind == "explore":
        e = w.explore[0]
        path = refs / "trajectory" / f"{w.name}.json"
        want = json.loads(path.read_text()) if path.exists() else None
        for out in outs:
            for job in out.get("jobs", []):
                if job.get("status") != "done":
                    continue
                got = {k: job.get(k)
                       for k in ("n_simulations", "error_mean", "rounds")}
                if want is None:
                    want = got
                    path.parent.mkdir(parents=True, exist_ok=True)
                    tmp = path.with_suffix(".tmp")
                    tmp.write_text(json.dumps(want))
                    tmp.replace(path)
                if not _same(job, want):
                    errors.append(
                        f"{job['key']}: trajectory {got} differs from "
                        f"{want}"
                    )
                names = TARGET_NAMES.get(e.study, [])
                if job.get("target_names") != names:
                    errors.append(
                        f"{job['key']}: per-target errors for "
                        f"{job.get('target_names')}, expected {names}"
                    )
        return errors
    for out in outs:
        for job in out.get("jobs", []) + out.get("inproc", []):
            if job.get("status", "done") != "done":
                continue
            ref = json.loads(reference_path(refs, by_key[job["key"]])
                             .read_text())
            if not _same(job, ref) or job.get(
                "best_index", ref["best_index"]
            ) != ref["best_index"]:
                errors.append(
                    f"{job['key']}: {job} differs from its in-process "
                    f"exploration {ref}"
                )
    return errors


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def end_to_end(w: Workload, reps, setups, refs: Path) -> Dict[str, float]:
    by_key = {e.key(): e for e in w.explore}
    done = [j for r in reps for j in r["jobs"] if j["status"] == "done"]
    if not done:
        raise BenchError("no exploration, job or cell completed")
    turnarounds = [j["turnaround_s"] for j in done]
    tail = stats.tail_quantile(len(turnarounds))
    if w.kind == "serve" and (tail is None or tail < TAIL_Q):
        raise BenchError(
            f"{len(turnarounds)} turnarounds leave fewer than "
            f"{stats.TAIL_SAMPLES} samples beyond p{TAIL_Q * 100:g}"
        )
    if w.kind == "explore":
        true_errors = [j["true_error_pct"] for j in done]
    else:
        # a job's predictor is not returned; the check makes it the
        # in-process one of its spec, whose true error is on file
        true_errors = [
            json.loads(reference_path(refs, by_key[j["key"]]).read_text())
            ["true_error_pct"] for j in done
        ]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median([r["wall_s"] for r in reps]),
        "cpu_s": statistics.median([r["cpu_s"] for r in reps]),
        # a warm repetition loads its profile instead of building it,
        # which peaks lower
        "peak_rss_mb": statistics.median(
            [r["peak_rss_mb"] for r in reps[:MIN_SETUPS]]
        ),
        "completed_share": 1.0 - failed / attempted,
        "sims_to_target": statistics.median([
            sims_to_target(by_key[j["key"]], j["rounds"]) for j in done
        ]),
        "final_error_pct": statistics.median([j["error_mean"] for j in done]),
        "true_error_pct": statistics.median(true_errors),
        "jobs_per_s": statistics.median([
            sum(1 for j in r["jobs"] if j["status"] == "done") / r["wall_s"]
            for r in reps
        ]),
        "turnaround_p50_s": stats.percentile(turnarounds, 0.5),
        "turnaround_p75_s": stats.percentile(turnarounds, TAIL_Q),
    }


def per_layer(base, traced, probe) -> Dict[str, float]:
    layers = dict(traced["layers"])
    layers.update(probe["layers"])
    layers["trace.overhead_share"] = traced["wall_s"] / base["wall_s"] - 1.0
    layers["serve.worker_setup_s"] = (
        layers["serve.worker_wall_s"] - layers["serve.job_inproc_s"]
    )
    for a in traced["explores"]:
        print(f"trace {a['key']}: spans leave "
              f"{a['unaccounted_s'] / a['wall_s']:.3%} of explore wall "
              f"unexplained; fit span {a['fit_s'] / a['train_phase_s'] - 1:+.3%}"
              " off the explore.train phase", file=sys.stderr)
    return layers


def host() -> Dict[str, object]:
    """What makes numbers from different hosts incomparable."""
    info: Dict[str, object] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "threads": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                      "MKL_NUM_THREADS", "REPRO_N_JOBS")
        },
    }
    try:
        import numpy

        info["numpy"] = numpy.__version__
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (ImportError, KeyError, TypeError):
        info.setdefault("numpy", None)
    return info


# ----------------------------------------------------------------------
def run(w: Workload, args, launch: Launcher):
    """All of one run's processes; returns (metrics, their units, the
    outputs to check, attempted, failed)."""
    if not prepared(w, launch.refs):
        launch("prepare", cache=launch.refs / "repro")
    reps: List[Dict[str, object]] = []
    if args.trace:
        base = launch("rep")
        traced = launch("rep", trace=True)
        probe = launch("probe", trace=True,
                       cache=Path(traced["dir"]) / "cache")
        spans = CACHE / "traces" / f"{w.name}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        spans.write_text(json.dumps({
            "host": host(), "seed": args.seed,
            "rep": traced.pop("spans"), "probe": probe.pop("spans"),
        }))
        outs = reps = [base, traced, probe]
        metrics = per_layer(base, traced, probe)
        units = PER_LAYER
    else:
        measured = 0.0
        while len(reps) < w.min_reps or measured < args.seconds:
            if reps and launch.elapsed() + reps[-1]["setup_s"] \
                    + reps[-1]["wall_s"] > RUN_BUDGET_S:
                break
            warm = len(reps) >= MIN_SETUPS
            reps.append(launch(
                "rep", cache=Path(reps[0]["dir"]) / "cache" if warm else None
            ))
            measured += reps[-1]["wall_s"]
            print(f"rep {len(reps)} ({'warm' if warm else 'cold'} disk "
                  f"cache): set-up {reps[-1]['setup_s']:.3f} s, timed "
                  f"{reps[-1]['wall_s']:.3f} s", file=sys.stderr)
        setups = [r["setup_s"] for r in reps[:MIN_SETUPS]]
        while len(setups) < MIN_SETUPS:
            setups.append(launch("setup")["setup_s"])
        outs = reps
        metrics = end_to_end(w, reps, setups, launch.refs)
        units = END_TO_END
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    return {k: metrics[k] for k in units}, units, outs, attempted, failed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"no program to benchmark under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    work = WORK / f"{w.name}-{os.getpid()}"
    refs = CACHE / program_digest()
    try:
        metrics, units, outs, attempted, failed = run(
            w, args, Launcher(w, args.seed, work, refs)
        )
        errors = check(w, outs, refs)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    for error in errors:
        print(f"MISMATCH {error}", file=sys.stderr)
    print("host " + json.dumps(host(), sort_keys=True))
    print(f"workload {w.name} seed {args.seed} trace {args.trace}: "
          f"{attempted} attempted, {failed} failed "
          f"(failed_share {failed / max(attempted, 1):.4f})")
    for name, value in metrics.items():
        print(f"  {name:24s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
