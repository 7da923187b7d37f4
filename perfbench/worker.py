"""One fresh process of the benchmark: set up, then one unit of work.

``run.py`` starts it as ``python3 perfbench/worker.py CONFIG_JSON`` with
``PYTHONPATH`` pointing at the program's ``src`` and ``REPRO_CACHE_DIR``
at a directory of its own; the process writes one JSON document to the
config's ``out`` path.  Modes:

``setup``
    set up as the workload does and exit: one set-up time sample.
``rep``
    set up, run the workload's timed unit once, report what it produced.
    With ``trace`` the calls into the program's layers are wrapped in
    spans, and the service workload then re-runs a sample of its jobs
    in-process to split them by layer.
``probe``
    (traced runs) push the workload's explorations through the layers
    its own unit does not reach: the service for explore workloads, the
    campaign runner for every workload.
    A traced run must report every per-layer metric, and a layer a
    workload does not cross would otherwise read a constant 0 s; the
    probe instead measures what that layer would add to this
    workload's own explorations.
``prepare``
    compute what the checks compare against, once per version of the
    program: the exhaustive truth of each simulated (study, workload)
    pair and an in-process exploration of every job or cell spec.
"""

from __future__ import annotations

import json
import multiprocessing
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import stats
from spans import NullTracer, TimedBackend, Tracer
from workloads import (
    WORKERS,
    WORKLOADS,
    Exploration,
    Workload,
    reference_path,
    submission_order,
    tenant_split,
    truth_path,
)

#: client poll interval while waiting on the service (the program's
#: own synchronous drive loops use the same)
POLL_S = 0.02

#: traced in-process re-runs of the service workload's jobs
INPROC_RUNS = 8


def _usage() -> Tuple[float, float]:
    """(CPU seconds of this process and its reaped children, peak RSS in
    MB of this process or its largest child)."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(me.ru_maxrss, kids.ru_maxrss) / 1024.0


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def _fill(pairs: Sequence[Tuple[str, str]], out: str) -> None:
    """Set-up child of the job workloads: fill the on-disk profile cache
    and build each design matrix, leaving the parent's memory as cold as
    a freshly started service's."""
    import repro.api as api

    profile = matrix = 0.0
    for study_name, workload in pairs:
        study = api.get_study(study_name)
        t = time.perf_counter()
        api.make_simulate_fn(study, workload)(study.space.config_at(0))
        profile += time.perf_counter() - t
        t = time.perf_counter()
        api.design_matrix(study.space)
        matrix += time.perf_counter() - t
    Path(out).write_text(json.dumps(
        {"workloads.profile_s": profile, "core.design_matrix_s": matrix}
    ))


def set_up(w: Workload, work: Path, tracer: Tracer) -> Dict[str, object]:
    """Fresh process → ready: import, resolve the studies, fill the
    profile cache with a first simulation, build the design matrix,
    open the service."""
    import repro.api as api

    state: Dict[str, object] = {"api": api}
    studies = {s: api.get_study(s) for s, _ in w.pairs()}
    state["studies"] = studies
    if w.kind == "explore":
        e = w.explore[0]
        study = studies[e.study]
        sim = api.make_simulate_fn(study, e.workload)
        with tracer.span("workloads.profile"):
            sim(study.space.config_at(0))
        with tracer.span("core.design_matrix"):
            api.design_matrix(study.space)
        state["sim"] = sim
        return state
    split = work / "fill.json"
    child = multiprocessing.get_context("spawn").Process(
        target=_fill, args=(w.pairs(), str(split))
    )
    child.start()
    child.join()
    if child.exitcode != 0:
        raise RuntimeError(f"set-up child exited with {child.exitcode}")
    state["split"] = json.loads(split.read_text())
    state["service"] = api.ExplorationService(
        work / "service",
        policy=api.AdmissionPolicy(max_inflight=WORKERS),
    )
    return state


# ----------------------------------------------------------------------
# drive loops shared by the rep and the probe
# ----------------------------------------------------------------------
def drive_service(
    service, tenants: Sequence[Tuple[str, List[Exploration]]], tracer: Tracer
) -> Dict[str, object]:
    """Closed loop: each tenant submits its next job as soon as its last
    one is done; a job is due when it is submitted."""
    pending = {tenant: list(jobs) for tenant, jobs in tenants}
    live: Dict[str, Dict[str, object]] = {}
    records: List[Dict[str, object]] = []

    def submit(tenant: str) -> None:
        while pending[tenant]:
            e = pending[tenant].pop(0)
            due = time.perf_counter()
            with tracer.span("serve.submit"):
                answer = service.submit(e.job_spec(), tenant=tenant)
            record: Dict[str, object] = {"key": e.key(), "due": due}
            records.append(record)
            if answer.accepted:
                record.update(job_id=answer.job_id, started=None)
                live[tenant] = record
                return
            record["status"] = "rejected"

    t0 = time.perf_counter()
    for tenant in pending:
        submit(tenant)
    while live:
        with tracer.span("serve.poll"):
            progressed = service.poll()
        now = time.perf_counter()
        for tenant, record in list(live.items()):
            status = service.job_status(record["job_id"])["status"]
            if status == "running" and record["started"] is None:
                record["started"] = now
            if status in ("done", "quarantined"):
                record["done"] = now
                del live[tenant]
                submit(tenant)
        if not progressed:
            time.sleep(POLL_S)
    wall = max(
        [float(r["done"]) for r in records if "done" in r] or [t0]
    ) - t0
    service.shutdown(grace_s=10.0)
    jobs = []
    for record in records:
        job = {"key": record["key"], "status": record.get("status")}
        if "job_id" in record:
            payload = service.job_status(record["job_id"])
            started = record["started"] or record["done"]
            job.update(
                status=payload["status"],
                attempts=payload["attempts"],
                turnaround_s=record["done"] - record["due"],
                queue_wait_s=started - record["due"],
                worker_wall_s=float((payload["resources"] or {}).get(
                    "wall_s", 0.0
                )),
                **_job_result(payload["result"]),
            )
        jobs.append(job)
    registry = service.directory / "REGISTRY.json"
    return {
        "wall_s": wall,
        "jobs": jobs,
        "registry_bytes": registry.stat().st_size,
    }


def _job_result(result: Optional[Dict[str, object]]) -> Dict[str, object]:
    if not result:
        return {}
    return {
        "n_simulations": result["n_simulations"],
        "error_mean": result["error_mean"],
        "rounds": [[r["n_samples"], r["error_mean"]] for r in result["rounds"]],
        "best_index": result["best_index"],
        "target_names": result.get("target_names", []),
    }


def drive_campaign(
    api, spec, directory: Path, tracer: Tracer
) -> Dict[str, object]:
    """Run a campaign whose cells are all queued at once."""
    t0 = time.perf_counter()
    with tracer.span("campaign.run"):
        result = api.run_campaign(spec, directory, n_jobs=WORKERS)
    wall = time.perf_counter() - t0
    jobs = []
    for cell in result.cells:
        e = Exploration(
            cell.study, cell.workload, cell.seed, cell.budget,
            spec.batch_size, spec.training, spec.target_error, cell.agent,
        )
        record = result.manifest.cells.get(cell.cell_id) or {}
        job = {
            "key": e.key(),
            "status": record.get("status"),
            "attempts": record.get("attempts", 0),
        }
        if record.get("status") == "done":
            job.update(
                worker_wall_s=float(record["resources"].get("wall_s", 0.0)),
                **_job_result(record["result"]),
            )
        jobs.append(job)
    manifest = directory / "MANIFEST.json"
    return {
        "wall_s": wall,
        "jobs": jobs,
        "manifest_bytes": manifest.stat().st_size,
        "workers": min(WORKERS, len(result.cells)),
    }


def campaign_spec(api, name: str, explorations: Sequence[Exploration]):
    """The campaign whose cells are ``explorations`` (one recipe)."""
    first = explorations[0]
    return api.CampaignSpec(
        name=name,
        studies=tuple(dict.fromkeys(e.study for e in explorations)),
        workloads=tuple(dict.fromkeys(e.workload for e in explorations)),
        seeds=tuple(dict.fromkeys(e.seed for e in explorations)),
        budgets=(first.budget,),
        agents=(first.agent,),
        target_error=first.target_error,
        batch_size=first.batch_size,
        training=first.training,
    )


# ----------------------------------------------------------------------
# layer split of in-process explorations
# ----------------------------------------------------------------------
def install_spans(api, tracer: Tracer) -> None:
    """Wrap the layer boundaries an exploration crosses."""
    from repro.search.environment import Environment

    def saved_bytes(args, _result):
        path = args[0].checkpoint_path
        return {"bytes": path.stat().st_size if path and path.exists()
                else 0}

    tracer.patch(Environment, "step", "core.step")
    tracer.patch(Environment, "save", "core.save", count=saved_bytes)
    tracer.patch(
        type(api.make_agent("random")), "propose", "search.propose",
        count=lambda _args, configs: {"proposals": len(configs)},
    )


def explore_once(
    api, tracer: Tracer, study, sim, e: Exploration,
    checkpoint: Optional[Path],
) -> Dict[str, object]:
    """One in-process exploration and full-space prediction, with the
    program's own ``explore.train`` phase and restart count.

    Every exploration the benchmark runs in-process, timed, traced or
    as a reference, goes through this one call.  A traced one feeds the
    simulator through :class:`TimedBackend` and records ``account``:
    how much of its wall its child spans leave unexplained, and its fit
    span next to the ``explore.train`` phase.
    """
    from repro.core.backend import as_backend
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.telemetry import RunTelemetry

    tracer.request = e.key()
    metrics = MetricsRegistry()
    telemetry = RunTelemetry()
    context = api.RunContext.seeded(e.seed, telemetry=telemetry,
                                    metrics=metrics)
    backend = TimedBackend(as_backend(sim), tracer) if tracer.enabled \
        else sim
    t = time.perf_counter()
    with tracer.span("api.explore"):
        result = api.explore(
            study.space,
            backend,
            target_error=e.target_error,
            max_simulations=e.budget,
            batch_size=e.batch_size,
            training=api.TrainingConfig.from_preset(e.training),
            context=context,
            agent=e.agent,
            checkpoint=str(checkpoint) if checkpoint else None,
        )
    explored = time.perf_counter()
    with tracer.span("core.predict_space"):
        predictions = api.predict_space(result.predictor, study.space)
    phase = telemetry.phases.get("explore.train")
    run: Dict[str, object] = {
        "result": result,
        "predictions": predictions,
        "explore_s": explored - t,
        "inproc_s": time.perf_counter() - t,
        "train_phase_s": phase.total_s if phase else 0.0,
        "restarts": metrics.counter("train.restarts"),
    }
    if tracer.enabled:
        index = tracer.last("api.explore")
        run["account"] = {
            "key": e.key(),
            "wall_s": tracer.spans[index].duration,
            "unaccounted_s": tracer.self_of(index),
            "fit_s": sum(
                tracer.self_of(i) for i, s in enumerate(tracer.spans)
                if s.parent == index and s.name == "core.step"
            ),
            "train_phase_s": run["train_phase_s"],
        }
    return run


def explore_layers(tracer: Tracer, runs: Sequence[Dict[str, object]]):
    """Per-layer metrics of traced in-process explorations (summed)."""
    evaluate_s = tracer.total("simulate.evaluate")
    evals = tracer.attr_sum("simulate.evaluate", "evals")
    fit_s = tracer.total_self("core.step")
    rounds = [r for run in runs for r in run["result"].rounds]
    return {
        "search.propose_s": tracer.total("search.propose"),
        "search.proposals": tracer.attr_sum("search.propose", "proposals"),
        "simulate.evaluate_s": evaluate_s,
        "simulate.evals": evals,
        "simulate.evals_per_s": evals / evaluate_s,
        "core.fit_s": fit_s,
        "core.fit_share": fit_s / tracer.total("api.explore"),
        "core.fits": float(len(tracer.named("core.step"))),
        "core.fold_coverage": sum(r.estimate.n_folds_used for r in rounds)
        / sum(r.estimate.n_folds for r in rounds),
        "core.restarts": float(sum(run["restarts"] for run in runs)),
        "core.train_phase_s": sum(run["train_phase_s"] for run in runs),
        "core.checkpoint_s": tracer.total("core.save"),
        "core.checkpoint_bytes": tracer.attr_sum("core.save", "bytes"),
        "core.predict_space_s": tracer.total("core.predict_space"),
        "explore.unaccounted_s": tracer.total_self("api.explore"),
        "serve.job_inproc_s": statistics.median(
            [run["inproc_s"] for run in runs]
        ),
    }


def service_layers(tracer: Tracer, out: Dict[str, object]):
    done = [j for j in out["jobs"] if j["status"] == "done"]
    return {
        "serve.submit_s": tracer.total("serve.submit"),
        "serve.poll_s": tracer.total("serve.poll"),
        "serve.queue_wait_s": statistics.median(
            [j["queue_wait_s"] for j in done]
        ),
        "serve.worker_wall_s": statistics.median(
            [j["worker_wall_s"] for j in done]
        ),
        "serve.dispatch_s": statistics.median([
            j["turnaround_s"] - j["queue_wait_s"] - j["worker_wall_s"]
            for j in done
        ]),
        "serve.retries": _retries(out["jobs"]),
        "serve.registry_bytes": float(out["registry_bytes"]),
    }


def campaign_layers(out: Dict[str, object]):
    cell_walls = [
        j["worker_wall_s"] for j in out["jobs"] if j["status"] == "done"
    ]
    return {
        "campaign.cell_wall_s": statistics.median(cell_walls),
        "campaign.driver_s": out["wall_s"] - sum(cell_walls) / out["workers"],
        "campaign.manifest_bytes": float(out["manifest_bytes"]),
        "campaign.retries": _retries(out["jobs"]),
    }


def _retries(jobs: Sequence[Dict[str, object]]) -> float:
    return float(sum(max(0, j.get("attempts", 0) - 1) for j in jobs))


def inproc_layers(api, w: Workload, state, work: Path, tracer: Tracer):
    """Re-run a sample of a job workload's explorations in-process, warm
    (after its timed unit, whose workers forked from a cold parent);
    returns their layer metrics, their summaries for the checks, and
    the runs themselves."""
    install_spans(api, tracer)
    sims = {}
    for study_name, workload in w.pairs():
        study = state["studies"][study_name]
        sims[study_name, workload] = api.make_simulate_fn(study, workload)
        sims[study_name, workload](study.space.config_at(0))
        api.design_matrix(study.space)
    sample = w.sample(INPROC_RUNS)
    runs = [
        explore_once(
            api, tracer, state["studies"][e.study],
            sims[e.study, e.workload], e, work / f"inproc-{i}.ckpt",
        )
        for i, e in enumerate(sample)
    ]
    inproc = [
        dict(key=e.key(), **_summary(run["result"]))
        for e, run in zip(sample, runs)
    ]
    return explore_layers(tracer, runs), inproc, runs


# ----------------------------------------------------------------------
# modes
# ----------------------------------------------------------------------
def _summary(result, predictions=None, truth=None) -> Dict[str, object]:
    """What the checks compare of one finished exploration."""
    out: Dict[str, object] = {
        "n_simulations": result.n_simulations,
        "error_mean": float(result.final_estimate.mean),
        "rounds": [[r.n_samples, float(r.estimate.mean)]
                   for r in result.rounds],
    }
    if predictions is not None:
        primary = [float(v) for v in predictions]
        out["best_index"] = max(range(len(primary)), key=primary.__getitem__)
        out["true_error_pct"] = stats.mean_pct_error(primary, truth)
    return out


def _write_json(path: Path, payload: object) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload))
    tmp.replace(path)


def _explore_unit(w, cfg, work, state, tracer):
    """One exploration; returns (wall, report) with the report built
    outside the timed region."""
    api = state["api"]
    e = w.explore[0]
    study = state["studies"][e.study]
    checkpoint = work / "explore.ckpt" if w.checkpoint else None
    report: Dict[str, object] = {}
    if tracer.enabled:
        install_spans(api, tracer)
    run = explore_once(api, tracer, study, state["sim"], e, checkpoint)
    result = run["result"]
    if tracer.enabled:
        report["layers"] = explore_layers(tracer, [run])
        report["explores"] = [run["account"]]

    def finish() -> Dict[str, object]:
        truth = json.loads(
            truth_path(Path(cfg["cache"]), e.study, e.workload).read_text()
        )
        report["jobs"] = [dict(
            key=e.key(),
            status="done",
            turnaround_s=run["explore_s"],
            target_names=list(result.final_estimate.target_names),
            **_summary(result, run["predictions"], truth),
        )]
        report["attempted"] = result.n_simulations
        report["failed"] = sum(1 for v in result.primary_targets if v != v)
        return report

    return run["explore_s"], finish


def _serve_unit(w, cfg, work, state, tracer):
    res = drive_service(
        state["service"], submission_order(w, int(cfg["seed"])), tracer
    )
    return res["wall_s"], lambda: _jobs_report(
        res, service_layers(tracer, res) if tracer.enabled else None
    )


def _jobs_report(res, layers) -> Dict[str, object]:
    report: Dict[str, object] = {
        "jobs": res["jobs"],
        "attempted": len(res["jobs"]),
        "failed": sum(1 for j in res["jobs"] if j["status"] != "done"),
    }
    if layers is not None:
        report["layers"] = layers
    return report


UNITS = {
    "explore": _explore_unit,
    "serve": _serve_unit,
}


def rep(w: Workload, cfg: Dict[str, object], work: Path) -> Dict[str, object]:
    """Set up, then run the workload's timed unit once."""
    tracer: Tracer = Tracer() if cfg["trace"] else NullTracer()
    state = set_up(w, work, tracer)
    out: Dict[str, object] = {"ready": time.time()}
    cpu0, _ = _usage()
    wall, finish = UNITS[w.kind](w, cfg, work, state, tracer)
    cpu1, rss = _usage()
    out.update(wall_s=wall, cpu_s=cpu1 - cpu0, peak_rss_mb=rss)
    out.update(finish())
    if tracer.enabled:
        if w.kind != "explore":
            layers, out["inproc"], runs = inproc_layers(
                state["api"], w, state, work, tracer
            )
            out["layers"].update(layers)
            out["explores"] = [run["account"] for run in runs]
        out["layers"].update(state.get("split") or {
            "workloads.profile_s": tracer.total("workloads.profile"),
            "core.design_matrix_s": tracer.total("core.design_matrix"),
        })
        out["spans"] = tracer.to_list()
    return out


def probe(w: Workload, cfg: Dict[str, object], work: Path):
    """Traced: the workload's explorations through the other layers."""
    import repro.api as api

    tracer = Tracer()
    out: Dict[str, object] = {"layers": {}, "jobs": []}
    if w.kind != "serve":
        service = api.ExplorationService(
            work / "service",
            policy=api.AdmissionPolicy(max_inflight=WORKERS),
        )
        res = drive_service(
            service, tenant_split(list(w.sample(INPROC_RUNS))), tracer
        )
        out["layers"].update(service_layers(tracer, res))
        out["jobs"] += res["jobs"]
    res = drive_campaign(
        api, campaign_spec(api, "perfbench-probe", w.sample(2)),
        work / "campaign", tracer,
    )
    out["layers"].update(campaign_layers(res))
    out["jobs"] += res["jobs"]
    out.update(_jobs_report(out, None), spans=tracer.to_list())
    return out


def prepare(w: Workload, cfg: Dict[str, object]) -> Dict[str, object]:
    """Fill the benchmark cache: exhaustive truths and, for the service
    workload, each job spec's in-process exploration."""
    import repro.api as api

    cache = Path(cfg["cache"])
    for study_name, workload in w.pairs():
        path = truth_path(cache, study_name, workload)
        if not path.exists():
            study = api.get_study(study_name)
            sim = api.make_simulate_fn(study, workload)
            _write_json(path, [float(sim(c)) for c in study.space])
    if w.kind == "explore":
        return {}
    for e in w.explore:
        path = reference_path(cache, e)
        if path.exists():
            continue
        study = api.get_study(e.study)
        run = explore_once(
            api, NullTracer(), study,
            api.make_simulate_fn(study, e.workload), e, None,
        )
        truth = json.loads(truth_path(cache, e.study, e.workload).read_text())
        _write_json(path, _summary(run["result"], run["predictions"], truth))
    return {}


def main(argv: Sequence[str]) -> int:
    cfg = json.loads(argv[1])
    w = WORKLOADS[cfg["workload"]]
    work = Path(cfg["work"])
    mode = cfg["mode"]
    if mode == "setup":
        set_up(w, work, NullTracer())
        out: Dict[str, object] = {"ready": time.time()}
    elif mode == "rep":
        out = rep(w, cfg, work)
    elif mode == "probe":
        out = probe(w, cfg, work)
    elif mode == "prepare":
        out = prepare(w, cfg)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    Path(cfg["out"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
