"""Command-line interface.

``repro <command> ...`` exposes the library's main workflows without
writing Python:

* ``studies``  — list the registered studies (space size, targets,
  workloads; ``--json`` for machine consumption);
* ``explore``  — run the incremental modeling loop on one benchmark;
* ``simulate`` — evaluate a single design point (either engine);
* ``rank``     — Plackett-Burman parameter ranking for a study;
* ``table51``  — regenerate Table 5.1;
* ``figure``   — regenerate one of the evaluation figures (5.1, 5.2/5.3,
  5.4/5.5, 5.6, 5.7, 5.8);
* ``profile``  — run a small exploration and print a phase-by-phase
  time/allocation breakdown;
* ``campaign`` — run/resume/inspect a crash-safe study matrix declared
  in a TOML spec (``repro campaign run|resume|status``);
* ``serve``    — run the long-lived multi-tenant exploration service
  (JSON over HTTP: submit jobs, probe ``/healthz`` / ``/readyz``,
  drain gracefully; see docs/architecture.md).

Every subcommand accepts ``--telemetry-out PATH`` (full run document:
events, per-phase wall-clock timings, metrics; Markdown if the path ends
in ``.md``, JSON otherwise) and ``--metrics-out PATH`` (counters/timers
snapshot as JSON).  Schemas are described in ``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import tracemalloc
from pathlib import Path
from typing import List, Optional

import numpy as np

from .campaign import (
    CampaignError,
    CampaignSpecError,
    campaign_status,
    load_campaign_spec,
    resume_campaign,
    run_campaign,
)
from .core import (
    DesignSpaceExplorer,
    FaultInjectingBackend,
    FaultPlan,
    ResilientBackend,
    RetryPolicy,
    RunContext,
    SerialBackend,
    TrainingConfig,
    design_matrix,
)
from .core.faults import CellFaultPlan
from .cpu import Simulator, get_interval_simulator
from .doe import PlackettBurmanStudy
from .search import AGENTS
from .experiments import (
    build_table51,
    estimation_curves,
    gains_study,
    get_study,
    learning_curves,
    make_simulate_fn,
    measure_training_times,
    render_estimation_curves,
    render_gain_split,
    render_gains,
    render_learning_curves,
    render_simpoint_curves,
    render_table51,
    render_training_times,
    simpoint_curves,
)
from .experiments.reporting import format_table
from .experiments.summary import generate_experiments_md
from .experiments.studies import (
    SCALAR_STUDY_NAMES,
    STUDY_NAMES,
    list_studies,
)
from .obs import (
    METRICS,
    NULL_TELEMETRY,
    RunTelemetry,
    TelemetryReport,
    disable_metrics,
    enable_metrics,
)
from .obs.report import phase_table
from .workloads.spec import SPEC_WORKLOADS


#: training-recipe presets selectable from the command line
TRAINING_PRESETS = TrainingConfig.PRESETS


def _training_config(
    preset: str, max_restarts: Optional[int] = None
) -> TrainingConfig:
    config = TrainingConfig.from_preset(preset)
    if max_restarts is not None:
        config = dataclasses.replace(config, max_restarts=max_restarts)
    return config


def _parse_benchmarks(raw: Optional[str]) -> Optional[List[str]]:
    if not raw:
        return None
    names = [b.strip() for b in raw.split(",") if b.strip()]
    unknown = set(names) - set(SPEC_WORKLOADS)
    if unknown:
        raise SystemExit(
            f"unknown benchmarks {sorted(unknown)}; "
            f"available: {sorted(SPEC_WORKLOADS)}"
        )
    return names


def _resolve_benchmark(study, benchmark: Optional[str]) -> str:
    """Default the workload to something the study can actually run.

    The scalar studies keep their historical ``mcf`` default; studies
    with their own workload registry (e.g. ``cache-policy``) default to
    their first registered workload.
    """
    if benchmark:
        return benchmark
    if study.is_multi_target and study.workloads:
        return study.workloads[0]
    return "mcf"


def _run_context(args: argparse.Namespace) -> RunContext:
    """The RunContext a subcommand threads through every layer."""
    return RunContext(
        rng=np.random.default_rng(args.seed),
        telemetry=args.telemetry,
        metrics=args.metrics,
    )


def _evaluation_backend(args: argparse.Namespace, context: RunContext):
    """Compose the evaluation stack a subcommand runs against.

    Bottom to top: a serial backend over the study's simulate function;
    an optional seeded fault injector (``--inject-faults``, the chaos
    harness); an optional resilience wrapper (``--max-retries`` /
    ``--eval-timeout``) that retries per-configuration failures and
    NaN-marks the irrecoverable ones instead of aborting.  Callers own the composed backend's lifetime —
    always use it as a context manager so it is closed even when the
    run raises.
    """
    study = get_study(args.study)
    simulate = make_simulate_fn(study, _resolve_benchmark(study, args.benchmark))
    backend = SerialBackend(simulate)
    inject = getattr(args, "inject_faults", None)
    if inject:
        backend = FaultInjectingBackend(
            backend,
            FaultPlan.parse(inject),
            seed=getattr(args, "fault_seed", None) or 0,
            telemetry=context.telemetry,
            metrics=context.metrics,
        )
    max_retries = getattr(args, "max_retries", 0) or 0
    timeout = getattr(args, "eval_timeout", None)
    if max_retries > 0 or timeout is not None:
        backend = ResilientBackend(
            backend,
            policy=RetryPolicy(
                max_retries=max_retries,
                base_delay_s=0.05,
                seed=args.seed,
            ),
            timeout_s=timeout,
            telemetry=context.telemetry,
            metrics=context.metrics,
        )
    return backend


def _checkpoint_path(args: argparse.Namespace) -> Optional[str]:
    """Validate the ``--checkpoint`` / ``--resume`` flag combination."""
    checkpoint = getattr(args, "checkpoint", None)
    resume = getattr(args, "resume", False)
    if resume and not checkpoint:
        raise SystemExit("--resume requires --checkpoint PATH")
    if checkpoint and not resume and Path(checkpoint).exists():
        raise SystemExit(
            f"checkpoint {checkpoint} already exists; pass --resume to "
            "continue that run, or delete the file to start fresh"
        )
    return checkpoint


def _validate_explore_args(args: argparse.Namespace) -> None:
    """Fail fast on flag combinations that cannot mean anything.

    Argparse checks types and choices; the *relationships* between
    flags — and value ranges argparse cannot express — are checked here
    so a bad invocation dies with one clear sentence instead of a
    traceback 40 rounds into a run.
    """
    if args.target_error <= 0:
        raise SystemExit(
            f"--target-error must be positive, got {args.target_error}"
        )
    if args.max_simulations < 1:
        raise SystemExit(
            f"--max-simulations must be >= 1, got {args.max_simulations}"
        )
    if args.batch_size < 1:
        raise SystemExit(f"--batch-size must be >= 1, got {args.batch_size}")
    if args.max_retries < 0:
        raise SystemExit(
            f"--max-retries must be >= 0, got {args.max_retries}"
        )
    if args.eval_timeout is not None and args.eval_timeout <= 0:
        raise SystemExit(
            f"--eval-timeout must be positive, got {args.eval_timeout}"
        )
    if args.max_restarts is not None and args.max_restarts < 0:
        raise SystemExit(
            f"--max-restarts must be >= 0, got {args.max_restarts}"
        )
    if args.min_folds is not None and args.min_folds < 1:
        raise SystemExit(f"--min-folds must be >= 1, got {args.min_folds}")
    if args.fault_seed is not None and not args.inject_faults:
        raise SystemExit(
            "--fault-seed only makes sense with --inject-faults SPEC"
        )


def cmd_explore(args: argparse.Namespace) -> int:
    """Run the incremental modeling loop and report the best point."""
    _validate_explore_args(args)
    study = get_study(args.study)
    context = _run_context(args)
    checkpoint = _checkpoint_path(args)
    with _evaluation_backend(args, context) as backend:
        explorer = DesignSpaceExplorer(
            study.space,
            backend,
            batch_size=args.batch_size,
            training=_training_config(
                args.training, getattr(args, "max_restarts", None)
            ),
            context=context,
            min_folds=getattr(args, "min_folds", None),
            agent=getattr(args, "agent", None),
        )
        result = explorer.explore(
            target_error=args.target_error,
            max_simulations=args.max_simulations,
            checkpoint=checkpoint,
        )
        failures = getattr(backend, "failures", [])
    for i, round_ in enumerate(result.rounds, 1):
        print(
            f"round {i:>2}: {round_.n_samples:>5} sims -> estimated "
            f"{round_.estimate.mean:.2f}% +/- {round_.estimate.std:.2f}%"
        )
    status = "converged" if result.converged else "budget exhausted"
    print(f"{status} after {result.n_simulations} simulations")
    if result.final_estimate.target_names:
        print("per-target cross-validation error:")
        for name in result.final_estimate.target_names:
            per = result.final_estimate.for_target(name)
            print(f"  {name:<12} {per.mean:.2f}% +/- {per.std:.2f}%")
    if failures:
        print(
            f"WARNING: {len(failures)} evaluation(s) failed after retries "
            "and were masked out of training "
            f"(coverage {result.final_estimate.coverage:.1%})"
        )
    if result.final_estimate.fold_coverage < 1.0:
        final = result.final_estimate
        print(
            f"WARNING: {final.n_folds - final.n_folds_used} of "
            f"{final.n_folds} folds diverged in the final round and were "
            "quarantined from the ensemble "
            f"(fold coverage {final.fold_coverage:.1%})"
        )
    predictions = result.predict_space()
    best = int(np.argmax(predictions))
    label = study.primary_target if study.is_multi_target else "IPC"
    print(f"predicted-best {label} {predictions[best]:.3f} at point {best}:")
    for key, value in study.space.config_at(best).items():
        print(f"  {key} = {value}")
    return 0


def cmd_studies(args: argparse.Namespace) -> int:
    """List the registered studies and their declared targets."""
    import json

    infos = [info.to_dict() for info in list_studies()]
    if args.json:
        print(json.dumps(infos, indent=2, sort_keys=True))
        return 0
    print(
        format_table(
            ["Study", "Points", "Params", "Targets", "Workloads"],
            [
                [
                    info["name"],
                    f"{info['n_points']:,}",
                    info["n_parameters"],
                    ", ".join(info["targets"]),
                    ", ".join(info["workloads"]),
                ]
                for info in infos
            ],
            title="Registered studies",
        )
    )
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    """Evaluate one design point with the chosen engine."""
    study = get_study(args.study)
    config = study.space.config_at(args.index)
    machine = study.to_machine(config)
    print(f"design point {args.index} of {study.name}:")
    for key, value in config.items():
        print(f"  {key} = {value}")
    simulator = Simulator(args.engine)
    ipc = simulator.simulate_ipc(machine, args.benchmark)
    print(f"{args.engine} engine IPC({args.benchmark}) = {ipc:.4f}")
    return 0


def cmd_rank(args: argparse.Namespace) -> int:
    """Print the Plackett-Burman parameter ranking for one benchmark."""
    study = get_study(args.study)
    evaluator = get_interval_simulator(args.benchmark)
    levels = {
        p.name: (p.values[0], p.values[-1]) for p in study.space.parameters
    }
    pb = PlackettBurmanStudy(levels)
    effects = pb.rank_parameters(
        lambda config: evaluator.evaluate_ipc(study.to_machine(config))
    )
    print(
        format_table(
            ["Rank", "Parameter", "|Effect| (IPC)"],
            [[e.rank, e.name, f"{e.effect:.4f}"] for e in effects],
            title=(
                f"Plackett-Burman ranking, {study.name} study, "
                f"{args.benchmark} ({pb.n_runs} runs)"
            ),
        )
    )
    return 0


def cmd_table51(args: argparse.Namespace) -> int:
    """Regenerate Table 5.1 for one or both studies."""
    benchmarks = _parse_benchmarks(args.benchmarks)
    studies = SCALAR_STUDY_NAMES if args.study == "both" else (args.study,)
    for study_name in studies:
        table = build_table51(study_name, benchmarks=benchmarks, seed=args.seed)
        print(render_table51(table))
        print()
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    """Regenerate one of the evaluation figures as text series."""
    benchmarks = _parse_benchmarks(args.benchmarks)
    figure = args.number
    if figure in ("5.1", "A.1"):
        print(render_learning_curves(learning_curves(benchmarks, seed=args.seed)))
    elif figure in ("5.2", "5.3", "A.2", "A.3"):
        print(
            render_estimation_curves(estimation_curves(benchmarks, seed=args.seed))
        )
    elif figure in ("5.4", "5.5"):
        print(render_simpoint_curves(simpoint_curves(benchmarks, seed=args.seed)))
    elif figure == "5.6":
        print(render_gains(gains_study(seed=args.seed)))
    elif figure == "5.7":
        print(render_gain_split(gains_study(seed=args.seed)))
    elif figure == "5.8":
        print(render_training_times(measure_training_times(seed=args.seed)))
    else:
        raise SystemExit(
            f"unknown figure {figure!r}; choices: 5.1 5.2 5.3 5.4 5.5 5.6 "
            f"5.7 5.8 A.1 A.2 A.3"
        )
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Run a small exploration and print a phase-by-phase breakdown.

    Phases cover workload profiling, the design-matrix build, the
    exploration loop (with its simulation and training phases nested
    under it) and full-space prediction; each row reports wall seconds
    and, unless ``--no-alloc``, tracemalloc peak/net allocations.
    """
    study = get_study(args.study)
    benchmark = _resolve_benchmark(study, args.benchmark)
    telemetry = args.telemetry
    context = _run_context(args)
    tracing = not args.no_alloc and not tracemalloc.is_tracing()
    if tracing:
        tracemalloc.start()
    try:
        with telemetry.phase("workload.profile"):
            get_interval_simulator(benchmark)
        with telemetry.phase("design.matrix"):
            design_matrix(study.space)
        with _evaluation_backend(args, context) as backend:
            with telemetry.phase("explore"):
                explorer = DesignSpaceExplorer(
                    study.space,
                    backend,
                    batch_size=args.batch_size,
                    training=_training_config(args.training),
                    context=context,
                )
                result = explorer.explore(
                    target_error=args.target_error,
                    max_simulations=args.max_simulations,
                )
        with telemetry.phase("predict.space"):
            result.predict_space()
    finally:
        if tracing:
            tracemalloc.stop()

    print(
        f"profile: {study.name} study, {benchmark}, "
        f"{result.n_simulations} simulations, "
        f"{len(result.rounds)} rounds, "
        f"final estimate {result.final_estimate.mean:.2f}%"
    )
    print()
    # this command runs inside its own ``cli.profile`` phase
    prefix = f"cli.{args.command}/"
    print("\n".join(phase_table({
        path[len(prefix):]: stats
        for path, stats in telemetry.phases.items()
        if path.startswith(prefix)
    })))
    counters = args.metrics.counters
    if counters:
        print()
        print("counters:")
        for name in sorted(counters):
            print(f"  {name:<28} {counters[name]:,.0f}")
    return 0


def _print_campaign_result(result) -> None:
    """Common epilogue of ``campaign run`` and ``campaign resume``."""
    spec = result.spec
    print(
        f"campaign {spec.name!r}: {result.n_completed}/{len(result.cells)} "
        f"cells completed"
        + (f" ({result.n_replayed} replayed from manifest)"
           if result.n_replayed else "")
    )
    if result.degraded:
        print(
            f"WARNING: campaign completed degraded — "
            f"{result.n_quarantined} cell(s) quarantined after exhausting "
            f"{spec.cell_retries} retr{'y' if spec.cell_retries == 1 else 'ies'}:"
        )
        for cell_id in result.quarantined_cells:
            record = result.manifest.records[cell_id]
            print(f"  {cell_id}: {record['kind']} ({record['error']})")
    print(f"wrote {result.report_paths['report']}")
    print(f"wrote {result.report_paths['markdown']}")


def cmd_campaign_run(args: argparse.Namespace) -> int:
    """Run a campaign spec to (possibly degraded) completion."""
    if args.n_jobs < 1:
        raise SystemExit(f"--n-jobs must be >= 1, got {args.n_jobs}")
    if args.fault_seed is not None and not args.inject_cell_faults:
        raise SystemExit(
            "--fault-seed only makes sense with --inject-cell-faults SPEC"
        )
    try:
        spec = load_campaign_spec(args.spec)
        faults = None
        if args.inject_cell_faults:
            faults = CellFaultPlan.parse(
                args.inject_cell_faults, seed=args.fault_seed or 0
            )
        result = run_campaign(
            spec,
            args.dir,
            n_jobs=args.n_jobs,
            cell_faults=faults,
            telemetry=args.telemetry,
            metrics=args.metrics,
        )
    except (CampaignSpecError, CampaignError, ValueError) as exc:
        raise SystemExit(str(exc)) from exc
    _print_campaign_result(result)
    return 0


def cmd_campaign_resume(args: argparse.Namespace) -> int:
    """Continue the campaign a (possibly killed) driver left behind."""
    if args.n_jobs < 1:
        raise SystemExit(f"--n-jobs must be >= 1, got {args.n_jobs}")
    try:
        result = resume_campaign(
            args.dir,
            n_jobs=args.n_jobs,
            telemetry=args.telemetry,
            metrics=args.metrics,
        )
    except (CampaignSpecError, CampaignError) as exc:
        raise SystemExit(str(exc)) from exc
    _print_campaign_result(result)
    return 0


def cmd_campaign_status(args: argparse.Namespace) -> int:
    """Summarize whatever a campaign directory's manifest records."""
    import json

    try:
        report = campaign_status(args.dir)
    except (CampaignSpecError, CampaignError) as exc:
        raise SystemExit(str(exc)) from exc
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
        return 0
    summary = report["summary"]
    print(f"campaign {report['name']!r} ({report['spec_digest'][:12]}...)")
    print(
        "cells: {n_cells} total, {n_completed} completed, "
        "{n_quarantined} quarantined, {n_pending} pending".format(**summary)
    )
    for row in report["cells"]:
        if row["status"] == "quarantined":
            print(f"  quarantined {row['cell_id']}: {row['kind']}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the exploration service until signalled (or idle)."""
    # imported here: the serve stack is only needed by this command
    from .serve import AdmissionPolicy, ExplorationService, ServeError
    from .serve.frontend import serve_forever

    if args.fault_seed is not None and not args.inject_job_faults:
        raise SystemExit(
            "--fault-seed only makes sense with --inject-job-faults SPEC"
        )
    try:
        faults = None
        if args.inject_job_faults:
            faults = CellFaultPlan.parse(
                args.inject_job_faults, seed=args.fault_seed or 0
            )
        policy = AdmissionPolicy(
            max_depth=args.max_depth,
            max_inflight=args.max_inflight,
            rss_budget_kb=args.rss_budget_mb * 1024,
            tenant_max_depth=args.tenant_max_depth,
        )
        service = ExplorationService(
            args.dir,
            policy=policy,
            job_retries=args.job_retries,
            watchdog_grace_s=args.watchdog_grace,
            job_timeout_s=args.job_timeout,
            job_faults=faults,
            telemetry=args.telemetry,
            metrics=args.metrics,
        )
    except (ServeError, ValueError) as exc:
        raise SystemExit(str(exc)) from exc

    def announce(host: str, port: int) -> None:
        # the ephemeral-port contract: with --port 0 this line is how
        # callers (tests, the chaos smoke) learn where to connect
        print(f"repro-serve listening on http://{host}:{port}", flush=True)

    serve_forever(
        service,
        args.host,
        args.port,
        drain_on_idle=args.drain_on_idle,
        ready=announce,
    )
    counts = service.registry.counts()
    print(
        f"serve: {counts['done']} done, "
        f"{counts['quarantined']} quarantined, "
        f"{counts['accepted'] + counts['running']} unfinished"
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Write the paper-vs-measured EXPERIMENTS.md report."""
    benchmarks = _parse_benchmarks(args.benchmarks)
    generate_experiments_md(args.output, benchmarks=benchmarks, seed=args.seed)
    print(f"wrote {args.output}")
    return 0


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    """Attach the observability flags every subcommand supports."""
    parser.add_argument(
        "--telemetry-out",
        metavar="PATH",
        default=None,
        help="write the run's telemetry document (.md renders Markdown, "
        "anything else JSON)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write the counters/timers snapshot as JSON",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Predictive modeling of architectural design spaces "
            "(ASPLOS 2006 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    studies_p = sub.add_parser(
        "studies", help="list registered studies and their targets"
    )
    studies_p.add_argument(
        "--json", action="store_true",
        help="print the registry as JSON (name, space size, targets, "
        "workloads)",
    )
    studies_p.set_defaults(func=cmd_studies)

    explore = sub.add_parser("explore", help="run the incremental loop")
    explore.add_argument("--study", choices=STUDY_NAMES, default="memory-system")
    explore.add_argument(
        "--benchmark", default=None,
        help="workload to model (default: mcf for the scalar studies, "
        "the study's first registered workload otherwise)",
    )
    explore.add_argument("--target-error", type=float, default=2.0)
    explore.add_argument("--max-simulations", type=int, default=1000)
    explore.add_argument("--batch-size", type=int, default=50)
    explore.add_argument("--seed", type=int, default=0)
    explore.add_argument(
        "--training", choices=TRAINING_PRESETS, default="default",
        help="training-recipe preset (fast = cheap sweeps, paper = "
        "Section 3.1's literal hyperparameters)",
    )
    explore.add_argument(
        "--agent", choices=sorted(AGENTS), default="random",
        help="search strategy proposing each round's batch (default: "
        "the paper's uniform random sampling; see docs/architecture.md "
        "and BENCH_strategies.json for the shootout)",
    )
    explore.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="persist round state (samples, targets, RNG state, "
        "predictor) to PATH after every round via atomic writes; the "
        "file is removed when the run completes",
    )
    explore.add_argument(
        "--resume", action="store_true",
        help="resume from an existing --checkpoint file; the resumed "
        "run reproduces the uninterrupted result exactly",
    )
    explore.add_argument(
        "--max-retries", type=int, default=0, metavar="N",
        help="retry each failed evaluation up to N times (exponential "
        "seeded backoff) before NaN-masking it out of training "
        "(default: 0 = fail fast)",
    )
    explore.add_argument(
        "--eval-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget per evaluation call; a watchdog thread "
        "abandons a hung call, which raises a retryable timeout and is "
        "retried under the --max-retries budget",
    )
    explore.add_argument(
        "--max-restarts", type=int, default=None, metavar="N",
        help="retry a diverged fold training up to N times with "
        "deterministically reseeded weights before quarantining the "
        "fold (default: the training preset's budget)",
    )
    explore.add_argument(
        "--min-folds", type=int, default=None, metavar="N",
        help="minimum folds that must survive training per round; "
        "fewer aborts the run instead of degrading (default: 2)",
    )
    explore.add_argument(
        "--inject-faults", metavar="SPEC", default=None,
        help="chaos harness: inject seeded faults into evaluations, "
        "e.g. 'crash=0.15,nan=0.1,outlier=0.05' (kinds: crash, nan, "
        "hang, slow, outlier; see docs/robustness.md)",
    )
    explore.add_argument(
        "--fault-seed", type=int, default=None, metavar="SEED",
        help="seed for the fault-injection stream (independent of "
        "--seed, so faults never perturb sampling; requires "
        "--inject-faults, defaults to 0 when it is given)",
    )
    explore.set_defaults(func=cmd_explore)

    simulate = sub.add_parser("simulate", help="evaluate one design point")
    simulate.add_argument("--study", choices=SCALAR_STUDY_NAMES,
                          default="memory-system")
    simulate.add_argument("--benchmark", default="mcf")
    simulate.add_argument("--index", type=int, required=True)
    simulate.add_argument("--engine", choices=("interval", "cycle"),
                          default="interval")
    simulate.set_defaults(func=cmd_simulate)

    rank = sub.add_parser("rank", help="Plackett-Burman parameter ranking")
    rank.add_argument("--study", choices=SCALAR_STUDY_NAMES,
                      default="memory-system")
    rank.add_argument("--benchmark", default="gzip")
    rank.set_defaults(func=cmd_rank)

    table = sub.add_parser("table51", help="regenerate Table 5.1")
    table.add_argument("--study", choices=SCALAR_STUDY_NAMES + ("both",),
                       default="both")
    table.add_argument("--benchmarks", default="")
    table.add_argument("--seed", type=int, default=0)
    table.set_defaults(func=cmd_table51)

    figure = sub.add_parser("figure", help="regenerate an evaluation figure")
    figure.add_argument("number", help="e.g. 5.1, 5.4, 5.6, 5.8")
    figure.add_argument("--benchmarks", default="")
    figure.add_argument("--seed", type=int, default=0)
    figure.set_defaults(func=cmd_figure)

    report = sub.add_parser(
        "report", help="write EXPERIMENTS.md (paper vs measured)"
    )
    report.add_argument("--output", default="EXPERIMENTS.md")
    report.add_argument("--benchmarks", default="")
    report.add_argument("--seed", type=int, default=0)
    report.set_defaults(func=cmd_report)

    profile = sub.add_parser(
        "profile", help="phase-by-phase time/allocation breakdown"
    )
    profile.add_argument("--study", choices=STUDY_NAMES,
                         default="memory-system")
    profile.add_argument(
        "--benchmark", default=None,
        help="workload to model (default: as for explore)",
    )
    profile.add_argument("--target-error", type=float, default=2.0)
    profile.add_argument("--max-simulations", type=int, default=100)
    profile.add_argument("--batch-size", type=int, default=50)
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument(
        "--training", choices=TRAINING_PRESETS, default="fast",
        help="training-recipe preset (profiling defaults to fast)",
    )
    profile.add_argument(
        "--no-alloc", action="store_true",
        help="skip tracemalloc (pure wall-clock profiling)",
    )
    profile.set_defaults(func=cmd_profile)

    campaign = sub.add_parser(
        "campaign", help="run/resume/inspect a crash-safe study matrix"
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command",
                                           required=True)

    campaign_run = campaign_sub.add_parser(
        "run", help="run a campaign spec to completion"
    )
    campaign_run.add_argument(
        "spec", metavar="SPEC.toml",
        help="campaign spec (see docs/api.md for the TOML schema)",
    )
    campaign_run.add_argument(
        "--dir", required=True, metavar="DIR",
        help="campaign working directory (manifest, per-cell "
        "checkpoints, reports); must not already hold a manifest",
    )
    campaign_run.add_argument(
        "--n-jobs", type=int, default=1, metavar="N",
        help="concurrent cell processes (results never depend on this)",
    )
    campaign_run.add_argument(
        "--inject-cell-faults", metavar="SPEC", default=None,
        help="campaign chaos harness: deterministically crash/hang a "
        "fraction of cells, e.g. 'crash=0.3' or 'crash=0.2,hang=0.1,"
        "hang_s=60' (kinds: crash, hang; see docs/robustness.md)",
    )
    campaign_run.add_argument(
        "--fault-seed", type=int, default=None, metavar="SEED",
        help="seed for the per-cell fault decisions (requires "
        "--inject-cell-faults, defaults to 0 when it is given)",
    )
    campaign_run.set_defaults(func=cmd_campaign_run)

    campaign_resume = campaign_sub.add_parser(
        "resume", help="continue a killed or interrupted campaign"
    )
    campaign_resume.add_argument("--dir", required=True, metavar="DIR")
    campaign_resume.add_argument(
        "--n-jobs", type=int, default=1, metavar="N",
        help="concurrent cell processes (results never depend on this)",
    )
    campaign_resume.set_defaults(func=cmd_campaign_resume)

    campaign_status_p = campaign_sub.add_parser(
        "status", help="summarize a campaign directory's manifest"
    )
    campaign_status_p.add_argument("--dir", required=True, metavar="DIR")
    campaign_status_p.add_argument(
        "--json", action="store_true",
        help="print the full deterministic report document as JSON",
    )
    campaign_status_p.set_defaults(func=cmd_campaign_status)

    serve = sub.add_parser(
        "serve", help="run the multi-tenant exploration service"
    )
    serve.add_argument(
        "--dir", required=True, metavar="DIR",
        help="service working directory (job registry, per-job "
        "checkpoints); reopening a directory resumes its accepted jobs",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="listen port (default 0 = ephemeral; the bound port is "
        "announced on stdout)",
    )
    serve.add_argument(
        "--max-depth", type=int, default=16, metavar="N",
        help="admission bound on accepted-but-unfinished jobs; "
        "submissions past it are rejected with reason 'queue-full'",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=2, metavar="N",
        help="concurrent job worker processes",
    )
    serve.add_argument(
        "--rss-budget-mb", type=int, default=4096, metavar="MB",
        help="admission bound on the summed RSS estimates of "
        "unfinished jobs (reason 'rss-budget')",
    )
    serve.add_argument(
        "--tenant-max-depth", type=int, default=None, metavar="N",
        help="per-tenant bound on unfinished jobs (reason "
        "'tenant-quota'; default: no quota)",
    )
    serve.add_argument(
        "--job-retries", type=int, default=2, metavar="N",
        help="attempts a failed job gets after its first, before "
        "quarantine (retried attempts resume from the job checkpoint)",
    )
    serve.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="watchdog wall-clock bound per attempt for jobs that set "
        "no deadline_s (default: unbounded)",
    )
    serve.add_argument(
        "--watchdog-grace", type=float, default=30.0, metavar="SECONDS",
        help="slack past a job's soft deadline_s before the watchdog "
        "kills its worker",
    )
    serve.add_argument(
        "--drain-on-idle", action="store_true",
        help="exit (gracefully) once every admitted job is terminal — "
        "for batch-style use and the chaos smoke",
    )
    serve.add_argument(
        "--inject-job-faults", metavar="SPEC", default=None,
        help="service chaos harness: deterministically crash/hang a "
        "fraction of jobs, e.g. 'crash=0.3' (kinds: crash, hang; "
        "decisions are a pure function of the fault seed and job id)",
    )
    serve.add_argument(
        "--fault-seed", type=int, default=None, metavar="SEED",
        help="seed for the per-job fault decisions (requires "
        "--inject-job-faults, defaults to 0 when it is given)",
    )
    serve.set_defaults(func=cmd_serve)

    for subparser in sub.choices.values():
        if subparser is campaign:
            # options on a parser with nested subparsers would have to
            # precede the nested command; attach them to the leaves
            continue
        _add_obs_args(subparser)
    for subparser in campaign_sub.choices.values():
        _add_obs_args(subparser)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    When ``--telemetry-out`` / ``--metrics-out`` is given (or the
    command is ``profile``), the global metrics registry is enabled for
    the duration of the command and a :class:`RunTelemetry` stream is
    threaded to the subcommand via ``args.telemetry``; the requested
    files are written after the command finishes, even on error.
    """
    args = build_parser().parse_args(argv)
    telemetry_out = getattr(args, "telemetry_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    observing = bool(telemetry_out or metrics_out) or args.command == "profile"
    if observing:
        enable_metrics()
        telemetry = RunTelemetry(metrics=METRICS)
    else:
        telemetry = NULL_TELEMETRY
    args.telemetry = telemetry
    args.metrics = METRICS
    write_error: Optional[OSError] = None
    try:
        with telemetry.phase(f"cli.{args.command}"):
            code = args.func(args)
    finally:
        try:
            if telemetry_out:
                TelemetryReport(
                    telemetry, METRICS, title=f"repro {args.command}"
                ).write(telemetry_out)
                print(f"wrote telemetry to {telemetry_out}")
            if metrics_out:
                METRICS.write_json(metrics_out)
                print(f"wrote metrics to {metrics_out}")
        except OSError as exc:
            write_error = exc
        finally:
            if observing:
                disable_metrics()
    if write_error is not None:
        raise SystemExit(
            f"could not write observability output: {write_error}"
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
