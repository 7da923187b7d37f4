#!/usr/bin/env python
"""Memory-system sensitivity study (the paper's Table 4.1 scenario).

An architect wants to know how L1/L2 geometry, write policy and bus
parameters interact for a set of workloads — the study that motivated the
paper (Jacob reports six months of simulation for a *fraction* of such a
space).  This example:

* trains a model per benchmark from ~2% of the space,
* ranks parameters by Plackett-Burman effect,
* reports each benchmark's predicted-best configuration,
* and shows a classic architectural tradeoff read off the *model*
  (L2 size sweep at fixed everything-else) without running a single
  additional simulation.

Run:  python examples/memory_system_study.py [bench1,bench2,...]
"""

import sys

import numpy as np

from repro import RunTelemetry, get_study, make_simulate_fn
from repro.core import CrossValidationEnsemble, ParameterEncoder, RunContext
from repro.cpu import get_interval_simulator
from repro.doe import PlackettBurmanStudy

DEFAULT_BENCHMARKS = ("gzip", "mcf", "twolf")
SAMPLES = 500  # ~2.2% of the 23,040-point space


def model_benchmark(study, benchmark, rng, telemetry):
    """Train one ensemble from SAMPLES random simulations."""
    simulate = make_simulate_fn(study, benchmark)
    encoder = ParameterEncoder(study.space)
    indices = study.space.sample_indices(SAMPLES, rng)
    configs = [study.space.config_at(i) for i in indices]
    with telemetry.phase(f"simulate.{benchmark}"):
        x = encoder.encode_many(configs)
        y = np.array([simulate(c) for c in configs])
    ensemble = CrossValidationEnsemble(
        context=RunContext(rng=rng, telemetry=telemetry)
    )
    estimate = ensemble.fit(x, y)
    return ensemble, encoder, estimate


def main() -> None:
    benchmarks = (
        sys.argv[1].split(",") if len(sys.argv) > 1 else DEFAULT_BENCHMARKS
    )
    study = get_study("memory-system")
    rng = np.random.default_rng(7)

    print(f"memory-system study: {len(study.space):,} points, "
          f"{SAMPLES} simulations per benchmark "
          f"({100 * SAMPLES / len(study.space):.1f}% of the space)\n")

    # Plackett-Burman parameter ranking (Section 4's validation step)
    levels = {
        p.name: (p.values[0], p.values[-1]) for p in study.space.parameters
    }
    print("Plackett-Burman parameter ranking (|IPC effect|, per benchmark):")
    for benchmark in benchmarks:
        evaluator = get_interval_simulator(benchmark)
        pb = PlackettBurmanStudy(levels)
        effects = pb.rank_parameters(
            lambda cfg: evaluator.evaluate_ipc(study.to_machine(cfg))
        )
        top = ", ".join(f"{e.name} ({e.effect:.3f})" for e in effects[:3])
        print(f"  {benchmark:>6}: {top}")
    print()

    telemetry = RunTelemetry()
    for benchmark in benchmarks:
        ensemble, encoder, estimate = model_benchmark(
            study, benchmark, rng, telemetry
        )
        print(f"== {benchmark} ==")
        print(f"  cross-validation estimate: {estimate.mean:.2f}% "
              f"+/- {estimate.std:.2f}%")
        fit = telemetry.events_named("crossval.fit")[-1].payload
        epochs = sum(
            e.payload["epochs"]
            for e in telemetry.events_named("crossval.fold")[-fit["k"]:]
        )
        print(f"  10-fold fit: {fit['wall_s']:.1f}s wall, "
              f"{epochs} epochs across {fit['n_folds_used']} folds")

        predictions = ensemble.predict(encoder.encode_space())
        best = study.space.config_at(int(np.argmax(predictions)))
        print(f"  predicted-best IPC {predictions.max():.3f} at: "
              + ", ".join(f"{k}={v}" for k, v in best.items()))

        # model-driven sweep: L2 size at the predicted-best of the rest
        sweep_configs = []
        for l2 in study.space.parameter("l2_size_kb").values:
            cfg = dict(best)
            cfg["l2_size_kb"] = l2
            sweep_configs.append(cfg)
        sweep = ensemble.predict(encoder.encode_many(sweep_configs))
        print("  L2-size sweep (predicted IPC): "
              + "  ".join(
                  f"{l2}KB:{ipc:.3f}"
                  for l2, ipc in zip(
                      study.space.parameter("l2_size_kb").values, sweep
                  )
              ))
        print()


if __name__ == "__main__":
    main()
