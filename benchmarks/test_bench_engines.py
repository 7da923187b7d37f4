"""Micro-benchmarks of the substrates (true pytest-benchmark timings).

These quantify the performance claims DESIGN.md's substitution argument
rests on: interval-model evaluations cost microseconds (which is what
makes exhaustive 23K/20.7K-point ground truth feasible), profile building
costs one to two seconds, and the detailed cycle engine costs seconds per
run.
"""

import numpy as np

from repro.core import CrossValidationEnsemble, RunContext, TrainingConfig
from repro.cpu import CycleSimulator, MachineConfig, get_interval_simulator
from repro.cpu.interval import ApplicationProfile
from repro.memory import ReuseProfile
from repro.simpoint import kmeans
from repro.workloads import SyntheticTraceGenerator, generate_trace, get_workload


def test_interval_engine_throughput(benchmark):
    """Single design-point evaluation with the interval engine."""
    evaluator = get_interval_simulator("mesa")
    configs = [
        MachineConfig(l1d_size=s * 1024, l2_size=l2 * 1024)
        for s in (8, 16, 32, 64)
        for l2 in (256, 512, 1024, 2048)
    ]
    counter = {"i": 0}

    def evaluate_one():
        cfg = configs[counter["i"] % len(configs)]
        counter["i"] += 1
        return evaluator.evaluate_ipc(cfg)

    result = benchmark(evaluate_one)
    assert result > 0


def test_cycle_engine_run(benchmark):
    """One detailed simulation of a 12K-instruction trace."""
    trace = generate_trace("gzip", 12_000)
    simulator = CycleSimulator(MachineConfig())
    result = benchmark.pedantic(
        simulator.run, args=(trace,), iterations=1, rounds=3
    )
    assert result.ipc > 0


def test_trace_generation(benchmark):
    """Synthetic trace generation for one benchmark."""
    characteristics = get_workload("crafty")

    def generate():
        return SyntheticTraceGenerator(characteristics, 50_000).generate()

    trace = benchmark.pedantic(generate, iterations=1, rounds=3)
    assert len(trace) >= 50_000


def test_stack_distance_profiling(benchmark):
    """Whole-array stack-distance profiling of a 25K-reference stream."""
    blocks = generate_trace("mesa", 70_000).block_addresses(64)[:25_000]
    profile = benchmark.pedantic(
        ReuseProfile, args=(blocks,), iterations=1, rounds=3
    )
    assert profile.n_references == 25_000


def test_application_profile_build(benchmark):
    """Full application profiling (the one-time cost per benchmark)."""
    trace = generate_trace("gzip", 20_000)
    profile = benchmark.pedantic(
        ApplicationProfile.from_trace, args=(trace,), iterations=1, rounds=1
    )
    assert profile.n_instructions == len(trace)


def test_kmeans_clustering(benchmark):
    """SimPoint-scale k-means (10 intervals, 15 projected dimensions)."""
    rng = np.random.default_rng(0)
    points = rng.random((10, 15))
    result = benchmark(lambda: kmeans(points, 4, np.random.default_rng(1)))
    assert result.k == 4


def test_ensemble_training_small(benchmark):
    """One 10-fold ensemble training round at 100 samples."""
    rng = np.random.default_rng(0)
    x = rng.random((100, 10))
    y = 0.5 + x[:, 0] * 0.5 + 0.3 * x[:, 1] * x[:, 2]
    training = TrainingConfig(max_epochs=300, patience=10)

    def fit():
        ensemble = CrossValidationEnsemble(
            training=training, context=RunContext.seeded(1)
        )
        return ensemble.fit(x, y).mean

    error = benchmark.pedantic(fit, iterations=1, rounds=3)
    assert error < 50.0
