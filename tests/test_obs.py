"""Tests for the observability layer (metrics, telemetry, report, CLI)."""

import json
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

from repro.cli import main
from repro.core import DesignSpaceExplorer, RunContext
from repro.obs import (
    METRICS,
    MetricsRegistry,
    PhaseStats,
    RunTelemetry,
    TelemetryReport,
)
from repro.obs.metrics import _NULL_TIMER
from repro.obs.report import phase_table


def smooth_simulator(config):
    """A positive, smooth function of the tiny space's parameters."""
    size_term = {8: 0.4, 16: 0.55, 32: 0.68, 64: 0.75}[config["size"]]
    ways_term = {1: 0.0, 2: 0.05, 4: 0.08}[config["ways"]]
    policy_term = 0.04 if config["policy"] == "WB" else 0.0
    prefetch_term = 0.03 if config["prefetch"] else 0.0
    return size_term + ways_term + policy_term + prefetch_term


class TestMetricsRegistry:
    def test_counters_and_gauges(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.inc("a", 4)
        registry.gauge("g", 1.0)
        registry.gauge("g", 2.5)
        assert registry.counter("a") == 5
        assert registry.counter("never") == 0
        assert registry.gauge_value("g") == 2.5
        assert registry.gauge_value("never") is None

    def test_timer_records_durations(self):
        registry = MetricsRegistry()
        with registry.timer("t"):
            time.sleep(0.002)
        stats = registry.timer_stats("t")
        assert stats.count == 1
        assert stats.total >= 0.002
        assert stats.min <= stats.mean <= stats.max

    def test_timers_nest(self):
        registry = MetricsRegistry()
        with registry.timer("outer"):
            with registry.timer("inner"):
                time.sleep(0.002)
            with registry.timer("inner"):
                time.sleep(0.002)
        outer = registry.timer_stats("outer")
        inner = registry.timer_stats("inner")
        assert outer.count == 1
        assert inner.count == 2
        # the outer block contains both inner blocks
        assert outer.total >= inner.total

    def test_disabled_registry_is_noop(self):
        registry = MetricsRegistry(enabled=False)
        registry.inc("a")
        registry.gauge("g", 1.0)
        registry.observe("t", 0.5)
        with registry.timer("t"):
            pass
        assert registry.counters == {}
        assert registry.gauges == {}
        assert registry.timers == {}
        # disabled timer() hands back one shared no-op object: no
        # per-call allocation on hot paths
        assert registry.timer("x") is _NULL_TIMER
        assert registry.timer("y") is _NULL_TIMER

    def test_reset_keeps_enabled_flag(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.reset()
        assert registry.enabled
        assert registry.counters == {}

    def test_json_round_trip(self):
        registry = MetricsRegistry()
        registry.inc("sims", 40)
        registry.gauge("lr", 0.001)
        registry.observe("fit", 1.25)
        data = json.loads(registry.to_json())
        assert data["counters"] == {"sims": 40}
        assert data["gauges"] == {"lr": 0.001}
        assert data["timers"]["fit"]["count"] == 1
        assert data["timers"]["fit"]["total_s"] == 1.25


class TestRunTelemetry:
    def test_emit_and_query(self):
        telemetry = RunTelemetry()
        telemetry.emit("a", x=1)
        telemetry.emit("b", y=2)
        telemetry.emit("a", x=3)
        assert [e.payload["x"] for e in telemetry.events_named("a")] == [1, 3]
        assert telemetry.events[0].t <= telemetry.events[-1].t

    def test_phase_accumulates_and_mirrors_into_metrics(self):
        registry = MetricsRegistry()
        telemetry = RunTelemetry(metrics=registry)
        for _ in range(3):
            with telemetry.phase("train"):
                time.sleep(0.001)
        assert telemetry.phases["train"].count == 3
        assert telemetry.phases["train"].total_s >= 0.003
        assert registry.timer_stats("phase.train").count == 3

    def test_disabled_stream_is_noop(self):
        telemetry = RunTelemetry(enabled=False)
        telemetry.emit("a", x=1)
        with telemetry.phase("p"):
            pass
        assert telemetry.events == []
        assert telemetry.phases == {}

    def test_subscribers_see_events(self):
        telemetry = RunTelemetry()
        seen = []
        telemetry.subscribe(lambda event: seen.append(event.name))
        telemetry.emit("a")
        telemetry.emit("b")
        assert seen == ["a", "b"]

    def test_json_round_trip(self):
        telemetry = RunTelemetry()
        telemetry.emit("explore.round", n_simulations=8, error_mean=4.5)
        telemetry.emit("explore.done", converged=True)
        with telemetry.phase("explore.train"):
            pass
        rebuilt = RunTelemetry.from_json(telemetry.to_json())
        assert [e.name for e in rebuilt.events] == [
            e.name for e in telemetry.events
        ]
        assert rebuilt.events[0].payload == {
            "n_simulations": 8,
            "error_mean": 4.5,
        }
        assert rebuilt.events[0].t == telemetry.events[0].t
        assert rebuilt.phases["explore.train"].count == 1
        assert rebuilt.dropped == 0


def _traced(fn):
    """Run ``fn`` with tracemalloc tracing, restoring its prior state."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        return fn()
    finally:
        if not was_tracing:
            tracemalloc.stop()


class TestNestedPhases:
    def _nested(self, telemetry):
        with telemetry.phase("run"):
            with telemetry.phase("simulate"):
                pass
            with telemetry.phase("train"):
                with telemetry.phase("fold"):
                    pass
            with telemetry.phase("simulate"):
                pass
        with telemetry.phase("report"):
            pass

    def test_paths_in_first_entry_order(self):
        registry = MetricsRegistry()
        telemetry = RunTelemetry(metrics=registry)
        self._nested(telemetry)
        assert list(telemetry.phases) == [
            "run", "run/simulate", "run/train", "run/train/fold", "report",
        ]
        assert telemetry.phases["run/simulate"].count == 2
        assert registry.timer_stats("phase.run/train/fold").count == 1

    def test_top_level_name_stays_flat(self):
        """A phase with nothing open around it keeps its flat name, so
        ``phases.get("explore.train")`` finds a library-level run."""
        telemetry = RunTelemetry()
        with telemetry.phase("explore.train"):
            pass
        assert list(telemetry.phases) == ["explore.train"]

    def test_alloc_fields_only_while_tracing(self):
        telemetry = RunTelemetry()
        with telemetry.phase("untraced"):
            _ = [0] * 10_000
        _traced(lambda: self._nested(telemetry))
        assert "alloc_peak_kb" not in telemetry.phases["untraced"].to_dict()
        fold = telemetry.phases["run/train/fold"].to_dict()
        assert {"alloc_peak_kb", "alloc_net_kb"} <= set(fold)

    def test_outer_peak_survives_inner_reset(self):
        telemetry = RunTelemetry()

        def run():
            with telemetry.phase("outer"):
                big = [0] * 200_000
                del big
                with telemetry.phase("inner"):
                    small = [0] * 50_000
                    del small

        _traced(run)
        outer = telemetry.phases["outer"].alloc_peak_kb
        inner = telemetry.phases["outer/inner"].alloc_peak_kb
        assert inner > 300  # 50k pointers ~ 390 KB
        assert outer > 1000  # the 200k list freed before the inner reset
        assert outer >= inner

    def test_json_round_trip_keeps_paths_and_alloc(self):
        telemetry = RunTelemetry()
        _traced(lambda: self._nested(telemetry))
        rebuilt = RunTelemetry.from_json(telemetry.to_json())
        assert set(rebuilt.phases) == set(telemetry.phases)
        for path, stats in telemetry.phases.items():
            assert rebuilt.phases[path] == stats

    def test_json_round_trip_keeps_entry_order(self):
        """Siblings entered ``train`` then ``simulate`` reload in that
        order, from the stream's and from the report's JSON, so the
        phase table of a reloaded run reads like the live one."""
        telemetry = RunTelemetry()
        with telemetry.phase("run"):
            with telemetry.phase("train"):
                pass
            with telemetry.phase("simulate"):
                pass
        order = ["run", "run/train", "run/simulate"]
        assert list(telemetry.phases) == order
        rebuilt = RunTelemetry.from_json(telemetry.to_json())
        assert list(rebuilt.phases) == order
        document = json.loads(TelemetryReport(telemetry).to_json())
        reloaded = RunTelemetry.from_dict(document["telemetry"])
        assert list(reloaded.phases) == order
        assert phase_table(rebuilt.phases) == phase_table(telemetry.phases)

    def test_disabled_stream_ignores_nesting(self):
        telemetry = RunTelemetry(enabled=False)
        _traced(lambda: self._nested(telemetry))
        assert telemetry.phases == {}


class TestExplorerTelemetry:
    def test_one_round_event_per_batch(self, tiny_space, fast_training, rng):
        registry = MetricsRegistry()
        telemetry = RunTelemetry(metrics=registry)
        explorer = DesignSpaceExplorer(
            tiny_space, smooth_simulator, batch_size=8, k=4,
            training=fast_training,
            context=RunContext(
                rng=rng, telemetry=telemetry, metrics=registry
            ),
        )
        result = explorer.explore(target_error=0.0001, max_simulations=24)

        rounds = telemetry.events_named("explore.round")
        assert len(rounds) == len(result.rounds)
        assert [e.payload["n_simulations"] for e in rounds] == [
            r.n_samples for r in result.rounds
        ]
        assert all(e.payload["error_mean"] is not None for e in rounds)

        (start,) = telemetry.events_named("explore.start")
        assert start.payload["space_size"] == len(tiny_space)
        (done,) = telemetry.events_named("explore.done")
        assert done.payload["n_simulations"] == result.n_simulations

        assert registry.counter("explore.simulations") == result.n_simulations
        assert telemetry.phases["explore.simulate"].count == len(result.rounds)
        assert telemetry.phases["explore.train"].count == len(result.rounds)
        assert len(telemetry.events_named("crossval.fit")) == len(result.rounds)


class TestTelemetryReport:
    def _run_stream(self):
        registry = MetricsRegistry()
        registry.inc("explore.simulations", 16)
        telemetry = RunTelemetry(metrics=registry)
        telemetry.emit(
            "explore.round", n_simulations=8, error_mean=9.0,
            error_std=2.0, elapsed_s=0.5,
        )
        telemetry.emit(
            "explore.round", n_simulations=16, error_mean=4.0,
            error_std=1.0, elapsed_s=0.4,
        )
        telemetry.emit(
            "explore.done", converged=True, n_simulations=16,
            n_rounds=2, elapsed_s=0.9,
        )
        with telemetry.phase("explore.train"):
            pass
        return telemetry, registry

    def test_summary_and_iterations(self):
        telemetry, registry = self._run_stream()
        report = TelemetryReport(telemetry, registry)
        assert [row["n_simulations"] for row in report.iterations()] == [8, 16]
        summary = report.summary()
        assert summary["n_simulations"] == 16
        assert summary["final_error_mean"] == 4.0
        assert summary["converged"] is True

    def test_to_dict_carries_full_stream(self):
        telemetry, registry = self._run_stream()
        doc = TelemetryReport(telemetry, registry).to_dict()
        assert len(doc["iterations"]) == 2
        assert len(doc["telemetry"]["events"]) == 3
        assert doc["metrics"]["counters"]["explore.simulations"] == 16

    def test_markdown_rendering(self):
        telemetry, registry = self._run_stream()
        text = TelemetryReport(telemetry, registry, title="demo").to_markdown()
        assert text.startswith("# demo")
        assert "simulations: **16**" in text
        assert "| 2 | 16 | 4.00% +/- 1.00% |" in text
        assert "explore.train" in text
        assert "`explore.simulations` = 16" in text

    def test_phase_shares_follow_the_tree(self):
        """Top-level shares sum to 100%; a child's share is its total
        over its parent's, not over every phase's."""
        telemetry = RunTelemetry()
        telemetry.phases.update({
            "cli.explore": PhaseStats(count=1, total_s=4.0),
            "cli.explore/explore.simulate": PhaseStats(count=2, total_s=1.0),
            "setup": PhaseStats(count=1, total_s=1.0),
            "cli.explore/explore.train": PhaseStats(count=2, total_s=2.5),
        })
        text = TelemetryReport(telemetry).to_markdown()
        rows = re.findall(r"^\| (\S+) \| \d+ \| \S+ \| ([\d.]+)% \|$",
                          text, flags=re.MULTILINE)
        assert rows == [
            ("cli.explore", "80.0"),
            ("cli.explore/explore.simulate", "25.0"),
            ("cli.explore/explore.train", "62.5"),
            ("setup", "20.0"),
        ]

    def test_schema_check_wants_each_phase_parent(self, tmp_path):
        telemetry, registry = self._run_stream()
        with telemetry.phase("cli.explore"):
            with telemetry.phase("explore.simulate"):
                pass
        doc = TelemetryReport(telemetry, registry).to_dict()
        path = tmp_path / "BENCH_explore_test.json"
        script = Path(__file__).resolve().parents[1] / "scripts" / (
            "check_bench_schema.py"
        )

        def check():
            path.write_text(json.dumps(doc))
            return subprocess.run(
                [sys.executable, str(script), str(path)],
                capture_output=True, text=True,
            )

        assert check().returncode == 0
        del doc["telemetry"]["phases"]["cli.explore"]
        proc = check()
        assert proc.returncode != 0
        assert "parent phase 'cli.explore' missing" in proc.stdout + proc.stderr

    def test_write_picks_format_by_extension(self, tmp_path):
        telemetry, registry = self._run_stream()
        report = TelemetryReport(telemetry, registry)
        md_path = tmp_path / "run.md"
        json_path = tmp_path / "run.json"
        report.write(str(md_path))
        report.write(str(json_path))
        assert md_path.read_text().startswith("# Run report")
        data = json.loads(json_path.read_text())
        assert data["summary"]["n_simulations"] == 16


class TestCliObservability:
    def test_simulate_writes_telemetry_and_metrics(self, tmp_path, capsys):
        telemetry_out = tmp_path / "run.json"
        metrics_out = tmp_path / "metrics.json"
        assert main([
            "simulate", "--study", "memory-system", "--benchmark", "gzip",
            "--index", "0",
            "--telemetry-out", str(telemetry_out),
            "--metrics-out", str(metrics_out),
        ]) == 0
        out = capsys.readouterr().out
        assert f"wrote telemetry to {telemetry_out}" in out

        doc = json.loads(telemetry_out.read_text())
        assert "cli.simulate" in doc["telemetry"]["phases"]
        metrics = json.loads(metrics_out.read_text())
        assert metrics["counters"]["sim.interval.evaluations"] >= 1
        # the CLI turns the global registry back off on the way out
        assert not METRICS.enabled

    def test_explore_telemetry_document(self, tmp_path, capsys):
        telemetry_out = tmp_path / "run.json"
        assert main([
            "explore", "--study", "memory-system", "--benchmark", "gzip",
            "--training", "fast", "--batch-size", "20",
            "--max-simulations", "20", "--target-error", "1.0",
            "--telemetry-out", str(telemetry_out),
        ]) == 0
        capsys.readouterr()
        doc = json.loads(telemetry_out.read_text())
        assert doc["iterations"], "explore must emit per-iteration rows"
        row = doc["iterations"][0]
        assert row["n_simulations"] == 20
        assert "error_mean" in row and "error_std" in row
        phases = doc["telemetry"]["phases"]
        assert list(phases) == [
            "cli.explore",
            "cli.explore/explore.simulate",
            "cli.explore/explore.train",
        ]


class TestResourceMeter:
    def test_measures_wall_and_cpu(self):
        import pytest

        from repro.obs import ResourceMeter, ResourceUsage

        with ResourceMeter() as meter:
            # burn a little CPU so the rusage delta is visible
            total = sum(i * i for i in range(200_000))
        assert total > 0
        usage = meter.usage
        assert isinstance(usage, ResourceUsage)
        assert usage.wall_s > 0
        assert usage.cpu_total_s == usage.cpu_user_s + usage.cpu_system_s
        assert usage.max_rss_kb > 0  # peak RSS of this process, not a delta
        with pytest.raises(RuntimeError):
            ResourceMeter().snapshot()  # outside the context

    def test_snapshot_inside_context(self):
        from repro.obs import ResourceMeter

        with ResourceMeter() as meter:
            first = meter.snapshot()
            time.sleep(0.01)
            second = meter.snapshot()
        assert second.wall_s >= first.wall_s
        assert meter.usage.wall_s >= second.wall_s

    def test_roundtrips_through_dict(self):
        from repro.obs import ResourceUsage

        usage = ResourceUsage(
            wall_s=1.5, cpu_user_s=1.0, cpu_system_s=0.25, max_rss_kb=4096
        )
        assert ResourceUsage.from_dict(usage.to_dict()) == usage
