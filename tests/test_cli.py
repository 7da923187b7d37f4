"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiments import STUDY_NAMES


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_explore_defaults(self):
        args = build_parser().parse_args(["explore"])
        assert args.study == "memory-system"
        assert args.target_error == 2.0

    def test_simulate_requires_index(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate"])

    def test_rejects_unknown_study(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explore", "--study", "noc"])

    def test_explore_robustness_defaults(self):
        args = build_parser().parse_args(["explore"])
        assert args.checkpoint is None
        assert args.resume is False
        assert args.max_retries == 0
        assert args.eval_timeout is None
        assert args.inject_faults is None
        assert args.fault_seed is None  # defaults to 0 once faults are on

    def test_explore_robustness_flags(self):
        args = build_parser().parse_args(
            [
                "explore", "--checkpoint", "run.ckpt", "--resume",
                "--max-retries", "5", "--eval-timeout", "2.5",
                "--inject-faults", "crash=0.15,nan=0.1",
                "--fault-seed", "7",
            ]
        )
        assert args.checkpoint == "run.ckpt"
        assert args.resume
        assert args.max_retries == 5
        assert args.eval_timeout == 2.5
        assert args.inject_faults == "crash=0.15,nan=0.1"
        assert args.fault_seed == 7

    def test_campaign_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign"])

    def test_campaign_run_parsing(self):
        args = build_parser().parse_args(
            [
                "campaign", "run", "spec.toml", "--dir", "camp",
                "--n-jobs", "4", "--inject-cell-faults", "crash=0.3",
                "--fault-seed", "7",
            ]
        )
        assert args.spec == "spec.toml"
        assert args.dir == "camp"
        assert args.n_jobs == 4
        assert args.inject_cell_faults == "crash=0.3"
        assert args.fault_seed == 7

    def test_campaign_run_requires_dir(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "run", "spec.toml"])

    def test_campaign_subcommands_accept_obs_flags(self):
        args = build_parser().parse_args(
            [
                "campaign", "status", "--dir", "camp",
                "--telemetry-out", "t.json", "--metrics-out", "m.json",
            ]
        )
        assert args.telemetry_out == "t.json"
        assert args.metrics_out == "m.json"


#: ``repro profile``'s rows: its four steps, explore's phases nested
PROFILE_PHASES = [
    "workload.profile",
    "design.matrix",
    "explore",
    "explore/explore.simulate",
    "explore/explore.train",
    "predict.space",
]


def _profile_table(out):
    """The phase table ``repro profile`` prints: header, row names."""
    lines = [line for line in out.splitlines() if line.startswith("| ")]
    return lines[0], [line.split("|")[1].strip() for line in lines[1:]]


class TestCommands:
    def test_simulate(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--study",
                    "memory-system",
                    "--benchmark",
                    "gzip",
                    "--index",
                    "0",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "IPC(gzip)" in out
        assert "l1d_size_kb = 8" in out

    def test_simulate_cycle_engine(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--study",
                    "processor",
                    "--benchmark",
                    "gzip",
                    "--index",
                    "5",
                    "--engine",
                    "cycle",
                ]
            )
            == 0
        )
        assert "cycle engine" in capsys.readouterr().out

    def test_rank(self, capsys):
        assert main(["rank", "--benchmark", "gzip"]) == 0
        out = capsys.readouterr().out
        assert "Plackett-Burman" in out
        assert "l2_size_kb" in out

    def test_profile_times_design_matrix_before_explore(self, capsys):
        assert main(
            ["profile", "--benchmark", "gzip", "--batch-size", "20",
             "--max-simulations", "40", "--target-error", "1.0", "--no-alloc"]
        ) == 0
        header, phases = _profile_table(capsys.readouterr().out)
        assert phases == PROFILE_PHASES
        assert "peak alloc" not in header

    @pytest.mark.parametrize("study", STUDY_NAMES)
    def test_profile_runs_every_registered_study(self, study, capsys):
        """Scalar studies profile ``mcf``; ``cache-policy`` profiles its
        first registered workload."""
        assert main(
            ["profile", "--study", study, "--batch-size", "20",
             "--max-simulations", "20", "--no-alloc"]
        ) == 0
        out = capsys.readouterr().out
        benchmark = "osc-tight" if study == "cache-policy" else "mcf"
        assert f"profile: {study} study, {benchmark}, 20 simulations" in out
        _, phases = _profile_table(out)
        assert phases == PROFILE_PHASES

    def test_profile_traces_allocations_by_default(self, capsys):
        assert main(
            ["profile", "--study", "cache-policy", "--batch-size", "20",
             "--max-simulations", "20"]
        ) == 0
        header, phases = _profile_table(capsys.readouterr().out)
        assert phases == PROFILE_PHASES
        assert "| peak alloc | net alloc |" in header
        assert not tracemalloc.is_tracing()

    def test_report_prints_one_progress_line_per_section(
        self, capsys, monkeypatch, tmp_path
    ):
        """``repro report`` names each section on stderr as it
        finishes, with its elapsed seconds; stdout and the written
        report are unchanged."""
        import re

        from repro.experiments import summary

        for name in (
            "_table51_section",
            "_learning_curve_section",
            "_estimation_section",
            "_simpoint_section",
            "_gains_section",
            "_training_time_section",
        ):
            monkeypatch.setattr(
                summary,
                name,
                lambda lines, *args, name=name: lines.append(f"stub {name}"),
            )
        out_path = tmp_path / "EXPERIMENTS.md"
        assert main(
            ["report", "--output", str(out_path), "--benchmarks", "mesa"]
        ) == 0
        captured = capsys.readouterr()
        assert captured.out == f"wrote {out_path}\n"
        lines = captured.err.splitlines()
        assert [
            re.fullmatch(r"report: (.+) section done in \d+\.\d s", line)
            .group(1)
            for line in lines
        ] == [
            "Table 5.1", "curves", "estimation", "SimPoint", "gains",
            "training times",
        ]
        text = out_path.read_text()
        assert text.index("stub _table51_section") < text.index(
            "stub _training_time_section"
        )

    def test_unknown_figure(self):
        with pytest.raises(SystemExit):
            main(["figure", "9.9"])

    def test_unknown_benchmark_list(self):
        with pytest.raises(SystemExit):
            main(["table51", "--benchmarks", "povray"])


class TestRobustnessFlags:
    def test_resume_requires_checkpoint(self):
        with pytest.raises(SystemExit, match="--resume requires"):
            main(["explore", "--resume"])

    def test_existing_checkpoint_requires_resume(self, tmp_path):
        path = tmp_path / "run.ckpt"
        path.write_bytes(b"stale")
        with pytest.raises(SystemExit, match="already exists"):
            main(["explore", "--checkpoint", str(path)])

    def test_fault_seed_requires_inject_faults(self):
        with pytest.raises(SystemExit, match="--inject-faults"):
            main(["explore", "--fault-seed", "7"])

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--max-retries", "-1"], "--max-retries"),
            (["--eval-timeout", "0"], "--eval-timeout"),
            (["--max-restarts", "-2"], "--max-restarts"),
            (["--min-folds", "0"], "--min-folds"),
            (["--batch-size", "0"], "--batch-size"),
            (["--max-simulations", "0"], "--max-simulations"),
            (["--target-error", "-1"], "--target-error"),
        ],
    )
    def test_out_of_range_explore_flags_fail_fast(self, argv, message):
        with pytest.raises(SystemExit, match=message):
            main(["explore", *argv])

    @pytest.mark.parametrize("command", ["explore", "profile"])
    def test_removed_n_jobs_is_rejected(self, command, capsys):
        """``--n-jobs`` on ``explore``/``profile`` is removed: argparse
        rejects it with exit code 2 (``campaign run --n-jobs`` stays,
        see ``test_campaign_run_parsing``)."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--n-jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --n-jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", [
        ["-m", "repro.cli"],
        # the shape of the ``repro`` console script: ``main`` is called
        # from outside ``repro.cli``, which is then not ``__main__``
        ["-c", "import sys; from repro.cli import main; sys.exit(main())"],
    ], ids=["python-m", "console-script"])
    @pytest.mark.parametrize("command", ["explore", "profile"])
    def test_removed_n_jobs_fails_loudly(self, tmp_path, entry, command):
        """However the CLI is started, ``--n-jobs`` on ``explore`` /
        ``profile`` exits 2 before any work, naming the flag on
        stderr."""
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [
                sys.executable, *entry, command, "--benchmark", "gzip",
                "--training", "fast", "--batch-size", "15",
                "--max-simulations", "15", "--target-error", "50",
                "--n-jobs", "2",
            ],
            capture_output=True, text=True, cwd=tmp_path, env=env,
        )
        assert proc.returncode == 2, proc.stderr
        assert "unrecognized arguments: --n-jobs 2" in proc.stderr
        assert list(tmp_path.iterdir()) == []


class TestCampaignCommands:
    SPEC = (
        "[campaign]\nname = 'cli-test'\n"
        "[matrix]\nstudies = ['memory-system']\nworkloads = ['mcf']\n"
        "seeds = [0]\nbudgets = [40]\n"
        "[cells]\ntarget_error = 1.0\nbatch_size = 20\ntraining = 'fast'\n"
        "[robustness]\ncell_retries = 0\n"
    )

    def write_spec(self, tmp_path):
        path = tmp_path / "spec.toml"
        path.write_text(self.SPEC)
        return path

    def test_run_status_resume_cycle(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path)
        directory = tmp_path / "camp"
        assert main(["campaign", "run", str(spec), "--dir", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "1/1 cells completed" in out
        assert (directory / "report.json").exists()
        assert (directory / "resources.json").exists()
        assert (directory / "report.md").exists()

        assert main(["campaign", "status", "--dir", str(directory)]) == 0
        assert "1 completed" in capsys.readouterr().out

        assert main(["campaign", "resume", "--dir", str(directory)]) == 0
        assert "1 replayed" in capsys.readouterr().out

    def test_status_json_is_the_report_document(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path)
        directory = tmp_path / "camp"
        main(["campaign", "run", str(spec), "--dir", str(directory)])
        capsys.readouterr()
        assert main(["campaign", "status", "--dir", str(directory),
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "campaign-report"
        assert doc == json.loads((directory / "report.json").read_text())

    def test_run_refuses_existing_directory(self, tmp_path):
        spec = self.write_spec(tmp_path)
        directory = tmp_path / "camp"
        main(["campaign", "run", str(spec), "--dir", str(directory)])
        with pytest.raises(SystemExit, match="already has a manifest"):
            main(["campaign", "run", str(spec), "--dir", str(directory)])

    def test_bad_spec_fails_fast(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text("[campaign]\nname = 'x'\n")
        with pytest.raises(SystemExit, match="matrix.studies"):
            main(["campaign", "run", str(path), "--dir", str(tmp_path / "c")])

    def test_fault_seed_requires_cell_faults(self, tmp_path):
        spec = self.write_spec(tmp_path)
        with pytest.raises(SystemExit, match="--inject-cell-faults"):
            main([
                "campaign", "run", str(spec), "--dir", str(tmp_path / "c"),
                "--fault-seed", "3",
            ])

    def test_resume_without_manifest_fails(self, tmp_path):
        with pytest.raises(SystemExit, match="no campaign manifest"):
            main(["campaign", "resume", "--dir", str(tmp_path)])

    @pytest.mark.slow
    def test_chaos_explore_end_to_end(self, tmp_path, capsys):
        """A faulty CLI run retries its way to a clean result, checkpoints
        every round, clears the checkpoint on success and reports the
        fault/retry activity in the metrics snapshot."""
        checkpoint = tmp_path / "explore.ckpt"
        metrics_out = tmp_path / "metrics.json"
        code = main(
            [
                "explore",
                "--benchmark", "gzip",
                "--training", "fast",
                "--batch-size", "15",
                "--max-simulations", "15",
                "--target-error", "50",
                "--seed", "1",
                "--inject-faults", "crash=0.2,nan=0.1",
                "--fault-seed", "7",
                "--max-retries", "8",
                "--checkpoint", str(checkpoint),
                "--metrics-out", str(metrics_out),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "predicted-best IPC" in out
        assert "WARNING" not in out  # retries recovered every point
        assert not checkpoint.exists()
        snapshot = json.loads(metrics_out.read_text())
        counters = snapshot["counters"]
        assert counters["fault.injected"] > 0
        assert counters["retry.attempts"] > 0
        assert counters["checkpoint.saves"] >= 1
        assert counters["checkpoint.clears"] == 1
