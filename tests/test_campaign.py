"""Tests for the crash-safe campaign orchestrator (repro.campaign)."""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignCell,
    CampaignError,
    CampaignRunner,
    CampaignSpec,
    CampaignSpecError,
    campaign_status,
    expand_matrix,
    manifest_path,
    parse_campaign_spec,
    resume_campaign,
    run_campaign,
)
from repro.core.faults import CellFaultPlan
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import RunTelemetry
from repro.serve import StudyRegistry


def tiny_spec(**overrides):
    """A real two-cell campaign cheap enough for unit tests (~1s/cell)."""
    kwargs = dict(
        name="test",
        studies=("memory-system",),
        workloads=("mcf",),
        seeds=(0, 1),
        budgets=(40,),
        target_error=1.0,
        batch_size=20,
        training="fast",
        max_retries=0,
        cell_retries=1,
        retry_base_delay_s=0.0,
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


def admitted_manifest(directory, spec):
    """The manifest ``campaign run`` saves before any cell starts: every
    cell of the matrix recorded ``accepted``."""
    Path(directory).mkdir(parents=True, exist_ok=True)
    manifest = StudyRegistry(
        manifest_path(directory),
        {"spec": spec.to_dict(), "spec_digest": spec.digest(),
         "cell_faults": None},
        error=CampaignError,
    )
    manifest.admit({cell.cell_id: {} for cell in expand_matrix(spec)})
    return manifest


def load_manifest(directory):
    return StudyRegistry.load(manifest_path(directory), error=CampaignError)


def records_a_terminal_cell(path):
    """Whether the manifest at ``path`` holds a done or quarantined cell.

    Tolerates the file being absent for the instant a save rotates it.
    """
    try:
        records = json.loads(path.read_text())["payload"]["records"]
    except FileNotFoundError:
        return False
    return any(
        record["status"] in ("done", "quarantined")
        for record in records.values()
    )


VALID_TOML = """
[campaign]
name = "toml-campaign"

[matrix]
studies   = ["memory-system", "processor"]
workloads = ["mcf", "gzip"]
agents    = ["random"]
seeds     = [0, 1]
budgets   = [100, 200]

[cells]
target_error = 2.0
batch_size   = 25
training     = "fast"
max_retries  = 1

[robustness]
cell_timeout_s     = 600.0
cell_retries       = 3
retry_base_delay_s = 0.1
"""


class TestCampaignSpec:
    def test_parse_valid_toml(self):
        spec = parse_campaign_spec(VALID_TOML)
        assert spec.name == "toml-campaign"
        assert spec.studies == ("memory-system", "processor")
        assert spec.budgets == (100, 200)
        assert spec.batch_size == 25
        assert spec.cell_retries == 3
        assert spec.n_cells == 2 * 2 * 1 * 2 * 2

    def test_unknown_table_is_named(self):
        with pytest.raises(CampaignSpecError) as excinfo:
            parse_campaign_spec("[campagne]\nname = 'x'\n")
        assert "campagne" in str(excinfo.value)

    def test_unknown_key_is_named(self):
        toml = VALID_TOML.replace("batch_size   = 25", "batch_sizes = 25")
        with pytest.raises(CampaignSpecError) as excinfo:
            parse_campaign_spec(toml)
        message = str(excinfo.value)
        assert "batch_sizes" in message and "[cells]" in message

    def test_missing_required_axes(self):
        with pytest.raises(CampaignSpecError) as excinfo:
            parse_campaign_spec("[campaign]\nname = 'x'\n")
        assert "matrix.studies" in str(excinfo.value)

    def test_invalid_toml_names_source(self):
        with pytest.raises(CampaignSpecError) as excinfo:
            parse_campaign_spec("not toml ===", source="bad.toml")
        assert "bad.toml" in str(excinfo.value)

    def test_unknown_study_names_choices(self):
        with pytest.raises(CampaignSpecError) as excinfo:
            tiny_spec(studies=("l2-only",))
        message = str(excinfo.value)
        assert "l2-only" in message and "memory-system" in message

    def test_unknown_workload(self):
        with pytest.raises(CampaignSpecError, match="nonsense"):
            tiny_spec(workloads=("nonsense",))

    def test_unknown_agent(self):
        with pytest.raises(CampaignSpecError, match="alien"):
            tiny_spec(agents=("alien",))

    def test_unknown_training_preset(self):
        with pytest.raises(CampaignSpecError, match="turbo"):
            tiny_spec(training="turbo")

    def test_empty_and_duplicate_axes(self):
        with pytest.raises(CampaignSpecError, match="matrix.seeds"):
            tiny_spec(seeds=())
        with pytest.raises(CampaignSpecError, match="duplicates"):
            tiny_spec(seeds=(1, 1))

    def test_rejects_bad_numbers(self):
        with pytest.raises(CampaignSpecError, match="budgets"):
            tiny_spec(budgets=(0,))
        with pytest.raises(CampaignSpecError, match="target_error"):
            tiny_spec(target_error=0.0)
        with pytest.raises(CampaignSpecError, match="cell_retries"):
            tiny_spec(cell_retries=-1)
        with pytest.raises(CampaignSpecError, match="cell_timeout_s"):
            tiny_spec(cell_timeout_s=0.0)

    def test_dict_roundtrip_and_digest(self):
        spec = parse_campaign_spec(VALID_TOML)
        clone = CampaignSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.digest() == spec.digest()
        assert tiny_spec().digest() != spec.digest()

    def test_from_dict_rejects_unknown_fields(self):
        data = tiny_spec().to_dict()
        data["surprise"] = 1
        with pytest.raises(CampaignSpecError, match="surprise"):
            CampaignSpec.from_dict(data)


class TestMatrix:
    def test_expansion_order_and_ids(self):
        spec = tiny_spec(seeds=(0, 1), budgets=(40, 80))
        cells = expand_matrix(spec)
        assert len(cells) == spec.n_cells == 4
        assert [c.cell_id for c in cells] == [
            "memory-system.mcf.random.s0.n40",
            "memory-system.mcf.random.s0.n80",
            "memory-system.mcf.random.s1.n40",
            "memory-system.mcf.random.s1.n80",
        ]

    def test_cell_roundtrip(self):
        cell = CampaignCell("processor", "gzip", "random", 3, 100)
        assert CampaignCell.from_dict(cell.to_dict()) == cell


class TestManifest:
    """A campaign's MANIFEST.json is the service's ledger class."""

    def test_roundtrip(self, tmp_path):
        manifest = admitted_manifest(tmp_path, tiny_spec())
        done, bad = sorted(manifest.records)
        manifest.mark_done(
            done, result={"converged": True}, resources={"wall_s": 1.0},
            attempts=1,
        )
        manifest.mark_quarantined(bad, kind="crash", error="boom", attempts=3)
        loaded = load_manifest(tmp_path)
        assert loaded.records == manifest.records
        assert loaded.header == manifest.header
        assert set(loaded.by_status("done")) == {done}
        assert set(loaded.by_status("quarantined")) == {bad}
        assert loaded.status_of(done) == "done"
        assert loaded.status_of("missing") is None

    def test_every_state_is_durable(self, tmp_path):
        manifest = admitted_manifest(tmp_path, tiny_spec())
        first, second = sorted(manifest.records)
        assert load_manifest(tmp_path).counts()["accepted"] == 2
        manifest.mark_running(first, attempt=1)
        loaded = load_manifest(tmp_path)
        assert loaded.status_of(first) == "running"
        assert loaded.records[first]["attempts"] == 1
        assert loaded.status_of(second) == "accepted"
        assert loaded.recover() == [first]
        assert load_manifest(tmp_path).counts()["accepted"] == 2

    def test_corrupt_primary_falls_back_to_previous(self, tmp_path):
        # the admitting save becomes .prev on the next save
        manifest = admitted_manifest(tmp_path, tiny_spec())
        cell = sorted(manifest.records)[0]
        manifest.mark_done(cell, result={}, resources={}, attempts=1)
        path = manifest_path(tmp_path)
        path.write_text(path.read_text()[:40])  # truncate: checksum fails
        loaded = load_manifest(tmp_path)
        # the fallback is the older snapshot: one recorded transition
        # lost, which resume simply redoes
        assert loaded.status_of(cell) == "accepted"

    def test_missing_manifest_is_loud(self, tmp_path):
        with pytest.raises(CampaignError, match="no campaign manifest"):
            campaign_status(tmp_path)

    def test_rejects_foreign_payloads(self, tmp_path):
        manifest = admitted_manifest(tmp_path, tiny_spec())
        manifest.header = {"spec": "not-a-spec"}
        manifest.save()
        with pytest.raises(CampaignError, match="spec / spec_digest"):
            campaign_status(tmp_path)
        manifest.header = {
            "spec": tiny_spec().to_dict(),
            "spec_digest": tiny_spec().digest(),
            "cell_faults": [1, 2],
        }
        manifest.save()
        with pytest.raises(CampaignError, match="cell_faults"):
            campaign_status(tmp_path)


class TestRunnerEndToEnd:
    def test_deterministic_across_directories_and_n_jobs(self, tmp_path):
        spec = tiny_spec()
        run_campaign(spec, tmp_path / "a", n_jobs=2)
        run_campaign(spec, tmp_path / "b", n_jobs=1)
        bytes_a = (tmp_path / "a" / "report.json").read_bytes()
        bytes_b = (tmp_path / "b" / "report.json").read_bytes()
        assert bytes_a == bytes_b
        report = json.loads(bytes_a)
        assert report["kind"] == "campaign-report"
        assert report["summary"]["n_completed"] == 2
        assert report["summary"]["n_quarantined"] == 0
        for row in report["cells"]:
            assert row["status"] == "done"
            assert row["n_simulations"] == 40
            assert row["error_mean"] > 0
        # accounting lives in its own file, never in the compared report
        resources = json.loads(
            (tmp_path / "a" / "resources.json").read_text()
        )
        assert set(resources["cells"]) == {r["cell_id"] for r in report["cells"]}
        for usage in resources["cells"].values():
            assert usage["wall_s"] > 0
        assert "wall_s" not in report["cells"][0]

    def test_run_refuses_existing_manifest(self, tmp_path):
        spec = tiny_spec(seeds=(0,))
        run_campaign(spec, tmp_path)
        with pytest.raises(CampaignError, match="already has a manifest"):
            run_campaign(spec, tmp_path)

    def test_resume_requires_a_manifest(self, tmp_path):
        with pytest.raises(CampaignError, match="no campaign manifest"):
            resume_campaign(tmp_path)

    def test_resume_rejects_spec_mismatch(self, tmp_path):
        run_campaign(tiny_spec(seeds=(0,)), tmp_path)
        other = tiny_spec(seeds=(0, 1))
        runner = CampaignRunner(other, tmp_path)
        with pytest.raises(CampaignError, match="different spec"):
            runner.run(resume=True)

    def test_resume_replays_recorded_cells(self, tmp_path):
        spec = tiny_spec()
        telemetry = RunTelemetry()
        metrics = MetricsRegistry(enabled=True)
        full = run_campaign(spec, tmp_path / "full", n_jobs=2)
        # rebuild a partial manifest: one cell back to accepted, as if
        # the driver had been killed before it started
        partial = load_manifest(tmp_path / "full")
        dropped = sorted(partial.records)[0]
        partial.records[dropped].update(
            status="accepted", attempts=0, result=None, resources=None
        )
        (tmp_path / "partial").mkdir()
        partial.path = manifest_path(tmp_path / "partial")
        partial.save()
        resumed = resume_campaign(
            tmp_path / "partial", telemetry=telemetry, metrics=metrics,
        )
        assert resumed.n_replayed == 1
        assert metrics.counter("campaign.cells_replayed") == 1
        assert metrics.counter("campaign.cells_completed") == 1
        bytes_full = (tmp_path / "full" / "report.json").read_bytes()
        bytes_resumed = (tmp_path / "partial" / "report.json").read_bytes()
        assert bytes_full == bytes_resumed
        events = telemetry.events_named("campaign.start")
        assert events and events[0].payload["n_replayed"] == 1

    def test_status_reports_pending_cells(self, tmp_path):
        admitted_manifest(tmp_path / "camp", tiny_spec())
        report = campaign_status(tmp_path / "camp")
        assert report["summary"]["n_pending"] == 2
        assert all(row["status"] == "pending" for row in report["cells"])

    def test_running_and_accepted_cells_resume_byte_identically(
        self, tmp_path
    ):
        """What a SIGKILL of the driver mid-cell leaves behind: one cell
        recorded running, one accepted.  Both report pending, and the
        resume matches an uninterrupted run byte for byte."""
        spec = tiny_spec()
        run_campaign(spec, tmp_path / "full")
        manifest = admitted_manifest(tmp_path / "killed", spec)
        running, accepted = sorted(manifest.records)
        manifest.mark_running(running, attempt=1)
        report = campaign_status(tmp_path / "killed")
        assert report["summary"]["n_pending"] == 2
        assert [row["status"] for row in report["cells"]] == ["pending"] * 2
        metrics = MetricsRegistry(enabled=True)
        resumed = resume_campaign(tmp_path / "killed", metrics=metrics)
        assert resumed.n_replayed == 0
        assert metrics.counter("campaign.cells_completed") == 2
        assert resumed.manifest.records[running]["attempts"] == 1
        assert (tmp_path / "full" / "report.json").read_bytes() == \
            (tmp_path / "killed" / "report.json").read_bytes()

    def test_resume_rejects_cells_outside_the_matrix(self, tmp_path):
        admitted_manifest(tmp_path, tiny_spec()).admit({"stray": {}})
        with pytest.raises(CampaignError, match="matrix"):
            resume_campaign(tmp_path)

    def test_min_folds_one_and_negative_seed_still_run(self, tmp_path):
        """A campaign accepts what the core accepts: ``min_folds=1`` runs
        and a negative seed's cell is quarantined by its worker, so a
        directory recorded with either resumes and reports."""
        spec = tiny_spec(seeds=(-1, 0), min_folds=1, cell_retries=0)
        admitted_manifest(tmp_path, spec)
        result = resume_campaign(tmp_path)
        statuses = {
            cell.seed: result.manifest.status_of(cell.cell_id)
            for cell in result.cells
        }
        assert statuses == {-1: "quarantined", 0: "done"}
        assert campaign_status(tmp_path) == result.report()


class TestChaosCells:
    def test_crashing_cells_are_quarantined_not_fatal(self, tmp_path):
        spec = tiny_spec(cell_retries=1)
        metrics = MetricsRegistry(enabled=True)
        telemetry = RunTelemetry()
        # seed 0 crashes cells s0/n40; s1/n40 survives (asserted below)
        faults = CellFaultPlan(crash=0.3, seed=0)
        decisions = {
            cell.cell_id: faults.decide(cell.cell_id)
            for cell in expand_matrix(spec)
        }
        assert "crash" in decisions.values()
        assert None in decisions.values()
        result = run_campaign(
            spec, tmp_path, cell_faults=faults,
            telemetry=telemetry, metrics=metrics,
        )
        assert result.degraded
        assert result.n_completed == 1
        assert result.n_quarantined == 1
        record = result.manifest.records[result.quarantined_cells[0]]
        assert record["kind"] == "crash"
        assert record["attempts"] == 2  # first try + one retry
        assert "exited with code 13" in record["error"]
        assert metrics.counter("campaign.cells_quarantined") == 1
        assert metrics.counter("campaign.cell_retries") == 1
        assert telemetry.events_named("campaign.cell_quarantined")

    def test_chaos_report_is_deterministic(self, tmp_path):
        spec = tiny_spec(cell_retries=1)
        faults = CellFaultPlan(crash=0.3, seed=0)
        run_campaign(spec, tmp_path / "a", cell_faults=faults, n_jobs=2)
        run_campaign(spec, tmp_path / "b", cell_faults=faults, n_jobs=1)
        assert (tmp_path / "a" / "report.json").read_bytes() == \
            (tmp_path / "b" / "report.json").read_bytes()

    def test_hanging_cell_is_killed_by_watchdog(self, tmp_path):
        spec = tiny_spec(seeds=(0,), cell_retries=0, cell_timeout_s=0.3)
        metrics = MetricsRegistry(enabled=True)
        start = time.monotonic()
        result = run_campaign(
            spec,
            tmp_path,
            cell_faults=CellFaultPlan(hang=1.0, hang_s=120.0),
            metrics=metrics,
        )
        assert time.monotonic() - start < 30.0, "watchdog never fired"
        assert result.n_quarantined == 1
        record = result.manifest.records[result.quarantined_cells[0]]
        assert record["kind"] == "hang"
        assert "watchdog" in record["error"]
        assert metrics.counter("campaign.watchdog_kills") == 1

    def test_fault_plan_survives_resume(self, tmp_path):
        """A resumed driver re-applies the killed driver's chaos plan."""
        spec = tiny_spec(seeds=(0,), cell_retries=0)
        faults = CellFaultPlan(crash=1.0, seed=5)
        run_campaign(spec, tmp_path, cell_faults=faults)
        manifest = load_manifest(tmp_path)
        assert CellFaultPlan.from_dict(manifest.header["cell_faults"]) \
            == faults


class TestDriverKill:
    def test_kill_9_then_resume_is_byte_identical(self, tmp_path):
        """The headline guarantee, at test scale: SIGKILL the campaign
        driver mid-run, resume from the manifest, and the aggregated
        report is byte-identical to an uninterrupted run."""
        spec_toml = (
            "[campaign]\nname = 'kill-test'\n"
            "[matrix]\nstudies = ['memory-system']\nworkloads = ['mcf']\n"
            "seeds = [0, 1]\nbudgets = [40]\n"
            "[cells]\ntarget_error = 1.0\nbatch_size = 20\ntraining = 'fast'\n"
            "[robustness]\ncell_retries = 0\n"
        )
        spec_path = tmp_path / "spec.toml"
        spec_path.write_text(spec_toml)
        spec = parse_campaign_spec(spec_toml)
        run_campaign(spec, tmp_path / "clean")

        killed_dir = tmp_path / "killed"
        driver = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "campaign", "run",
                str(spec_path), "--dir", str(killed_dir), "--n-jobs", "1",
            ],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        manifest_file = manifest_path(killed_dir)
        deadline = time.monotonic() + 60
        killed = False
        while time.monotonic() < deadline:
            if driver.poll() is not None:
                break
            if records_a_terminal_cell(manifest_file):
                os.kill(driver.pid, signal.SIGKILL)
                killed = True
                break
            time.sleep(0.02)
        driver.wait()
        assert killed, "driver finished before it could be killed"

        resumed = resume_campaign(killed_dir)
        assert resumed.n_replayed >= 1
        assert (tmp_path / "clean" / "report.json").read_bytes() == \
            (killed_dir / "report.json").read_bytes()


class TestMidRotationManifest:
    """A crash between rotation and write leaves only ``MANIFEST.json.prev``
    on disk; every entry point must treat that as an existing manifest."""

    def _rotate_away(self, directory):
        path = manifest_path(directory)
        os.replace(path, str(path) + ".prev")

    def test_status_falls_back_to_prev(self, tmp_path):
        run_campaign(tiny_spec(seeds=(0,)), tmp_path)
        self._rotate_away(tmp_path)
        report = campaign_status(tmp_path)
        assert report["summary"]["n_completed"] == 1

    def test_resume_falls_back_to_prev(self, tmp_path):
        run_campaign(tiny_spec(seeds=(0,)), tmp_path)
        self._rotate_away(tmp_path)
        resumed = resume_campaign(tmp_path)
        assert resumed.n_replayed == 1

    def test_fresh_run_refuses_with_only_prev(self, tmp_path):
        """A mid-rotation manifest still counts as recorded progress; a
        fresh run must not silently clobber it."""
        run_campaign(tiny_spec(seeds=(0,)), tmp_path)
        self._rotate_away(tmp_path)
        with pytest.raises(CampaignError, match="already has a manifest"):
            run_campaign(tiny_spec(seeds=(0,)), tmp_path)


class TestWorkerSigterm:
    def test_sigterm_cell_worker_resumes_bit_identically(self, tmp_path):
        """``kill <pid>`` on a cell worker: the round checkpoint is
        flushed, the cell relaunches at the same attempt (no retry
        budget spent -- with cell_retries=0 a crash classification would
        quarantine), and the report matches an undisturbed run."""
        spec = tiny_spec(seeds=(0,), cell_retries=0)
        run_campaign(spec, tmp_path / "clean")

        me = os.getpid()
        my_cmdline = Path(f"/proc/{me}/cmdline").read_bytes()
        killed = []
        stop = threading.Event()

        def kill_first_cell_worker():
            # forked cell workers share the parent's cmdline; other
            # children (e.g. the mp resource tracker) do not
            while not stop.is_set():
                try:
                    children = Path(
                        f"/proc/{me}/task/{me}/children"
                    ).read_text().split()
                except OSError:
                    return
                for pid in map(int, children):
                    try:
                        cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
                    except OSError:
                        continue
                    if cmdline == my_cmdline:
                        os.kill(pid, signal.SIGTERM)
                        killed.append(pid)
                        return
                time.sleep(0.01)

        killer = threading.Thread(target=kill_first_cell_worker, daemon=True)
        killer.start()
        telemetry = RunTelemetry()
        result = run_campaign(spec, tmp_path / "killed", telemetry=telemetry)
        stop.set()
        killer.join(timeout=10)
        assert killed, "no cell worker was SIGTERM'd"
        assert result.n_completed == 1
        assert result.n_quarantined == 0
        assert telemetry.events_named("campaign.cell_checkpointed")
        assert (tmp_path / "clean" / "report.json").read_bytes() == \
            (tmp_path / "killed" / "report.json").read_bytes()
