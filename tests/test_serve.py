"""Tests for the long-lived exploration service (repro.serve)."""

import json
import os
import signal
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignError,
    CampaignSpec,
    campaign_status,
    manifest_path,
    run_campaign,
)
from repro.core.checkpoint import canonical_json, save_checkpoint
from repro.core.faults import CellFaultPlan
from repro.core.supervise import (
    ProcessSupervisor,
    WorkerShutdown,
    install_sigterm_flush_handler,
    poll_shutdown,
    reset_shutdown,
    shutdown_requested,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import RunTelemetry
from repro.serve import (
    AdmissionPolicy,
    ExplorationService,
    JobQueue,
    JobSpec,
    JobSpecError,
    ServeError,
    ServeFrontend,
    StudyRegistry,
)
from repro.serve.health import readyz_payload
from repro.serve.queue import (
    REJECT_DRAINING,
    REJECT_QUEUE_FULL,
    REJECT_RSS_BUDGET,
    REJECT_TENANT_QUOTA,
    TenantAccounting,
    check_admission,
)
from repro.serve.registry import (
    STATUS_ACCEPTED,
    STATUS_DONE,
    STATUS_QUARANTINED,
    STATUS_RUNNING,
    registry_path,
)
from repro.serve.supervisor import KIND_DEADLINE


def fast_spec(**overrides):
    """A real exploration job cheap enough for unit tests (~1s)."""
    kwargs = dict(
        study="memory-system",
        workload="mcf",
        seed=0,
        budget=40,
        target_error=1.0,
        batch_size=20,
        training="fast",
        max_retries=0,
    )
    kwargs.update(overrides)
    return JobSpec(**kwargs)


def make_service(directory, **overrides):
    kwargs = dict(
        policy=AdmissionPolicy(max_depth=4, max_inflight=2),
        job_retries=0,
        retry_base_delay_s=0.0,
        telemetry=RunTelemetry(),
        metrics=MetricsRegistry(enabled=True),
    )
    kwargs.update(overrides)
    return ExplorationService(directory, **kwargs)


class TestJobSpec:
    def test_dict_round_trip(self):
        spec = fast_spec(deadline_s=5.0, k=8)
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        payload = fast_spec().to_dict()
        payload["bogus"] = 1
        with pytest.raises(JobSpecError, match="bogus"):
            JobSpec.from_dict(payload)

    def test_from_dict_requires_study_and_workload(self):
        with pytest.raises(JobSpecError, match="workload"):
            JobSpec.from_dict({"study": "memory-system"})
        with pytest.raises(JobSpecError, match="must be an object"):
            JobSpec.from_dict(["memory-system"])

    @pytest.mark.parametrize(
        "field, value",
        [
            ("study", ""),
            ("workload", 3),
            ("seed", -1),
            ("seed", True),
            ("budget", 0),
            ("batch_size", 0),
            ("target_error", 0.0),
            ("k", 1),
            ("min_folds", 1),
            ("max_retries", -1),
            ("eval_timeout_s", -1.0),
            ("deadline_s", 0.0),
            ("rss_estimate_kb", 0),
        ],
    )
    def test_invalid_fields_are_named(self, field, value):
        payload = fast_spec().to_dict()
        payload[field] = value
        with pytest.raises(JobSpecError, match=field):
            JobSpec.from_dict(payload)

    @pytest.mark.parametrize("field, value", [("seed", -1), ("min_folds", 1)])
    def test_submission_bounds_apply_to_spec_objects(
        self, tmp_path, field, value
    ):
        """A spec a campaign cell may run (negative seed, one fold) is
        still no valid submission when passed as a JobSpec object."""
        spec = fast_spec(**{field: value})
        service = make_service(tmp_path)
        with pytest.raises(JobSpecError, match=field):
            service.submit(spec, tenant="t")
        assert not service.registry.records


class TestAdmission:
    def admit(self, policy, **overrides):
        kwargs = dict(
            draining=False,
            depth=0,
            inflight_rss_kb=0,
            job_rss_kb=1024,
            tenant="t",
            tenant_depth=0,
        )
        kwargs.update(overrides)
        return check_admission(policy, **kwargs)

    def test_admits_within_bounds(self):
        assert self.admit(AdmissionPolicy()) is None

    def test_draining_wins_over_everything(self):
        policy = AdmissionPolicy(max_depth=1)
        rejection = self.admit(policy, draining=True, depth=99)
        assert rejection.reason == REJECT_DRAINING

    def test_queue_full(self):
        rejection = self.admit(AdmissionPolicy(max_depth=2), depth=2)
        assert rejection.reason == REJECT_QUEUE_FULL
        assert "2" in rejection.detail

    def test_rss_budget(self):
        policy = AdmissionPolicy(rss_budget_kb=1000)
        rejection = self.admit(policy, inflight_rss_kb=500, job_rss_kb=501)
        assert rejection.reason == REJECT_RSS_BUDGET
        assert self.admit(policy, inflight_rss_kb=0, job_rss_kb=1000) is None

    def test_tenant_quota(self):
        policy = AdmissionPolicy(tenant_max_depth=1)
        rejection = self.admit(policy, tenant_depth=1)
        assert rejection.reason == REJECT_TENANT_QUOTA
        assert self.admit(policy, tenant_depth=0) is None

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="max_depth"):
            AdmissionPolicy(max_depth=0)
        with pytest.raises(ValueError, match="max_inflight"):
            AdmissionPolicy(max_inflight=0)
        with pytest.raises(ValueError, match="tenant_max_depth"):
            AdmissionPolicy(tenant_max_depth=0)

    def test_queue_fifo_and_requeue(self):
        queue = JobQueue()
        queue.push("a")
        queue.push("b")
        queue.push_front("c")
        assert len(queue) == 3
        assert [queue.pop() for _ in range(4)] == ["c", "a", "b", None]

    def test_tenant_accounting(self):
        accounting = TenantAccounting()
        accounting.note_accepted("a")
        accounting.note_rejected("a")
        accounting.note_rejected("b")
        assert accounting.to_dict() == {
            "a": {"accepted": 1, "rejected": 1},
            "b": {"accepted": 0, "rejected": 1},
        }


class TestRegistry:
    def test_admission_is_durable_before_it_returns(self, tmp_path):
        service = make_service(tmp_path)
        job = service.submit(fast_spec(), tenant="alice").job_id
        assert job == "j000001-alice"
        reopened = StudyRegistry.open(tmp_path)
        assert reopened.records[job]["spec"] == fast_spec().to_dict()
        assert reopened.records[job]["status"] == STATUS_ACCEPTED
        # jobs are never deleted: the record count numbers the next one
        assert make_service(tmp_path).submit(
            fast_spec(seed=1), tenant="bob"
        ).job_id == "j000002-bob"

    def test_transitions_persist(self, tmp_path):
        service = make_service(tmp_path)
        job = service.submit(fast_spec(), tenant="t").job_id
        service.registry.mark_running(job, attempt=1)
        assert StudyRegistry.open(tmp_path).status_of(job) == STATUS_RUNNING
        service.registry.mark_done(
            job, result={"n": 1}, resources={}, attempts=1
        )
        record = StudyRegistry.open(tmp_path).records[job]
        assert record["status"] == STATUS_DONE
        assert record["result"] == {"n": 1}

    def test_recover_demotes_running_jobs_in_seq_order(self, tmp_path):
        service = make_service(tmp_path)
        first = service.submit(fast_spec(seed=0), tenant="t").job_id
        second = service.submit(fast_spec(seed=1), tenant="t").job_id
        service.registry.mark_running(second, attempt=1)
        service.registry.mark_running(first, attempt=1)
        reopened = StudyRegistry.open(tmp_path)
        assert reopened.recover() == [first, second]
        assert reopened.counts()[STATUS_ACCEPTED] == 2

    def test_mid_rotation_registry_still_opens(self, tmp_path):
        """SIGKILL between rotation and write leaves only ``.prev``."""
        job = make_service(tmp_path).submit(fast_spec(), tenant="t").job_id
        path = registry_path(tmp_path)
        os.replace(path, str(path) + ".prev")
        reopened = StudyRegistry.open(tmp_path)
        assert job in reopened.records

    def test_admit_never_overwrites_a_record(self, tmp_path):
        service = make_service(tmp_path)
        job = service.submit(fast_spec(), tenant="t").job_id
        with pytest.raises(ServeError, match="already in REGISTRY.json"):
            service.registry.admit({job: {}})
        assert service.registry.records[job]["tenant"] == "t"

    def test_rejects_bad_tenant(self, tmp_path):
        service = make_service(tmp_path)
        with pytest.raises(JobSpecError, match="tenant"):
            service.submit(fast_spec(), tenant="../escape")
        assert not StudyRegistry.open(tmp_path).records

    def test_report_holds_only_deterministic_fields(self, tmp_path):
        service = make_service(tmp_path)
        done = service.submit(fast_spec(seed=0), tenant="t").job_id
        bad = service.submit(fast_spec(seed=1), tenant="t").job_id
        service.registry.mark_done(
            done, result={"n": 1}, resources={"wall_s": 9.9}, attempts=3
        )
        service.registry.mark_quarantined(
            bad, kind="crash", error="boom", attempts=2
        )
        report = service.report()
        assert report[done]["result"] == {"n": 1}
        assert "resources" not in report[done]
        assert "attempts" not in report[done]
        assert report[bad]["kind"] == "crash"
        assert report[bad]["error"] == "boom"


def campaign_opens(directory):
    campaign_status(directory)


def service_opens(directory):
    ExplorationService(directory)


LEDGER_FILES = {
    "manifest": (manifest_path, campaign_opens, CampaignError),
    "registry": (registry_path, service_opens, ServeError),
}

ACCEPTED_RECORD = {
    "status": "accepted", "attempts": 0, "result": None, "resources": None,
    "kind": None, "error": None, "tenant": "t", "seq": 1,
    "spec": fast_spec().to_dict(),
}


class TestLedgerFiles:
    """One loader for ``MANIFEST.json`` and ``REGISTRY.json``: every
    malformed file is the driver's own error, naming the problem."""

    @pytest.mark.parametrize("which", sorted(LEDGER_FILES))
    @pytest.mark.parametrize(
        "payload, message",
        [
            ([1, 2], "must hold an object, got list"),
            ({"version": 2, "header": {}, "records": {"x": [1]}},
             "record 'x' must be an object"),
            ({"version": 2, "header": {},
              "records": {"x": {"status": "done"}}},
             "record 'x' is missing field.*'attempts'"),
            ({"version": 2, "header": {},
              "records": {"x": dict(ACCEPTED_RECORD, status="lost")}},
             "record 'x' has unknown status 'lost'"),
            ({"version": 2, "header": [], "records": {}},
             "'header' and 'records'"),
        ],
    )
    def test_malformed_ledger_names_the_problem(
        self, tmp_path, which, payload, message
    ):
        path_of, opens, error = LEDGER_FILES[which]
        save_checkpoint(path_of(tmp_path), payload)
        with pytest.raises(error, match=message):
            opens(tmp_path)

    def test_service_record_needs_its_job_fields(self, tmp_path):
        record = dict(ACCEPTED_RECORD)
        del record["tenant"]
        save_checkpoint(registry_path(tmp_path), {
            "version": 2, "header": {}, "records": {"j000001-t": record},
        })
        with pytest.raises(ServeError, match="missing field.*'tenant'"):
            StudyRegistry.open(tmp_path)

    @pytest.mark.parametrize("which", sorted(LEDGER_FILES))
    def test_version_1_is_rejected_not_migrated(self, tmp_path, which):
        path_of, opens, error = LEDGER_FILES[which]
        spec = CampaignSpec(
            name="v1", studies=("memory-system",), workloads=("mcf",),
            seeds=(0,), budgets=(40,),
        )
        save_checkpoint(path_of(tmp_path), {
            # the version-1 layouts of both files
            "manifest": {
                "version": 1, "spec": spec.to_dict(),
                "spec_digest": spec.digest(), "cell_faults": None,
                "cells": {},
            },
            "registry": {"version": 1, "next_seq": 1, "jobs": {}},
        }[which])
        with pytest.raises(error, match="version 1, expected 2"):
            opens(tmp_path)


class TestServiceLifecycle:
    def test_jobs_run_to_done(self, tmp_path):
        service = make_service(tmp_path)
        first = service.submit(fast_spec(seed=0), tenant="a")
        second = service.submit(fast_spec(seed=1), tenant="b")
        assert first.accepted and second.accepted
        service.run_until_idle()
        counts = service.registry.counts()
        assert counts["done"] == 2 and counts["quarantined"] == 0
        report = service.report()
        for entry in report.values():
            assert entry["status"] == STATUS_DONE
            assert entry["result"]["n_simulations"] == 40
            assert entry["result"]["error_mean"] > 0
        assert service.metrics.counter("serve.submitted") == 2
        assert service.metrics.counter("serve.jobs_completed") == 2
        assert service.idle
        status = service.status()
        assert status["queue_depth"] == 0 and status["inflight"] == 0
        assert status["jobs"]["done"] == 2

    def test_report_identical_across_instances(self, tmp_path):
        for name in ("a", "b"):
            service = make_service(tmp_path / name)
            service.submit(fast_spec(seed=0), tenant="t")
            service.submit(fast_spec(seed=1), tenant="t")
            service.run_until_idle()
        report_a = make_service(tmp_path / "a").report()
        report_b = make_service(tmp_path / "b").report()
        assert canonical_json(report_a) == canonical_json(report_b)

    def test_queue_full_rejection_is_accounted_not_recorded(self, tmp_path):
        service = make_service(
            tmp_path, policy=AdmissionPolicy(max_depth=1, max_inflight=1)
        )
        assert service.submit(fast_spec(seed=0), tenant="t").accepted
        shed = service.submit(fast_spec(seed=1), tenant="t")
        assert not shed.accepted
        assert shed.rejection.reason == REJECT_QUEUE_FULL
        # shedding load must not add load: no registry write happened
        assert len(service.registry.records) == 1
        assert service.metrics.counter("serve.rejected") == 1
        assert service.metrics.counter("serve.rejected.queue-full") == 1
        events = service.telemetry.events_named("serve.rejected")
        assert events and events[0].payload["reason"] == REJECT_QUEUE_FULL
        assert service.tenants.to_dict()["t"]["rejected"] == 1
        # capacity frees up once the accepted job finishes
        service.run_until_idle()
        assert service.submit(fast_spec(seed=1), tenant="t").accepted

    def test_rss_budget_rejection(self, tmp_path):
        service = make_service(
            tmp_path,
            policy=AdmissionPolicy(max_depth=8, rss_budget_kb=1000),
        )
        assert service.submit(
            fast_spec(seed=0, rss_estimate_kb=800), tenant="t"
        ).accepted
        shed = service.submit(
            fast_spec(seed=1, rss_estimate_kb=300), tenant="t"
        )
        assert shed.rejection.reason == REJECT_RSS_BUDGET

    def test_tenant_quota_rejection(self, tmp_path):
        service = make_service(
            tmp_path,
            policy=AdmissionPolicy(max_depth=8, tenant_max_depth=1),
        )
        assert service.submit(fast_spec(seed=0), tenant="noisy").accepted
        shed = service.submit(fast_spec(seed=1), tenant="noisy")
        assert shed.rejection.reason == REJECT_TENANT_QUOTA
        # one noisy tenant must not starve the rest
        assert service.submit(fast_spec(seed=1), tenant="quiet").accepted

    def test_draining_rejects_submissions(self, tmp_path):
        service = make_service(tmp_path)
        service.drain()
        shed = service.submit(fast_spec(), tenant="t")
        assert shed.rejection.reason == REJECT_DRAINING
        assert service.metrics.counter("serve.drains") == 1

    def test_malformed_tenant_raises(self, tmp_path):
        service = make_service(tmp_path)
        with pytest.raises(JobSpecError, match="tenant"):
            service.submit(fast_spec(), tenant="")

    def test_malformed_tenant_is_rejected_before_admission(self, tmp_path):
        """With the queue full, a malformed tenant is still a 400 — not
        a shed submission counted against a tenant that cannot exist."""
        service = make_service(
            tmp_path, policy=AdmissionPolicy(max_depth=1, max_inflight=1)
        )
        assert service.submit(fast_spec(seed=0), tenant="t").accepted
        tenants = service.tenants.to_dict()
        with pytest.raises(JobSpecError, match="tenant"):
            service.submit(fast_spec(seed=1), tenant="bad tenant!")
        assert service.tenants.to_dict() == tenants
        assert service.metrics.counter("serve.rejected") == 0


class TestServiceChaos:
    def test_crashing_job_is_quarantined_with_reason(self, tmp_path):
        service = make_service(
            tmp_path,
            job_retries=1,
            job_faults=CellFaultPlan(crash=1.0, seed=0),
        )
        job = service.submit(fast_spec(), tenant="t").job_id
        service.run_until_idle()
        record = service.registry.records[job]
        assert record["status"] == STATUS_QUARANTINED
        assert record["kind"] == "crash"
        assert "exited with code 13" in record["error"]
        assert record["attempts"] == 2  # first try + one retry
        assert service.metrics.counter("serve.jobs_quarantined") == 1
        assert service.metrics.counter("serve.job_retries") == 1
        assert service.telemetry.events_named("serve.job_quarantined")

    def test_hanging_job_is_killed_by_watchdog(self, tmp_path):
        service = make_service(
            tmp_path,
            job_timeout_s=0.3,
            job_faults=CellFaultPlan(hang=1.0, hang_s=120.0),
        )
        job = service.submit(fast_spec(), tenant="t").job_id
        start = time.monotonic()
        service.run_until_idle()
        assert time.monotonic() - start < 30.0, "watchdog never fired"
        record = service.registry.records[job]
        assert record["status"] == STATUS_QUARANTINED
        assert record["kind"] == "hang"
        assert "watchdog" in record["error"]
        assert service.metrics.counter("serve.watchdog_kills") == 1

    def test_deadline_exceeded_gets_its_own_kind(self, tmp_path):
        service = make_service(tmp_path)
        job = service.submit(
            fast_spec(deadline_s=0.005, max_retries=2), tenant="t"
        ).job_id
        service.run_until_idle()
        record = service.registry.records[job]
        assert record["status"] == STATUS_QUARANTINED
        assert record["kind"] == KIND_DEADLINE
        assert "deadline expired" in record["error"]

    def test_chaos_report_is_deterministic(self, tmp_path):
        faults = CellFaultPlan(crash=0.5, seed=0)
        for name in ("a", "b"):
            service = make_service(
                tmp_path / name, job_retries=1, job_faults=faults
            )
            for seed in range(3):
                service.submit(fast_spec(seed=seed), tenant="t")
            service.run_until_idle()
        report_a = make_service(tmp_path / "a").report()
        report_b = make_service(tmp_path / "b").report()
        assert canonical_json(report_a) == canonical_json(report_b)


class TestServiceRecovery:
    def test_reopened_service_finishes_accepted_jobs(self, tmp_path):
        clean = make_service(tmp_path / "clean")
        clean.submit(fast_spec(seed=0), tenant="t")
        clean.submit(fast_spec(seed=1), tenant="t")
        clean.run_until_idle()

        # accept the same jobs, then die before/while running them: one
        # job is left marked running, exactly what a SIGKILL leaves
        dying = make_service(tmp_path / "killed")
        first = dying.submit(fast_spec(seed=0), tenant="t").job_id
        dying.submit(fast_spec(seed=1), tenant="t")
        dying.registry.mark_running(first, attempt=1)
        del dying

        restarted = make_service(tmp_path / "killed")
        assert restarted.metrics.counter("serve.jobs_recovered") == 1
        restarted.run_until_idle()
        assert canonical_json(restarted.report()) == \
            canonical_json(clean.report())

    def test_worker_sigkill_mid_flight_still_completes(self, tmp_path):
        clean = make_service(tmp_path / "clean")
        clean.submit(fast_spec(seed=0), tenant="t")
        clean.run_until_idle()

        service = make_service(tmp_path / "chaos", job_retries=1)
        job = service.submit(fast_spec(seed=0), tenant="t").job_id
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            service.poll()
            pid = service.engine.supervisor.pids().get(job)
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                break
            time.sleep(0.005)
        else:
            pytest.fail("worker never launched")
        service.run_until_idle()
        record = service.registry.records[job]
        assert record["status"] == STATUS_DONE
        assert canonical_json(service.report()) == \
            canonical_json(clean.report())

    def test_shutdown_checkpoints_inflight_jobs(self, tmp_path):
        """SIGTERM-style shutdown: the worker flushes its round
        checkpoint and the restarted service resumes bit-identically."""
        clean = make_service(tmp_path / "clean")
        clean.submit(fast_spec(seed=0, budget=60), tenant="t")
        clean.run_until_idle()

        service = make_service(tmp_path / "stopped")
        job = service.submit(fast_spec(seed=0, budget=60), tenant="t").job_id
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            service.poll()
            if job in service.engine.supervisor.pids():
                break
            time.sleep(0.005)
        service.shutdown(grace_s=60.0)
        record = service.registry.records[job]
        assert record["status"] in (STATUS_ACCEPTED, STATUS_DONE)
        assert record["status"] != STATUS_RUNNING

        restarted = make_service(tmp_path / "stopped")
        restarted.run_until_idle()
        assert restarted.registry.records[job]["status"] == STATUS_DONE
        assert canonical_json(restarted.report()) == \
            canonical_json(clean.report())


@pytest.fixture
def sigterm_first_worker(monkeypatch):
    """SIGTERM the first worker any supervisor launches, right after
    its launch; returns the list the killed pid is appended to."""
    killed = []
    launch = ProcessSupervisor.launch

    def launch_then_sigterm(self, key, *args, **kwargs):
        handle = launch(self, key, *args, **kwargs)
        if not killed:
            os.kill(handle.process.pid, signal.SIGTERM)
            killed.append(handle.process.pid)
        return handle

    monkeypatch.setattr(ProcessSupervisor, "launch", launch_then_sigterm)
    return killed


class TestOneEngineTwoDrivers:
    """A campaign cell runs as a service job on the one lifecycle engine:
    the same exploration through either driver must end in the same
    ledger record after the same lifecycle events."""

    @staticmethod
    def drive(driver, directory, faults=None):
        """Run memory-system/mcf (fast, budget 40, batch 20) through
        ``driver`` with one retry.  Returns the ledger record and the
        lifecycle events as ``(name, attempt)``, with
        ``campaign.cell_*`` and ``serve.job_*`` both mapped to
        ``unit_*``."""
        telemetry = RunTelemetry()
        metrics = MetricsRegistry(enabled=True)
        if driver == "campaign":
            ns, unit = "campaign", "cell"
            spec = CampaignSpec(
                name="differential", studies=("memory-system",),
                workloads=("mcf",), seeds=(0,), budgets=(40,),
                target_error=1.0, batch_size=20, training="fast",
                max_retries=0, cell_retries=1, retry_base_delay_s=0.0,
            )
            result = run_campaign(
                spec, directory, cell_faults=faults,
                telemetry=telemetry, metrics=metrics,
            )
            (record,) = result.manifest.cells.values()
        else:
            ns, unit = "serve", "job"
            service = make_service(
                directory, job_retries=1, job_faults=faults,
                telemetry=telemetry, metrics=metrics,
            )
            job = service.submit(fast_spec(), tenant="t").job_id
            service.run_until_idle()
            record = service.registry.records[job]
        events = [
            (
                event.name[len(ns) + 1:].replace(f"{unit}_", "unit_"),
                event.payload.get("attempt", event.payload.get("attempts")),
            )
            for event in telemetry.events
            if event.name.startswith(f"{ns}.{unit}_")
            or event.name == f"{ns}.watchdog_kill"
        ]
        return record, events

    def test_healthy_results_and_events_agree(self, tmp_path):
        cell, cell_events = self.drive("campaign", tmp_path / "campaign")
        job, job_events = self.drive("service", tmp_path / "service")
        assert cell["status"] == job["status"] == STATUS_DONE
        assert cell["result"] == job["result"]
        assert cell_events == job_events == [
            ("unit_start", 1), ("unit_done", 1),
        ]

    def test_quarantine_records_and_events_agree(self, tmp_path):
        faults = CellFaultPlan(crash=1.0)
        cell, cell_events = self.drive(
            "campaign", tmp_path / "campaign", faults
        )
        job, job_events = self.drive("service", tmp_path / "service", faults)
        fields = ("status", "kind", "attempts", "error")
        assert [cell[f] for f in fields] == [job[f] for f in fields]
        assert cell["kind"] == "crash" and cell["attempts"] == 2
        assert cell_events == job_events == [
            ("unit_start", 1), ("unit_retry", 1),
            ("unit_start", 2), ("unit_quarantined", 2),
        ]

    @pytest.mark.parametrize("driver", ["campaign", "service"])
    def test_sigterm_requeues_at_the_same_attempt(
        self, tmp_path, driver, sigterm_first_worker
    ):
        record, events = self.drive(driver, tmp_path)
        assert sigterm_first_worker, "no worker was SIGTERM'd"
        assert record["status"] == STATUS_DONE
        assert record["attempts"] == 1
        assert events == [
            ("unit_start", 1), ("unit_checkpointed", 1),
            ("unit_start", 1), ("unit_done", 1),
        ]


class TestSigtermFlushHandler:
    def test_sigterm_sets_flag_and_poll_raises(self):
        previous = signal.getsignal(signal.SIGTERM)
        try:
            install_sigterm_flush_handler()
            assert not shutdown_requested()
            poll_shutdown()  # no request yet: must be a no-op
            os.kill(os.getpid(), signal.SIGTERM)
            assert shutdown_requested()
            with pytest.raises(WorkerShutdown):
                poll_shutdown()
        finally:
            signal.signal(signal.SIGTERM, previous)
            reset_shutdown()

    def test_worker_shutdown_is_not_an_exception(self):
        # recovery code that swallows Exception must not eat the
        # cooperative-shutdown request
        assert not issubclass(WorkerShutdown, Exception)


class TestHealth:
    def test_readyz_reflects_saturation(self, tmp_path):
        service = make_service(
            tmp_path, policy=AdmissionPolicy(max_depth=1, max_inflight=1)
        )
        code, payload = readyz_payload(service)
        assert code == 200 and payload["ready"] is True
        service.submit(fast_spec(), tenant="t")
        code, payload = readyz_payload(service)
        assert code == 503 and payload["ready"] is False
        assert payload["kind"] == "serve-status"
        service.run_until_idle()
        code, _ = readyz_payload(service)
        assert code == 200

    def test_readyz_passes_the_schema_checker(self, tmp_path):
        import subprocess
        import sys

        service = make_service(tmp_path / "svc")
        service.submit(fast_spec(), tenant="t")
        service.drain()
        _, payload = readyz_payload(service)
        doc = tmp_path / "serve_status.json"
        doc.write_text(json.dumps(payload))
        script = (
            Path(__file__).resolve().parents[1]
            / "scripts" / "check_bench_schema.py"
        )
        proc = subprocess.run(
            [sys.executable, str(script), str(doc)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


class FrontendHarness:
    """A ServeFrontend on an ephemeral port, driven from a thread."""

    def __init__(self, service):
        self.frontend = ServeFrontend(service, poll_s=0.01)
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        import asyncio

        asyncio.run(self.frontend.run(ready=lambda host, port: (
            self._ready.set()
        )))

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(timeout=30), "frontend never bound"
        return self

    def __exit__(self, *exc_info):
        self.frontend.request_shutdown()
        self._thread.join(timeout=60)
        assert not self._thread.is_alive(), "frontend never stopped"

    def request(self, method, path, payload=None):
        url = f"http://{self.frontend.host}:{self.frontend.port}{path}"
        data = None
        if payload is not None:
            data = payload if isinstance(payload, bytes) \
                else json.dumps(payload).encode("utf-8")
        req = urllib.request.Request(url, data=data, method=method)
        try:
            with urllib.request.urlopen(req, timeout=30) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())


class TestFrontend:
    def test_submit_probe_and_report_round_trip(self, tmp_path):
        service = make_service(tmp_path)
        with FrontendHarness(service) as http:
            code, body = http.request("GET", "/healthz")
            assert code == 200 and body["status"] == "ok"
            code, body = http.request("GET", "/readyz")
            assert code == 200 and body["kind"] == "serve-status"

            code, body = http.request(
                "POST", "/jobs",
                {"tenant": "alice", "spec": fast_spec().to_dict()},
            )
            assert code == 202 and body["accepted"] is True
            job_id = body["job_id"]

            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                code, body = http.request("GET", f"/jobs/{job_id}")
                assert code == 200
                if body["status"] in (STATUS_DONE, STATUS_QUARANTINED):
                    break
                time.sleep(0.05)
            assert body["status"] == STATUS_DONE
            assert body["result"]["n_simulations"] == 40

            code, body = http.request("GET", "/jobs")
            assert body["jobs"][job_id]["tenant"] == "alice"
            code, body = http.request("GET", "/report")
            assert body["jobs"][job_id]["status"] == STATUS_DONE

    def test_error_statuses(self, tmp_path):
        service = make_service(tmp_path)
        with FrontendHarness(service) as http:
            code, body = http.request("POST", "/jobs", b"not json")
            assert code == 400 and "JSON" in body["error"]
            code, body = http.request("POST", "/jobs", {"tenant": "t"})
            assert code == 400 and "spec" in body["error"]
            code, body = http.request(
                "POST", "/jobs",
                {"spec": {"study": "memory-system"}},
            )
            assert code == 400 and "workload" in body["error"]
            code, body = http.request("GET", "/jobs/j999999-nope")
            assert code == 404
            code, body = http.request("DELETE", "/jobs")
            assert code == 405
            code, body = http.request("GET", "/no-such-endpoint")
            assert code == 404

    def test_drain_stops_admission(self, tmp_path):
        service = make_service(tmp_path)
        with FrontendHarness(service) as http:
            code, body = http.request("POST", "/drain")
            assert code == 200 and body["draining"] is True
            code, body = http.request("GET", "/readyz")
            assert code == 503 and body["draining"] is True
            code, body = http.request(
                "POST", "/jobs", {"spec": fast_spec().to_dict()}
            )
            assert code == 503 and body["reason"] == REJECT_DRAINING

    def test_drain_on_idle_waits_for_a_first_job(self, tmp_path):
        # an empty service with drain_on_idle must NOT exit the moment
        # it binds — it has to stay up long enough to take a first
        # submission, then exit once that work completes
        import asyncio

        service = make_service(tmp_path)
        frontend = ServeFrontend(service, poll_s=0.01)
        ready = threading.Event()
        thread = threading.Thread(
            target=lambda: asyncio.run(frontend.run(
                drain_on_idle=True,
                ready=lambda host, port: ready.set(),
            )),
            daemon=True,
        )
        thread.start()
        assert ready.wait(timeout=30), "frontend never bound"
        time.sleep(0.3)
        assert thread.is_alive(), (
            "drain_on_idle exited before any job was ever submitted"
        )
        url = f"http://{frontend.host}:{frontend.port}/jobs"
        req = urllib.request.Request(
            url,
            data=json.dumps({"spec": fast_spec().to_dict()}).encode(),
            method="POST",
        )
        with urllib.request.urlopen(req, timeout=30) as resp:
            assert resp.status == 202
        thread.join(timeout=120)
        assert not thread.is_alive(), "frontend never drained on idle"
        assert service.registry.counts()["done"] == 1
