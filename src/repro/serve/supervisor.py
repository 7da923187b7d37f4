"""The one worker-lifecycle engine behind campaigns and the service.

Every unit of work a campaign cell or a service job runs is the same
seeded exploration, :func:`execute_exploration`, in its own
fault-isolated worker process (:mod:`repro.core.supervise`).
:class:`JobEngine` is the one lifecycle around it.  A driver pushes
:class:`~repro.serve.registry.JobSpec` s keyed by an id — the
:class:`~repro.serve.service.ExplorationService` its admitted jobs, the
:class:`~repro.campaign.runner.CampaignRunner` its matrix cells — and
pumps :meth:`JobEngine.poll`, which launches queued attempts and
classifies every terminal one:

* ``done`` — recorded with its result and resource bill;
* ``shutdown`` — the worker honoured a SIGTERM after flushing its round
  checkpoint: the job is unfinished, not failed, so it is requeued at
  the *same* attempt (no retry budget spent) and resumes from that
  exact round;
* ``error`` / ``crash`` / ``hang`` (the watchdog fired) — retried after
  a seeded backoff while the retry budget lasts, then quarantined with
  its kind and last error.  A worker-reported ``DeadlineExceeded`` is
  the job outliving its own budget, not an infrastructure fault, and
  gets the kind :data:`KIND_DEADLINE`.

Every transition is recorded, durably, in the driver's
:class:`~repro.serve.registry.StudyRegistry` — one ledger class and one
file format for both drivers, the service's ``REGISTRY.json`` and the
campaign's ``MANIFEST.json``, each holding all four states.  Event and
counter names are built from ``(namespace, unit)``, ``("serve",
"job")`` or ``("campaign", "cell")``, e.g. ``serve.job_retry`` and
``campaign.cells_completed``.

A job's ``deadline_s`` is enforced twice: as an absolute monotonic
deadline on the worker's
:class:`~repro.core.resilience.ResilientBackend`, and by the watchdog,
which kills a worker that outlives it by ``watchdog_grace_s`` — so even
an evaluation stuck in foreign code cannot pin a worker slot.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..core.faults import CellFaultPlan
from ..core.resilience import RetryPolicy
from ..core.supervise import (
    OUTCOME_DONE,
    OUTCOME_HANG,
    OUTCOME_SHUTDOWN,
    ProcessSupervisor,
    WorkerResult,
    run_worker,
)
from ..obs.metrics import MetricsRegistry
from ..obs.telemetry import RunTelemetry
from .queue import JobQueue
from .registry import JobSpec, StudyRegistry

#: pump poll interval of the synchronous drive loops
POLL_S = 0.02

#: quarantine kind for jobs whose ResilientBackend deadline expired
KIND_DEADLINE = "deadline"


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def execute_exploration(spec: JobSpec, checkpoint: str) -> Dict[str, object]:
    """Run one seeded exploration; returns the worker's pipe message.

    This is the unit of work every campaign cell and every service job
    executes inside a fault-isolated worker, checkpointing each round
    to ``checkpoint``.  Everything under ``"result"`` is a
    deterministic function of ``spec`` — it feeds byte-compared reports
    — while the accounting under ``"resources"`` is explicitly
    non-deterministic and is kept out of them.

    ``spec.deadline_s`` (relative seconds) becomes an absolute monotonic
    deadline on the :class:`~repro.core.resilience.ResilientBackend`,
    so a job that outlives its budget fails fast with
    ``DeadlineExceeded`` instead of burning simulator time the tenant
    no longer wants.
    """
    # imported here so an injected-crash worker never pays (or breaks
    # on) the numeric stack import
    from ..core.backend import SerialBackend
    from ..core.context import RunContext
    from ..core.crossval import DEFAULT_FOLDS
    from ..core.explorer import DesignSpaceExplorer
    from ..core.training import TrainingConfig
    from ..experiments.studies import get_study, make_simulate_fn
    from ..obs.resources import ResourceMeter

    study = get_study(spec.study)
    backend: object = SerialBackend(make_simulate_fn(study, spec.workload))
    if spec.max_retries > 0 or spec.eval_timeout_s is not None \
            or spec.deadline_s is not None:
        from ..core.resilience import ResilientBackend

        backend = ResilientBackend(
            backend,
            policy=RetryPolicy(max_retries=spec.max_retries),
            timeout_s=spec.eval_timeout_s,
            deadline=(
                time.monotonic() + spec.deadline_s
                if spec.deadline_s is not None else None
            ),
        )
    with ResourceMeter() as meter:
        explorer = DesignSpaceExplorer(
            study.space,
            backend,
            batch_size=spec.batch_size,
            k=spec.k if spec.k is not None else DEFAULT_FOLDS,
            training=TrainingConfig.from_preset(spec.training),
            context=RunContext.seeded(spec.seed),
            min_folds=spec.min_folds,
            agent=spec.agent,
        )
        result = explorer.explore(
            target_error=spec.target_error,
            max_simulations=spec.budget,
            checkpoint=checkpoint,
        )
        predictions = result.predict_space()
        best_index = int(predictions.argmax())
        estimate = result.final_estimate
    n_failed = len(getattr(backend, "failures", ()))
    cell_result: Dict[str, object] = {
        "converged": bool(result.converged),
        "n_simulations": int(result.n_simulations),
        "n_rounds": len(result.rounds),
        "error_mean": float(estimate.mean),
        "error_std": float(estimate.std),
        "coverage": float(estimate.coverage),
        "fold_coverage": float(estimate.fold_coverage),
        "n_failed_evals": n_failed,
        "best_index": best_index,
        "best_ipc": float(predictions[best_index]),
        "rounds": [
            {"n_samples": r.n_samples, "error_mean": float(r.estimate.mean)}
            for r in result.rounds
        ],
    }
    if estimate.target_names:
        # only multi-target studies grow these keys, so scalar cells'
        # result dicts — and the byte-compared reports built from them —
        # are unchanged
        cell_result["target_names"] = list(estimate.target_names)
        cell_result["per_target_error"] = {
            name: {
                "mean": float(estimate.for_target(name).mean),
                "std": float(estimate.for_target(name).std),
            }
            for name in estimate.target_names
        }
    return {
        "status": "done",
        "result": cell_result,
        "resources": meter.usage.to_dict(),
    }


def _job_entry(conn: object, payload: Dict[str, object]) -> None:
    """Child-process entry point for one attempt."""
    run_worker(
        conn, payload,
        lambda p: execute_exploration(p["spec"], str(p["checkpoint"])),
    )


# ----------------------------------------------------------------------
# driver side
# ----------------------------------------------------------------------
class JobEngine:
    """Queue, launch, reap, retry and quarantine seeded explorations.

    Parameters
    ----------
    ledger:
        Where every transition is recorded (the service's registry, the
        campaign's manifest: both a :class:`StudyRegistry`).
    checkpoint_dir:
        Directory of the per-job exploration checkpoints
        (``<id>.ckpt``), so retried, requeued and recovered attempts
        resume from their last completed round.
    namespace / unit:
        The event and counter vocabulary, e.g. ``("serve", "job")``.
    max_workers:
        Concurrent worker processes.
    retries:
        Attempts a failed job gets after its first, before quarantine.
    retry_base_delay_s / retry_seed:
        The seeded-jitter backoff between attempts: one
        :class:`~repro.core.resilience.RetryPolicy` schedule shared by
        every job (delays never reach a report, so sharing is safe).
    faults:
        Optional seeded chaos plan keyed by job id: a pure function of
        ``(seed, id)``, so a faulted job fails on every attempt of every
        driver instance — which keeps chaos reports byte-identical.
    timeout_s:
        Watchdog bound for jobs that set no ``deadline_s`` (``None`` =
        no bound).
    watchdog_grace_s:
        How long past its ``deadline_s`` a worker may live before the
        watchdog kills it.
    telemetry / metrics:
        Observability hooks for the ``namespace`` vocabulary.
    """

    def __init__(
        self,
        ledger: StudyRegistry,
        checkpoint_dir: Path,
        *,
        namespace: str,
        unit: str,
        max_workers: int,
        retries: int,
        retry_base_delay_s: float,
        retry_seed: int,
        telemetry: RunTelemetry,
        metrics: MetricsRegistry,
        faults: Optional[CellFaultPlan] = None,
        timeout_s: Optional[float] = None,
        watchdog_grace_s: float = 30.0,
    ):
        if watchdog_grace_s <= 0:
            raise ValueError(
                f"watchdog_grace_s must be positive, got {watchdog_grace_s}"
            )
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {timeout_s}")
        self.ledger = ledger
        self.checkpoint_dir = Path(checkpoint_dir)
        self.namespace = namespace
        self.unit = unit
        self.max_workers = max_workers
        self.retries = retries
        self.faults = faults
        self.timeout_s = timeout_s
        self.watchdog_grace_s = watchdog_grace_s
        self.telemetry = telemetry
        self.metrics = metrics
        self.supervisor = ProcessSupervisor(_job_entry, unit=unit)
        self.queue = JobQueue()
        #: set by :meth:`stop`: nothing launches or requeues any more
        self.stopping = False
        self._jobs: Dict[str, Tuple[JobSpec, Dict[str, object]]] = {}
        self._next_attempt: Dict[str, int] = {}
        self._waiting: List[Tuple[float, str]] = []
        self._delays = RetryPolicy(
            max_retries=retries,
            base_delay_s=retry_base_delay_s,
            jitter=0.1 if retry_base_delay_s > 0 else 0.0,
            seed=retry_seed,
        ).schedule(retries)

    @property
    def n_queued(self) -> int:
        """Jobs queued or waiting out a retry backoff."""
        return len(self.queue) + len(self._waiting)

    @property
    def idle(self) -> bool:
        """No queued, waiting or running work."""
        return not self.n_queued and self.supervisor.n_running == 0

    def push(self, key: str, spec: JobSpec, **labels: object) -> None:
        """Queue ``key``'s first attempt; ``labels`` ride on its
        ``<unit>_start`` events."""
        self._jobs[key] = (spec, labels)
        self._next_attempt[key] = 1
        self.queue.push(key)

    def poll(self) -> bool:
        """One pump iteration: launch ready work, reap terminal workers.

        Returns whether anything progressed.  Never blocks.
        """
        progressed = False
        now = time.monotonic()
        ready = [w for w in self._waiting if w[0] <= now]
        if ready:
            self._waiting = [w for w in self._waiting if w[0] > now]
            for _, key in ready:
                self.queue.push_front(key)
        while not self.stopping and len(self.queue) \
                and self.supervisor.n_running < self.max_workers:
            self._launch(self.queue.pop())
            progressed = True
        for outcome in self.supervisor.poll():
            progressed = True
            self._settle(outcome)
        return progressed

    def stop(self, grace_s: float) -> None:
        """Stop launching, SIGTERM live workers, reap them for up to
        ``grace_s`` seconds, then terminate the rest (whose ledger state
        the driver's recovery handles)."""
        self.stopping = True
        self.supervisor.signal_all()
        deadline = time.monotonic() + grace_s
        while self.supervisor.n_running and time.monotonic() < deadline:
            if not self.poll():
                time.sleep(POLL_S)
        self.supervisor.shutdown()

    def _emit(self, event: str, key: str, **fields: object) -> None:
        self.telemetry.emit(
            f"{self.namespace}.{event}", **{f"{self.unit}_id": key}, **fields
        )

    def _launch(self, key: str) -> None:
        spec, labels = self._jobs[key]
        attempt = self._next_attempt[key]
        fault = self.faults.decide(key) if self.faults else None
        self.ledger.mark_running(key, attempt)
        payload: Dict[str, object] = {
            "spec": spec,
            "checkpoint": str(self.checkpoint_dir / f"{key}.ckpt"),
            "fault": fault,
            "hang_s": self.faults.hang_s if self.faults else 0.0,
        }
        timeout_s = (
            spec.deadline_s + self.watchdog_grace_s
            if spec.deadline_s is not None else self.timeout_s
        )
        self.supervisor.launch(key, payload, attempt, timeout_s=timeout_s)
        self._emit(
            f"{self.unit}_start", key, attempt=attempt, fault=fault, **labels
        )

    def _settle(self, outcome: WorkerResult) -> None:
        """Record one terminal attempt: done, requeue, retry or quarantine."""
        key, attempt, unit = outcome.key, outcome.attempt, self.unit
        if outcome.status == OUTCOME_DONE:
            self._record_done(outcome)
            return
        if outcome.status == OUTCOME_SHUTDOWN:
            self.ledger.mark_accepted(key)
            self._emit(f"{unit}_checkpointed", key, attempt=attempt)
            if not self.stopping:
                self.queue.push_front(key)
            return
        if outcome.status == OUTCOME_HANG:
            self.metrics.inc(f"{self.namespace}.watchdog_kills")
            self._emit("watchdog_kill", key, attempt=attempt)
        kind = outcome.status
        if outcome.error.startswith("DeadlineExceeded"):
            kind = KIND_DEADLINE
        if attempt <= self.retries:
            delay = self._delays[attempt - 1]
            self.metrics.inc(f"{self.namespace}.{unit}_retries")
            self._emit(
                f"{unit}_retry", key, attempt=attempt, kind=kind,
                delay_s=delay, error=outcome.error,
            )
            self.ledger.mark_accepted(key)
            self._next_attempt[key] = attempt + 1
            self._waiting.append((time.monotonic() + delay, key))
            return
        self.ledger.mark_quarantined(
            key, kind=kind, error=outcome.error, attempts=attempt
        )
        self.metrics.inc(f"{self.namespace}.{unit}s_quarantined")
        self._emit(
            f"{unit}_quarantined", key, kind=kind, attempts=attempt,
            error=outcome.error,
        )

    def _record_done(self, outcome: WorkerResult) -> None:
        ns, key = self.namespace, outcome.key
        resources = dict(outcome.message.get("resources") or {})
        self.ledger.mark_done(
            key,
            result=dict(outcome.message["result"]),  # type: ignore[arg-type]
            resources=resources,
            attempts=outcome.attempt,
        )
        self.metrics.inc(f"{ns}.{self.unit}s_completed")
        self.metrics.inc(
            f"{ns}.cpu_user_s", float(resources.get("cpu_user_s", 0.0))
        )
        self.metrics.inc(
            f"{ns}.cpu_system_s", float(resources.get("cpu_system_s", 0.0))
        )
        self.metrics.observe(
            f"{ns}.{self.unit}_wall_s", float(resources.get("wall_s", 0.0))
        )
        rss = float(resources.get("max_rss_kb", 0))
        if rss > (self.metrics.gauge_value(f"{ns}.max_rss_kb") or 0.0):
            self.metrics.gauge(f"{ns}.max_rss_kb", rss)
        self._emit(
            f"{self.unit}_done", key, attempt=outcome.attempt,
            wall_s=resources.get("wall_s"),
            max_rss_kb=resources.get("max_rss_kb"),
        )
