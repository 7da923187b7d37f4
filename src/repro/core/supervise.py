"""Worker-process supervision: the crash-isolation core.

Every campaign cell and service job runs as a dedicated
``multiprocessing`` worker process, so a unit that crashes, hangs or
corrupts its interpreter takes down only itself.  This module is the
process-level machinery under the one lifecycle engine,
:class:`repro.serve.supervisor.JobEngine`:

* :class:`ProcessSupervisor` — launch one worker per unit attempt
  (result returned over a pipe), poll for terminal workers, classify
  every way an attempt can end (``done`` / ``error`` / ``crash`` /
  ``hang`` / ``shutdown``) with *deterministic* failure messages, and
  enforce a per-attempt wall-clock watchdog (terminate, then kill);
* :func:`run_worker` — the worker-side entry discipline: injected
  faults fire before any real work, real failures are reported over
  the pipe, and a SIGTERM handler is installed so ``kill <pid>`` exits
  *after* the current round's checkpoint is flushed (see below);
* the **cooperative-shutdown protocol** — the SIGTERM handler only
  sets a flag; :func:`poll_shutdown` raises :class:`WorkerShutdown` at
  safe points (the exploration loop checks it right after each round's
  checkpoint save), and :func:`run_worker` turns that into
  :data:`SHUTDOWN_EXIT` so a supervisor can tell a graceful flush from
  a crash.  A SIGTERM'd worker therefore loses at most the round in
  flight — never a completed, checkpointed one — and a relaunched
  attempt resumes bit-identically, exactly like the SIGKILL story.

The supervisor emits no telemetry and decides no policy of its own:
the engine turns outcomes into retries, requeues and quarantines, and
into the ``campaign.*`` / ``serve.*`` vocabulary of the driver it runs
for, so each layer's event stream stays self-describing.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional

from .faults import INJECTED_CRASH_EXIT

#: exit code of a worker that honoured SIGTERM after flushing its
#: round checkpoint (distinct from crashes so supervisors can narrate
#: the difference)
SHUTDOWN_EXIT = 98

#: outcome vocabulary of :meth:`ProcessSupervisor.poll`
OUTCOME_DONE = "done"
OUTCOME_ERROR = "error"
OUTCOME_CRASH = "crash"
OUTCOME_HANG = "hang"
OUTCOME_SHUTDOWN = "shutdown"

#: grace between ``terminate()`` and ``kill()`` when a watchdog fires
_TERMINATE_GRACE_S = 2.0


class WorkerShutdown(BaseException):
    """Raised at a safe point after SIGTERM requested a graceful exit.

    Derives from :class:`BaseException` so ordinary ``except
    Exception`` recovery code never swallows a shutdown request.
    """


# ----------------------------------------------------------------------
# cooperative shutdown (worker side)
# ----------------------------------------------------------------------
_SHUTDOWN = {"requested": False}


def _on_sigterm(signum: int, frame: object) -> None:  # pragma: no cover
    _SHUTDOWN["requested"] = True


def install_sigterm_flush_handler() -> None:
    """Make SIGTERM request a checkpoint-flushing exit instead of dying.

    The handler only sets a flag; work continues until the next
    :func:`poll_shutdown` call — which the exploration loop places
    immediately *after* each round's checkpoint save — so the on-disk
    checkpoint always describes a complete round when the process
    exits.  Must be called from the process's main thread (a
    ``signal`` restriction); worker entry points do.
    """
    _SHUTDOWN["requested"] = False
    signal.signal(signal.SIGTERM, _on_sigterm)


def reset_shutdown() -> None:
    """Clear a pending shutdown request (tests, and fresh workers)."""
    _SHUTDOWN["requested"] = False


def shutdown_requested() -> bool:
    """Whether a SIGTERM has requested a graceful exit."""
    return _SHUTDOWN["requested"]


def poll_shutdown() -> None:
    """Raise :class:`WorkerShutdown` if SIGTERM asked this process to stop.

    Called at safe points only — after a completed round's checkpoint
    is on disk — so honouring the request never loses recorded work.
    """
    if _SHUTDOWN["requested"]:
        raise WorkerShutdown(
            "SIGTERM received; exiting after the round checkpoint flush"
        )


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def run_worker(
    conn: object,
    payload: Dict[str, object],
    execute: Callable[[Dict[str, object]], Dict[str, object]],
) -> None:
    """The worker-process entry discipline of every cell and job attempt.

    Installs the SIGTERM flush handler, fires any injected fault from
    the payload (``"crash"`` exits hard with
    :data:`~repro.core.faults.INJECTED_CRASH_EXIT`, no Python teardown
    — indistinguishable from a segfault to the supervisor; ``"hang"``
    sleeps past any sane watchdog), then runs ``execute(payload)`` and
    sends its message over the pipe.  Real failures are reported as
    ``error`` records; a honoured SIGTERM exits with
    :data:`SHUTDOWN_EXIT`; a dead worker with no message is a crash.
    """
    install_sigterm_flush_handler()
    try:
        fault = payload.get("fault")
        if fault == "crash":
            os._exit(INJECTED_CRASH_EXIT)
        if fault == "hang":
            time.sleep(float(payload.get("hang_s", 3600.0)))
        message = execute(payload)
    except WorkerShutdown:
        # the round checkpoint is already on disk; the exit code is the
        # whole report
        os._exit(SHUTDOWN_EXIT)
    except BaseException as exc:  # noqa: BLE001 - the pipe is the report
        try:
            conn.send(  # type: ignore[attr-defined]
                {
                    "status": "error",
                    "error": f"{type(exc).__name__}: {exc}",
                }
            )
        finally:
            os._exit(1)
    conn.send(message)  # type: ignore[attr-defined]
    conn.close()  # type: ignore[attr-defined]


# ----------------------------------------------------------------------
# supervisor side
# ----------------------------------------------------------------------
@dataclass
class WorkerHandle:
    """Book-keeping for one in-flight worker attempt."""

    process: mp.Process
    conn: object
    key: str
    attempt: int
    deadline: Optional[float]
    timeout_s: Optional[float]


@dataclass
class WorkerResult:
    """One terminal worker attempt, classified.

    ``status`` is one of :data:`OUTCOME_DONE` (``message`` holds the
    worker's payload), :data:`OUTCOME_ERROR` (worker reported an
    exception), :data:`OUTCOME_CRASH` (worker died without a message),
    :data:`OUTCOME_HANG` (the watchdog fired) or
    :data:`OUTCOME_SHUTDOWN` (the worker honoured SIGTERM after
    flushing its checkpoint).  Failure messages are deterministic so
    quarantine records survive byte-identity comparisons.
    """

    key: str
    attempt: int
    status: str
    message: Dict[str, object] = field(default_factory=dict)
    error: str = ""


class ProcessSupervisor:
    """Launches and reaps fault-isolated worker processes.

    Parameters
    ----------
    entry:
        The worker-process target, called as ``entry(conn, payload)``.
        Use :func:`run_worker` inside it for the shared fault/SIGTERM/
        error-reporting discipline.
    unit:
        What one worker runs, used in deterministic failure messages
        (``"cell"`` for campaigns, ``"job"`` for the service) and in
        process names (``repro-<unit>-<key>``, for ``ps`` legibility).
    """

    def __init__(
        self,
        entry: Callable[[object, Dict[str, object]], None],
        *,
        unit: str = "worker",
    ):
        self.entry = entry
        self.unit = unit
        self._running: Dict[str, WorkerHandle] = {}

    # -- introspection --------------------------------------------------
    @property
    def n_running(self) -> int:
        return len(self._running)

    def pids(self) -> Dict[str, int]:
        """Live worker pids by key (for status endpoints and chaos)."""
        return {
            key: handle.process.pid
            for key, handle in self._running.items()
            if handle.process.pid is not None
        }

    # -- lifecycle ------------------------------------------------------
    def launch(
        self,
        key: str,
        payload: Dict[str, object],
        attempt: int,
        timeout_s: Optional[float] = None,
    ) -> WorkerHandle:
        """Start one worker attempt for ``key`` (must not be running)."""
        if key in self._running:
            raise RuntimeError(f"{self.unit} {key!r} is already running")
        parent_conn, child_conn = mp.Pipe(duplex=False)
        process = mp.Process(
            target=self.entry,
            args=(child_conn, payload),
            name=f"repro-{self.unit}-{key}",
        )
        process.start()
        child_conn.close()
        deadline = (
            time.monotonic() + timeout_s if timeout_s is not None else None
        )
        handle = WorkerHandle(
            process=process,
            conn=parent_conn,
            key=key,
            attempt=attempt,
            deadline=deadline,
            timeout_s=timeout_s,
        )
        self._running[key] = handle
        return handle

    def _reap(self, handle: WorkerHandle) -> Optional[WorkerResult]:
        """Classify one attempt; ``None`` while it is still running."""
        process, conn = handle.process, handle.conn
        result = partial(WorkerResult, handle.key, handle.attempt)
        if handle.deadline is not None and process.is_alive() \
                and time.monotonic() >= handle.deadline:
            process.terminate()
            process.join(timeout=_TERMINATE_GRACE_S)
            if process.is_alive():  # pragma: no cover - stubborn worker
                process.kill()
                process.join()
            conn.close()
            return result(OUTCOME_HANG, error=(
                f"{self.unit} exceeded its {handle.timeout_s}s "
                f"wall-clock watchdog"
            ))
        if process.is_alive():
            return None
        process.join()
        message: Optional[Dict[str, object]] = None
        if conn.poll():  # type: ignore[attr-defined]
            try:
                message = conn.recv()  # type: ignore[attr-defined]
            except EOFError:  # pragma: no cover - torn pipe
                message = None
        conn.close()  # type: ignore[attr-defined]
        if message is None:
            if process.exitcode == SHUTDOWN_EXIT:
                return result(OUTCOME_SHUTDOWN, error=(
                    f"{self.unit} exited after a SIGTERM checkpoint flush"
                ))
            if process.exitcode == -signal.SIGTERM:
                # SIGTERM landed before the worker installed its flush
                # handler (the fork-to-install window), so the default
                # disposition killed it.  The ask was still "stop"; the
                # last completed round's checkpoint survives, so this is
                # an unfinished unit, not a crash.
                return result(
                    OUTCOME_SHUTDOWN,
                    error=f"{self.unit} was stopped by SIGTERM",
                )
            return result(
                OUTCOME_CRASH,
                error=f"worker exited with code {process.exitcode}",
            )
        if message.get("status") == "done":
            return result(OUTCOME_DONE, message=message)
        return result(
            OUTCOME_ERROR, error=str(message.get("error", "unknown error"))
        )

    def poll(self) -> List[WorkerResult]:
        """Reap every terminal attempt (empty while all keep running)."""
        finished: List[WorkerResult] = []
        for handle in list(self._running.values()):
            result = self._reap(handle)
            if result is not None:
                del self._running[handle.key]
                finished.append(result)
        return finished

    def signal_all(self) -> None:
        """SIGTERM every live worker: each flushes its round checkpoint
        and exits (:data:`SHUTDOWN_EXIT`) — the graceful half of a stop.
        The supervisor keeps tracking them until :meth:`poll` reaps the
        exits.
        """
        for handle in self._running.values():
            if handle.process.is_alive() and handle.process.pid is not None:
                try:
                    os.kill(handle.process.pid, signal.SIGTERM)
                except ProcessLookupError:  # pragma: no cover - raced exit
                    pass

    def shutdown(self) -> None:
        """Terminate every live worker (a dying driver must not leak)."""
        for handle in self._running.values():
            if handle.process.is_alive():
                handle.process.terminate()
        for handle in self._running.values():
            handle.process.join(timeout=_TERMINATE_GRACE_S)
            if handle.process.is_alive():  # pragma: no cover - stubborn
                handle.process.kill()
                handle.process.join()
        self._running.clear()
