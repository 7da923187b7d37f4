"""``repro.serve``: the long-lived, crash-safe exploration service.

The one-shot CLI pipeline (``repro explore``, ``repro campaign``) runs
a study and exits; this package keeps the same machinery resident and
multi-tenant.  The layering, front to back:

* :mod:`~repro.serve.frontend` — stdlib asyncio JSON/HTTP front end
  (``repro serve``), probes included;
* :mod:`~repro.serve.health` — ``/healthz`` / ``/readyz`` payloads
  (the schema-checked ``serve-status`` document);
* :mod:`~repro.serve.service` — admission, tenants, drain and
  recovery around the shared lifecycle engine;
* :mod:`~repro.serve.queue` — bounded FIFO + admission policy
  (load shedding with reasons, per-tenant accounting);
* :mod:`~repro.serve.supervisor` — the one worker-lifecycle engine
  (launch, reap, retry, quarantine) that campaigns run on too: one
  fault-isolated worker process per job attempt, deadlines enforced
  twice (soft in the worker's ResilientBackend, hard at the watchdog);
* :mod:`~repro.serve.registry` — the durable job ledger, persisted
  through the checksummed ``.prev``-rotated JSON-checkpoint envelope.

Every guarantee the batch layers established survives the move to a
service: accepted jobs complete bit-identically across crashes, kills
and restarts, or quarantine with a recorded reason; overload is shed
at the front door with ``serve.rejected`` accounting instead of
degrading admitted work.
"""

from .health import SERVE_STATUS_KIND, SERVE_STATUS_SCHEMA  # noqa: F401
from .frontend import ServeFrontend, serve_forever  # noqa: F401
from .queue import AdmissionPolicy, JobQueue, Rejection  # noqa: F401
from .registry import (  # noqa: F401
    JobSpec,
    JobSpecError,
    ServeError,
    StudyRegistry,
)
from .service import ExplorationService, SubmitResult  # noqa: F401

__all__ = [
    "AdmissionPolicy",
    "ExplorationService",
    "JobQueue",
    "JobSpec",
    "JobSpecError",
    "Rejection",
    "SERVE_STATUS_KIND",
    "SERVE_STATUS_SCHEMA",
    "ServeError",
    "ServeFrontend",
    "StudyRegistry",
    "SubmitResult",
    "serve_forever",
]
