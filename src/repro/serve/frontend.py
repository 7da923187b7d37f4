"""The stdlib-only asyncio JSON front end of ``repro serve``.

A deliberately small HTTP/1.1 server (no frameworks — the container
bakes in nothing beyond the standard library) wrapping one
:class:`~repro.serve.service.ExplorationService`:

=======  =============  ====================================================
method   path           semantics
=======  =============  ====================================================
GET      ``/healthz``   liveness (200 while the loop runs, even draining)
GET      ``/readyz``    readiness; 200/503 + the ``serve-status`` document
POST     ``/jobs``      submit ``{"tenant": ..., "spec": {...}}``; 202
                        accepted, 400 malformed, 429 shed, 503 draining
GET      ``/jobs``      all jobs' lifecycle states
GET      ``/jobs/<id>`` one job's full status (404 unknown)
GET      ``/report``    the deterministic per-job outcome map
POST     ``/drain``     stop admitting (in-flight work continues)
=======  =============  ====================================================

The event loop serves I/O; the service's :meth:`poll` pump runs as a
background task between requests, so accepted jobs progress while the
server answers probes.  SIGTERM/SIGINT trigger the graceful-drain
protocol: stop admitting, SIGTERM in-flight workers (they exit at
their next round-checkpoint boundary), demote unfinished jobs, rewrite
the registry atomically, exit.  A SIGKILL skips all of that and the
next start recovers from the registry instead — the chaos smoke
exercises exactly that path.
"""

from __future__ import annotations

import asyncio
import json
import signal
from typing import Callable, Dict, Optional, Tuple

from .health import healthz_payload, readyz_payload
from .queue import REJECT_DRAINING
from .registry import JobSpecError
from .service import ExplorationService

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: bound on request head + body size; submissions are small JSON specs
_MAX_BODY = 1 << 20


class ServeFrontend:
    """One server bound to one service; see the module docstring."""

    def __init__(
        self,
        service: ExplorationService,
        host: str = "127.0.0.1",
        port: int = 0,
        poll_s: float = 0.05,
    ):
        self.service = service
        self.host = host
        self.port = port
        self.poll_s = poll_s
        self._shutdown_requested = False

    # -- routing (pure, synchronous) ------------------------------------
    def _submit(self, body: bytes) -> Tuple[int, Dict[str, object]]:
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return 400, {"error": f"request body is not valid JSON: {exc}"}
        if not isinstance(payload, dict):
            return 400, {"error": "request body must be a JSON object"}
        tenant = payload.get("tenant", "anonymous")
        spec = payload.get("spec")
        if not isinstance(spec, dict):
            return 400, {
                "error": "request body must carry a 'spec' object"
            }
        try:
            result = self.service.submit(spec, tenant=tenant)
        except JobSpecError as exc:
            return 400, {"error": str(exc)}
        if result.accepted:
            return 202, {"accepted": True, "job_id": result.job_id}
        assert result.rejection is not None
        status = 503 if result.rejection.reason == REJECT_DRAINING else 429
        return status, {
            "accepted": False,
            "reason": result.rejection.reason,
            "detail": result.rejection.detail,
        }

    def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, object]]:
        if path == "/healthz" and method == "GET":
            return 200, healthz_payload(self.service)
        if path == "/readyz" and method == "GET":
            return readyz_payload(self.service)
        if path == "/jobs" and method == "POST":
            return self._submit(body)
        if path == "/jobs" and method == "GET":
            return 200, {
                "jobs": {
                    job_id: {
                        "status": record["status"],
                        "tenant": record["tenant"],
                    }
                    for job_id, record in sorted(
                        self.service.registry.records.items()
                    )
                }
            }
        if path.startswith("/jobs/") and method == "GET":
            job_id = path[len("/jobs/"):]
            record = self.service.job_status(job_id)
            if record is None:
                return 404, {"error": f"unknown job {job_id!r}"}
            return 200, record
        if path == "/report" and method == "GET":
            return 200, {"jobs": self.service.report()}
        if path == "/drain" and method == "POST":
            self.service.drain()
            return 200, {"draining": True}
        if path in ("/healthz", "/readyz", "/jobs", "/report", "/drain") \
                or path.startswith("/jobs/"):
            return 405, {"error": f"method {method} not allowed on {path}"}
        return 404, {"error": f"no such endpoint {path!r}"}

    # -- the wire -------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        status, payload = 400, {"error": "malformed request"}
        try:
            request_line = await asyncio.wait_for(
                reader.readline(), timeout=10.0
            )
            parts = request_line.decode("latin-1").split()
            if len(parts) >= 2:
                method, path = parts[0].upper(), parts[1]
                content_length = 0
                while True:
                    line = await asyncio.wait_for(
                        reader.readline(), timeout=10.0
                    )
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    if name.strip().lower() == "content-length":
                        content_length = int(value.strip())
                body = b""
                if 0 < content_length <= _MAX_BODY:
                    body = await asyncio.wait_for(
                        reader.readexactly(content_length), timeout=10.0
                    )
                status, payload = self._route(method, path, body)
        except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                ConnectionError, ValueError):
            pass
        except Exception as exc:  # noqa: BLE001 - never kill the server
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        try:
            body_bytes = json.dumps(
                payload, sort_keys=True, indent=2
            ).encode("utf-8") + b"\n"
            head = (
                f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body_bytes)}\r\n"
                f"Connection: close\r\n\r\n"
            ).encode("latin-1")
            writer.write(head + body_bytes)
            await writer.drain()
        except ConnectionError:  # pragma: no cover - client went away
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover
                pass

    # -- lifecycle ------------------------------------------------------
    def request_shutdown(self) -> None:
        """The SIGTERM/SIGINT entry: drain now, stop the loop soon."""
        self._shutdown_requested = True
        self.service.drain()

    async def run(
        self,
        drain_on_idle: bool = False,
        ready: Optional[Callable[[str, int], None]] = None,
    ) -> None:
        """Serve until signalled (or idle, with ``drain_on_idle``).

        ``ready(host, port)`` fires once the socket is bound — with
        ``port=0`` this is how callers learn the ephemeral port.  On
        exit the service has completed its graceful-drain protocol and
        the registry on disk is consistent.
        """
        server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = server.sockets[0].getsockname()[1]
        loop = asyncio.get_running_loop()
        handled_signals = []
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_shutdown)
                handled_signals.append(signum)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-Unix loop; Ctrl-C still raises KeyboardInterrupt
        if ready is not None:
            ready(self.host, self.port)
        try:
            while not self._shutdown_requested:
                progressed = self.service.poll()
                if drain_on_idle and self.service.idle \
                        and self.service.registry.records:
                    # idle AND has seen work: a fresh empty service
                    # stays up to take submissions rather than exiting
                    # the instant it binds
                    break
                await asyncio.sleep(0.0 if progressed else self.poll_s)
        finally:
            for signum in handled_signals:
                loop.remove_signal_handler(signum)
            server.close()
            await server.wait_closed()
            self.service.shutdown()


def serve_forever(
    service: ExplorationService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    drain_on_idle: bool = False,
    poll_s: float = 0.05,
    ready: Optional[Callable[[str, int], None]] = None,
) -> None:
    """Blocking convenience wrapper: build a front end and run it."""
    frontend = ServeFrontend(service, host, port, poll_s=poll_s)
    asyncio.run(frontend.run(drain_on_idle=drain_on_idle, ready=ready))
