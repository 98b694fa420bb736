"""The HTTP face: handcrafted HTTP/1.1 on ``asyncio.start_server``.

No web framework — the service speaks a deliberately small HTTP/1.1
subset (one request per connection, ``Connection: close``) parsed by
hand, which keeps the dependency set at exactly the standard library and
the attack surface readable in one screen.  Routing comes from
:data:`~repro.service.protocol.ROUTES`; each route name maps to a
``_h_<name>`` method here, and a startup assertion keeps the two in
lockstep.

Responses are JSON with sorted keys except ``GET /jobs/{id}/result``
with ``Accept: text/plain``, which returns the report bytes verbatim —
the byte-for-byte surface the CI smoke job compares against the serial
CLI.

Graceful shutdown mirrors the CLI's Ctrl-C contract: SIGTERM/SIGINT
flip ``/healthz`` to ``draining`` (load balancers stop routing), the
listener closes, running jobs finish and their state flushes to the
store, then the process exits 0.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
from typing import Dict, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.robust.atomic import atomic_write_text
from repro.service.jobs import DONE, FAILED, JobManager
from repro.service.protocol import JobRequest, ProtocolError, ROUTES, match

__all__ = ["ReplayServer", "ServiceThread", "serve"]

#: Largest request body accepted (jobs are small JSON documents).
MAX_BODY = 1 << 20

#: Seconds a client has to deliver its request head and body; a request
#: not complete by then is answered 408 instead of holding the
#: connection open.
READ_DEADLINE = 10.0

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout", 409: "Conflict",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}


def _response(
    status: int,
    payload: object,
    *,
    content_type: str = "application/json",
    extra_headers: Tuple[Tuple[str, str], ...] = (),
) -> bytes:
    if content_type == "application/json":
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    else:
        body = payload if isinstance(payload, bytes) else str(payload).encode("utf-8")
    head = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    head.extend(f"{name}: {value}" for name, value in extra_headers)
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


def _error(status: int, message: str) -> bytes:
    extra = (("Retry-After", "1"),) if status == 429 else ()
    return _response(status, {"error": message}, extra_headers=extra)


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """One head line; 400 on a dropped connection or an over-long line
    (``readline`` raises ``ValueError`` past the stream's limit)."""
    try:
        return await reader.readline()
    except (ConnectionError, ValueError) as exc:
        raise ProtocolError(400, f"unreadable request: {exc}") from None


class ReplayServer:
    """Request parsing + dispatch over a :class:`JobManager`."""

    def __init__(self, manager: JobManager, metrics: Optional[MetricsRegistry] = None) -> None:
        self.manager = manager
        self.metrics = metrics if metrics is not None else manager.metrics
        self._handlers = {}
        for route in ROUTES:
            handler = getattr(self, f"_h_{route.name}", None)
            assert handler is not None, f"route {route.name!r} has no handler"
            self._handlers[route.name] = handler
        self._server: Optional[asyncio.AbstractServer] = None

    # -- lifecycle -----------------------------------------------------

    async def start(self, host: str, port: int) -> int:
        """Bind and listen; returns the bound port (useful with port 0)."""
        self.manager.bind(asyncio.get_running_loop())
        self._server = await asyncio.start_server(self._serve_one, host, port)
        return self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    # -- one connection ------------------------------------------------

    async def _serve_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            out = await self._handle(reader)
        except ProtocolError as exc:
            out = _error(exc.status, exc.message)
        except Exception as exc:  # never leak a traceback onto the wire
            out = _error(500, f"{type(exc).__name__}: {exc}")
        try:
            writer.write(out)
            await writer.drain()
        finally:
            writer.close()

    async def _handle(self, reader: asyncio.StreamReader) -> bytes:
        try:
            method, path, headers, body = await asyncio.wait_for(
                self._read_request(reader), READ_DEADLINE
            )
        except asyncio.TimeoutError:
            raise ProtocolError(
                408, f"request incomplete after {READ_DEADLINE}s"
            ) from None
        path, _, query = path.partition("?")
        try:
            route, params = match(method, path)
        except ProtocolError as exc:
            if exc.status == 405:
                return _response(
                    405, {"error": "method not allowed"},
                    extra_headers=(("Allow", exc.message),),
                )
            raise
        self.metrics.counter(f"service.http.{route.name}").inc()
        return self._handlers[route.name](params, body, headers, query)

    async def _read_request(self, reader: asyncio.StreamReader):
        method, path, headers = await self._read_head(reader)
        declared = headers.get("content-length", "0") or "0"
        if not (declared.isascii() and declared.isdigit()):
            raise ProtocolError(400, f"bad Content-Length {declared!r}")
        length = int(declared)
        if length > MAX_BODY:
            raise ProtocolError(413, f"body larger than {MAX_BODY} bytes")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise ProtocolError(
                400, f"body ended after {len(exc.partial)} of {length} bytes"
            ) from None
        return method, path, headers, body

    async def _read_head(self, reader: asyncio.StreamReader):
        request_line = await _read_line(reader)
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise ProtocolError(400, "malformed request line")
        method, path = parts[0], parts[1]
        headers: Dict[str, str] = {}
        while True:
            line = await _read_line(reader)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        return method, path, headers

    # -- handlers (one per route name) ---------------------------------

    def _h_health(self, params, body, headers, query) -> bytes:
        doc = self.manager.stats_doc()
        return _response(503 if self.manager.draining else 200, doc)

    def _h_metrics(self, params, body, headers, query) -> bytes:
        return _response(200, self.metrics.snapshot())

    def _h_submit(self, params, body, headers, query) -> bytes:
        request = JobRequest.from_json(body)
        job = self.manager.submit(request)
        return _response(202, job.status_doc())

    def _h_list_jobs(self, params, body, headers, query) -> bytes:
        tenant = None
        for pair in query.split("&"):
            name, _, value = pair.partition("=")
            if name == "tenant" and value:
                tenant = value
        return _response(200, {"jobs": self.manager.list_jobs(tenant)})

    def _h_status(self, params, body, headers, query) -> bytes:
        return _response(200, self.manager.get(params["id"]).status_doc())

    def _h_result(self, params, body, headers, query) -> bytes:
        job = self.manager.get(params["id"])
        if job.state == FAILED:
            raise ProtocolError(409, f"job {job.id} failed: {job.error}")
        if job.state != DONE or job.result is None:
            raise ProtocolError(409, f"job {job.id} is {job.state}, not done")
        if "text/plain" in headers.get("accept", ""):
            report = job.result["report"]
            return _response(200, report, content_type="text/plain")
        return _response(200, dict(job.result, id=job.id))

    def _h_cancel(self, params, body, headers, query) -> bytes:
        return _response(200, self.manager.cancel(params["id"]).status_doc())


async def serve(
    store_root: str,
    host: str = "127.0.0.1",
    port: int = 8979,
    *,
    slots: int = 4,
    max_queued: int = 256,
    tenant_slots: int = 64,
    pool_jobs: int = 2,
    default_jobs: int = 1,
    port_file: Optional[str] = None,
    ready: Optional[threading.Event] = None,
    stop: Optional[asyncio.Event] = None,
    announce=print,
) -> None:
    """Run the service until SIGTERM/SIGINT (or ``stop`` is set).

    ``port_file`` (written atomically once bound) lets wrappers — the CI
    smoke job, the bench harness — serve on an ephemeral ``--port 0``
    and discover the real port without parsing log output.
    """
    manager = JobManager(
        store_root,
        slots=slots,
        max_queued=max_queued,
        tenant_slots=tenant_slots,
        pool_jobs=pool_jobs,
        default_jobs=default_jobs,
    )
    server = ReplayServer(manager)
    bound = await server.start(host, port)
    if port_file:
        atomic_write_text(port_file, f"{bound}\n")
    announce(f"pres serve: listening on http://{host}:{bound} "
             f"(store {store_root}, {slots} slots)")
    stop = stop if stop is not None else asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):
            pass  # non-main thread or platform without signal support
    if ready is not None:
        ready.set()
    await stop.wait()
    manager.draining = True  # /healthz flips to draining immediately
    announce("pres serve: draining (finishing running jobs) ...")
    await server.stop()
    summary = await manager.drain()
    announce(f"pres serve: drained ({summary['finished']} finished, "
             f"{summary['cancelled']} cancelled); bye")


class ServiceThread:
    """An in-process server for tests and benchmarks.

    Boots :func:`serve` on a background thread with its own event loop,
    waits until the socket is bound, and exposes the ephemeral port.
    ``close()`` performs the same graceful drain as SIGTERM.
    """

    def __init__(self, store_root: str, **kwargs) -> None:
        self.port: Optional[int] = None
        self._ready = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._failure: Optional[BaseException] = None
        port_path = kwargs.pop("port_file", None)

        async def _main() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()

            def _announce(line: str) -> None:
                prefix = "pres serve: listening on http://"
                if line.startswith(prefix):
                    self.port = int(line.rsplit(":", 1)[1].split()[0].rstrip("/"))

            await serve(
                store_root, port=0, stop=self._stop, ready=self._ready,
                port_file=port_path, announce=_announce, **kwargs,
            )

        def _run() -> None:
            try:
                asyncio.run(_main())
            except BaseException as exc:  # surface boot failures to join()
                self._failure = exc
                self._ready.set()

        self._thread = threading.Thread(target=_run, name="pres-serve", daemon=True)
        self._thread.start()
        self._ready.wait(30.0)
        if self._failure is not None:
            raise RuntimeError(f"service failed to start: {self._failure}")
        if self.port is None:
            raise RuntimeError("service did not bind within 30s")

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def close(self) -> None:
        """Graceful drain, same path as SIGTERM; joins the thread."""
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(60.0)

    def __enter__(self) -> "ServiceThread":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
