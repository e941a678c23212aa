"""One HTTP front-end for the diagnostics plane, shared by every surface.

The single-process service (:class:`repro.service.serve.TraversalServer`)
and the fleet (:class:`repro.fleet.server.FleetServer`) answer the same
pull endpoints, each with its own payloads:

* ``GET /metrics``  — Prometheus/OpenMetrics text exposition;
* ``GET /healthz``  — readiness JSON (HTTP 503 while degraded);
* ``GET /statsz``   — the strict-JSON stats snapshot;
* ``GET /profilez`` — kernel-profiler attribution;
* ``GET /tracez``   — the newest spans (``?limit=N``; the fleet also
  answers ``?format=chrome`` with a Chrome ``trace_event`` export);
* ``GET /logz``     — the structured event log (``?limit=N``,
  ``?level=warn`` severity floor, ``?trace_id=...``; the fleet also
  filters ``?worker=w0``);
* ``GET /debugz``   — one strict-JSON diagnostics snapshot.

Everything that is not a payload lives here, once: the listener and
its request handler, the route table and the 404 route list, parsing
and validation of the query parameters (a malformed one answers 400
with a JSON error body, on every route), the strict-JSON encoder,
idempotent shutdown, and the SIGTERM/SIGINT loop that serve mode and
the fleet CLI both block in.

``http.server`` is imported on first listen, so a process that serves
no HTTP never loads it.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

import numpy as np

from repro.telemetry.logging import LEVELS
from repro.telemetry.metrics import OPENMETRICS_CONTENT_TYPE

if TYPE_CHECKING:
    from http.server import ThreadingHTTPServer

#: OpenMetrics exposition content type — the format the registry emits
#: (exemplars require it; a real Prometheus negotiates and parses it).
METRICS_CONTENT_TYPE = OPENMETRICS_CONTENT_TYPE
JSON_CONTENT_TYPE = "application/json; charset=utf-8"

#: every route a surface answers, in the order the 404 body lists them.
ROUTES = (
    "/metrics", "/healthz", "/statsz", "/profilez",
    "/tracez", "/logz", "/debugz",
)

#: items ``/tracez`` and ``/logz`` return when the request names no
#: ``?limit=N``.
DEFAULT_LIMIT = 256

#: accepted ``?format=`` values.
FORMATS = ("json", "chrome")

#: ``(status, content type, body)`` — what :meth:`DiagnosticsServer.respond`
#: returns and the request handler writes.
Response = Tuple[int, str, bytes]


def to_jsonable(obj: Any) -> Any:
    """Recursively convert a payload to strict-JSON-safe primitives.

    Numpy scalars/arrays become Python numbers/lists; non-finite floats
    become ``None`` — the NaN-free contract of
    :mod:`repro.service.stats` extended to every payload
    (``json.dumps(..., allow_nan=False)`` must never see a bare ``NaN``
    token, even for an empty-worker fleet snapshot).
    """
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return to_jsonable(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if np.isfinite(f) else None
    if obj is None or isinstance(obj, str):
        return obj
    return str(obj)


def json_response(status: int, payload: Any) -> Response:
    """Encode one JSON answer.

    ``allow_nan=False``: the exports are NaN-free by design and a
    standards-strict scraper must never receive a bare ``NaN`` token;
    numpy leaves go through :func:`to_jsonable`.
    """
    body = json.dumps(
        payload, indent=2, allow_nan=False, default=to_jsonable
    ).encode()
    return status, JSON_CONTENT_TYPE, body


class BadRequest(ValueError):
    """A malformed query parameter: the client's error, answered 400."""


@dataclass(frozen=True)
class Query:
    """The validated query string every payload builder receives."""

    #: ``?limit=N`` (None when absent; see :meth:`cap`).
    limit: Optional[int] = None
    #: ``?level=`` severity floor, one of :data:`LEVELS`.
    level: Optional[str] = None
    #: ``?trace_id=`` exact-match filter.
    trace_id: Optional[str] = None
    #: ``?worker=`` exact-match filter (fleet ``/logz``).
    worker: Optional[str] = None
    #: ``?format=``, one of :data:`FORMATS`.
    format: str = "json"

    @classmethod
    def parse(cls, raw: str) -> "Query":
        """Parse and validate; raises :class:`BadRequest`.  Repeated
        parameters keep their last value; unknown ones are ignored."""
        params = {k: v[-1] for k, v in parse_qs(raw).items()}
        limit = params.get("limit")
        if limit is not None:
            try:
                limit = int(limit)
            except ValueError:
                raise BadRequest(
                    f"limit must be an integer, got {limit!r}"
                ) from None
            if limit < 0:
                raise BadRequest(f"limit must be >= 0, got {limit}")
        level = params.get("level")
        if level is not None and level not in LEVELS:
            raise BadRequest(
                f"level must be one of {list(LEVELS)}, got {level!r}"
            )
        fmt = params.get("format", "json")
        if fmt not in FORMATS:
            raise BadRequest(
                f"format must be one of {list(FORMATS)}, got {fmt!r}"
            )
        return cls(limit, level, params.get("trace_id"),
                   params.get("worker"), fmt)

    def cap(self) -> int:
        """Item cap for ``/tracez`` and ``/logz``: the requested limit,
        else :data:`DEFAULT_LIMIT`.  ``0`` means no items."""
        return DEFAULT_LIMIT if self.limit is None else self.limit


def newest(items: List[Any], limit: Optional[int]) -> List[Any]:
    """The newest ``limit`` items (all when None, none when 0)."""
    if limit is None:
        return items
    return items[-limit:] if limit else []


#: what a payload builder returns: a status and either a JSON payload
#: or, for ``/metrics``, the exposition text.
Payload = Tuple[int, Any]


class DiagnosticsServer:
    """The listener and routing every diagnostics surface shares.

    A surface subclasses this and implements one builder per route
    (``metrics``, ``healthz``, ``statsz``, ``profilez``, ``tracez``,
    ``logz``, ``debugz``), each taking the parsed :class:`Query` and
    returning ``(status, payload)``: a dict for JSON, a str for the
    metrics exposition.  Two hooks frame the lifecycle:
    :meth:`_start_background` starts the surface's own threads once
    the listener is up, and :meth:`_stop` stops them and drains,
    returning the report :meth:`shutdown` hands back.
    """

    #: the ``Server:`` response header.
    server_version = "repro/1.0"

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.host = host
        self.port = port
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._shutdown_lock = threading.Lock()
        self._report: Optional[Dict[str, Any]] = None

    # -- routing ---------------------------------------------------------

    def respond(self, path: str) -> Response:
        """Route one GET; returns ``(status, content_type, body)``.

        Handlers and tests share it, so endpoint behavior is testable
        without sockets.
        """
        try:
            parts = urlsplit(path)
        except ValueError as exc:  # e.g. "//[": an unparseable authority
            return json_response(400, {"error": f"bad request target: {exc}"})
        route = parts.path.rstrip("/") or "/"
        if route not in ROUTES:
            return json_response(404, {
                "error": f"no route {parts.path!r}",
                "routes": list(ROUTES),
            })
        try:
            query = Query.parse(parts.query)
        except BadRequest as exc:
            return json_response(400, {"error": str(exc)})
        status, payload = getattr(self, route[1:])(query)
        if isinstance(payload, str):
            return status, METRICS_CONTENT_TYPE, payload.encode()
        return json_response(status, payload)

    # -- lifecycle -------------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Bind, serve on a daemon thread, start the surface's threads.

        Returns the bound ``(host, port)`` — with ``port=0`` the OS
        picks a free one, which the smoke tests rely on.
        """
        if self._httpd is not None:
            raise RuntimeError("server already started")
        # Imported on first listen: a process that serves no HTTP never
        # loads http.server, http.client or ssl.
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        surface = self

        class _Handler(BaseHTTPRequestHandler):
            server_version = surface.server_version
            protocol_version = "HTTP/1.1"

            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                try:
                    status, ctype, body = surface.respond(self.path)
                except Exception as exc:  # defensive: a handler bug
                    # must answer 500, not kill the connection thread.
                    status, ctype, body = json_response(
                        500, {"error": repr(exc)}
                    )
                self.send_response(status)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, fmt, *args) -> None:
                pass  # keep scrape traffic off stderr

        self._httpd = ThreadingHTTPServer((self.host, self.port), _Handler)
        self._httpd.daemon_threads = True
        self.host, self.port = self._httpd.server_address[:2]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="diagnostics-http",
            daemon=True,
        )
        self._thread.start()
        self._start_background()
        return self.host, self.port

    def shutdown(self, drain: bool = True) -> Dict[str, Any]:
        """Stop the surface's threads, drain (see :meth:`_stop`), close
        the listener; returns the drain report with an ``ok`` verdict.

        Every shutdown drains; ``drain`` is accepted only so existing
        ``shutdown(drain=True)`` calls keep working.  Idempotent — the
        signal loop's finally-block and a caller may race to call it;
        later calls wait for the first and return its report.
        """
        with self._shutdown_lock:
            if self._report is None:
                self._report = self._stop()
                if self._httpd is not None:
                    self._httpd.shutdown()
                    self._httpd.server_close()
                if self._thread is not None:
                    self._thread.join(timeout=5.0)
        return self._report

    # -- surface hooks ---------------------------------------------------

    def _start_background(self) -> None:
        """Start the surface's own threads (after the listener is up)."""

    def _stop(self) -> Dict[str, Any]:
        """Stop the surface's threads and drain; the shutdown report."""
        raise NotImplementedError

    def banner(self, host: str, port: int) -> str:
        """The line announced once the listener is up."""
        raise NotImplementedError

    def verdict(self, report: Dict[str, Any]) -> List[str]:
        """The lines announced after shutdown, from its report."""
        raise NotImplementedError


def serve_until_signalled(
    server: DiagnosticsServer,
    *,
    duration_s: Optional[float] = None,
    announce: Callable[[str], None] = print,
) -> int:
    """Blocking serve loop with SIGTERM/SIGINT graceful drain.

    Runs until a signal arrives (or ``duration_s`` elapses, for
    scripted smoke runs), then shuts the server down with a full
    drain.  Returns a process exit code: 0 only when the shutdown
    report says the drain was clean.
    """
    stop = threading.Event()
    previous = {}

    def _on_signal(signum, frame) -> None:
        stop.set()

    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[sig] = signal.signal(sig, _on_signal)
        except ValueError:
            # Not the main thread (tests drive the loop directly):
            # rely on duration_s / stop alone.
            pass
    host, port = server.start()
    announce(server.banner(host, port))
    deadline = time.monotonic() + duration_s if duration_s else None
    try:
        while not stop.is_set():
            if deadline is not None and time.monotonic() >= deadline:
                break
            stop.wait(0.1)
    finally:
        report = server.shutdown()
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    for line in server.verdict(report):
        announce(line)
    return 0 if report["ok"] else 1
