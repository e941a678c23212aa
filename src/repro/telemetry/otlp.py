"""OTLP/JSON egress over plain urllib — stdlib only, never blocking.

:class:`OTLPExporter` ships all three telemetry signals to an
OpenTelemetry collector as OTLP/JSON over HTTP:

* **traces** — finished spans (the plain-dict form
  :meth:`repro.telemetry.tracing.Span.to_dict` produces, optionally
  tagged with a ``worker``) to ``/v1/traces``;
* **logs** — structured :class:`repro.telemetry.logging.EventLog`
  records to ``/v1/logs``, trace/span ids carried through;
* **metrics** — a cumulative snapshot of a
  :meth:`~repro.telemetry.metrics.MetricsRegistry.to_dict` export to
  ``/v1/metrics`` on every flush (counters as monotonic sums, gauges
  as gauges, histograms with bucket counts and exemplars).

The three per-signal URLs derive from one configured endpoint
(:func:`signal_url`), so ``--otlp-endpoint http://host:4318/v1/traces``
ships everything.  Design constraints, in order:

1. **The serve path never blocks.**  :meth:`export` / :meth:`export_logs`
   append to bounded in-memory buffers and return; the HTTP POSTs
   happen on a background flush thread (or an explicit :meth:`flush`
   call in deterministic tests).  A full buffer or an unreachable
   collector *drops* the batch and counts the drops per signal —
   backpressure never reaches the query path.
2. **Stdlib only.**  ``urllib.request`` for the POST, ``json`` for the
   payload.  No OpenTelemetry SDK.
3. **Deterministic identity.**  OTLP wants 32-hex trace ids and 16-hex
   span ids; ours are human-readable strings (``t0``, ``b3:launch``).
   :func:`otlp_span_id` derives the hex form with the same SHA-1 family
   used everywhere else, so the mapping is stable across processes and
   runs, and parent links survive the re-encoding.

Timestamps: spans live on the *logical* clock (modeled ms).  The
exporter encodes ``t_ms * 1e6`` as ``...UnixNano`` — a collector sees
the fleet's own timeline starting at epoch, which keeps two same-seed
runs byte-comparable instead of smearing wall clock over them.

Drop/egress accounting is exposed two ways: :meth:`stats` (a strict-
JSON dict for ``/statsz``) and :meth:`sync_metrics`, which mirrors the
cumulative totals into ``otlp_*`` counters on a metrics registry so
the drop counters are scrapable from ``/metrics``.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
from collections import deque
from typing import Callable, Deque, Dict, List, Optional

DEFAULT_FLUSH_MS = 1000.0
DEFAULT_MAX_BUFFER = 8192
DEFAULT_TIMEOUT_S = 2.0

#: OTLP status codes (proto enum): 0 unset, 1 ok, 2 error.
_STATUS_OK = 1
_STATUS_ERROR = 2

_HEX_DIGITS = frozenset("0123456789abcdef")

#: the three OTLP/HTTP signal paths, all derived from one endpoint.
SIGNALS = ("traces", "metrics", "logs")

#: OTLP severity numbers (proto enum) for our four log levels.
_SEVERITY_NUMBER = {"debug": 5, "info": 9, "warn": 13, "error": 17}


def signal_url(endpoint: str, signal: str) -> str:
    """Per-signal collector URL from the one configured endpoint.

    ``http://h:4318/v1/traces`` -> ``http://h:4318/v1/logs`` etc.; an
    endpoint without a recognized ``/v1/<signal>`` suffix gets one
    appended (the OTLP/HTTP default layout).
    """
    base = str(endpoint).rstrip("/")
    for known in SIGNALS:
        suffix = f"/v1/{known}"
        if base.endswith(suffix):
            base = base[: -len(suffix)]
            break
    return f"{base}/v1/{signal}"


def otlp_trace_id(trace_id) -> str:
    """32-hex OTLP trace id; already-hex ids pass through unchanged."""
    s = str(trace_id or "")
    if len(s) == 32 and set(s) <= _HEX_DIGITS:
        return s
    return hashlib.sha1(f"trace:{s}".encode()).hexdigest()[:32]


def otlp_span_id(span_id) -> str:
    """Deterministic 16-hex OTLP span id for one of our span ids."""
    return hashlib.sha1(f"span:{span_id}".encode()).hexdigest()[:16]


def _attr(key: str, value) -> dict:
    if isinstance(value, bool):
        v = {"boolValue": value}
    elif isinstance(value, int):
        v = {"intValue": str(value)}
    elif isinstance(value, float):
        v = (
            {"doubleValue": value}
            if math.isfinite(value)
            else {"stringValue": str(value)}
        )
    elif value is None:
        v = {"stringValue": ""}
    else:
        v = {"stringValue": str(value)}
    return {"key": str(key), "value": v}


def _nanos(t_ms) -> str:
    return str(int(float(t_ms or 0.0) * 1e6))


def span_to_otlp(span: dict) -> dict:
    """One ``Span.to_dict()`` payload -> one OTLP/JSON span object.

    OTLP span ids are salted with the span's trace id: local span keys
    like ``b0`` repeat on every worker (each worker numbers its own
    batches), and only the trace id disambiguates them once the fleet
    merges streams.  Parent links use the *same* trace salt, which is
    sound because parentage never crosses a trace boundary — a child
    either inherits its parent's trace or adopts the ticket context
    both were stamped with.
    """
    trace_key = str(span.get("trace_id") or "")
    attrs = [_attr(k, v) for k, v in sorted(span.get("args", {}).items())]
    for key in ("track", "worker"):
        if span.get(key) is not None:
            attrs.append(_attr(key, span[key]))
    attrs.append(_attr("span.key", span.get("span_id")))
    t0 = span.get("t_start_ms") or 0.0
    t1 = span.get("t_end_ms")
    status = span.get("status", "ok")
    out = {
        "traceId": otlp_trace_id(span.get("trace_id")),
        "spanId": otlp_span_id(f"{trace_key}:{span.get('span_id')}"),
        "name": str(span.get("name", "")),
        "kind": 1,  # SPAN_KIND_INTERNAL
        "startTimeUnixNano": _nanos(t0),
        "endTimeUnixNano": _nanos(t1 if t1 is not None else t0),
        "attributes": attrs,
        "events": [
            {
                "timeUnixNano": _nanos(ev.get("t_ms")),
                "name": str(ev.get("name", "")),
                "attributes": [
                    _attr(k, v) for k, v in sorted(ev.get("args", {}).items())
                ],
            }
            for ev in span.get("events", [])
        ],
        "status": (
            {"code": _STATUS_OK}
            if status == "ok"
            else {"code": _STATUS_ERROR, "message": str(status)}
        ),
    }
    parent = span.get("parent_id")
    if parent is not None:
        out["parentSpanId"] = otlp_span_id(f"{trace_key}:{parent}")
    return out


def encode_batch(spans: List[dict], service_name: str = "repro") -> dict:
    """Wrap span dicts in the OTLP/JSON ``resourceSpans`` envelope."""
    return {
        "resourceSpans": [
            {
                "resource": {
                    "attributes": [_attr("service.name", service_name)]
                },
                "scopeSpans": [
                    {
                        "scope": {"name": "repro.telemetry"},
                        "spans": [span_to_otlp(s) for s in spans],
                    }
                ],
            }
        ]
    }


def record_to_otlp(rec: dict) -> dict:
    """One :class:`~repro.telemetry.logging.EventLog` record -> one
    OTLP/JSON ``logRecord``.  The record's trace/span ids (when
    stamped) re-encode through the same SHA-1 family as spans, so a
    collector joins logs to their spans on identical ids."""
    level = str(rec.get("level", "info"))
    attrs = [
        _attr(k, v) for k, v in sorted(rec.get("fields", {}).items())
    ]
    attrs.append(_attr("event", rec.get("event")))
    attrs.append(_attr("seq", int(rec.get("seq", 0))))
    if rec.get("worker") is not None:
        attrs.append(_attr("worker", rec["worker"]))
    out = {
        "timeUnixNano": _nanos(rec.get("t_ms")),
        "observedTimeUnixNano": _nanos(rec.get("t_ms")),
        "severityNumber": _SEVERITY_NUMBER.get(level, 9),
        "severityText": level.upper(),
        "body": {"stringValue": str(rec.get("event", ""))},
        "attributes": attrs,
    }
    trace_id = rec.get("trace_id")
    if trace_id is not None:
        out["traceId"] = otlp_trace_id(trace_id)
        span_id = rec.get("span_id")
        if span_id is not None:
            out["spanId"] = otlp_span_id(f"{trace_id}:{span_id}")
    return out


def encode_log_batch(records: List[dict], service_name: str = "repro") -> dict:
    """Wrap log records in the OTLP/JSON ``resourceLogs`` envelope."""
    return {
        "resourceLogs": [
            {
                "resource": {
                    "attributes": [_attr("service.name", service_name)]
                },
                "scopeLogs": [
                    {
                        "scope": {"name": "repro.telemetry"},
                        "logRecords": [record_to_otlp(r) for r in records],
                    }
                ],
            }
        ]
    }


def _metric_attrs(labels: dict) -> List[dict]:
    return [_attr(k, v) for k, v in sorted((labels or {}).items())]


def encode_metrics_export(
    export: dict, service_name: str = "repro", t_ms: float = 0.0
):
    """A ``MetricsRegistry.to_dict()``-shaped export -> the OTLP/JSON
    ``resourceMetrics`` envelope; returns ``(payload, n_data_points)``.

    Counters become cumulative monotonic sums, gauges stay gauges,
    histograms carry bucket counts, explicit bounds, and any
    OpenMetrics exemplars (trace-linked) their buckets collected.
    """
    now = _nanos(t_ms)
    metrics = []
    points = 0
    for name in sorted(export):
        family = export[name]
        kind = family.get("kind")
        entry = {"name": name, "description": family.get("help", "")}
        data_points = []
        if kind == "histogram":
            for series in family.get("series", []):
                dp = {
                    "attributes": _metric_attrs(series.get("labels")),
                    "startTimeUnixNano": "0",
                    "timeUnixNano": now,
                    "count": str(int(series["count"])),
                    "sum": float(series["sum"]),
                    "bucketCounts": [str(int(c)) for c in series["counts"]],
                    "explicitBounds": [float(b) for b in series["bounds"]],
                }
                exemplars = [
                    {
                        "timeUnixNano": now,
                        "asDouble": float(ex["value"]),
                        "traceId": otlp_trace_id(ex.get("trace_id")),
                    }
                    for ex in (series.get("exemplars") or [])
                    if ex
                ]
                if exemplars:
                    dp["exemplars"] = exemplars
                data_points.append(dp)
            entry["histogram"] = {
                "dataPoints": data_points,
                "aggregationTemporality": 2,  # CUMULATIVE
            }
        else:
            for series in family.get("series", []):
                data_points.append(
                    {
                        "attributes": _metric_attrs(series.get("labels")),
                        "startTimeUnixNano": "0",
                        "timeUnixNano": now,
                        "asDouble": float(series["value"]),
                    }
                )
            if kind == "counter":
                entry["sum"] = {
                    "dataPoints": data_points,
                    "aggregationTemporality": 2,
                    "isMonotonic": True,
                }
            else:
                entry["gauge"] = {"dataPoints": data_points}
        points += len(data_points)
        metrics.append(entry)
    payload = {
        "resourceMetrics": [
            {
                "resource": {
                    "attributes": [_attr("service.name", service_name)]
                },
                "scopeMetrics": [
                    {
                        "scope": {"name": "repro.telemetry"},
                        "metrics": metrics,
                    }
                ],
            }
        ]
    }
    return payload, points


class OTLPExporter:
    """Bounded, background, drop-counting OTLP/JSON shipper for all
    three signals (spans, log records, metric snapshots)."""

    def __init__(
        self,
        endpoint: str,
        flush_ms: float = DEFAULT_FLUSH_MS,
        max_buffer: int = DEFAULT_MAX_BUFFER,
        service_name: str = "repro",
        timeout_s: float = DEFAULT_TIMEOUT_S,
        source: Optional[Callable[[], List[dict]]] = None,
    ) -> None:
        if flush_ms <= 0:
            raise ValueError(f"flush_ms must be positive, got {flush_ms}")
        if max_buffer < 1:
            raise ValueError(f"max_buffer must be >= 1, got {max_buffer}")
        self.endpoint = str(endpoint)
        self._urls = {s: signal_url(endpoint, s) for s in SIGNALS}
        self.flush_ms = float(flush_ms)
        self.max_buffer = int(max_buffer)
        self.service_name = service_name
        self.timeout_s = float(timeout_s)
        #: optional pull hook: called at each flush to harvest spans
        #: (e.g. a tracer outbox drained under the server lock).
        self.source = source
        #: optional pull hook for log records (an EventLog outbox).
        self.log_source: Optional[Callable[[], List[dict]]] = None
        #: optional pull hook returning a ``registry.to_dict()``-shaped
        #: export; when set, each flush ships a cumulative metrics
        #: snapshot to ``/v1/metrics``.
        self.metrics_source: Optional[Callable[[], Optional[dict]]] = None
        #: optional logical-clock hook stamping metric data points.
        self.clock: Optional[Callable[[], float]] = None
        self._buf: Deque[dict] = deque()
        self._log_buf: Deque[dict] = deque()
        self._lock = threading.Lock()
        self._halt = threading.Event()
        self._thread: Optional[threading.Thread] = None
        # Cumulative egress accounting (strict-JSON ints).
        self.spans_exported = 0
        self.spans_dropped = 0
        self.logs_exported = 0
        self.logs_dropped = 0
        self.metric_points_exported = 0
        self._posts = {s: 0 for s in SIGNALS}
        self._failures = {s: 0 for s in SIGNALS}
        self._synced: Dict[str, float] = {}

    @property
    def posts_ok(self) -> int:
        return sum(self._posts.values())

    @property
    def post_failures(self) -> int:
        return sum(self._failures.values())

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Start the background flush thread (idempotent)."""
        if self._thread is not None:
            return
        self._halt.clear()
        self._thread = threading.Thread(
            target=self._flush_loop, name="otlp-exporter", daemon=True
        )
        self._thread.start()

    def stop(self, flush: bool = True) -> None:
        """Stop the flush thread; optionally attempt one final flush."""
        self._halt.set()
        if self._thread is not None:
            self._thread.join(timeout=max(5.0, 2 * self.timeout_s))
            self._thread = None
        if flush:
            self.flush()

    def _flush_loop(self) -> None:
        while not self._halt.wait(self.flush_ms / 1000.0):
            self.flush()

    # -- buffering -------------------------------------------------------

    def export(self, spans: List[dict]) -> None:
        """Enqueue finished spans; never blocks, overflow drops oldest."""
        if not spans:
            return
        with self._lock:
            for span in spans:
                if len(self._buf) >= self.max_buffer:
                    self._buf.popleft()
                    self.spans_dropped += 1
                self._buf.append(span)

    def export_logs(self, records: List[dict]) -> None:
        """Enqueue log records; same bounded never-block contract."""
        if not records:
            return
        with self._lock:
            for rec in records:
                if len(self._log_buf) >= self.max_buffer:
                    self._log_buf.popleft()
                    self.logs_dropped += 1
                self._log_buf.append(rec)

    def pending(self) -> int:
        with self._lock:
            return len(self._buf)

    def pending_logs(self) -> int:
        with self._lock:
            return len(self._log_buf)

    # -- shipping --------------------------------------------------------

    def _post(self, signal: str, payload: dict) -> bool:
        """POST one signal batch; True on 2xx, False (counted) on any
        failure.  Never raises and never retries in place."""
        # Imported on first POST: a process that exports nothing never
        # loads urllib.request, http.client or ssl.
        import urllib.error
        import urllib.request

        body = json.dumps(payload, allow_nan=False).encode()
        req = urllib.request.Request(
            self._urls[signal],
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout_s) as resp:
                resp.read()
        except (urllib.error.URLError, OSError, ValueError):
            with self._lock:
                self._failures[signal] += 1
            return False
        with self._lock:
            self._posts[signal] += 1
        return True

    def flush(self) -> int:
        """Harvest the sources, POST everything buffered (one request
        per signal); returns the number of *spans* delivered.  An
        unreachable collector drops the batch (counted) — the buffers
        belong to the *next* telemetry."""
        for harvest, sink in (
            (self.source, self.export),
            (self.log_source, self.export_logs),
        ):
            if harvest is not None:
                try:
                    sink(harvest())
                except Exception:
                    pass  # harvesting must never kill the flush loop
        with self._lock:
            span_batch = list(self._buf)
            self._buf.clear()
            log_batch = list(self._log_buf)
            self._log_buf.clear()
        delivered = 0
        if span_batch:
            if self._post("traces", encode_batch(span_batch, self.service_name)):
                with self._lock:
                    self.spans_exported += len(span_batch)
                delivered = len(span_batch)
            else:
                with self._lock:
                    self.spans_dropped += len(span_batch)
        if log_batch:
            if self._post("logs", encode_log_batch(log_batch, self.service_name)):
                with self._lock:
                    self.logs_exported += len(log_batch)
            else:
                with self._lock:
                    self.logs_dropped += len(log_batch)
        if self.metrics_source is not None:
            try:
                export = self.metrics_source()
            except Exception:
                export = None  # snapshotting must never kill the loop
            if export:
                t_ms = 0.0
                if self.clock is not None:
                    try:
                        t_ms = float(self.clock())
                    except Exception:
                        t_ms = 0.0
                payload, points = encode_metrics_export(
                    export, self.service_name, t_ms=t_ms
                )
                if self._post("metrics", payload):
                    with self._lock:
                        self.metric_points_exported += points
        return delivered

    # -- observability ---------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            return {
                "endpoint": self.endpoint,
                "pending": len(self._buf),
                "pending_logs": len(self._log_buf),
                "spans_exported": self.spans_exported,
                "spans_dropped": self.spans_dropped,
                "logs_exported": self.logs_exported,
                "logs_dropped": self.logs_dropped,
                "metric_points_exported": self.metric_points_exported,
                "posts_ok": sum(self._posts.values()),
                "post_failures": sum(self._failures.values()),
                "posts_by_signal": dict(self._posts),
                "post_failures_by_signal": dict(self._failures),
            }

    def sync_metrics(self, registry) -> None:
        """Mirror cumulative egress totals into ``otlp_*`` counters.

        Counters only go up, so the mirror applies *deltas* since the
        last sync — safe to call on every ``/metrics`` scrape.  Posts
        and failures carry a ``signal`` label so each of the three
        pipelines is observable on its own.
        """
        snap = self.stats()
        for name, help_text, key in (
            ("otlp_spans_exported_total",
             "spans delivered to the OTLP collector", "spans_exported"),
            ("otlp_spans_dropped_total",
             "spans dropped: buffer overflow or collector unreachable",
             "spans_dropped"),
            ("otlp_logs_exported_total",
             "log records delivered to the OTLP collector",
             "logs_exported"),
            ("otlp_logs_dropped_total",
             "log records dropped: buffer overflow or collector "
             "unreachable", "logs_dropped"),
            ("otlp_metric_points_exported_total",
             "metric data points delivered to the OTLP collector",
             "metric_points_exported"),
        ):
            counter = registry.counter(name, help_text)
            delta = snap[key] - self._synced.get(key, 0)
            if delta > 0:
                counter.inc(delta)
                self._synced[key] = snap[key]
        for name, help_text, field in (
            ("otlp_posts_total",
             "OTLP HTTP posts accepted by the collector",
             "posts_by_signal"),
            ("otlp_post_failures_total",
             "OTLP HTTP posts that failed (collector unreachable)",
             "post_failures_by_signal"),
        ):
            counter = registry.counter(name, help_text, labels=("signal",))
            for signal, total in snap[field].items():
                synced_key = f"{field}:{signal}"
                delta = total - self._synced.get(synced_key, 0)
                if delta > 0:
                    counter.inc(delta, signal=signal)
                    self._synced[synced_key] = total
