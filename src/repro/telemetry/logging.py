"""Structured, levelled event log on the service's logical clock.

The third telemetry pillar beside metrics and spans: every load-bearing
decision in the stack (admission shed, retry, breaker transition,
plan-cache invalidation, chaos draw, supervisor restart, scatter retry,
drain verdict) records one JSON-safe dict — a *log record* — into a
bounded drop-oldest ring.  Records join the other two pillars on the
trace id: when a :class:`~repro.telemetry.tracing.TraceContext` is
active on the attached tracer, its trace/span ids are stamped onto the
record automatically, so a ticket's logs, spans, and latency exemplars
all share one id.

Design constraints, matching the rest of :mod:`repro.telemetry`:

1. **Zero cost when off.**  An :class:`EventLog` only exists when
   telemetry is enabled; every call site guards with one attribute
   read (``telemetry.log is not None``) and allocates nothing on the
   off path.
2. **Determinism.**  Timestamps are modeled milliseconds, never wall
   time; fields are stored in sorted key order; a monotone ``seq``
   disambiguates same-timestamp records.  Two same-seed runs produce
   bit-identical record streams.
3. **Bounded.**  The ring drops oldest at capacity and counts drops
   (``log_records_dropped_total`` via the ``on_drop`` hook); the
   optional outbox — finished records awaiting shipment over a worker
   reply pipe — is the tracer's :class:`~repro.telemetry.tracing.Outbox`,
   bounded the same way.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional

from repro.telemetry.tracing import Outbox

#: severity order, least to most severe.  A level *filter* is a floor:
#: ``level="warn"`` selects warn and error records.
LEVELS = ("debug", "info", "warn", "error")
_LEVEL_RANK = {name: rank for rank, name in enumerate(LEVELS)}

DEFAULT_LOG_CAPACITY = 10_000


def level_rank(level: str) -> int:
    """Numeric severity of ``level``; raises ``ValueError`` on junk."""
    try:
        return _LEVEL_RANK[level]
    except KeyError:
        raise ValueError(
            f"unknown log level {level!r}; expected one of {LEVELS}"
        ) from None


class EventLog(Outbox):
    """Bounded ring of structured log records, trace-correlated.

    Records are plain dicts (JSON-safe by construction)::

        {"seq": 17, "t_ms": 42.5, "level": "warn", "event": "retry",
         "trace_id": "...", "span_id": "...", "fields": {...}}

    ``trace_id``/``span_id`` come from the attached tracer's active
    :class:`~repro.telemetry.tracing.TraceContext` unless the call
    passes them explicitly; with neither they are ``None`` — a record
    outside any trace.
    """

    __slots__ = (
        "capacity", "tracer", "_ring", "recorded", "dropped", "on_drop",
        "_seq", "_outbox", "outbox_capacity", "outbox_dropped",
    )

    def __init__(self, capacity: int = DEFAULT_LOG_CAPACITY, tracer=None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        #: optional Tracer whose active context stamps trace/span ids.
        self.tracer = tracer
        self._ring: Deque[dict] = deque()
        #: total records ever logged (ring evictions included).
        self.recorded = 0
        #: records evicted from the ring to make room.
        self.dropped = 0
        #: optional zero-arg callback fired per eviction — the Telemetry
        #: facade points it at a ``log_records_dropped_total`` counter.
        self.on_drop: Optional[Callable[[], None]] = None
        self._seq = 0
        self._outbox: Optional[Deque[dict]] = None
        self.outbox_capacity = 0
        self.outbox_dropped = 0

    def __len__(self) -> int:
        return len(self._ring)

    # -- recording -------------------------------------------------------

    def log(
        self,
        level: str,
        event: str,
        t_ms: float,
        trace_id: Optional[str] = None,
        span_id: Optional[str] = None,
        **fields,
    ) -> dict:
        """Record one event; returns the record dict."""
        level_rank(level)  # validate eagerly: a typo is a bug, not a record
        if trace_id is None and self.tracer is not None:
            ctx = self.tracer.context
            if ctx is not None:
                trace_id = ctx.trace_id
                if span_id is None:
                    span_id = ctx.parent_span_id
        rec = {
            "seq": self._seq,
            "t_ms": float(t_ms),
            "level": level,
            "event": str(event),
            "trace_id": trace_id,
            "span_id": span_id,
            "fields": {k: fields[k] for k in sorted(fields)},
        }
        self._seq += 1
        if len(self._ring) >= self.capacity:
            self._ring.popleft()
            self.dropped += 1
            if self.on_drop is not None:
                self.on_drop()
        self._ring.append(rec)
        self.recorded += 1
        if self._outbox is not None:
            self._ship(rec)
        return rec

    def debug(self, event: str, t_ms: float, **fields) -> dict:
        return self.log("debug", event, t_ms, **fields)

    def info(self, event: str, t_ms: float, **fields) -> dict:
        return self.log("info", event, t_ms, **fields)

    def warn(self, event: str, t_ms: float, **fields) -> dict:
        return self.log("warn", event, t_ms, **fields)

    def error(self, event: str, t_ms: float, **fields) -> dict:
        return self.log("error", event, t_ms, **fields)

    # -- reading ---------------------------------------------------------

    def records(
        self,
        level: Optional[str] = None,
        trace_id: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[dict]:
        """Filtered view of the ring, oldest first.

        ``level`` is a severity floor; ``trace_id`` an exact match;
        ``limit`` keeps the *newest* N matches (the interesting end).
        """
        floor = level_rank(level) if level is not None else 0
        out = [
            rec for rec in self._ring
            if _LEVEL_RANK[rec["level"]] >= floor
            and (trace_id is None or rec["trace_id"] == trace_id)
        ]
        if limit is not None and limit >= 0:
            out = out[-limit:] if limit else []
        return out

    def to_dict(self) -> dict:
        return {
            "records": list(self._ring),
            "recorded": self.recorded,
            "dropped": self.dropped,
            "outbox_dropped": self.outbox_dropped,
        }
