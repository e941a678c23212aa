"""Structured span tracing on the service's logical clock.

Spans are intervals of modeled time (milliseconds on the service
clock, the same clock :class:`repro.service.DynamicBatcher` stamps
waits with).  A span belongs to a *track* (``"query"``, ``"batch"``,
``"launch"``, ...), carries a correlation id (the query's trace id or
the batch id), free-form args, and a list of instant *events* inside
it.  The tracer keeps the most recent finished spans in a bounded ring
(oldest evicted first, evictions counted) and exports them as Chrome
``trace_event`` JSON for chrome://tracing / Perfetto.

Why async events ("b"/"e"/"n") instead of complete ("X") events: the
service's modeled execution time does not advance the arrival clock,
so batch and query spans overlap freely on one timeline; duration
events would force bogus nesting, async events render each id as its
own row.  Timestamps are microseconds (``ts = t_ms * 1000``).

Distributed tracing (the fleet layer) rides on three additions:

* every span carries a ``trace_id`` and optional ``parent_id``.  With
  no cross-process context the trace id is derived deterministically
  from ``(trace_seed, span_id)`` — same seed, same ids, every run;
* a :class:`TraceContext` (trace id + parent span id + logical-clock
  offset) can be *activated* on the tracer: while active, new spans
  join that trace and parent under the context's span — this is how a
  worker's ``submit -> batch -> launch`` spans parent under the fleet
  router's ticket span;
* an optional bounded *outbox* collects finished spans as dicts so a
  worker can piggyback them onto wire replies (and a periodic drain
  exchange) back to the router's trace assembler.

The tracer is only ever constructed when tracing is enabled, so the
off path carries no span objects at all.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional

#: process/thread ids used in the Chrome export; one synthetic "process"
#: per track keeps the timeline grouped by span kind.
_TRACK_PIDS = {"query": 1, "batch": 2, "launch": 3, "service": 4}
_DEFAULT_PID = 9

#: default outbox ring capacity (finished items awaiting shipment).
DEFAULT_OUTBOX_CAPACITY = 4096


def derive_trace_id(seed, key) -> str:
    """Deterministic 32-hex trace id from a seed and a stable key.

    SHA-1 over ``"{seed}:{key}"`` — the same derivation family as
    :func:`repro.fleet.worker.derive_seed`, so trace identity is a pure
    function of (fleet seed, ticket id) and two same-seed runs produce
    bit-identical span trees.
    """
    return hashlib.sha1(f"{seed}:{key}".encode()).hexdigest()[:32]


@dataclass(frozen=True)
class TraceContext:
    """Cross-process trace propagation: what the router stamps on a
    request frame and a worker's tracer adopts for the frame's duration.

    ``trace_id`` — the 32-hex trace every span created under this
    context joins; ``parent_span_id`` — the span id new top-level spans
    parent under (the router's ticket span); ``clock_offset_ms`` — the
    router's logical clock at stamp time, carried so a reassembled
    timeline can place worker spans on the fleet clock (workers already
    share it via the frame's ``now``, so this is informational).
    """

    trace_id: str
    parent_span_id: str
    clock_offset_ms: float = 0.0

    @classmethod
    def derive(cls, seed, key: str, parent_span_id: str,
               clock_offset_ms: float = 0.0) -> "TraceContext":
        return cls(
            trace_id=derive_trace_id(seed, key),
            parent_span_id=str(parent_span_id),
            clock_offset_ms=float(clock_offset_ms),
        )

    def to_wire(self) -> dict:
        """Plain-dict form for a pipe frame (primitives only)."""
        return {
            "trace_id": self.trace_id,
            "parent_span_id": self.parent_span_id,
            "clock_offset_ms": self.clock_offset_ms,
        }

    @classmethod
    def from_wire(cls, payload: Optional[dict]) -> Optional["TraceContext"]:
        if not payload:
            return None
        return cls(
            trace_id=str(payload["trace_id"]),
            parent_span_id=str(payload["parent_span_id"]),
            clock_offset_ms=float(payload.get("clock_offset_ms", 0.0)),
        )


class Span:
    """One interval on the logical clock, with instant events inside."""

    __slots__ = (
        "name", "track", "span_id", "t_start", "t_end", "args",
        "events", "status", "trace_id", "parent_id",
    )

    def __init__(
        self,
        name: str,
        track: str,
        span_id: str,
        t_start: float,
        args: Optional[dict] = None,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
    ) -> None:
        self.name = name
        self.track = track
        self.span_id = span_id
        self.t_start = float(t_start)
        self.t_end: Optional[float] = None
        self.args: dict = dict(args) if args else {}
        self.events: List[dict] = []
        self.status = "ok"
        self.trace_id = trace_id
        self.parent_id = parent_id

    @property
    def open(self) -> bool:
        return self.t_end is None

    def event(self, name: str, t_ms: float, **args) -> None:
        """Record an instant event inside this span."""
        self.events.append({"name": name, "t_ms": float(t_ms), "args": args})

    def finish(self, t_ms: float, status: str = "ok", **args) -> None:
        self.t_end = float(t_ms)
        self.status = status
        if args:
            self.args.update(args)

    def duration_ms(self) -> Optional[float]:
        if self.t_end is None:
            return None
        return self.t_end - self.t_start

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "track": self.track,
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "parent_id": self.parent_id,
            "t_start_ms": self.t_start,
            "t_end_ms": self.t_end,
            "status": self.status,
            "args": dict(self.args),
            "events": [dict(e) for e in self.events],
        }


class Outbox:
    """Cross-process shipment, shared by :class:`Tracer` and
    :class:`~repro.telemetry.logging.EventLog`: once enabled, finished
    items (as dicts) collect in a bounded drop-oldest buffer that a
    fleet worker drains onto its reply frames.  Off until
    :meth:`enable_outbox`, so a process that ships nothing pays one
    ``None`` check per item.  Subclasses set ``_outbox = None``,
    ``outbox_capacity`` and ``outbox_dropped`` in ``__init__``."""

    __slots__ = ()

    def enable_outbox(self, capacity: int = DEFAULT_OUTBOX_CAPACITY) -> None:
        """Start collecting finished items for shipment."""
        if self._outbox is None:
            self._outbox = deque()
        self.outbox_capacity = int(capacity)

    @property
    def outbox_enabled(self) -> bool:
        return self._outbox is not None

    def drain_outbox(self) -> List[dict]:
        """Return and clear every item awaiting shipment."""
        if not self._outbox:
            return []
        out = list(self._outbox)
        self._outbox.clear()
        return out

    def _ship(self, item: dict) -> None:
        """Queue one item; callers check ``_outbox is not None`` first,
        so the off path builds no dict."""
        box = self._outbox
        if len(box) >= self.outbox_capacity:
            box.popleft()
            self.outbox_dropped += 1
        box.append(item)


class Tracer(Outbox):
    """Creates spans, retains the most recent finished ones in a ring,
    exports Chrome JSON, and optionally ships finished spans via an
    outbox for cross-process assembly."""

    def __init__(self, max_spans: int = 100_000, trace_seed: int = 0) -> None:
        self.max_spans = int(max_spans)
        self.trace_seed = trace_seed
        self._spans: Deque[Span] = deque()
        self._open: Dict[str, Span] = {}
        #: spans evicted from the ring to make room (satellite: the
        #: finished-span list must not grow for the life of the process).
        self.dropped = 0
        #: optional zero-arg callback fired per eviction — the Telemetry
        #: facade points it at a ``tracer_spans_dropped_total`` counter.
        self.on_drop: Optional[Callable[[], None]] = None
        #: active cross-process context (None outside a stamped frame).
        self._ctx: Optional[TraceContext] = None
        self._outbox: Optional[Deque[dict]] = None
        self.outbox_capacity = 0
        self.outbox_dropped = 0

    def __len__(self) -> int:
        return len(self._spans)

    # -- context propagation --------------------------------------------

    @property
    def context(self) -> Optional[TraceContext]:
        return self._ctx

    def activate(self, ctx: Optional[TraceContext]) -> Optional[TraceContext]:
        """Install ``ctx`` as the active trace context; returns the
        previous one so callers can restore it in a finally block."""
        prev = self._ctx
        self._ctx = ctx
        return prev

    def local_trace_id(self, key: str) -> str:
        """The trace id a span gets with no context active: derived
        from (trace_seed, span id), so it is stable across runs."""
        return derive_trace_id(self.trace_seed, key)

    # -- span lifecycle --------------------------------------------------

    def _retain(self, span: Span) -> None:
        """Ring-buffer retention: evict the oldest when at capacity."""
        if len(self._spans) >= self.max_spans:
            evicted = self._spans.popleft()
            self._open.pop(evicted.span_id, None)
            self.dropped += 1
            if self.on_drop is not None:
                self.on_drop()
        self._spans.append(span)

    def _resolve_identity(
        self, span_id: str, parent_id: Optional[str], trace_id: Optional[str]
    ) -> tuple:
        """(trace_id, parent_id) for a new span: explicit > context >
        inherited-from-open-parent > locally derived."""
        if trace_id is not None:
            return trace_id, parent_id
        ctx = self._ctx
        if ctx is not None:
            return ctx.trace_id, (
                parent_id if parent_id is not None else ctx.parent_span_id
            )
        if parent_id is not None:
            parent = self._open.get(parent_id)
            if parent is not None and parent.trace_id is not None:
                return parent.trace_id, parent_id
        return self.local_trace_id(span_id), parent_id

    def begin(
        self,
        name: str,
        track: str,
        span_id: str,
        t_ms: float,
        parent_id: Optional[str] = None,
        trace_id: Optional[str] = None,
        **args,
    ) -> Span:
        """Open a span.  ``span_id`` must be unique among open spans."""
        trace_id, parent_id = self._resolve_identity(span_id, parent_id, trace_id)
        span = Span(name, track, span_id, t_ms, args,
                    trace_id=trace_id, parent_id=parent_id)
        self._retain(span)
        self._open[span_id] = span
        return span

    def end(self, span_id: str, t_ms: float, status: str = "ok", **args) -> Optional[Span]:
        span = self._open.pop(span_id, None)
        if span is not None:
            span.finish(t_ms, status, **args)
            if self._outbox is not None:
                self._ship(span.to_dict())
        return span

    def get_open(self, span_id: str) -> Optional[Span]:
        return self._open.get(span_id)

    def complete(
        self,
        name: str,
        track: str,
        span_id: str,
        t_start: float,
        t_end: float,
        status: str = "ok",
        parent_id: Optional[str] = None,
        trace_id: Optional[str] = None,
        **args,
    ) -> Span:
        """Record an already-finished span in one call."""
        span = self.begin(name, track, span_id, t_start,
                          parent_id=parent_id, trace_id=trace_id, **args)
        span.finish(t_end, status)
        self._open.pop(span_id, None)
        if self._outbox is not None:
            self._ship(span.to_dict())
        return span

    def instant(self, name: str, track: str, t_ms: float, **args) -> None:
        """A standalone instant marker (renders as an "i" event)."""
        span_id = f"instant:{name}:{len(self._spans) + self.dropped}"
        span = Span(name, track, span_id, t_ms, args,
                    trace_id=self.local_trace_id(span_id))
        span.finish(t_ms)
        self._retain(span)

    def spans(self, track: Optional[str] = None) -> List[Span]:
        if track is None:
            return list(self._spans)
        return [s for s in self._spans if s.track == track]

    # -- export ----------------------------------------------------------

    def chrome_trace(self, close_open_at: Optional[float] = None) -> dict:
        """Export as a Chrome ``trace_event`` JSON object.

        ``close_open_at``: logical time used to close any still-open
        spans in the export (the spans themselves stay open); when
        None, open spans are emitted begin-only, which the viewers
        render as running to the end of the timeline.
        """
        events: List[dict] = []
        # Name the synthetic processes so the viewer labels the rows.
        for track, pid in sorted(_TRACK_PIDS.items(), key=lambda kv: kv[1]):
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": track},
                }
            )
        for span in self._spans:
            pid = _TRACK_PIDS.get(span.track, _DEFAULT_PID)
            is_instant = span.span_id.startswith("instant:")
            if is_instant:
                events.append(
                    {
                        "name": span.name,
                        "cat": span.track,
                        "ph": "i",
                        "s": "p",
                        "ts": span.t_start * 1000.0,
                        "pid": pid,
                        "tid": 0,
                        "args": dict(span.args),
                    }
                )
                continue
            base = {
                "name": span.name,
                "cat": span.track,
                "id": span.span_id,
                "pid": pid,
                "tid": 0,
            }
            events.append(
                {**base, "ph": "b", "ts": span.t_start * 1000.0, "args": dict(span.args)}
            )
            for ev in span.events:
                events.append(
                    {
                        **base,
                        "ph": "n",
                        "name": ev["name"],
                        "ts": ev["t_ms"] * 1000.0,
                        "args": dict(ev["args"]),
                    }
                )
            t_end = span.t_end
            if t_end is None and close_open_at is not None:
                t_end = max(float(close_open_at), span.t_start)
            if t_end is not None:
                events.append(
                    {
                        **base,
                        "ph": "e",
                        "ts": t_end * 1000.0,
                        "args": {"status": span.status},
                    }
                )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def to_dict(self) -> dict:
        return {
            "spans": [s.to_dict() for s in self._spans],
            "dropped": self.dropped,
        }
