"""Fleet-wide telemetry assembly: one timeline per signal from many workers.

Workers trace and log locally; their tracer and event-log outboxes
collect finished spans and structured records as plain dicts, which
ride back to the router piggybacked on submit/run_load/drain replies
plus periodic ``telemetry_drain`` sweeps (:mod:`repro.fleet.wire`).
:class:`WorkerRing` is where one signal's streams meet: each item is
tagged with the worker it came from and retained in one bounded
drop-oldest ring.  The router keeps one ring per signal — spans for
``/tracez``, records for ``/logz`` — so a scatter/gather ticket
across three shards reads as one trace, and its records as one
stream joined on the ticket's trace id.

Ordering is deterministic: each signal sorts by its own key
(:func:`span_order`, :func:`record_order`), built from values that are
pure functions of the fleet seed, so two same-seed runs produce
bit-identical timelines no matter how reply frames interleaved on the
wire.

An optional ``sink`` (the OTLP exporter's ``export`` or
``export_logs``) observes every ingested batch, which is how fleet
telemetry reaches a collector without the router growing a second
shipping path.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from repro.telemetry.http import newest
from repro.telemetry.logging import level_rank

#: the worker label the router tags its own spans and records with.
ROUTER_WORKER = "router"

#: items each ring (and the router's own event log) retains.
RING_CAPACITY = 50_000


def span_order(span: dict) -> tuple:
    """Timeline order of spans: ``(t_start_ms, worker, span_id)``."""
    return (
        float(span.get("t_start_ms") or 0.0),
        str(span.get("worker", "")),
        str(span.get("span_id", "")),
    )


def record_order(rec: dict) -> tuple:
    """Timeline order of log records: ``(t_ms, worker, seq)``."""
    return (
        float(rec.get("t_ms") or 0.0),
        str(rec.get("worker", "")),
        int(rec.get("seq") or 0),
    )


class WorkerRing:
    """Bounded, worker-tagged ring of one signal's dicts.

    ``field`` names the item list in :meth:`to_dict` (``"spans"`` or
    ``"records"``); ``order`` is the signal's sort key.
    """

    def __init__(self, field: str, order: Callable[[dict], tuple],
                 capacity: int = RING_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.field = field
        self.order = order
        self.capacity = int(capacity)
        self._items: Deque[dict] = deque()
        self.ingested = 0
        self.dropped = 0
        #: optional callable(List[dict]) observing every ingested batch
        #: (wired to the OTLP exporter).
        self.sink: Optional[Callable[[List[dict]], None]] = None

    def __len__(self) -> int:
        return len(self._items)

    def ingest(self, worker: str, items) -> int:
        """Absorb one worker's batch; returns the number absorbed.

        ``items`` may be None or empty (replies without the signal's
        key cost nothing).
        """
        if not items:
            return 0
        tagged = [{**item, "worker": worker} for item in items]
        for item in tagged:
            if len(self._items) >= self.capacity:
                self._items.popleft()
                self.dropped += 1
            self._items.append(item)
        self.ingested += len(tagged)
        if self.sink is not None:
            try:
                self.sink(tagged)
            except Exception:
                pass  # egress must never break assembly
        return len(tagged)

    def records(
        self,
        level: Optional[str] = None,
        worker: Optional[str] = None,
        trace_id: Optional[str] = None,
    ) -> List[dict]:
        """Retained items in deterministic timeline order.

        ``level`` is a severity *floor* (``warn`` keeps warn + error);
        ``worker`` and ``trace_id`` are exact matches.
        """
        floor = level_rank(level) if level is not None else 0
        out = [
            r for r in self._items
            if (not floor or level_rank(str(r.get("level", "info"))) >= floor)
            and (worker is None or r.get("worker") == worker)
            and (trace_id is None or r.get("trace_id") == trace_id)
        ]
        out.sort(key=self.order)
        return out

    def workers(self) -> List[str]:
        """Every worker label seen, router first, then sorted."""
        seen = {str(r.get("worker", "")) for r in self._items}
        rest = sorted(w for w in seen if w != ROUTER_WORKER)
        return ([ROUTER_WORKER] if ROUTER_WORKER in seen else []) + rest

    def accounting(self) -> Dict[str, int]:
        """Retained / ingested / dropped counts (``/statsz``, ``/debugz``)."""
        return {
            "retained": len(self),
            "ingested": self.ingested,
            "dropped": self.dropped,
        }

    def to_dict(
        self,
        limit: Optional[int] = None,
        level: Optional[str] = None,
        worker: Optional[str] = None,
        trace_id: Optional[str] = None,
    ) -> dict:
        """Merged items (the newest ``limit``; all when None) plus
        accounting — the body of the fleet ``/tracez`` and ``/logz``."""
        items = self.records(level=level, worker=worker, trace_id=trace_id)
        return {
            self.field: newest(items, limit),
            "workers": self.workers(),
            "ingested": self.ingested,
            "dropped": self.dropped,
        }


def chrome_trace(spans: WorkerRing) -> dict:
    """Chrome ``trace_event`` export of a span ring: one process track
    per worker.

    The router gets pid 1; workers get stable pids in sorted order.
    Inside a worker's process the span's own track ("query", "batch",
    ...) becomes the thread id, so the single-process layout survives
    inside each fleet row.
    """
    workers = spans.workers()
    pids: Dict[str, int] = {w: i + 1 for i, w in enumerate(workers)}
    tracks: Dict[str, int] = {}
    events: List[dict] = []
    for worker in workers:
        events.append({
            "name": "process_name", "ph": "M",
            "pid": pids[worker], "tid": 0,
            "args": {"name": worker},
        })
    for span in spans.records():
        worker = str(span.get("worker", ""))
        track = str(span.get("track", ""))
        tid = tracks.setdefault(track, len(tracks))
        base = {
            "name": str(span.get("name", "")),
            "cat": track,
            "id": str(span.get("span_id", "")),
            "pid": pids.get(worker, len(workers) + 1),
            "tid": tid,
        }
        t0 = float(span.get("t_start_ms") or 0.0)
        events.append({
            **base, "ph": "b", "ts": t0 * 1000.0,
            "args": dict(span.get("args", {})),
        })
        for ev in span.get("events", []):
            events.append({
                **base, "ph": "n",
                "name": str(ev.get("name", "")),
                "ts": float(ev.get("t_ms") or 0.0) * 1000.0,
                "args": dict(ev.get("args", {})),
            })
        t1 = span.get("t_end_ms")
        if t1 is not None:
            events.append({
                **base, "ph": "e", "ts": float(t1) * 1000.0,
                "args": {"status": span.get("status", "ok")},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
