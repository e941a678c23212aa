"""Fleet wire protocol: typed request/reply frames over process pipes.

Router and workers talk over :class:`multiprocessing.connection`
pipes.  Every exchange is strictly request/reply — the router sends
one frame, the worker answers exactly one frame — so there is no
interleaving to reason about and a missing reply always means the
worker died (surfaced as :class:`WorkerGone`, which trips the
router-side breaker).

Frames are plain dicts with a ``cmd`` / ``ok`` discriminator
(transport pickling is the pipe's; query coordinates and result rows
ride as numpy arrays to stay bit-exact).  Anything destined for an
HTTP surface is converted with
:func:`repro.telemetry.http.to_jsonable` *before* it crosses the pipe,
so ``/statsz`` aggregation on the router never sees a numpy scalar.

Commands (see ``docs/FLEET.md`` for the full contract):

===================  =================================================
``ping``             liveness + worker id echo
``register``         build a session (tree + plan) on this worker
``submit``           execute a coords batch; per-query resolutions back
``run_load``         run N seeded synthetic load ticks locally
``advance``          advance the worker's logical clock
``flush``            force-flush pending batches
``stats``            strict-JSON ServiceStats snapshot
``metrics``          metrics-registry JSON export (None if telemetry off)
``health``           TraversalService.health() payload
``telemetry_drain``  drain the tracer's and event log's outboxes
``profile``          kernel-profiler snapshot (None if profiler off)
``flight``           flight-recorder dumps (None if telemetry off)
``drain``            flush everything, reply with pending depth, exit
===================  =================================================

Distributed tracing rides on the existing frames: ``submit`` requests
may carry a ``trace`` key (:meth:`TraceContext.to_wire` payload) that
the worker's tracer adopts for the frame's duration, and ``submit`` /
``run_load`` / ``drain`` replies may carry back a ``spans`` key — the
worker outbox's finished-span dicts — and a ``logs`` key — the worker
event log's outbox — so both signals piggyback on traffic that is
flowing anyway.  ``telemetry_drain`` is the periodic sweep that
catches what is stranded between submits (and the final sweep before a
worker exits), so a ticket rerouted after a worker death still has its
partial spans in the router's ring: its reply carries the same two
keys, each present only when there is something to ship.  Flight
dumps stay behind their own ``flight`` snapshot verb: shipping them on
every sweep would copy the same dumps again and again.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

#: every verb a worker understands; the worker loop rejects anything
#: else with a typed error reply instead of dying.
COMMANDS = (
    "ping",
    "register",
    "submit",
    "run_load",
    "advance",
    "flush",
    "stats",
    "metrics",
    "health",
    "telemetry_drain",
    "profile",
    "flight",
    "drain",
)


class WireError(RuntimeError):
    """A worker answered with an error frame (the worker stays up)."""


class WorkerGone(RuntimeError):
    """The pipe broke mid-exchange: the worker process is dead."""

    def __init__(self, worker: str, detail: str = "") -> None:
        super().__init__(
            f"worker {worker!r} is gone" + (f": {detail}" if detail else "")
        )
        self.worker = worker


def request(cmd: str, **payload: Any) -> Dict[str, Any]:
    """Build one request frame (validates the verb at the send site)."""
    if cmd not in COMMANDS:
        raise ValueError(f"unknown wire command {cmd!r}; options: {COMMANDS}")
    frame = {"cmd": cmd}
    frame.update(payload)
    return frame


def ok_reply(**payload: Any) -> Dict[str, Any]:
    frame = {"ok": True}
    frame.update(payload)
    return frame


def error_reply(message: str, **payload: Any) -> Dict[str, Any]:
    frame = {"ok": False, "error": str(message)}
    frame.update(payload)
    return frame


def send_request(conn, worker: str, cmd: str, **payload: Any) -> None:
    """Send one request frame (first half of an exchange)."""
    try:
        conn.send(request(cmd, **payload))
    except (BrokenPipeError, ConnectionResetError, OSError) as exc:
        raise WorkerGone(worker, repr(exc)) from exc


def recv_reply(
    conn, worker: str, timeout: Optional[float] = None
) -> Dict[str, Any]:
    """Receive one reply frame (second half of an exchange); raises
    WorkerGone on a broken pipe or timeout, WireError on an error frame."""
    try:
        if timeout is not None and not conn.poll(timeout):
            raise WorkerGone(worker, f"no reply within {timeout}s")
        reply = conn.recv()
    except (EOFError, BrokenPipeError, ConnectionResetError, OSError) as exc:
        raise WorkerGone(worker, repr(exc)) from exc
    if not isinstance(reply, dict) or "ok" not in reply:
        raise WireError(f"worker {worker!r}: malformed reply {reply!r}")
    if not reply["ok"]:
        raise WireError(f"worker {worker!r}: {reply.get('error', 'unknown')}")
    return reply


def call(
    conn, worker: str, cmd: str, timeout: Optional[float] = None, **payload: Any
) -> Dict[str, Any]:
    """One request/reply exchange; raises WorkerGone on a broken pipe
    and WireError on an error frame (the worker itself stayed up)."""
    send_request(conn, worker, cmd, **payload)
    return recv_reply(conn, worker, timeout=timeout)


def ticket_payload(ticket) -> Dict[str, Any]:
    """One resolved QueryTicket as a wire frame fragment.

    Result arrays cross the pipe as numpy (bit-exact for the oracle
    audit); error resolutions carry the typed code + message only.
    """
    out: Dict[str, Any] = {
        "ok": bool(ticket.ok),
        "backend": ticket.backend,
        "latency_ms": float(ticket.latency_ms),
        "result": ticket.result,
        "error": None,
    }
    if ticket.error is not None:
        out["error"] = {
            "code": getattr(ticket.error, "code", "error"),
            "message": str(ticket.error),
        }
    return out


def unresolved_payload() -> Dict[str, Any]:
    """Frame fragment for a ticket that never resolved (contract
    violation the audit must be able to count, not crash on)."""
    return {
        "ok": False,
        "backend": None,
        "latency_ms": 0.0,
        "result": None,
        "error": {"code": "lost", "message": "ticket never resolved"},
    }


def make_chaos_payload(chaos) -> Optional[Dict[str, Any]]:
    """ChaosConfig -> plain dict (pipes carry primitives, the worker
    rebuilds the dataclass on its side)."""
    if chaos is None:
        return None
    return {
        "seed": chaos.seed,
        "p_backend_error": chaos.p_backend_error,
        "p_latency_spike": chaos.p_latency_spike,
        "p_stuck_warp": chaos.p_stuck_warp,
        "p_corrupt_stack": chaos.p_corrupt_stack,
        "targets": list(chaos.targets),
    }
