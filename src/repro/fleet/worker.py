"""Fleet worker: one shared-nothing process owning a full service.

A worker is ``TraversalService`` + pipe loop, nothing else.  It builds
its own trees and plans from ``register`` frames (shared-nothing: no
memory is shared with the router or siblings), answers one reply per
request, and exits through exactly one happy path — the ``drain``
frame, after which the process return code is 0.  Any other way out
(router death, unpicklable frame) exits non-zero so the router's
drain accounting can refuse to report a clean fleet shutdown.

Determinism: the worker derives every seed it uses — service seed,
chaos schedule, synthetic load — from ``(fleet seed, worker index)``
via :func:`derive_seed`, so a fleet of N workers is reproducible from
the single fleet seed, and two fleets with the same seed submit
bit-identical query streams.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional

import numpy as np

from repro.fleet.pool import pin_to_cpu
from repro.fleet import wire
from repro.fleet.hashring import stable_hash
from repro.fleet.ledger import data_digest
from repro.service.resilience import ServiceError
from repro.telemetry.http import to_jsonable

#: exit codes the router checks after join().
EXIT_DRAINED = 0
EXIT_ROUTER_GONE = 2
EXIT_CRASH = 3


def derive_seed(base_seed: int, worker_index: int, salt: str) -> int:
    """Per-worker, per-purpose seed from the single fleet seed.

    SHA-1-based (:func:`~repro.fleet.hashring.stable_hash`), so the
    derivation is identical across processes and Python runs — the
    property the fleet's one-seed reproducibility contract rests on.
    """
    return stable_hash(f"{base_seed}:{worker_index}:{salt}") % (2**31)


def build_worker_service(
    worker_index: int, base_seed: int, config_payload: Dict[str, Any]
):
    """Construct this worker's TraversalService from wire primitives.

    ``config_payload`` carries plain-dict ServiceConfig knobs (the
    router never pickles a ServiceConfig across the pipe — the wire
    stays primitive so protocol drift is loud, not silent).  Chaos, if
    armed, is reseeded per worker.
    """
    from repro.gpusim.faults import ChaosConfig
    from repro.service.service import ServiceConfig, TraversalService
    from repro.telemetry import TelemetryConfig

    payload = dict(config_payload)
    chaos_payload = payload.pop("chaos", None)
    chaos = None
    if chaos_payload is not None:
        chaos_payload = dict(chaos_payload)
        chaos_payload["targets"] = tuple(chaos_payload.get("targets", ()))
        chaos_payload["seed"] = derive_seed(
            int(chaos_payload.get("seed", 0)) + base_seed, worker_index, "chaos"
        )
        chaos = ChaosConfig(**chaos_payload)
    telemetry_payload = payload.pop("telemetry", {"enabled": True})
    cfg = ServiceConfig(
        seed=derive_seed(base_seed, worker_index, "service"),
        chaos=chaos,
        telemetry=TelemetryConfig(**telemetry_payload),
        **payload,
    )
    return TraversalService(cfg)


class _WorkerState:
    """Mutable per-process state the command handlers share."""

    def __init__(self, worker_id: str, worker_index: int, base_seed: int,
                 service) -> None:
        self.worker_id = worker_id
        self.worker_index = worker_index
        self.base_seed = base_seed
        self.service = service
        #: lazily-built synthetic load driver, kept across run_load
        #: frames so its seeded RNG stream continues instead of
        #: restarting (a restart would replay the same queries and
        #: turn the load into one long memo hit).
        self.driver = None


def _tracer(state: _WorkerState):
    """This worker's tracer, or None when tracing is off — every
    distributed-tracing touch point guards on this so the off path
    stays allocation-free."""
    tel = state.service.telemetry
    return tel.tracer if tel.enabled else None


def _attach_telemetry(
    state: _WorkerState, reply: Dict[str, Any]
) -> Dict[str, Any]:
    """Piggyback outbox'd spans *and* log records onto a reply frame.

    Each key is only present when there is something to ship: a
    telemetry-off fleet sends byte-identical frames to the
    pre-tracing protocol, and answers a ``telemetry_drain`` sweep with
    a bare ok frame.
    """
    tel = state.service.telemetry
    if tel.enabled:
        for key, source in (("spans", tel.tracer), ("logs", tel.log)):
            if source is not None and source.outbox_enabled:
                items = source.drain_outbox()
                if items:
                    reply[key] = items
    return reply


def _handle_register(state: _WorkerState, frame: Dict[str, Any]) -> Dict[str, Any]:
    data = np.asarray(frame["data"], dtype=np.float64)
    state.service.register(
        frame["name"], frame["app"], data, **frame.get("build_kwargs", {})
    )
    # Echo the digest of what this worker actually built from: the
    # router's replay protocol compares it against the ledger record,
    # proving a respawned shard serves from bit-identical bytes.
    return wire.ok_reply(
        session=frame["name"], n=len(data), digest=data_digest(data)
    )


def _handle_submit(state: _WorkerState, frame: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one coords batch synchronously; per-query resolutions.

    The scatter path lands here: a slice of a larger batch arrives
    with the router's logical timestamp, runs through this worker's
    batcher on the shared clock value, and every row reports back a
    resolution — result or typed error, never silence.
    """
    from repro.telemetry import TraceContext

    session = frame["session"]
    coords = np.asarray(frame["coords"], dtype=np.float64)
    now = frame.get("now")
    svc = state.service
    if now is not None and now > svc.now_ms:
        svc.advance(float(now))
    # Adopt the router's trace context for the frame's duration: every
    # span this batch opens (query, batch, launch) joins the router's
    # ticket trace and parents under the ticket span.
    tracer = _tracer(state)
    ctx = TraceContext.from_wire(frame.get("trace")) if tracer is not None else None
    prev_ctx = tracer.activate(ctx) if tracer is not None else None
    tickets = []
    rejected = []
    try:
        for i, coord in enumerate(coords):
            try:
                tickets.append((i, svc.submit(session, coord, now=svc.now_ms)))
            except ServiceError as err:
                rejected.append((i, err))
        svc.flush(session)
    finally:
        if tracer is not None:
            tracer.activate(prev_ctx)
    results: List[Optional[Dict[str, Any]]] = [None] * len(coords)
    for i, ticket in tickets:
        results[i] = (
            wire.ticket_payload(ticket)
            if ticket.done else wire.unresolved_payload()
        )
    for i, err in rejected:
        results[i] = {
            "ok": False,
            "backend": None,
            "latency_ms": 0.0,
            "result": None,
            "error": {"code": getattr(err, "code", "error"), "message": str(err)},
        }
    return _attach_telemetry(
        state, wire.ok_reply(results=results, now_ms=svc.now_ms)
    )


def _handle_run_load(state: _WorkerState, frame: Dict[str, Any]) -> Dict[str, Any]:
    """Run N seeded synthetic-load ticks locally (no router round-trips
    per query — this is where fleet throughput comes from)."""
    from repro.service.serve import SyntheticLoadDriver

    ticks = int(frame.get("ticks", 1))
    keep = bool(frame.get("keep_results", False))
    driver = state.driver
    if driver is None:
        driver = state.driver = SyntheticLoadDriver(
            state.service,
            threading.RLock(),
            seed=derive_seed(state.base_seed, state.worker_index, "load"),
            tick_ms=float(frame.get("tick_ms", 2.0)),
            queries_per_tick=int(frame.get("queries_per_tick", 8)),
        )
    record: Optional[List] = [] if keep else None
    driver.record = record
    for _ in range(ticks):
        driver.tick()
    state.service.flush()
    reply: Dict[str, Any] = {
        "submitted": driver.submitted,
        "rejected": driver.rejected,
        "ticks": driver.ticks,
        "now_ms": state.service.now_ms,
    }
    if keep:
        reply["results"] = [
            dict(
                session=t.session,
                coords=t.coords,
                **(wire.ticket_payload(t) if t.done else wire.unresolved_payload()),
            )
            for t in record
        ]
    return _attach_telemetry(state, wire.ok_reply(**reply))


def _handle_frame(state: _WorkerState, frame: Dict[str, Any]) -> Dict[str, Any]:
    cmd = frame.get("cmd")
    svc = state.service
    if cmd == "ping":
        return wire.ok_reply(
            worker=state.worker_id, index=state.worker_index,
            now_ms=svc.now_ms,
        )
    if cmd == "register":
        return _handle_register(state, frame)
    if cmd == "submit":
        return _handle_submit(state, frame)
    if cmd == "run_load":
        return _handle_run_load(state, frame)
    if cmd == "advance":
        dispatched = svc.advance(float(frame["now"]))
        return wire.ok_reply(dispatched=dispatched, now_ms=svc.now_ms)
    if cmd == "flush":
        dispatched = svc.flush(frame.get("session"))
        return wire.ok_reply(dispatched=dispatched, now_ms=svc.now_ms)
    if cmd == "stats":
        return wire.ok_reply(stats=to_jsonable(svc.stats().to_dict()))
    if cmd == "metrics":
        tel = svc.telemetry
        if not tel.enabled or tel.registry is None:
            return wire.ok_reply(metrics=None)
        return wire.ok_reply(metrics=tel.registry.to_dict())
    if cmd == "health":
        return wire.ok_reply(health=to_jsonable(svc.health()))
    if cmd == "telemetry_drain":
        return _attach_telemetry(state, wire.ok_reply())
    if cmd == "profile":
        tel = svc.telemetry
        if not tel.enabled or tel.profiler is None:
            return wire.ok_reply(profile=None)
        return wire.ok_reply(profile=to_jsonable(tel.profiler.snapshot()))
    if cmd == "flight":
        tel = svc.telemetry
        if not tel.enabled or tel.flight is None:
            return wire.ok_reply(flight=None)
        return wire.ok_reply(flight=to_jsonable(tel.flight.to_dict()))
    return wire.error_reply(f"unknown command {cmd!r}")


def worker_main(
    cpu_index: Optional[int],
    conn,
    worker_id: str,
    worker_index: int,
    base_seed: int,
    config_payload: Dict[str, Any],
) -> None:
    """Process entry point: build the service, serve frames, drain.

    Every exception inside a handler answers an error frame and keeps
    the worker alive; only drain (exit 0) and a dead router pipe
    (exit 2) end the loop.
    """
    import signal
    import sys

    # Ctrl-C delivers SIGINT to every process in the foreground group,
    # workers included — shield it so the worker can still answer the
    # router's drain protocol instead of dying mid-drain with queries
    # pending.  SIGTERM stays at its default on purpose: it is the
    # escalation (and orphan-cleanup) path, and a worker must never be
    # unkillable by it.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):
        pass  # non-main thread or unsupported platform
    pin_to_cpu(cpu_index)
    try:
        service = build_worker_service(worker_index, base_seed, config_payload)
    except Exception as exc:
        try:
            conn.send(wire.error_reply(f"worker boot failed: {exc!r}"))
        except (BrokenPipeError, OSError):
            pass
        sys.exit(EXIT_CRASH)
    state = _WorkerState(worker_id, worker_index, base_seed, service)
    tel = service.telemetry
    log = tel.log if tel.enabled else None
    if tel.enabled:
        # Finished spans and log records ride back on reply frames (and
        # telemetry_drain sweeps) to the router's rings.
        for source in (tel.tracer, tel.log):
            if source is not None:
                source.enable_outbox()
    conn.send(wire.ok_reply(worker=worker_id, booted=True))
    exit_code = EXIT_ROUTER_GONE
    while True:
        try:
            frame = conn.recv()
        except (EOFError, OSError):
            break  # router died: nothing to drain into, exit non-zero
        if not isinstance(frame, dict):
            conn.send(wire.error_reply(f"malformed frame {frame!r}"))
            continue
        if frame.get("cmd") == "drain":
            # Drain-or-fail, fleet edition: flush everything, report
            # what is still pending (must be 0 for a clean fleet exit).
            try:
                service.flush()
                pending = service.queue_depth
                if log is not None:
                    # Drain verdict: the record rides this very reply.
                    (log.info if pending == 0 else log.warn)(
                        "worker.drain", service.now_ms,
                        pending=pending, drained=pending == 0,
                    )
                conn.send(_attach_telemetry(state, wire.ok_reply(
                    pending=pending, drained=pending == 0
                )))
                exit_code = EXIT_DRAINED
            except Exception as exc:
                conn.send(wire.error_reply(f"drain failed: {exc!r}"))
                exit_code = EXIT_CRASH
            break
        try:
            reply = _handle_frame(state, frame)
        except Exception as exc:
            reply = wire.error_reply(f"{type(exc).__name__}: {exc}")
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    conn.close()
    sys.exit(exit_code)
