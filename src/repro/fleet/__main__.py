"""Fleet CLI: ``python -m repro.fleet --workers N``.

Boots a router plus N shared-nothing worker processes, registers the
same two demo sessions as ``python -m repro.service`` on *every*
worker (point correlation over the clustered "geocity" dataset, kNN
over a uniform random one), starts the seeded synthetic load pump,
and serves the aggregated pull endpoints:

* ``/metrics`` — merged Prometheus exposition, every worker series
  labelled ``worker="wN"``, plus the router's own ``fleet_*`` families;
* ``/healthz`` — fleet readiness (503 while any worker is degraded,
  unreachable, or dead);
* ``/statsz`` — strict-JSON fleet snapshot: per-worker stats plus the
  summed aggregate (``None``, never ``NaN``, when nothing has samples);
* ``/tracez`` — the merged fleet timeline: worker spans (shipped back
  over the wire) assembled under the router's ticket spans, one trace
  per scatter/gather ticket (``?format=chrome`` for trace_event JSON);
* ``/logz`` — the merged fleet log stream: worker event-log records
  (shipped back over the wire like spans) plus the router's own,
  filterable by level / worker / trace id — a ticket's logs, spans,
  and latency exemplars join on the same trace id;
* ``/debugz`` — one strict-JSON fleet diagnostics snapshot (config,
  ring placement, breaker states, recent errors with trace ids);
* ``/profilez`` — per-worker kernel-profiler snapshots.

``--otlp-endpoint`` additionally ships every assembled span, the
merged fleet metrics export, and every assembled log record to an
OTLP/JSON collector on a background thread (bounded buffers, drop
counters — an unreachable collector never blocks the serve path).

SIGTERM/SIGINT fans a graceful drain out to every worker; the process
exits 0 only when every worker flushed clean and exited 0 — the same
drain-or-fail contract as single-process serve mode, fleet-wide.

The whole fleet is reproducible from ``--seed``: every worker derives
its service / chaos / load seeds from ``(seed, worker index)``.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.fleet.chaos import FleetChaosConfig
from repro.fleet.hashring import DEFAULT_REPLICAS
from repro.fleet.router import FleetConfig, FleetRouter, FleetServer, run_fleet
from repro.fleet.supervisor import RestartPolicy
from repro.points.datasets import dataset_by_name
from repro.service.service import ENGINES, SORT_MODES


def register_demo_sessions(
    router: FleetRouter, n_data: int, seed: int, announce=print
) -> None:
    """The two sessions the single-process demo runs, fleet-wide."""
    geo = dataset_by_name("geocity", n_data, seed=seed)
    rnd = dataset_by_name("random", n_data, seed=seed + 1)
    for name, app, data, kwargs in (
        ("pc-geocity", "pc", geo.points, {"radius": 0.1, "leaf_size": 4}),
        ("knn-random", "knn", rnd.points, {"k": 4, "leaf_size": 4}),
    ):
        out = router.register(name, app, data, **kwargs)
        announce(
            f"registered {name!r} ({app}) on workers "
            f"{','.join(out['workers'])} -> placed on {router.place(name)}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.fleet")
    parser.add_argument(
        "--workers", type=int, default=4,
        help="worker process count (each owns a full service)",
    )
    parser.add_argument(
        "--replicas", type=int, default=DEFAULT_REPLICAS,
        help="hash-ring virtual nodes per worker",
    )
    parser.add_argument(
        "--scatter-threshold", type=int, default=64,
        help="single-session batches this large scatter across all "
        "live workers (0 = never scatter)",
    )
    parser.add_argument("--seed", type=int, default=7,
                        help="the one fleet seed every worker derives from")
    parser.add_argument("--data", type=int, default=4096, help="dataset size")
    parser.add_argument(
        "--no-pin", action="store_true",
        help="skip best-effort CPU pinning of the workers",
    )
    parser.add_argument("--max-batch", type=int, default=256)
    parser.add_argument("--max-wait-ms", type=float, default=2.0)
    parser.add_argument("--sort", choices=SORT_MODES, default="morton")
    parser.add_argument("--engine", choices=ENGINES, default="codegen")
    serve = parser.add_argument_group("HTTP front-end")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8322,
        help="listen port (0 = let the OS pick a free one)",
    )
    serve.add_argument(
        "--serve-duration", type=float, default=None, metavar="SECONDS",
        help="drain and exit after this long (for scripted smoke runs); "
        "default: run until signalled",
    )
    serve.add_argument(
        "--load-queries-per-tick", type=int, default=32,
        help="synthetic load per pump tick *per worker* (0 = no load)",
    )
    serve.add_argument(
        "--load-tick-ms", type=float, default=2.0,
        help="logical milliseconds each worker's clock advances per tick",
    )
    tracing = parser.add_argument_group("distributed tracing + egress")
    tracing.add_argument(
        "--no-trace", action="store_true",
        help="disable distributed tracing (no TraceContext on frames, "
        "no span piggybacking, /tracez reports enabled=false)",
    )
    tracing.add_argument(
        "--no-log", action="store_true",
        help="disable structured logging (no log piggybacking, /logz "
        "reports enabled=false)",
    )
    tracing.add_argument(
        "--otlp-endpoint", default=None, metavar="URL",
        help="OTLP/JSON collector URL (e.g. http://host:4318); the "
        "router ships assembled spans, merged fleet metrics, and the "
        "assembled log stream (/v1/traces, /v1/metrics, /v1/logs) on "
        "a background thread — an unreachable collector only "
        "increments drop counters, it never blocks serving",
    )
    tracing.add_argument(
        "--otlp-flush-ms", type=float, default=1000.0,
        help="wall milliseconds between OTLP flushes",
    )
    chaos = parser.add_argument_group("chaos (per-worker reseeded)")
    chaos.add_argument(
        "--chaos", action="store_true",
        help="arm the deterministic fault injector on every worker",
    )
    chaos.add_argument(
        "--chaos-seed", type=int,
        default=int(os.environ.get("REPRO_CHAOS_SEED", "0")),
    )
    chaos.add_argument("--p-backend-error", type=float, default=0.15)
    chaos.add_argument("--p-latency-spike", type=float, default=0.10)
    chaos.add_argument("--p-stuck-warp", type=float, default=0.05)
    chaos.add_argument("--p-corrupt-stack", type=float, default=0.10)
    chaos.add_argument("--chaos-targets", default="lockstep,nonlockstep")
    heal = parser.add_argument_group("supervision (self-healing)")
    heal.add_argument(
        "--no-supervise", action="store_true",
        help="disable worker restart; a dead worker stays dead",
    )
    heal.add_argument(
        "--restart-max", type=int, default=5,
        help="restarts allowed per window before permanent eviction",
    )
    heal.add_argument(
        "--restart-backoff-ms", type=float, default=25.0,
        help="base restart backoff, logical ms (doubles per retry)",
    )
    heal.add_argument(
        "--restart-window-ms", type=float, default=60_000.0,
        help="sliding restart-budget window, logical ms",
    )
    fchaos = parser.add_argument_group(
        "fleet chaos (worker kill / reply drop / pipe stall)"
    )
    fchaos.add_argument(
        "--fleet-chaos", action="store_true",
        help="arm the seeded fleet-level fault injector on the router",
    )
    fchaos.add_argument("--fleet-chaos-seed", type=int, default=0)
    fchaos.add_argument("--p-kill", type=float, default=0.05)
    fchaos.add_argument("--p-drop-reply", type=float, default=0.02)
    fchaos.add_argument("--p-stall", type=float, default=0.02)
    fchaos.add_argument(
        "--chaos-bucket-ms", type=float, default=10.0,
        help="logical-clock quantum; one chaos draw per (kind, worker, bucket)",
    )
    args = parser.parse_args(argv)

    if args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")

    service_payload = {
        "max_batch": args.max_batch,
        "max_wait_ms": args.max_wait_ms,
        "sort": args.sort,
        "engine": args.engine,
    }
    if args.chaos:
        service_payload["chaos"] = {
            "seed": args.chaos_seed,
            "p_backend_error": args.p_backend_error,
            "p_latency_spike": args.p_latency_spike,
            "p_stuck_warp": args.p_stuck_warp,
            "p_corrupt_stack": args.p_corrupt_stack,
            "targets": [t for t in args.chaos_targets.split(",") if t],
        }

    fleet_chaos = None
    if args.fleet_chaos:
        fleet_chaos = FleetChaosConfig(
            seed=args.fleet_chaos_seed,
            p_kill=args.p_kill,
            p_drop_reply=args.p_drop_reply,
            p_stall=args.p_stall,
            bucket_ms=args.chaos_bucket_ms,
        )
    config = FleetConfig(
        workers=args.workers,
        replicas=args.replicas,
        scatter_threshold=args.scatter_threshold,
        seed=args.seed,
        pin_cpus=not args.no_pin,
        service=service_payload,
        supervise=not args.no_supervise,
        restart=RestartPolicy(
            backoff_base_ms=args.restart_backoff_ms,
            max_restarts=args.restart_max,
            window_ms=args.restart_window_ms,
        ),
        fleet_chaos=fleet_chaos,
        trace=not args.no_trace,
        log=not args.no_log,
    )
    router = FleetRouter(config)
    router.start()
    if args.otlp_endpoint:
        from repro.telemetry import OTLPExporter

        router.attach_otlp(OTLPExporter(
            args.otlp_endpoint,
            flush_ms=args.otlp_flush_ms,
            service_name="repro-fleet",
        ))
        print(f"otlp egress -> {args.otlp_endpoint} "
              f"(flush every {args.otlp_flush_ms:.0f} ms)")
    print(
        f"fleet: {len(router.live_workers())}/{args.workers} workers booted "
        f"(seed={args.seed}, engine={args.engine})"
    )
    register_demo_sessions(router, args.data, args.seed)
    server = FleetServer(
        router,
        host=args.host,
        port=args.port,
        load_queries_per_tick=args.load_queries_per_tick,
        load_tick_ms=args.load_tick_ms,
    )
    return run_fleet(server, duration_s=args.serve_duration)


if __name__ == "__main__":
    sys.exit(main())
