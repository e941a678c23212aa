"""Demo / load-generator CLI: ``python -m repro.service [--demo|--chaos|--serve]``.

Simulates an online serving session end-to-end on the logical clock:

1. registers two sessions (point correlation over a clustered
   "geocity"-like dataset; kNN over a uniform random dataset) through
   the shared plan cache;
2. replays a mixed arrival trace — a spatially *coherent* phase (a
   client sweeping a region, queries arriving in Morton order), a
   *shuffled* phase (uncorrelated global traffic), and a trickle of
   stragglers whose batches time out small enough to route to the CPU
   backend;
3. prints the :class:`~repro.service.stats.ServiceStats` snapshot and
   an A/B line showing what the batch spatial reorder bought versus
   dispatching in arrival order.

``--chaos`` arms the deterministic fault injector
(:class:`~repro.gpusim.faults.ChaosConfig`; seed from ``--chaos-seed``
or the ``REPRO_CHAOS_SEED`` environment variable) and verifies the
resilience layer's contract after the run: every submitted query must
resolve — with an oracle-checked result (brute force, ``np.allclose``)
or a typed error — no matter how many injected failures, retries,
breaker trips, and degraded-mode failovers it took.  The process exits
non-zero if any query is lost or any served result is wrong.

``--serve`` switches to live serve mode (``docs/OBSERVABILITY.md``):
the service stays up behind HTTP pull endpoints (``/metrics``,
``/healthz``, ``/statsz``, ``/profilez``, ``/tracez``) with a
synthetic load driver ticking the logical clock, until SIGTERM/SIGINT
triggers a graceful drain.  Telemetry is implied on; the continuous
kernel profiler and SLO burn-rate tracking activate via their flags.

Everything is modeled (no wall-clock, no GPU): times come from the
same cost models the experiment harness uses.  In serve mode wall
time only *paces* the load driver — the modeled clock still advances
deterministically per tick.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List

import numpy as np

from repro.gpusim.faults import ChaosConfig
from repro.points.datasets import dataset_by_name
from repro.points.sorting import morton_order
from repro.service.batcher import QueryTicket
from repro.service.resilience import ServiceError
from repro.service.service import (
    ENGINES,
    SHED_POLICIES,
    SORT_MODES,
    ServiceConfig,
    TraversalService,
)
from repro.telemetry import SLOConfig, TelemetryConfig


def build_service(cfg: ServiceConfig, n_data: int, seed: int) -> TraversalService:
    svc = TraversalService(cfg)
    geo = dataset_by_name("geocity", n_data, seed=seed)
    rnd = dataset_by_name("random", n_data, seed=seed + 1)
    svc.register("pc-geocity", app="pc", data=geo.points, radius=0.1, leaf_size=4)
    svc.register("knn-random", app="knn", data=rnd.points, k=4, leaf_size=4)
    return svc


def generate_trace(
    svc: TraversalService, n_queries: int, seed: int
) -> List[QueryTicket]:
    """Replay the mixed arrival trace against ``svc``; every admitted
    query's ticket is returned so callers can audit the outcome."""
    rng = np.random.default_rng(seed)
    sessions = ["pc-geocity", "knn-random"]
    pools = {}
    for name in sessions:
        data = svc.registry.get(name).data
        jitter = rng.normal(scale=0.01, size=data.shape)
        pools[name] = np.clip(data + jitter, data.min(axis=0), data.max(axis=0))

    tickets: List[QueryTicket] = []

    def submit(name: str, coord, now: float) -> None:
        try:
            tickets.append(svc.submit(name, coord, now=now))
        except ServiceError:
            # Admission control refused it (reject-new at the queue
            # cap): the client saw a typed error, nothing was queued.
            pass

    now = 0.0
    per_session = n_queries // len(sessions)
    for name in sessions:
        pool = pools[name]
        half = per_session // 2
        coherent = pool[morton_order(pool)][:half]
        shuffled = pool[rng.permutation(len(pool))][:half]
        for stream in (coherent, shuffled):
            for coord in stream:
                now += float(rng.exponential(0.002))
                svc.advance(now)
                submit(name, coord, now)
    # Stragglers: sparse arrivals whose windows expire under-filled —
    # these exercise the CPU backend via timeout flushes.
    for i in range(6):
        name = sessions[i % len(sessions)]
        now += svc.config.max_wait_ms * 2.0
        svc.advance(now)
        submit(name, pools[name][rng.integers(len(pools[name]))], now)
    svc.advance(now + svc.config.max_wait_ms * 2.0)
    svc.flush()
    return tickets


def verify_tickets(svc: TraversalService, tickets: List[QueryTicket]):
    """Audit the resilience contract over a finished trace.

    Returns ``(lost, wrong, ok, failed)``: tickets that never resolved,
    served results that disagree with the brute-force oracle, and the
    ok/typed-error split.  Served results are grouped per session and
    oracle-checked in one vectorized pass.
    """
    lost = [t for t in tickets if not t.done]
    ok = [t for t in tickets if t.ok]
    failed = [t for t in tickets if t.error is not None]
    wrong: List[QueryTicket] = []
    by_session = {}
    for t in ok:
        by_session.setdefault(t.session, []).append(t)
    for name, group in by_session.items():
        sess = svc.registry.get(name)
        coords = np.stack([t.coords for t in group])
        expected = sess.oracle(coords)
        for i, t in enumerate(group):
            for key, exp in expected.items():
                got = t.result[key]
                if np.issubdtype(np.asarray(exp[i]).dtype, np.floating):
                    good = np.allclose(got, exp[i], rtol=1e-9, atol=1e-9)
                else:
                    good = np.array_equal(got, exp[i])
                if not good:
                    wrong.append(t)
                    break
    return lost, wrong, ok, failed


def write_telemetry_outputs(svc: TraversalService, args) -> None:
    """Write the --trace-out/--metrics-out/--flight-out artifacts."""
    tel = svc.telemetry
    if not tel.enabled:
        return
    if args.trace_out and tel.tracer is not None:
        trace = tel.tracer.chrome_trace(close_open_at=svc.now_ms)
        with open(args.trace_out, "w") as f:
            json.dump(trace, f)
        if not args.as_json:
            print(
                f"chrome trace: {len(trace['traceEvents'])} events "
                f"-> {args.trace_out}"
            )
    if args.metrics_out and tel.registry is not None:
        if args.metrics_out.endswith(".json"):
            payload = json.dumps(tel.registry.to_dict(), indent=2) + "\n"
        else:
            payload = tel.registry.expose_text()
        with open(args.metrics_out, "w") as f:
            f.write(payload)
        if not args.as_json:
            print(
                f"metrics: {len(tel.registry)} instruments -> {args.metrics_out}"
            )
    if args.flight_out and tel.flight is not None:
        with open(args.flight_out, "w") as f:
            json.dump(tel.flight.to_dict(), f, indent=2)
        if not args.as_json:
            print(
                f"flight recorder: {len(tel.flight.dumps)} dumps "
                f"-> {args.flight_out}"
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.service")
    parser.add_argument(
        "--demo", action="store_true",
        help="run the load-generated demo session (default action)",
    )
    parser.add_argument("--queries", type=int, default=1024, help="trace length")
    parser.add_argument("--data", type=int, default=4096, help="dataset size")
    parser.add_argument("--max-batch", type=int, default=256)
    parser.add_argument("--max-wait-ms", type=float, default=2.0)
    parser.add_argument("--sort", choices=SORT_MODES, default="morton")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the stats snapshot as JSON instead of the text report",
    )
    eng = parser.add_argument_group("execution engine")
    eng.add_argument(
        "--engine", choices=ENGINES, default="codegen",
        help="GPU execution engine for dispatched batches",
    )
    eng.add_argument(
        "--compact-threshold", type=float, default=0.9,
        help="frontier-compaction trigger for GPU launches",
    )
    eng.add_argument(
        "--dump-source", metavar="DIR",
        help="write every emitted source into DIR: each step loop of "
        "the codegen engine as <kernel>.<kind>.py and each per-point "
        "traversal (the cpu backend and similarity probe) as "
        "<kernel>.traverse.py",
    )
    eng.add_argument(
        "--memo-capacity", type=int, default=256,
        help="per-session traversal-result memo size (0 = off)",
    )
    eng.add_argument(
        "--memo-quantum", type=float, default=0.0,
        help="memo coordinate quantization grid (0 = exact match)",
    )
    tel = parser.add_argument_group("telemetry (see docs/OBSERVABILITY.md)")
    tel.add_argument(
        "--telemetry", action="store_true",
        help="enable the telemetry layer (implied by the --*-out flags)",
    )
    tel.add_argument(
        "--trace-out", metavar="PATH",
        help="write spans as Chrome trace_event JSON (chrome://tracing)",
    )
    tel.add_argument(
        "--metrics-out", metavar="PATH",
        help="write the metrics registry (.json -> JSON export, "
        "anything else -> Prometheus text exposition)",
    )
    tel.add_argument(
        "--flight-out", metavar="PATH",
        help="write flight-recorder rings + failure dumps as JSON",
    )
    tel.add_argument(
        "--step-events", type=int, default=32,
        help="max StepTrace samples attached per launch span",
    )
    tel.add_argument(
        "--flight-capacity", type=int, default=64,
        help="flight-recorder ring size per session (>= 1)",
    )
    tel.add_argument(
        "--profile-sample-rate", type=int, default=0,
        help="continuous kernel profiler: profile every N-th GPU "
        "launch (0 = off; serve mode defaults to 1)",
    )
    tel.add_argument(
        "--profile-top-k", type=int, default=10,
        help="hot-op entries exported per session",
    )
    serve = parser.add_argument_group("serve mode (pull-based telemetry)")
    serve.add_argument(
        "--serve", action="store_true",
        help="stay up behind HTTP pull endpoints until SIGTERM/SIGINT",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8321,
        help="listen port (0 = let the OS pick a free one)",
    )
    serve.add_argument(
        "--serve-duration", type=float, default=None, metavar="SECONDS",
        help="exit (with a graceful drain) after this long — for "
        "scripted smoke runs; default: run until signalled",
    )
    serve.add_argument(
        "--load-queries-per-tick", type=int, default=32,
        help="synthetic load per driver tick (0 = no load driver); "
        "the default is sized so timeout flushes reach min_gpu_batch "
        "and exercise the GPU backends (and thus the profiler)",
    )
    serve.add_argument(
        "--load-tick-ms", type=float, default=2.0,
        help="logical milliseconds the clock advances per driver tick",
    )
    serve.add_argument(
        "--otlp-endpoint", default=None, metavar="URL",
        help="OTLP/JSON collector URL (e.g. http://host:4318); spans, "
        "metrics, and log records all ship there (/v1/traces, "
        "/v1/metrics, /v1/logs) on a background thread — an "
        "unreachable collector only increments drop counters",
    )
    serve.add_argument(
        "--otlp-flush-ms", type=float, default=1000.0,
        help="wall milliseconds between OTLP flushes",
    )
    slo = parser.add_argument_group("service-level objectives")
    slo.add_argument(
        "--slo-latency-ms", type=float, default=None,
        help="latency objective: target fraction of queries must "
        "resolve within this many modeled ms (default: off)",
    )
    slo.add_argument(
        "--slo-latency-target", type=float, default=0.99,
        help="fraction of queries that must meet --slo-latency-ms",
    )
    slo.add_argument(
        "--slo-error-rate", type=float, default=None,
        help="error budget: allowed fraction of failed queries "
        "(default: off)",
    )
    slo.add_argument(
        "--slo-fast-window-ms", type=float, default=50.0,
        help="fast burn-rate window (modeled ms)",
    )
    slo.add_argument(
        "--slo-slow-window-ms", type=float, default=500.0,
        help="slow burn-rate window (modeled ms)",
    )
    res = parser.add_argument_group("resilience")
    res.add_argument(
        "--deadline-ms", type=float, default=None,
        help="per-query latency deadline in modeled ms (default: off)",
    )
    res.add_argument(
        "--visit-budget", type=int, default=100_000,
        help="watchdog: max traversal steps per launch (0 = unbounded)",
    )
    res.add_argument(
        "--max-queue-depth", type=int, default=None,
        help="admission control: per-session pending-queue cap",
    )
    res.add_argument("--shed-policy", choices=SHED_POLICIES, default="reject-new")
    chaos = parser.add_argument_group("chaos (deterministic fault injection)")
    chaos.add_argument(
        "--chaos", action="store_true",
        help="inject faults and verify zero lost queries afterwards",
    )
    chaos.add_argument(
        "--chaos-seed", type=int,
        default=int(os.environ.get("REPRO_CHAOS_SEED", "0")),
        help="fault-schedule seed (default: $REPRO_CHAOS_SEED or 0)",
    )
    chaos.add_argument("--p-backend-error", type=float, default=0.15)
    chaos.add_argument("--p-latency-spike", type=float, default=0.10)
    chaos.add_argument("--p-stuck-warp", type=float, default=0.05)
    chaos.add_argument("--p-corrupt-stack", type=float, default=0.10)
    chaos.add_argument(
        "--chaos-targets", default="lockstep,nonlockstep",
        help="comma-separated backends eligible for injection",
    )
    args = parser.parse_args(argv)

    if args.flight_capacity < 1:
        parser.error(
            f"--flight-capacity must be >= 1, got {args.flight_capacity}"
        )
    if args.profile_sample_rate < 0:
        parser.error(
            "--profile-sample-rate must be >= 0, "
            f"got {args.profile_sample_rate}"
        )

    chaos_cfg = None
    if args.chaos:
        chaos_cfg = ChaosConfig(
            seed=args.chaos_seed,
            p_backend_error=args.p_backend_error,
            p_latency_spike=args.p_latency_spike,
            p_stuck_warp=args.p_stuck_warp,
            p_corrupt_stack=args.p_corrupt_stack,
            targets=tuple(t for t in args.chaos_targets.split(",") if t),
        )

    telemetry_on = bool(
        args.telemetry or args.serve
        or args.trace_out or args.metrics_out or args.flight_out
    )
    profile_rate = args.profile_sample_rate
    if profile_rate == 0 and args.serve:
        profile_rate = 1
    slo_cfg = None
    if args.slo_latency_ms is not None or args.slo_error_rate is not None:
        slo_cfg = SLOConfig(
            latency_ms=args.slo_latency_ms,
            latency_target=args.slo_latency_target,
            error_rate=args.slo_error_rate,
            fast_window_ms=args.slo_fast_window_ms,
            slow_window_ms=args.slo_slow_window_ms,
        )
    if args.dump_source:
        import pathlib

        from repro.core import passes as _passes

        dump_dir = pathlib.Path(args.dump_source)
        dump_dir.mkdir(parents=True, exist_ok=True)

        def _dump(name: str, source: str) -> None:
            (dump_dir / f"{name}.py").write_text(source + "\n")

        _passes.dump_sink = _dump

    cfg = ServiceConfig(
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        sort=args.sort,
        seed=args.seed,
        deadline_ms=args.deadline_ms,
        visit_budget=args.visit_budget or None,
        max_queue_depth=args.max_queue_depth,
        shed_policy=args.shed_policy,
        chaos=chaos_cfg,
        engine=args.engine,
        compact_threshold=args.compact_threshold,
        memo_capacity=args.memo_capacity,
        memo_quantum=args.memo_quantum,
        telemetry=TelemetryConfig(
            enabled=telemetry_on,
            step_events=args.step_events,
            flight_capacity=args.flight_capacity,
            profile_sample_rate=profile_rate,
            profile_top_k=args.profile_top_k,
        ),
        slo=slo_cfg,
    )

    if args.serve:
        from repro.service.serve import SyntheticLoadDriver, TraversalServer
        from repro.telemetry.http import serve_until_signalled

        svc = build_service(cfg, args.data, args.seed)
        otlp = None
        if args.otlp_endpoint:
            from repro.telemetry import OTLPExporter

            otlp = OTLPExporter(
                args.otlp_endpoint,
                flush_ms=args.otlp_flush_ms,
                service_name="repro-serve",
            )
        server = TraversalServer(
            svc, host=args.host, port=args.port, otlp=otlp
        )
        if args.load_queries_per_tick > 0:
            server.driver = SyntheticLoadDriver(
                svc,
                server.lock,
                seed=args.seed,
                tick_ms=args.load_tick_ms,
                queries_per_tick=args.load_queries_per_tick,
            )
        return serve_until_signalled(server, duration_s=args.serve_duration)

    mode = "chaos" if args.chaos else "demo"
    if not args.as_json:
        print(f"== online traversal service {mode} (sort={cfg.sort}) ==")
        if chaos_cfg is not None:
            print(
                f"chaos: seed={chaos_cfg.seed} targets={chaos_cfg.targets} "
                f"p=(err {chaos_cfg.p_backend_error}, lat {chaos_cfg.p_latency_spike}, "
                f"stuck {chaos_cfg.p_stuck_warp}, corrupt {chaos_cfg.p_corrupt_stack})"
            )
    svc = build_service(cfg, args.data, args.seed)
    tickets = generate_trace(svc, args.queries, args.seed)
    stats = svc.stats()

    if args.as_json:
        print(json.dumps(stats.to_dict(), indent=2, default=str))
    else:
        print(stats.format())
    write_telemetry_outputs(svc, args)

    if args.chaos:
        lost, wrong, ok, failed = verify_tickets(svc, tickets)
        r = stats.resilience
        if not args.as_json:
            print(
                f"\nchaos audit: {len(tickets)} admitted, {len(ok)} served, "
                f"{len(failed)} typed errors, {len(lost)} lost, "
                f"{len(wrong)} oracle mismatches"
            )
            print(
                f"resilience activity: retries={r.retries} "
                f"degraded_batches={r.degraded_batches} "
                f"breaker_trips={r.breaker_trips} "
                f"injected={sum(r.injected_faults.values())}"
            )
            flight = svc.telemetry.flight
            if flight is not None:
                print(
                    f"flight recorder: {len(flight.dumps)} fault timelines "
                    f"captured ({flight.dumps_dropped} beyond the dump cap)"
                )
                for dump in flight.dumps[:2]:
                    print(flight.format_dump(dump))
        if lost or wrong:
            print(
                f"CHAOS FAILURE: lost={len(lost)} wrong={len(wrong)}",
                file=sys.stderr,
            )
            return 1
        if not args.as_json:
            print("chaos audit passed: zero lost queries, all results correct")
        return 0

    # A/B: the identical trace dispatched in arrival order.  (Skipped
    # under chaos: injected latency spikes would pollute the timing.)
    base = build_service(cfg.with_(sort="arrival"), args.data, args.seed)
    generate_trace(base, args.queries, args.seed)
    base_stats = base.stats()
    delta = base_stats.total_exec_ms - stats.total_exec_ms
    pct = 100.0 * delta / base_stats.total_exec_ms if base_stats.total_exec_ms else 0.0
    print(
        f"\nspatial sort A/B: arrival-order exec {base_stats.total_exec_ms:.4f} ms "
        f"-> {cfg.sort} {stats.total_exec_ms:.4f} ms ({pct:+.1f}% saved)"
    )
    # GPU-side delta: the straggler batches route to the CPU backend in
    # both runs, so the sort's real effect shows in the GPU backends.
    gpu = lambda s: s.total_exec_ms - s.backends["cpu"].total_exec_ms
    base_gpu, sorted_gpu = gpu(base_stats), gpu(stats)
    gpu_pct = 100.0 * (base_gpu - sorted_gpu) / base_gpu if base_gpu else 0.0
    print(
        f"GPU backends only:  arrival-order exec {base_gpu:.4f} ms "
        f"-> {cfg.sort} {sorted_gpu:.4f} ms ({gpu_pct:+.1f}% saved)"
    )
    print(f"backends exercised: {stats.backends_exercised}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
