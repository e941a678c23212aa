"""Fixed-seed digest of every diagnostics endpoint body, both surfaces.

A refactor of the HTTP front-end, the fleet rings or the drain verbs
must not change what a scraper reads.  This script drives one
single-process service (telemetry on) and one 2-worker fleet (60
submits, one SIGKILL, one heal) on explicit logical timestamps, with
backend faults injected so that the event logs fill.  It asks every
endpoint through ``respond()`` (no sockets) and prints one SHA-256
per body.  Run it on two trees and diff the output::

    PYTHONPATH=src python -m tests.diagnostics_payloads --out DIR

``--out`` also writes each body, so a differing hash can be diffed
field by field.  Wall-clock fields (emit and compile timings) differ
between two runs of the same tree; they are masked to ``0`` before
hashing so that the digest is a pure function of the seed.
"""

from __future__ import annotations

import argparse
import hashlib
import pathlib
import re

import numpy as np

#: JSON keys whose values are wall-clock measurements, masked before
#: hashing (two runs of one tree disagree on them).
WALL_CLOCK_KEYS = ("codegen_emit_ms",)

SERVICE_PATHS = (
    "/metrics", "/healthz", "/statsz", "/profilez",
    "/tracez", "/tracez?limit=5", "/tracez?limit=100000",
    "/logz", "/logz?level=warn", "/logz?limit=100000", "/debugz",
)

FLEET_PATHS = (
    "/metrics", "/healthz", "/statsz", "/profilez",
    "/tracez?limit=100000", "/tracez?limit=5", "/tracez?format=chrome",
    "/logz?limit=100000", "/logz?level=warn&limit=100000",
    "/logz?worker=w0&limit=100000", "/logz?limit=7", "/debugz",
)


def _mask(body: bytes) -> bytes:
    text = body.decode()
    for key in WALL_CLOCK_KEYS:
        text = re.sub(rf'("{key}": )[-0-9.e+]+', r"\g<1>0", text)
        text = re.sub(rf'({key}(?:_total)?(?:\{{[^}}]*\}})? )[-0-9.e+]+',
                      r"\g<1>0", text)
    return text.encode()


def service_bodies():
    from repro.gpusim.faults import ChaosConfig
    from repro.service.serve import TraversalServer
    from repro.service.service import ServiceConfig, TraversalService
    from repro.telemetry import TelemetryConfig

    svc = TraversalService(ServiceConfig(
        telemetry=TelemetryConfig(enabled=True, profile_sample_rate=1),
        chaos=ChaosConfig(seed=1337, p_backend_error=0.5),
        max_batch=16, seed=3,
    ))
    rng = np.random.default_rng(11)
    svc.register("pc", "pc", rng.random((256, 2)), radius=0.1)
    svc.register("knn", "knn", rng.random((256, 2)), k=4)
    for i in range(6):
        for name in ("pc", "knn"):
            svc.query_many(name, rng.random((20, 2)), now=svc.now_ms + 1.0)
    server = TraversalServer(svc)
    return {path: server.respond(path) for path in SERVICE_PATHS}


def fleet_bodies():
    from repro.fleet import FleetConfig, FleetRouter, FleetServer, RestartPolicy
    from repro.points.datasets import dataset_by_name

    router = FleetRouter(FleetConfig(
        workers=2, pin_cpus=False, seed=7, scatter_threshold=16,
        service={
            "max_batch": 64, "max_wait_ms": 2.0,
            "telemetry": {"enabled": True, "profile_sample_rate": 1},
            "chaos": {"seed": 5, "p_backend_error": 0.6,
                      "targets": ["lockstep", "nonlockstep"]},
        },
        restart=RestartPolicy(backoff_base_ms=0.0),
    ))
    router.start()
    try:
        geo = dataset_by_name("geocity", 512, seed=7)
        router.register("pc-geocity", "pc", geo.points, radius=0.1,
                        leaf_size=4)
        rng = np.random.default_rng(5)
        for i in range(60):
            if i == 30:
                victim = router.handles["w1"]
                victim.proc.kill()
                victim.proc.join()
            if i == 32:
                router.heal(now=10.0 * i)
            rows = geo.points[rng.integers(len(geo.points), size=4 + i % 24)]
            router.submit_many("pc-geocity", rows, now=10.0 * (i + 1))
        server = FleetServer(router)
        return {path: server.respond(path) for path in FLEET_PATHS}
    finally:
        router.drain()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.diagnostics_payloads")
    parser.add_argument("--out", default=None,
                        help="directory to write each (masked) body into")
    args = parser.parse_args(argv)
    out = pathlib.Path(args.out) if args.out else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    for surface, bodies in (("service", service_bodies()),
                            ("fleet", fleet_bodies())):
        for path, (status, _, body) in bodies.items():
            body = _mask(body)
            digest = hashlib.sha256(body).hexdigest()[:16]
            print(f"{surface:8s} {status} {digest} {path}")
            if out is not None:
                name = re.sub(r"[^A-Za-z0-9]+", "_", f"{surface}{path}")
                (out / f"{name}.txt").write_bytes(body)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
