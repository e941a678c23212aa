"""Serve mode: HTTP endpoints, Prometheus validity, graceful drain.

Most routing assertions go through :meth:`TraversalServer.respond`
directly (no sockets, deterministic); one test starts the real
threaded listener on an OS-assigned port and exercises every endpoint
over HTTP, and the chaos test asserts the acceptance criterion that
``/metrics`` stays valid Prometheus exposition text while faults fire.
"""

import json
import urllib.request

import numpy as np
import pytest

from repro.gpusim.faults import ChaosConfig
from repro.service.serve import (
    METRICS_CONTENT_TYPE,
    SyntheticLoadDriver,
    TraversalServer,
    run_serve,
)
from repro.service.service import ServiceConfig, TraversalService
from repro.telemetry import SLOConfig, TelemetryConfig

def assert_valid_prometheus(text: str) -> None:
    """Strict structural validation of the text exposition format.

    Delegates to :mod:`tests.prometheus_validator` (label escaping,
    HELP/TYPE ordering, family contiguity, exemplar syntax, histogram
    bucket structure) — the same validator CI pipes live scrapes
    through.  Kept here because test_fleet.py imports it by this name.
    """
    from tests.prometheus_validator import validate

    validate(text)


def _service(**kw) -> TraversalService:
    defaults = dict(
        telemetry=TelemetryConfig(enabled=True, profile_sample_rate=1),
        memo_capacity=0,
        max_batch=16,
    )
    defaults.update(kw)
    svc = TraversalService(ServiceConfig(**defaults))
    rng = np.random.default_rng(11)
    svc.register("pc", "pc", rng.random((256, 2)), radius=0.1)
    svc.register("knn", "knn", rng.random((256, 2)), k=4)
    return svc


def _drive(svc: TraversalService, n: int = 48, seed: int = 12) -> None:
    rng = np.random.default_rng(seed)
    for name in ("pc", "knn"):
        svc.query_many(name, rng.random((n, 2)), now=svc.now_ms + 1.0)


class TestRouting:
    def test_unknown_route_404(self):
        server = TraversalServer(_service())
        status, ctype, body = server.respond("/nope")
        assert status == 404
        payload = json.loads(body)
        assert "/metrics" in payload["routes"]

    def test_trailing_slash_and_query_string(self):
        server = TraversalServer(_service())
        assert server.respond("/healthz/")[0] == 200
        assert server.respond("/tracez?limit=abc")[0] == 400
        assert server.respond("/tracez?limit=-1")[0] == 400

    def test_metrics_disabled_503(self):
        svc = TraversalService(ServiceConfig())  # telemetry off
        server = TraversalServer(svc)
        status, _, _ = server.respond("/metrics")
        assert status == 503
        status, _, body = server.respond("/profilez")
        assert status == 200
        assert json.loads(body)["enabled"] is False

    def test_metrics_valid_prometheus(self):
        svc = _service()
        _drive(svc)
        server = TraversalServer(svc)
        status, ctype, body = server.respond("/metrics")
        assert status == 200
        assert ctype == METRICS_CONTENT_TYPE
        text = body.decode()
        assert_valid_prometheus(text)
        assert "service_queries_total" in text
        assert "profile_hot_op_cycles" in text

    def test_statsz_strict_json(self):
        svc = _service(slo=SLOConfig(latency_ms=5.0, error_rate=0.1))
        _drive(svc)
        server = TraversalServer(svc)
        status, _, body = server.respond("/statsz")
        assert status == 200
        payload = json.loads(body)
        assert payload["queries_submitted"] == 96
        assert "pc" in payload["slo"]
        # Strict: a standards-compliant parser must accept it.
        json.loads(body.decode(), parse_constant=_reject_constants)

    def test_profilez_ranks_hot_ops(self):
        svc = _service()
        _drive(svc)
        server = TraversalServer(svc)
        status, _, body = server.respond("/profilez")
        payload = json.loads(body)
        assert payload["enabled"] is True
        assert payload["launches_sampled"] > 0
        for name, sess in payload["sessions"].items():
            ops = sess["ops"]
            assert ops, name
            cycles = [o["cycles"] for o in ops]
            assert cycles == sorted(cycles, reverse=True), name

    def test_tracez_limit(self):
        svc = _service()
        _drive(svc)
        server = TraversalServer(svc)
        payload = json.loads(server.respond("/tracez?limit=3")[2])
        assert payload["enabled"] is True
        assert len(payload["spans"]) == 3
        assert payload["total_spans"] > 3

    def test_healthz_degrades_on_slo_burn(self):
        svc = _service(slo=SLOConfig(latency_ms=1e-6, min_events=5))
        _drive(svc)
        server = TraversalServer(svc)
        status, _, body = server.respond("/healthz")
        assert status == 503
        payload = json.loads(body)
        assert payload["status"] == "degraded"
        assert payload["checks"]["slo"]["fast_burns"]


def _reject_constants(name):
    raise ValueError(f"non-strict JSON constant {name!r}")


class TestChaos:
    def test_metrics_valid_under_chaos(self):
        """Acceptance: with chaos armed, /metrics and /healthz keep
        answering with parseable payloads while faults, retries, and
        breaker trips land in the metrics themselves."""
        svc = _service(
            chaos=ChaosConfig(
                seed=1337,
                p_backend_error=0.5,
                p_corrupt_stack=0.3,
                p_stuck_warp=0.2,
            ),
            slo=SLOConfig(latency_ms=5.0, error_rate=0.05, min_events=5),
        )
        server = TraversalServer(svc)
        rng = np.random.default_rng(13)
        for i in range(6):
            for name in ("pc", "knn"):
                svc.query_many(
                    name, rng.random((24, 2)), now=svc.now_ms + 1.0
                )
        status, _, body = server.respond("/metrics")
        assert status == 200
        text = body.decode()
        assert_valid_prometheus(text)
        assert "service_faults_injected_total" in text
        status, _, body = server.respond("/healthz")
        assert status in (200, 503)
        json.loads(body)
        status, _, body = server.respond("/statsz")
        assert status == 200
        json.loads(body)


class TestLoadDriver:
    def test_tick_is_deterministic_and_advances_clock(self):
        svc_a, svc_b = _service(), _service()
        for svc in (svc_a, svc_b):
            server = TraversalServer(svc)
            driver = SyntheticLoadDriver(
                svc, server.lock, seed=21, tick_ms=2.0, queries_per_tick=16
            )
            for _ in range(5):
                driver.tick()
        assert svc_a.now_ms == svc_b.now_ms == 10.0
        assert svc_a._submitted == svc_b._submitted
        sa, sb = svc_a.stats(), svc_b.stats()
        assert sa.total_exec_ms == sb.total_exec_ms

    def test_validation(self):
        svc = _service()
        server = TraversalServer(svc)
        with pytest.raises(ValueError):
            SyntheticLoadDriver(svc, server.lock, tick_ms=0.0)
        with pytest.raises(ValueError):
            SyntheticLoadDriver(svc, server.lock, queries_per_tick=-1)


class TestHTTPServer:
    def test_end_to_end_over_http(self):
        svc = _service()
        _drive(svc)
        server = TraversalServer(svc, port=0)
        host, port = server.start()
        try:
            base = f"http://{host}:{port}"
            with urllib.request.urlopen(f"{base}/healthz", timeout=10) as r:
                assert r.status == 200
                assert json.loads(r.read())["ok"] is True
            with urllib.request.urlopen(f"{base}/metrics", timeout=10) as r:
                assert r.headers["Content-Type"] == METRICS_CONTENT_TYPE
                assert_valid_prometheus(r.read().decode())
            with urllib.request.urlopen(f"{base}/profilez", timeout=10) as r:
                assert json.loads(r.read())["enabled"] is True
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(f"{base}/bogus", timeout=10)
            assert exc.value.code == 404
        finally:
            server.shutdown()

    def test_shutdown_drains_pending(self):
        svc = _service(max_batch=1024, max_wait_ms=1e9)
        rng = np.random.default_rng(31)
        for i in range(10):
            svc.submit("pc", rng.random(2), now=float(i))
        assert svc.queue_depth == 10
        server = TraversalServer(svc, port=0)
        server.start()
        server.shutdown(drain=True)
        assert svc.queue_depth == 0
        st = svc.stats()
        assert st.queries_completed + st.queries_failed == 10

    def test_shutdown_idempotent(self):
        server = TraversalServer(_service(), port=0)
        server.start()
        server.shutdown()
        server.shutdown()  # second call is a no-op

    def test_run_serve_duration_exits_cleanly(self):
        svc = _service()
        server = TraversalServer(svc, port=0)
        server.driver = SyntheticLoadDriver(
            svc, server.lock, seed=5, queries_per_tick=4, interval_s=0.01
        )
        messages = []
        rc = run_serve(
            server, duration_s=0.3, announce=messages.append
        )
        assert rc == 0
        assert server.driver.ticks > 0
        assert any("serving on http://" in m for m in messages)
        assert svc.queue_depth == 0


def test_import_leaves_http_stack_unloaded():
    """Importing the service and fleet loads no HTTP client/server or
    TLS module: a process that serves no HTTP keeps them out of memory
    (the listeners and the OTLP exporter import them on first use)."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = (
        "import sys; import repro.service, repro.fleet; "
        "print(sorted(m for m in ('ssl', 'http.client', 'http.server', "
        "'urllib.request') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True, env=env,
    )
    assert out.stdout.strip() == "[]"
