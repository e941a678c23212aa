"""One diagnostics contract, proven on both surfaces.

The single-process :class:`~repro.service.serve.TraversalServer` and a
2-worker :class:`~repro.fleet.server.FleetServer` share one HTTP
front-end (:mod:`repro.telemetry.http`), so one contract test runs
over both:

* every route answers, and the 404 body lists exactly the route table;
* a malformed ``limit``, ``level`` or ``format`` is a 400 with a JSON
  error body on ``/tracez``, ``/logz`` and ``/statsz``;
* ``/tracez`` and ``/logz`` return the newest 256 items by default and
  none at ``?limit=0``; ``router.tracez()`` / ``router.logz()`` stay
  unbounded;
* every JSON body is strict (no ``NaN`` token);
* random query strings never make ``respond()`` raise, and it answers
  only 200, 400, 404 or 503.

The sweep tests count frames: one ``telemetry_drain`` per live worker
feeds both rings, and a telemetry-off worker answers it bare.
"""

import json
from urllib.parse import urlencode

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import wire
from repro.fleet import worker as fleet_worker
from repro.fleet.router import FleetConfig, FleetRouter, WorkerHandle
from repro.fleet.server import FleetServer
from repro.service.serve import TraversalServer
from repro.service.service import ServiceConfig, TraversalService
from repro.telemetry import TelemetryConfig
from repro.telemetry.http import DEFAULT_LIMIT, ROUTES
from tests.test_fleet_tracing import _fleet, _register_geo

#: more than DEFAULT_LIMIT, so the default cap is visible.
FILL = DEFAULT_LIMIT + 44


def _service_surface():
    svc = TraversalService(ServiceConfig(
        telemetry=TelemetryConfig(enabled=True, profile_sample_rate=1),
        memo_capacity=0, max_batch=16,
    ))
    rng = np.random.default_rng(11)
    svc.register("pc", "pc", rng.random((256, 2)), radius=0.1)
    svc.query_many("pc", rng.random((FILL, 2)), now=1.0)
    for i in range(FILL):
        svc.telemetry.log.info("contract.fill", 2.0, i=i)
    return TraversalServer(svc), lambda: None


def _fleet_surface():
    router = _fleet(workers=2)
    geo = _register_geo(router)
    for i in range(FILL // 16 + 1):
        router.submit_many("pc-geocity", geo.points[:16], now=5.0 + i)
    for i in range(FILL):
        router._rlog("info", "contract.fill", 100.0, i=i)
    return FleetServer(router), router.drain


@pytest.fixture(scope="module", params=["service", "fleet"])
def surface(request):
    server, close = (
        _service_surface() if request.param == "service"
        else _fleet_surface()
    )
    yield server
    close()


def _strict(body: bytes):
    def reject(name):
        raise ValueError(f"non-strict JSON constant {name!r}")

    return json.loads(body.decode(), parse_constant=reject)


def test_routes_and_404_list(surface):
    for route in ROUTES:
        status, ctype, body = surface.respond(route)
        assert status == 200, (route, body[:200])
        if route == "/metrics":
            assert "text" in ctype
        else:
            assert "json" in ctype
            _strict(body)
    status, _, body = surface.respond("/nope")
    assert status == 404
    assert _strict(body)["routes"] == list(ROUTES)


@pytest.mark.parametrize("route", ["/tracez", "/logz", "/statsz"])
@pytest.mark.parametrize(
    "query", ["limit=abc", "limit=-1", "level=bogus", "format=xml"]
)
def test_malformed_params_are_400_json(surface, route, query):
    status, ctype, body = surface.respond(f"{route}?{query}")
    assert status == 400
    assert "json" in ctype
    assert "error" in _strict(body)


def test_default_and_zero_limits(surface):
    spans = _strict(surface.respond("/tracez")[2])["spans"]
    assert len(spans) == DEFAULT_LIMIT
    assert _strict(surface.respond("/tracez?limit=0")[2])["spans"] == []
    assert len(_strict(surface.respond("/tracez?limit=3")[2])["spans"]) == 3
    records = _strict(surface.respond("/logz")[2])["records"]
    assert len(records) == DEFAULT_LIMIT
    assert records[-1]["fields"]["i"] == FILL - 1  # the newest end
    assert _strict(surface.respond("/logz?limit=0")[2])["records"] == []
    everything = _strict(surface.respond(f"/logz?limit={10 * FILL}")[2])
    assert len(everything["records"]) > DEFAULT_LIMIT


def test_router_payloads_stay_unbounded(surface):
    if not isinstance(surface, FleetServer):
        pytest.skip("router payload methods are fleet-only")
    assert len(surface.router.tracez()["spans"]) > DEFAULT_LIMIT
    assert len(surface.router.logz()["records"]) > DEFAULT_LIMIT


PARAMS = st.sampled_from(["limit", "level", "trace_id", "worker", "format", "x"])
VALUES = st.one_of(
    st.text(max_size=12),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["0", "warn", "error", "chrome", "json", "1e3", " 5", "nan"]),
)
QUERIES = st.one_of(
    st.lists(st.tuples(PARAMS, VALUES), max_size=4).map(urlencode),
    st.text(max_size=30),
)
PATHS = st.sampled_from(list(ROUTES) + ["/", "/nope", "/tracez/", "/logz//"])


@settings(max_examples=60, deadline=None)
@given(path=PATHS, query=QUERIES)
def test_random_query_strings_never_raise(surface, path, query):
    status, _, body = surface.respond(f"{path}?{query}")
    assert status in (200, 400, 404, 503)
    if status != 200 or not path.startswith("/metrics"):
        _strict(body)


def test_unparseable_request_target_is_400(surface):
    status, _, body = surface.respond("//[")
    assert status == 400
    assert "error" in _strict(body)


class _CannedPipe:
    """A worker pipe that answers every frame with one canned reply."""

    def __init__(self, reply):
        self.reply = reply

    def send(self, frame):
        pass

    def poll(self, timeout=None):
        return True

    def recv(self):
        return dict(self.reply)


def test_one_sweep_sends_one_frame_per_live_worker(monkeypatch):
    router = FleetRouter(FleetConfig(workers=3))
    span = {"span_id": "s0", "t_start_ms": 1.0, "name": "query"}
    records = [{"seq": i, "t_ms": 1.0, "level": "info", "event": "e"}
               for i in range(2)]
    replies = {
        "w0": {"ok": True, "spans": [span], "logs": records},
        "w1": {"ok": True},  # telemetry off: nothing to ship
        "w2": {"ok": True, "spans": [span]},
    }
    for i, (worker, reply) in enumerate(replies.items()):
        router.handles[worker] = WorkerHandle(
            worker, i, None, _CannedPipe(reply)
        )
    router.handles["w2"].breaker.trip("dead")
    sent = []
    send = wire.send_request

    def counting_send(conn, worker, cmd, **payload):
        sent.append((worker, cmd))
        return send(conn, worker, cmd, **payload)

    monkeypatch.setattr(wire, "send_request", counting_send)
    assert router.drain_telemetry() == (1, 2)
    assert sent == [("w0", "telemetry_drain"), ("w1", "telemetry_drain")]
    assert [s["worker"] for s in router.trace.records()] == ["w0"]
    assert [r["worker"] for r in router.logs.records()] == ["w0", "w0"]


def test_sweep_counts_frames_on_a_live_fleet(monkeypatch):
    router = _fleet(workers=2)
    try:
        geo = _register_geo(router)
        router.submit_many("pc-geocity", geo.points[:16], now=5.0)
        sent = []
        send = wire.send_request

        def counting_send(conn, worker, cmd, **payload):
            sent.append(cmd)
            return send(conn, worker, cmd, **payload)

        monkeypatch.setattr(wire, "send_request", counting_send)
        for path in ("/tracez", "/logz", "/debugz"):
            sent.clear()
            FleetServer(router).respond(path)
            assert sent == ["telemetry_drain"] * 2, path
    finally:
        router.drain()


@pytest.mark.parametrize("enabled", [False, True])
def test_worker_answers_sweep_with_both_outboxes(enabled):
    """In-process worker: a telemetry-off worker answers the sweep with
    a bare ok frame; a telemetry-on one ships both outboxes at once."""
    svc = fleet_worker.build_worker_service(0, 7, {
        "max_batch": 16,
        "telemetry": {"enabled": enabled},
        "chaos": {"seed": 5, "p_backend_error": 0.6,
                  "targets": ["lockstep", "nonlockstep"]},
    })
    state = fleet_worker._WorkerState("w0", 0, 7, svc)
    if enabled:
        svc.telemetry.tracer.enable_outbox()
        svc.telemetry.log.enable_outbox()
    rng = np.random.default_rng(3)
    data = rng.random((256, 2))
    svc.register("pc", "pc", data, radius=0.1)
    svc.query_many("pc", data[:48], now=1.0)
    frame = wire.request("telemetry_drain")
    reply = fleet_worker._handle_frame(state, frame)
    if not enabled:
        assert reply == {"ok": True}
        return
    assert reply["spans"] and reply["logs"]
    # The outboxes are empty now: the next sweep ships nothing.
    assert fleet_worker._handle_frame(state, frame) == {"ok": True}
