"""Fleet-wide structured logging: shipment, correlation, diagnostics.

The e2e acceptance criteria of ISSUE 10 live here:

* a scatter/gather ticket under chaos yields ``/logz?trace_id=...``
  records, ``/tracez`` spans, and a ``/metrics`` exemplar that all
  carry the SAME router-minted trace id — the telemetry triad joined;
* worker records ship over the same reply pipes as spans (piggyback +
  ``telemetry_drain`` sweeps) and merge with the router's own records into
  one deterministically-ordered stream: two same-seed runs (chaos kill
  included) produce bit-identical streams;
* a ServiceError on a fleet worker leaves a flight-recorder dump
  reachable router-side (the ``flight`` verb), including at
  ``flight_capacity=1``;
* ``/logz`` / ``/tracez`` / ``/statsz`` answer 400 + JSON error bodies
  on malformed query params, never 500;
* ``/debugz`` is one strict-JSON diagnostics snapshot with recent
  error records;
* logging off is zero-cost: no ``logs`` payloads on the wire and
  ``/logz`` answers ``enabled: false``.
"""

import json

from repro.fleet.assembly import WorkerRing, record_order
from repro.fleet.server import FleetServer
from repro.telemetry import OTLPExporter, derive_trace_id
from repro.telemetry.otlp import otlp_trace_id
from tests.otlp_stub import OTLPCollectorStub, flatten_log_records
from tests.test_fleet_tracing import _fleet, _register_geo
from tests.test_serve import assert_valid_prometheus

#: service payload whose chaos injector makes workers log retries and
#: fault draws during a scattered submit (failover still recovers, so
#: every row answers ok while warn-level records accumulate).
CHAOS_SERVICE = {
    "max_batch": 64,
    "max_wait_ms": 2.0,
    "chaos": {"seed": 5, "p_backend_error": 0.6,
              "targets": ["lockstep", "nonlockstep"]},
}


def _normalize_logs(records) -> list:
    """A log stream reduced to its seed-determined identity."""
    return [
        json.dumps(r, sort_keys=True)
        for r in records
    ]


class TestAssembler:
    def test_ingest_tags_bounds_and_sorts(self):
        asm = WorkerRing("records", record_order, capacity=3)
        asm.ingest("w1", [
            {"seq": 0, "t_ms": 2.0, "level": "info", "event": "b"},
        ])
        asm.ingest("w0", [
            {"seq": 0, "t_ms": 2.0, "level": "warn", "event": "a"},
            {"seq": 1, "t_ms": 1.0, "level": "error", "event": "c"},
        ])
        asm.ingest("router", [
            {"seq": 9, "t_ms": 3.0, "level": "debug", "event": "d"},
        ])
        assert asm.ingested == 4
        assert asm.dropped == 1  # capacity 3: oldest evicted
        recs = asm.records()
        # deterministic (t_ms, worker, seq) order, worker tag attached
        assert [(r["t_ms"], r["worker"]) for r in recs] == [
            (1.0, "w0"), (2.0, "w0"), (3.0, "router"),
        ]
        assert asm.workers() == ["router", "w0"]
        assert [r["event"] for r in asm.records(level="warn")] == ["c", "a"]
        assert asm.to_dict(limit=1)["records"][0]["event"] == "d"

    def test_sink_failures_never_break_assembly(self):
        asm = WorkerRing("records", record_order)
        asm.sink = lambda batch: 1 / 0
        assert asm.ingest("w0", [{"seq": 0, "t_ms": 0.0, "level": "info",
                                  "event": "x"}]) == 1
        assert asm.ingested == 1


class TestTriadCorrelation:
    def test_ticket_logs_spans_and_exemplar_share_one_trace_id(self):
        """Acceptance: /logz?trace_id=..., /tracez, and a /metrics
        exemplar all yield the same ticket trace id under chaos."""
        router = _fleet(workers=2, service=dict(CHAOS_SERVICE))
        try:
            geo = _register_geo(router)
            res = router.submit_many("pc-geocity", geo.points[:16], now=5.0)
            assert len(res) == 16 and all(r["ok"] for r in res)
            tid = derive_trace_id(router.config.seed, "ticket:0")

            # Pillar 1: the merged log stream, filtered to the ticket.
            payload = router.logz(trace_id=tid)
            assert payload["enabled"] is True
            recs = payload["records"]
            assert recs, "chaos produced no trace-scoped log records"
            assert all(r["trace_id"] == tid for r in recs)
            # ... and at least one record came from a worker process
            # (shipped over the wire, not minted in the router).
            assert {r["worker"] for r in recs} & {"w0", "w1"}
            assert {r["event"] for r in recs} <= {
                "chaos.fault", "retry", "breaker.transition",
                "plan.invalidated", "plan.failure_threshold",
                "batch.failed", "fleet.scatter_retry",
            }

            # Pillar 2: the merged timeline holds the ticket span.
            spans = [s for s in router.tracez()["spans"]
                     if s["trace_id"] == tid]
            assert any(s["name"] == "fleet.ticket" for s in spans)

            # Pillar 3: the merged scrape carries the id as an exemplar.
            text = router.metrics_text()
            assert_valid_prometheus(text)
            assert f'trace_id="{tid}"' in text
        finally:
            router.drain()

    def test_worker_death_retry_and_drain_verdicts_logged(self):
        router = _fleet(workers=2, seed=123)
        try:
            geo = _register_geo(router)
            victim = router.handles["w1"]
            victim.proc.kill()
            victim.proc.join()
            res = router.submit_many("pc-geocity", geo.points[:16], now=5.0)
            assert all(r["ok"] for r in res)
            tid = derive_trace_id(router.config.seed, "ticket:0")

            payload = router.logz()
            events = {r["event"]: r for r in payload["records"]}
            death = events["fleet.worker_death"]
            assert death["level"] == "error"
            assert death["worker"] == "router"
            assert death["fields"]["worker"] == "w1"
            retry = events["fleet.scatter_retry"]
            assert retry["level"] == "warn"
            assert retry["trace_id"] == tid  # correlated to the ticket
            assert retry["fields"]["rows"] == 8
        finally:
            report = router.drain()
        assert report["workers"]["w0"]["drained"]  # w1 died mid-test
        # Post-drain the stream holds each worker's own drain verdict
        # (the record rides the drain reply itself) and the router's.
        recs = router.logs.records()
        worker_verdicts = [r for r in recs if r["event"] == "worker.drain"]
        assert {r["worker"] for r in worker_verdicts} == {"w0"}
        assert all(r["fields"]["drained"] for r in worker_verdicts)
        router_verdicts = [r for r in recs
                           if r["event"] == "fleet.drain_verdict"]
        assert router_verdicts
        assert all(r["worker"] == "router" for r in router_verdicts)

    def test_same_seed_runs_produce_bit_identical_streams(self):
        """Acceptance: the merged stream is a pure function of the
        fleet seed — even with a chaos kill mid-scatter."""
        def run(seed):
            router = _fleet(workers=2, seed=seed,
                            service=dict(CHAOS_SERVICE))
            try:
                geo = _register_geo(router)
                victim = router.handles["w1"]
                victim.proc.kill()
                victim.proc.join()
                router.submit_many("pc-geocity", geo.points[:16], now=5.0)
                return _normalize_logs(router.logz()["records"])
            finally:
                router.drain()

        a, b = run(123), run(123)
        assert a, "chaos run produced no log records"
        assert a == b


class TestFlightDumps:
    """Satellite: a worker-side failure is recoverable router-side."""

    def test_worker_fault_dump_reachable_via_flight_verb(self):
        router = _fleet(workers=2, service={
            **CHAOS_SERVICE,
            "telemetry": {"enabled": True, "flight_capacity": 1},
        })
        try:
            geo = _register_geo(router)
            res = router.submit_many("pc-geocity", geo.points[:16], now=5.0)
            assert all(r["ok"] for r in res)
            dumps = router.flight_dumps()
            assert dumps["unreachable"] == []
            assert "router" in dumps
            flights = {w: f for w, f in dumps["workers"].items()
                       if f is not None}
            assert flights, "no worker answered the flight verb"
            # flight_capacity=1 still captures the chaos fault dumps.
            assert any(f["dumps"] for f in flights.values())
            some = next(f for f in flights.values() if f["dumps"])
            assert some["capacity"] == 1
            kinds = {d["reason"] for f in flights.values()
                     for d in f["dumps"]}
            assert any(k.startswith("chaos:") for k in kinds)
            json.dumps(dumps)  # JSON-safe end to end
        finally:
            router.drain()

    def test_telemetry_off_workers_answer_none(self):
        router = _fleet(workers=2, service={
            "max_batch": 64, "max_wait_ms": 2.0,
            "telemetry": {"enabled": False},
        })
        try:
            _register_geo(router)
            dumps = router.flight_dumps()
            assert set(dumps["workers"]) == {"w0", "w1"}
            assert all(f is None for f in dumps["workers"].values())
        finally:
            router.drain()


class TestHTTPSurface:
    def test_logz_filters_over_http(self):
        router = _fleet(workers=2, service=dict(CHAOS_SERVICE))
        server = FleetServer(router)
        try:
            geo = _register_geo(router)
            router.submit_many("pc-geocity", geo.points[:16], now=5.0)

            status, ctype, body = server.respond("/logz")
            assert status == 200 and "json" in ctype
            payload = json.loads(body)
            assert payload["enabled"] is True
            assert payload["records"]
            assert set(payload["workers"]) <= {"router", "w0", "w1"}

            some_worker = payload["records"][0]["worker"]
            scoped = json.loads(
                server.respond(f"/logz?worker={some_worker}")[2]
            )
            assert scoped["records"]
            assert all(r["worker"] == some_worker
                       for r in scoped["records"])

            floor = json.loads(server.respond("/logz?level=warn&limit=3")[2])
            assert len(floor["records"]) <= 3
            assert all(r["level"] in ("warn", "error")
                       for r in floor["records"])

            tid = derive_trace_id(router.config.seed, "ticket:0")
            one = json.loads(server.respond(f"/logz?trace_id={tid}")[2])
            assert all(r["trace_id"] == tid for r in one["records"])
        finally:
            router.drain()

    def test_malformed_params_are_400_json_everywhere(self):
        """Satellite: bad query params are a client error with a JSON
        body on every diagnostics route — never a 500."""
        router = _fleet(workers=2)
        server = FleetServer(router)
        try:
            _register_geo(router)
            for path in (
                "/logz?limit=abc", "/logz?limit=-1", "/logz?level=bogus",
                "/tracez?limit=abc", "/tracez?limit=-1",
                "/statsz?limit=abc", "/statsz?limit=-2",
            ):
                status, ctype, body = server.respond(path)
                assert status == 400, path
                assert "json" in ctype, path
                assert "error" in json.loads(body), path
            # 404 advertises the full diagnostics plane.
            routes = json.loads(server.respond("/nope")[2])["routes"]
            assert "/logz" in routes and "/debugz" in routes
        finally:
            router.drain()

    def test_debugz_snapshot(self):
        router = _fleet(workers=2, seed=123)
        server = FleetServer(router)
        try:
            geo = _register_geo(router)
            victim = router.handles["w1"]
            victim.proc.kill()
            victim.proc.join()
            router.submit_many("pc-geocity", geo.points[:16], now=5.0)

            status, _, body = server.respond("/debugz")
            assert status == 200
            payload = json.loads(
                body.decode(), parse_constant=_reject_constants
            )
            for key in ("config", "now_ms", "workers", "ring", "sessions",
                        "supervision", "telemetry", "recent_errors"):
                assert key in payload, key
            assert payload["config"]["workers"] == 2
            assert payload["workers"]["w1"]["breaker"] == "open"
            assert payload["ring"]["live"] == ["w0"]
            assert "w1" in payload["ring"]["dead"]
            assert payload["telemetry"]["trace"]["ingested"] > 0
            assert payload["telemetry"]["logs"]["ingested"] > 0
            errors = payload["recent_errors"]
            assert any(r["event"] == "fleet.worker_death" for r in errors)
        finally:
            router.drain()

    def test_statsz_and_metrics_carry_log_accounting(self):
        router = _fleet(workers=2, service=dict(CHAOS_SERVICE))
        try:
            geo = _register_geo(router)
            router.submit_many("pc-geocity", geo.points[:16], now=5.0)
            router.drain_telemetry()
            stats = router.statsz()["fleet"]["logs"]
            assert stats["ingested"] > 0
            assert stats["retained"] > 0
            text = router.metrics_text()
            assert_valid_prometheus(text)
            assert "fleet_log_records_ingested_total" in text
        finally:
            router.drain()


class TestZeroCostOff:
    def test_log_off_fleet(self):
        router = _fleet(workers=2, log=False)
        server = FleetServer(router)
        try:
            geo = _register_geo(router)
            res = router.submit_many("pc-geocity", geo.points[:16], now=5.0)
            assert all(r["ok"] for r in res)
            assert router.logs is None and router.log is None
            assert router.logz() == {
                "enabled": False, "records": [], "workers": [],
            }
            _, records = router.drain_telemetry()
            assert records == 0
            status, _, body = server.respond("/logz")
            assert status == 200
            assert json.loads(body)["enabled"] is False
            assert router.statsz()["fleet"]["logs"] is None
            text = router.metrics_text()
            assert_valid_prometheus(text)
            assert "fleet_log_records_ingested_total" not in text
        finally:
            router.drain()

    def test_worker_telemetry_off_ships_no_logs(self):
        """Workers with telemetry disabled never attach a logs payload;
        the router still records its own stream."""
        router = _fleet(workers=2, service={
            "max_batch": 64, "max_wait_ms": 2.0,
            "telemetry": {"enabled": False},
        })
        try:
            geo = _register_geo(router)
            router.submit_many("pc-geocity", geo.points[:16], now=5.0)
            assert router.drain_telemetry() == (0, 0)
            payload = router.logz()
            workers = {r["worker"] for r in payload["records"]}
            assert workers <= {"router"}
        finally:
            router.drain()


class TestOTLPLogEgress:
    def test_fleet_logs_reach_collector_with_worker_and_trace(self):
        """Acceptance: the collector stub receives spans, metrics, AND
        logs; exported records keep their worker tag and trace id."""
        with OTLPCollectorStub() as stub:
            router = _fleet(workers=2, service=dict(CHAOS_SERVICE))
            try:
                exporter = OTLPExporter(
                    stub.endpoint, flush_ms=10_000.0,
                    service_name="repro-fleet",
                )
                router.attach_otlp(exporter)
                geo = _register_geo(router)
                router.submit_many("pc-geocity", geo.points[:16], now=5.0)
                router.drain_telemetry()
                exporter.flush()
                stats = exporter.stats()
                assert stats["posts_by_signal"]["traces"] >= 1
                assert stats["posts_by_signal"]["logs"] >= 1
                assert stats["posts_by_signal"]["metrics"] >= 1
                assert stats["logs_dropped"] == 0
                tid = derive_trace_id(router.config.seed, "ticket:0")
            finally:
                router.drain()
        records = stub.log_records()
        assert records, "no log records reached the collector"
        attrs = [
            {kv["key"]: kv["value"] for kv in r.get("attributes", [])}
            for r in records
        ]
        workers = {a["worker"]["stringValue"] for a in attrs if "worker" in a}
        assert workers & {"w0", "w1", "router"}
        assert any(r.get("traceId") == otlp_trace_id(tid) for r in records)
        # ... and the metrics payloads parse as fleet series.
        metrics = stub.metrics()
        names = {m["name"] for m in metrics}
        assert any(n.startswith("fleet_") for n in names)


def _reject_constants(name):
    raise ValueError(f"non-strict JSON constant {name!r}")
