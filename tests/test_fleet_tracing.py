"""Fleet-wide distributed tracing: propagation, assembly, determinism.

The acceptance criteria of ISSUE 9 live here:

* a scatter ticket across >= 2 workers renders as ONE trace — every
  worker-side span carries the router-minted trace id and parents
  (directly or through its batch span) under the ticket span;
* the merged timeline is served at the fleet ``/tracez`` (JSON and
  Chrome ``trace_event`` with one process track per worker) and the
  merged ``/metrics`` exposition carries exemplar trace ids and passes
  the strict validator;
* chaos: killing a worker mid-scatter loses no trace identity — the
  retried rows' spans still parent under the original ticket's trace
  id, and two same-seed runs (same kill included) produce
  bit-identical normalized span trees;
* supervisor recovery spans (``fleet.recover``) appear in the merged
  timeline;
* tracing off is zero-cost: no ticket spans, no ``spans`` payloads,
  ``/tracez`` answers ``enabled: false``.
"""

import json

import numpy as np

from repro.fleet.router import (
    FleetConfig,
    FleetRouter,
    RestartPolicy,
)
from repro.fleet.server import FleetServer
from repro.points.datasets import dataset_by_name
from repro.telemetry import OTLPExporter, derive_trace_id
from repro.telemetry.otlp import otlp_span_id, otlp_trace_id
from tests.otlp_stub import OTLPCollectorStub
from tests.test_serve import assert_valid_prometheus

N_DATA = 256


def _fleet(workers=2, **kw) -> FleetRouter:
    cfg = FleetConfig(
        workers=workers,
        pin_cpus=False,
        scatter_threshold=kw.pop("scatter_threshold", 8),
        call_timeout_s=60.0,
        service=kw.pop("service", {"max_batch": 64, "max_wait_ms": 2.0}),
        restart=kw.pop("restart", RestartPolicy(backoff_base_ms=0.0)),
        **kw,
    )
    router = FleetRouter(cfg)
    router.start()
    return router


def _register_geo(router, n=N_DATA, seed=7):
    geo = dataset_by_name("geocity", n, seed=seed)
    router.register("pc-geocity", "pc", geo.points, radius=0.1, leaf_size=4)
    return geo


def _ticket_spans(payload: dict, trace_id: str):
    """Split one trace's spans into (ticket_span, children-by-worker)."""
    spans = [s for s in payload["spans"] if s["trace_id"] == trace_id]
    tickets = [s for s in spans if s["name"] == "fleet.ticket"]
    assert len(tickets) == 1
    return tickets[0], [s for s in spans if s is not tickets[0]]


def _normalize(spans) -> list:
    """Span tree reduced to its seed-determined identity tuple."""
    return sorted(
        (
            s["trace_id"], s["span_id"], s.get("parent_id"),
            s["name"], s["worker"], s.get("status"),
            float(s.get("t_start_ms") or 0.0),
            float(s.get("t_end_ms") or 0.0),
        )
        for s in spans
    )


class TestOneTracePerTicket:
    def test_scatter_ticket_renders_as_one_trace(self):
        """Acceptance: a scattered batch across 2 workers is ONE trace."""
        router = _fleet(workers=2)
        try:
            geo = _register_geo(router)
            res = router.submit_many("pc-geocity", geo.points[:16], now=5.0)
            assert len(res) == 16 and all(r["ok"] for r in res)

            payload = router.tracez()
            assert payload["enabled"] is True
            assert payload["workers"] == ["router", "w0", "w1"]

            trace_id = derive_trace_id(router.config.seed, "ticket:0")
            tspan, children = _ticket_spans(payload, trace_id)
            assert tspan["worker"] == "router"
            assert tspan["status"] == "ok"
            assert tspan["args"]["mode"] == "scatter"

            # Every child parents under the ticket span directly (query
            # and batch spans) or through its batch span (launch spans).
            by_id = {s["span_id"]: s for s in children}
            for span in children:
                parent = span["parent_id"]
                while parent != tspan["span_id"]:
                    parent = by_id[parent]["parent_id"]
            # ... and the work really ran on both shards.
            assert {s["worker"] for s in children} == {"w0", "w1"}
            assert any(s["name"].startswith("launch:") for s in children)
        finally:
            router.drain()

    def test_routed_ticket_traces_too(self):
        router = _fleet(workers=2)
        try:
            geo = _register_geo(router)
            router.submit_many("pc-geocity", geo.points[:2], now=5.0)
            payload = router.tracez()
            trace_id = derive_trace_id(router.config.seed, "ticket:0")
            tspan, children = _ticket_spans(payload, trace_id)
            assert tspan["args"]["mode"] == "routed"
            assert len({s["worker"] for s in children}) == 1
        finally:
            router.drain()

    def test_tracez_http_and_chrome_export(self):
        router = _fleet(
            workers=2,
            service={"max_batch": 64, "max_wait_ms": 2.0,
                     "telemetry": {"enabled": True,
                                   "profile_sample_rate": 1}},
        )
        server = FleetServer(router)
        try:
            geo = _register_geo(router)
            router.submit_many("pc-geocity", geo.points[:16], now=5.0)

            status, ctype, body = server.respond("/tracez?limit=4")
            assert status == 200
            payload = json.loads(body)
            assert payload["enabled"] is True
            assert len(payload["spans"]) == 4
            assert payload["ingested"] > 4

            status, _, body = server.respond("/tracez?limit=oops")
            assert status == 400

            status, _, body = server.respond("/tracez?format=chrome")
            assert status == 200
            chrome = json.loads(body)
            names = {
                e["args"]["name"]
                for e in chrome["traceEvents"]
                if e["name"] == "process_name"
            }
            # One process track per worker plus the router's own row.
            assert names == {"router", "w0", "w1"}
            assert any(e["ph"] == "b" for e in chrome["traceEvents"])

            status, _, body = server.respond("/profilez")
            assert status == 200
            prof = json.loads(body)
            assert prof["enabled"] is True
            assert set(prof["workers"]) == {"w0", "w1"}
        finally:
            router.drain()

    def test_merged_metrics_carry_exemplars_and_validate(self):
        """Acceptance: exemplar trace ids on merged histogram buckets,
        and the whole merged scrape passes the strict validator."""
        router = _fleet(workers=2)
        try:
            geo = _register_geo(router)
            router.submit_many("pc-geocity", geo.points[:16], now=5.0)
            text = router.metrics_text()
            assert_valid_prometheus(text)
            assert "# {trace_id=" in text
            trace_id = derive_trace_id(router.config.seed, "ticket:0")
            assert trace_id in text
            assert "fleet_trace_spans_ingested_total" in text
        finally:
            router.drain()


class TestChaosPropagation:
    """Satellite 3: trace context survives a chaos worker kill."""

    def _run_with_kill(self, seed=123):
        router = _fleet(workers=2, seed=seed)
        try:
            geo = _register_geo(router)
            victim = router.handles["w1"]
            victim.proc.kill()
            victim.proc.join()
            # w1 is still breaker-live at the scatter snapshot, so its
            # slice is computed, the exchange fails, and the rows come
            # back shard-lost for the retry to reclaim.
            res = router.submit_many("pc-geocity", geo.points[:16], now=5.0)
            assert len(res) == 16 and all(r["ok"] for r in res)
            payload = router.tracez()
            return payload, derive_trace_id(router.config.seed, "ticket:0")
        finally:
            router.drain()

    def test_retried_rows_parent_under_original_ticket(self):
        payload, trace_id = self._run_with_kill()
        tspan, children = _ticket_spans(payload, trace_id)
        assert tspan["status"] == "ok"
        # The retry is recorded on the ticket span itself...
        retries = [e for e in tspan["events"] if e["name"] == "scatter_retry"]
        assert len(retries) == 1
        assert retries[0]["args"]["worker"] == "w0"
        assert retries[0]["args"]["rows"] == 8
        # ... and every span of the retried rows carries the original
        # ticket's trace id, from the surviving worker.
        assert children, "retried rows produced no spans"
        assert {s["worker"] for s in children} == {"w0"}
        assert all(s["trace_id"] == trace_id for s in children)
        # The dead shard's rows are in the trace: all 16 rows' query
        # spans landed on w0 (8 sliced + 8 retried).
        queries = [s for s in children if s["name"] == "query"]
        assert len(queries) == 16

    def test_same_seed_runs_produce_identical_span_trees(self):
        """Determinism: trace ids, span ids, parentage and logical
        timestamps are pure functions of the fleet seed — even with a
        worker killed mid-scatter."""
        a, _ = self._run_with_kill(seed=123)
        b, _ = self._run_with_kill(seed=123)
        assert _normalize(a["spans"]) == _normalize(b["spans"])
        assert a["workers"] == b["workers"]

    def test_different_seeds_mint_different_trace_ids(self):
        a, trace_a = self._run_with_kill(seed=123)
        b, trace_b = self._run_with_kill(seed=124)
        assert trace_a != trace_b


class TestRecoverySpans:
    """Satellite 2: supervisor recovery spans join the merged timeline."""

    def test_heal_emits_fleet_recover_span(self):
        router = _fleet(workers=2)
        try:
            geo = _register_geo(router)
            victim = router.handles["w1"]
            victim.proc.kill()
            victim.proc.join()
            assert router.heal(now=50.0) == {"w1": "restarted"}

            payload = router.tracez()
            recovers = [
                s for s in payload["spans"] if s["name"] == "fleet.recover"
            ]
            assert len(recovers) == 1
            span = recovers[0]
            assert span["worker"] == "router"
            assert span["status"] == "ok"
            assert any(e["name"] == "replayed" for e in span["events"])

            # The healed worker traces again: a post-heal scatter shows
            # both incarnations' spans in one timeline.
            router.submit_many("pc-geocity", geo.points[:16], now=60.0)
            payload = router.tracez()
            assert "w1" in payload["workers"]
        finally:
            router.drain()


class TestOTLPEgress:
    def test_fleet_spans_reach_collector_with_parentage(self):
        """Acceptance: the scatter ticket is one trace at the collector
        too — worker spans arrive with the router-minted trace id."""
        with OTLPCollectorStub() as stub:
            router = _fleet(workers=2)
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
                stats = router.statsz()["fleet"]["otlp"]
                assert stats["posts_ok"] >= 1
                assert stats["spans_dropped"] == 0
                trace_id = derive_trace_id(router.config.seed, "ticket:0")
            finally:
                router.drain()
        received = stub.spans()
        assert received
        wire_trace = otlp_trace_id(trace_id)
        ours = [s for s in received if s["traceId"] == wire_trace]
        by_id = {s["spanId"]: s for s in ours}
        ticket = by_id[otlp_span_id(f"{trace_id}:t0")]
        children = [
            s for s in ours if s.get("parentSpanId") == ticket["spanId"]
        ]
        assert children, "no spans parented under the ticket at the collector"

    def test_collector_loss_only_counts(self):
        """Satellite 5 in-process: a dead collector must not break the
        serve path — drops are counted, /metrics keeps exposing."""
        stub = OTLPCollectorStub().start()
        endpoint = stub.endpoint
        stub.stop()
        router = _fleet(workers=2)
        try:
            exporter = OTLPExporter(endpoint, flush_ms=10_000.0, timeout_s=0.5)
            router.attach_otlp(exporter)
            geo = _register_geo(router)
            res = router.submit_many("pc-geocity", geo.points[:16], now=5.0)
            assert all(r["ok"] for r in res)
            exporter.flush()
            assert exporter.stats()["post_failures"] >= 1
            assert exporter.stats()["spans_dropped"] > 0
            text = router.metrics_text()
            assert_valid_prometheus(text)
            assert "otlp_spans_dropped_total" in text
            assert router.healthz()["ok"]
        finally:
            router.drain()


class TestZeroCostOff:
    def test_trace_off_fleet(self):
        router = _fleet(workers=2, trace=False)
        server = FleetServer(router)
        try:
            geo = _register_geo(router)
            res = router.submit_many("pc-geocity", geo.points[:16], now=5.0)
            assert all(r["ok"] for r in res)
            assert router.trace is None
            assert router.tracez() == {
                "enabled": False, "spans": [], "workers": [],
            }
            spans, _ = router.drain_telemetry()
            assert spans == 0
            status, _, body = server.respond("/tracez")
            assert json.loads(body)["enabled"] is False
            status, _, body = server.respond("/tracez?format=chrome")
            assert json.loads(body) == {"traceEvents": []}
            assert router.statsz()["fleet"]["trace"] is None
            text = router.metrics_text()
            assert_valid_prometheus(text)
            assert "fleet_trace_spans_ingested_total" not in text
        finally:
            router.drain()

    def test_worker_telemetry_off_ships_no_spans(self):
        """Workers with telemetry disabled answer submit and
        telemetry_drain without ever attaching a spans payload; the
        router still traces its own tickets."""
        router = _fleet(
            workers=2,
            service={"max_batch": 64, "max_wait_ms": 2.0,
                     "telemetry": {"enabled": False}},
        )
        try:
            geo = _register_geo(router)
            res = router.submit_many("pc-geocity", geo.points[:16], now=5.0)
            assert all(r["ok"] for r in res)
            assert router.drain_telemetry() == (0, 0)
            payload = router.tracez()
            assert payload["workers"] == ["router"]
            assert all(s["worker"] == "router" for s in payload["spans"])
        finally:
            router.drain()
