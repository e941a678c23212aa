"""Telemetry layer tests: metrics registry (Prometheus text + JSON
export), logical-clock span tracing with Chrome trace_event export,
flight-recorder rings and failure dumps, the zero-cost-when-off
contract of the NULL_TELEMETRY singleton, service-level span coverage
(submit -> batch -> dispatch -> launch -> steps), and the service CLI's
``--trace-out`` / ``--metrics-out`` / ``--flight-out`` exporters."""

import json
import math

import numpy as np
import pytest

from repro.points.datasets import dataset_by_name
from repro.service import ServiceConfig, TraversalService
from repro.telemetry import (
    DEFAULT_MS_BUCKETS,
    NULL_TELEMETRY,
    FlightRecorder,
    MetricsRegistry,
    Telemetry,
    TelemetryConfig,
    Tracer,
)


@pytest.fixture(scope="module")
def geocity512():
    return dataset_by_name("geocity", 512, seed=3).points


def jittered(data, n, seed, scale=0.01):
    rng = np.random.default_rng(seed)
    q = data[rng.permutation(len(data))][:n]
    return q + rng.normal(scale=scale, size=q.shape)


class TestCounter:
    def test_inc_and_labels(self):
        reg = MetricsRegistry()
        c = reg.counter("requests_total", "requests", labels=("backend",))
        c.inc(backend="cpu")
        c.inc(2, backend="lockstep")
        assert c.value(backend="cpu") == 1
        assert c.value(backend="lockstep") == 2
        assert c.value(backend="autoropes") == 0
        assert c.total() == 3

    def test_rejects_negative_and_nonfinite(self):
        c = MetricsRegistry().counter("c_total")
        with pytest.raises(ValueError):
            c.inc(-1)
        with pytest.raises(ValueError):
            c.inc(float("nan"))

    def test_label_names_enforced(self):
        c = MetricsRegistry().counter("c_total", labels=("a",))
        with pytest.raises(ValueError):
            c.inc()  # missing label
        with pytest.raises(ValueError):
            c.inc(a="x", b="y")  # extra label


class TestGauge:
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("depth", "queue depth", labels=("q",))
        g.set(5, q="pc")
        g.inc(2, q="pc")
        g.dec(q="pc")
        assert g.value(q="pc") == 6
        with pytest.raises(ValueError):
            g.set(float("inf"), q="pc")


class TestHistogram:
    def test_bucket_counts_and_overflow(self):
        h = MetricsRegistry().histogram("lat_ms", buckets=(1.0, 10.0))
        for v in (0.5, 0.9, 5.0, 50.0):
            h.observe(v)
        st = h.state()
        assert st.counts == [2, 1, 1]  # <=1, <=10, overflow
        assert st.count == 4
        assert st.sum == pytest.approx(56.4)

    def test_bounds_must_be_finite_ascending(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("a", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            reg.histogram("b", buckets=(1.0, float("inf")))
        with pytest.raises(ValueError):
            reg.histogram("c", buckets=())

    def test_prometheus_exposition_is_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_ms", "latency", buckets=(1.0, 10.0))
        h.observe(0.5)
        h.observe(5.0)
        h.observe(50.0)
        text = reg.expose_text()
        assert '# TYPE lat_ms histogram' in text
        assert 'lat_ms_bucket{le="1"} 1' in text
        assert 'lat_ms_bucket{le="10"} 2' in text
        assert 'lat_ms_bucket{le="+Inf"} 3' in text
        assert "lat_ms_count 3" in text
        # +Inf lives only in the exposition; the data model stays finite.
        assert all(math.isfinite(b) for b in h.bounds)

    def test_default_buckets_finite(self):
        assert all(math.isfinite(b) for b in DEFAULT_MS_BUCKETS)
        assert list(DEFAULT_MS_BUCKETS) == sorted(DEFAULT_MS_BUCKETS)


class TestRegistry:
    def test_register_once_by_name(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", "first", labels=("l",))
        b = reg.counter("x_total", "ignored", labels=("l",))
        assert a is b
        with pytest.raises(ValueError):
            reg.gauge("x_total")  # same name, different kind

    def test_to_dict_json_round_trips(self):
        reg = MetricsRegistry()
        reg.counter("q_total", "queries", labels=("s",)).inc(s="pc")
        reg.histogram("ms", buckets=(1.0,)).observe(0.5)
        d = reg.to_dict()
        blob = json.dumps(d, allow_nan=False)
        assert json.loads(blob) == d
        assert d["q_total"]["kind"] == "counter"
        assert d["ms"]["series"][0]["counts"] == [1, 0]


class TestExpositionEscaping:
    """Regression coverage for the text exposition format's escaping
    rules: backslash, double-quote, and newline in label values, and
    backslash/newline in HELP text."""

    def test_label_value_escapes(self):
        from repro.telemetry.metrics import escape_label_value

        assert escape_label_value('a\\b') == 'a\\\\b'
        assert escape_label_value('say "hi"') == 'say \\"hi\\"'
        assert escape_label_value('two\nlines') == 'two\\nlines'
        # Backslash escapes first — a literal \n sequence must not be
        # double-mangled into \\\\n-then-\n.
        assert escape_label_value('\\n') == '\\\\n'
        assert escape_label_value('plain') == 'plain'

    def test_help_text_escapes(self):
        from repro.telemetry.metrics import escape_help_text

        assert escape_help_text('path\\to\nthing') == 'path\\\\to\\nthing'
        # Double quotes are legal verbatim in HELP text.
        assert escape_help_text('a "quoted" word') == 'a "quoted" word'

    def test_exposed_text_stays_single_line_per_sample(self):
        reg = MetricsRegistry()
        c = reg.counter(
            'weird_total', 'help with \\ and\nnewline', labels=('tag',)
        )
        c.inc(tag='q"uo\\te\nnl')
        text = reg.expose_text()
        lines = [ln for ln in text.splitlines() if ln]
        # Escaping must keep every sample and comment on one line
        # (HELP, TYPE, one sample, the # EOF terminator).
        assert len(lines) == 4
        # OpenMetrics: counter metadata names drop the _total suffix.
        assert lines[0] == '# HELP weird help with \\\\ and\\nnewline'
        assert lines[2] == 'weird_total{tag="q\\"uo\\\\te\\nnl"} 1'
        assert lines[3] == '# EOF'

    def test_escaped_text_round_trips(self):
        """Un-escaping the exposed label value recovers the original —
        i.e. the escape is lossless, not just syntactically valid."""
        from repro.telemetry.metrics import escape_label_value

        original = 'a\\b "c"\nd\\n'
        escaped = escape_label_value(original)
        assert '\n' not in escaped
        unescaped = (
            escaped.replace('\\\\', '\x00')
            .replace('\\"', '"')
            .replace('\\n', '\n')
            .replace('\x00', '\\')
        )
        assert unescaped == original


class TestTracer:
    def test_span_lifecycle_and_events(self):
        tr = Tracer()
        span = tr.begin("query:pc", "query", "q1", 0.0, session="pc")
        span.event("enqueued", 0.5, depth=3)
        assert tr.get_open("q1") is span and span.open
        tr.end("q1", 4.0, "ok", latency_ms=4.0)
        assert not span.open and span.duration_ms() == 4.0
        assert span.args["latency_ms"] == 4.0

    def test_chrome_trace_structure(self):
        tr = Tracer()
        tr.begin("query:pc", "query", "q1", 1.0)
        tr.end("q1", 3.0)
        tr.instant("retry", "batch", 2.0, attempt=1)
        tr.begin("batch:pc", "batch", "b1", 1.5)  # left open
        doc = tr.chrome_trace(close_open_at=9.0)
        evs = doc["traceEvents"]
        phases = [e["ph"] for e in evs]
        assert phases.count("M") >= 4  # process_name rows
        b = next(e for e in evs if e["ph"] == "b" and e["id"] == "q1")
        e = next(e for e in evs if e["ph"] == "e" and e["id"] == "q1")
        assert b["ts"] == 1000.0 and e["ts"] == 3000.0  # µs
        assert b["pid"] != 0 and b["cat"] == "query"
        i = next(e for e in evs if e["ph"] == "i")
        assert i["name"] == "retry" and i["args"]["attempt"] == 1
        # Open span closed in the export only.
        be = next(e for e in evs if e["ph"] == "e" and e["id"] == "b1")
        assert be["ts"] == 9000.0
        assert tr.get_open("b1").open
        json.dumps(doc, allow_nan=False)  # must be valid strict JSON

    def test_max_spans_drops_and_counts(self):
        tr = Tracer(max_spans=2)
        tr.complete("a", "query", "s1", 0.0, 1.0)
        tr.complete("b", "query", "s2", 0.0, 1.0)
        tr.complete("c", "query", "s3", 0.0, 1.0)
        tr.instant("d", "service", 0.0)
        assert len(tr) == 2 and tr.dropped == 2


class TestFlightRecorder:
    def span(self, i, status="ok"):
        return {
            "name": f"s{i}", "track": "query", "span_id": f"q{i}",
            "t_start_ms": float(i), "t_end_ms": float(i) + 1.0,
            "status": status, "args": {}, "events": [],
        }

    def test_ring_is_bounded(self):
        fr = FlightRecorder(capacity=4)
        for i in range(10):
            fr.record("pc", self.span(i))
        ring = fr.ring("pc")
        assert len(ring) == 4 and ring[0]["name"] == "s6"

    def test_dump_freezes_timeline(self):
        fr = FlightRecorder(capacity=4)
        fr.record("pc", self.span(0))
        dump = fr.dump("pc", "backend_unavailable", 5.0, {"batch": 3})
        fr.record("pc", self.span(1))  # must not leak into the dump
        assert len(dump["timeline"]) == 1
        assert dump["reason"] == "backend_unavailable"
        assert fr.dumps[0] is dump

    def test_dump_budget(self):
        fr = FlightRecorder(capacity=2, max_dumps=1)
        fr.record("pc", self.span(0))
        assert fr.dump("pc", "a", 0.0) is not None
        assert fr.dump("pc", "b", 1.0) is None
        assert len(fr.dumps) == 1 and fr.dumps_dropped == 1

    def test_format_dump_elides_long_timelines(self):
        fr = FlightRecorder(capacity=40)
        for i in range(30):
            fr.record("pc", self.span(i))
        text = fr.format_dump(fr.dump("pc", "chaos:latency_spike", 99.0),
                              max_spans=5)
        assert "(25 earlier spans)" in text
        assert "s29" in text and "s3\n" not in text


class TestFacade:
    def test_disabled_is_the_null_singleton(self):
        assert Telemetry.from_config(TelemetryConfig()) is NULL_TELEMETRY
        assert NULL_TELEMETRY.enabled is False
        assert NULL_TELEMETRY.registry is None
        assert NULL_TELEMETRY.tracer is None
        assert NULL_TELEMETRY.flight is None
        snap = NULL_TELEMETRY.snapshot()
        assert snap.enabled is False and snap.metrics == {}

    def test_enabled_facade_wires_subsystems(self):
        tel = Telemetry.on(step_events=4)
        assert tel.enabled
        assert tel.registry is not None
        assert tel.tracer is not None
        assert tel.flight is not None
        span = tel.tracer.begin("q", "query", "q1", 0.0)
        tel.finish_span("pc", span, 2.0, "ok")
        assert tel.flight.ring("pc")[0]["t_end_ms"] == 2.0
        snap = tel.snapshot()
        assert snap.enabled and snap.spans_recorded == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TelemetryConfig(step_events=-1)
        with pytest.raises(ValueError):
            TelemetryConfig(flight_capacity=0)


class TestServiceTelemetry:
    """Span coverage and metric wiring on a live service."""

    def _service(self, data, **cfg_kw):
        cfg = ServiceConfig(
            max_batch=16, max_wait_ms=2.0,
            telemetry=TelemetryConfig(enabled=True, step_events=8),
            **cfg_kw,
        )
        svc = TraversalService(cfg)
        svc.register("pc", app="pc", data=data, radius=0.1, leaf_size=4)
        return svc

    def test_disabled_service_is_structurally_off(self, geocity512):
        svc = TraversalService(ServiceConfig())
        svc.register("pc", app="pc", data=geocity512, radius=0.1, leaf_size=4)
        assert svc.telemetry is NULL_TELEMETRY
        assert svc._m is None
        svc.query_many("pc", jittered(geocity512, 20, seed=1))
        assert svc.stats().telemetry.enabled is False

    def test_spans_cover_query_batch_launch(self, geocity512):
        svc = self._service(geocity512)
        n = 40
        svc.query_many("pc", jittered(geocity512, n, seed=2))
        tr = svc.telemetry.tracer
        queries = [s for s in tr.spans("query")
                   if not s.span_id.startswith("instant:")]
        batches = tr.spans("batch")
        launches = tr.spans("launch")
        assert len(queries) == n
        assert all(not s.open and s.status in ("ok", "memo") for s in queries)
        real_batches = [s for s in batches
                        if not s.span_id.startswith("instant:")]
        assert real_batches and all(not s.open for s in real_batches)
        # Every batch span carries the dispatch decision...
        for b in real_batches:
            names = [e["name"] for e in b.events]
            assert "dispatch" in names
        # ...and every GPU launch span samples StepTrace dynamics.
        gpu = [s for s in launches if s.args.get("backend") != "cpu"]
        assert gpu, "no GPU launches in a 40-query morton-sorted run"
        for s in gpu:
            steps = [e for e in s.events if e["name"] == "step"]
            assert 0 < len(steps) <= 8
            ts = [e["t_ms"] for e in steps]
            assert ts == sorted(ts)
            assert s.t_start <= ts[0] and ts[-1] <= s.t_end
            assert s.args.get("engine") == "codegen"

    def test_metrics_agree_with_stats(self, geocity512):
        svc = self._service(geocity512)
        svc.query_many("pc", jittered(geocity512, 40, seed=3))
        s = svc.stats()
        m = s.telemetry.metrics
        q = sum(x["value"] for x in m["service_queries_total"]["series"])
        assert q == s.queries_submitted
        ok = sum(
            x["value"] for x in m["service_query_results_total"]["series"]
            if x["labels"]["outcome"] == "ok"
        )
        assert ok == s.queries_completed
        batches = sum(x["value"] for x in m["service_batches_total"]["series"])
        assert batches == s.batches
        # Plan-op gauges published at registration.
        assert "plan_ops" in m and m["plan_ops"]["series"]

    def test_chrome_export_of_live_service(self, geocity512):
        svc = self._service(geocity512)
        svc.query_many("pc", jittered(geocity512, 20, seed=4))
        doc = svc.telemetry.tracer.chrome_trace(close_open_at=svc.now_ms)
        blob = json.dumps(doc, allow_nan=False)
        evs = json.loads(blob)["traceEvents"]
        ids = {e.get("id") for e in evs if e["ph"] == "b"}
        ends = {e.get("id") for e in evs if e["ph"] == "e"}
        assert ids and ids <= ends


class TestCLITelemetryOutputs:
    def test_demo_writes_all_three_exports(self, tmp_path, capsys):
        from repro.service.__main__ import main

        trace = tmp_path / "demo.trace.json"
        metrics_json = tmp_path / "metrics.json"
        flight = tmp_path / "flight.json"
        rc = main([
            "--queries", "64", "--data", "256", "--max-batch", "16",
            "--trace-out", str(trace),
            "--metrics-out", str(metrics_json),
            "--flight-out", str(flight),
        ])
        assert rc == 0
        doc = json.loads(trace.read_text())
        assert doc["traceEvents"], "empty chrome trace"
        names = {e["name"] for e in doc["traceEvents"]}
        assert "query" in names
        assert any(n.startswith("batch:") for n in names)
        assert any(n.startswith("launch:") for n in names)
        m = json.loads(metrics_json.read_text())
        assert "service_queries_total" in m
        f = json.loads(flight.read_text())
        assert "dumps" in f and "rings" in f

    def test_metrics_out_prometheus_text(self, tmp_path, capsys):
        from repro.service.__main__ import main

        prom = tmp_path / "metrics.prom"
        rc = main([
            "--queries", "32", "--data", "256", "--max-batch", "16",
            "--metrics-out", str(prom),
        ])
        assert rc == 0
        text = prom.read_text()
        assert "# TYPE service_queries counter" in text
        assert "service_exec_ms_bucket" in text

    def test_chaos_run_dumps_flight_timelines(self, tmp_path, capsys):
        from repro.service.__main__ import main

        flight = tmp_path / "flight.json"
        rc = main([
            "--chaos", "--chaos-seed", "1337", "--queries", "256",
            "--data", "1024", "--max-batch", "32",
            "--flight-out", str(flight),
        ])
        assert rc == 0
        f = json.loads(flight.read_text())
        injected = [d for d in f["dumps"]
                    if d["reason"].startswith("chaos:")]
        assert injected, "chaos run produced no per-fault flight dumps"
        for d in injected:
            assert d["timeline"], "flight dump with empty timeline"
