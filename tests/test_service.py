"""Online traversal service tests: dynamic batching (full/timeout
flushes on the logical clock), plan-cache reuse across sessions,
adaptive backend routing flips under shuffled vs Morton-sorted traffic,
batch spatial sorting reducing modeled time, result correctness against
brute force, and the stats snapshot."""

import dataclasses
import json
import math

import numpy as np
import pytest

from repro.points.datasets import dataset_by_name
from repro.service import (
    BACKENDS,
    ENGINES,
    DynamicBatcher,
    QueryTicket,
    ServiceConfig,
    ServiceStats,
    TelemetryConfig,
    TraversalMemo,
    TraversalService,
)


def ticket(i, t, coords=(0.0, 0.0)):
    return QueryTicket(
        id=i, session="s", coords=np.asarray(coords, dtype=np.float64), t_submit=t
    )


@pytest.fixture(scope="module")
def geocity512():
    return dataset_by_name("geocity", 512, seed=3).points


@pytest.fixture(scope="module")
def geocity1024():
    return dataset_by_name("geocity", 1024, seed=3).points


def jittered_queries(data, n, seed, scale=0.01):
    """Shuffled near-data queries (the service's natural traffic)."""
    rng = np.random.default_rng(seed)
    q = data[rng.permutation(len(data))][:n]
    return q + rng.normal(scale=scale, size=q.shape)


class TestDynamicBatcher:
    def test_flush_on_full(self):
        b = DynamicBatcher(max_batch=3, max_wait_ms=10.0)
        assert not b.add(ticket(0, 0.0))
        assert not b.add(ticket(1, 0.1))
        assert b.add(ticket(2, 0.2))  # third query fills the batch
        taken = b.take_full(0.2)
        assert [t.id for t in taken] == [0, 1, 2]
        assert b.queue_depth == 0
        assert b.counters.flush_full == 1
        assert b.counters.flush_timeout == 0

    def test_flush_on_timeout_at_window_expiry(self):
        b = DynamicBatcher(max_batch=100, max_wait_ms=2.0)
        b.add(ticket(0, 1.0))
        b.add(ticket(1, 1.5))
        assert b.poll(2.9) is None  # oldest has waited 1.9 < 2.0
        assert b.timeout_deadline() == pytest.approx(3.0)
        taken = b.poll(7.5)  # late poll: window expired at 3.0
        assert [t.id for t in taken] == [0, 1]
        # Waits are stamped at the deadline, not at the (late) poll time.
        assert taken[0].wait_ms == pytest.approx(2.0)
        assert taken[1].wait_ms == pytest.approx(1.5)
        assert b.counters.flush_timeout == 1

    def test_forced_flush_and_empty_takes(self):
        b = DynamicBatcher(max_batch=10, max_wait_ms=1.0)
        assert b.take_all(0.0) is None
        assert b.poll(100.0) is None
        b.add(ticket(0, 0.0))
        taken = b.take_all(0.5)
        assert len(taken) == 1 and taken[0].wait_ms == pytest.approx(0.5)
        assert b.counters.flush_forced == 1


class TestSessionsAndPlanCache:
    def test_plan_cache_hit_on_same_app_and_data(self, geocity512):
        svc = TraversalService(ServiceConfig())
        svc.register("a", app="pc", data=geocity512, radius=0.1, leaf_size=4)
        assert svc.plan_cache.stats().misses == 1
        # Same (app, data, build kwargs) under a new name: cache hit,
        # and the built tree is shared too.
        svc.register("b", app="pc", data=geocity512, radius=0.1, leaf_size=4)
        stats = svc.plan_cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert svc.registry.get("a").app is svc.registry.get("b").app

    def test_plan_cache_miss_on_different_params(self, geocity512):
        svc = TraversalService(ServiceConfig())
        svc.register("a", app="pc", data=geocity512, radius=0.1, leaf_size=4)
        svc.register("b", app="pc", data=geocity512, radius=0.2, leaf_size=4)
        svc.register("c", app="knn", data=geocity512, k=4, leaf_size=4)
        stats = svc.plan_cache.stats()
        assert (stats.hits, stats.misses) == (0, 3)

    def test_duplicate_name_and_unknown_app_rejected(self, geocity512):
        svc = TraversalService(ServiceConfig())
        svc.register("a", app="nn", data=geocity512)
        with pytest.raises(KeyError, match="already registered"):
            svc.register("a", app="nn", data=geocity512)
        with pytest.raises(KeyError, match="unknown app"):
            svc.register("b", app="octree-magic", data=geocity512)
        with pytest.raises(KeyError, match="no session"):
            svc.registry.get("zzz")


class TestQueryPaths:
    def test_query_results_match_oracle_all_backends(self, geocity512):
        queries = jittered_queries(geocity512, 48, seed=5)
        for backend in BACKENDS:
            cfg = ServiceConfig(max_batch=64, backend=backend)
            svc = TraversalService(cfg)
            sess = svc.register(
                "pc", app="pc", data=geocity512, radius=0.1, leaf_size=4
            )
            tickets = svc.query_many("pc", queries)
            got = np.array([t.result["count"] for t in tickets])
            want = sess.oracle(queries)["count"]
            np.testing.assert_array_equal(got, want)

    def test_knn_single_query_includes_coincident_data_point(self, geocity512):
        # Ad-hoc queries are not dataset members (orig_ids == -1), so a
        # query placed exactly on a data point must find that point.
        svc = TraversalService(ServiceConfig())
        svc.register("knn", app="knn", data=geocity512, k=4, leaf_size=4)
        t = svc.query("knn", geocity512[17])
        assert t.done and t.result["knn_dist"][0] == pytest.approx(0.0)
        assert t.result["knn_id"][0] == 17

    def test_submit_fills_then_dispatches(self, geocity512):
        cfg = ServiceConfig(max_batch=4, max_wait_ms=50.0, backend="cpu")
        svc = TraversalService(cfg)
        svc.register("nn", app="nn", data=geocity512)
        queries = jittered_queries(geocity512, 4, seed=6)
        tickets = [svc.submit("nn", q, now=0.1 * i) for i, q in enumerate(queries)]
        assert all(t.done for t in tickets)  # 4th submit flushed on full
        assert tickets[0].batch_size == 4
        assert svc.stats().flush_full == 1

    def test_advance_flushes_expired_window(self, geocity512):
        cfg = ServiceConfig(max_batch=100, max_wait_ms=2.0, backend="cpu")
        svc = TraversalService(cfg)
        svc.register("nn", app="nn", data=geocity512)
        t = svc.submit("nn", geocity512[0], now=1.0)
        assert svc.advance(2.5) == 0 and not t.done
        assert svc.advance(3.1) == 1 and t.done
        assert t.wait_ms == pytest.approx(2.0)  # stamped at the deadline
        assert t.latency_ms == pytest.approx(2.0 + t.exec_ms)

    def test_clock_must_be_monotone(self, geocity512):
        svc = TraversalService(ServiceConfig())
        svc.register("nn", app="nn", data=geocity512)
        svc.submit("nn", geocity512[0], now=5.0)
        with pytest.raises(ValueError, match="monotone"):
            svc.submit("nn", geocity512[1], now=4.0)

    def test_bad_query_shape_rejected(self, geocity512):
        svc = TraversalService(ServiceConfig())
        svc.register("nn", app="nn", data=geocity512)
        with pytest.raises(ValueError, match="coords"):
            svc.query("nn", [1.0, 2.0, 3.0])


class TestAdaptiveRouting:
    def test_routing_flips_with_batch_sorting(self, geocity1024):
        """Shuffled arrival-order traffic routes non-lockstep; the same
        batch Morton-sorted profiles similar and routes lockstep."""
        queries = jittered_queries(geocity1024, 128, seed=5)
        backends = {}
        for sort in ("arrival", "morton"):
            svc = TraversalService(ServiceConfig(max_batch=128, sort=sort))
            svc.register("pc", app="pc", data=geocity1024, radius=0.1, leaf_size=4)
            tickets = svc.query_many("pc", queries)
            backends[sort] = {t.backend for t in tickets}
        assert backends["arrival"] == {"nonlockstep"}
        assert backends["morton"] == {"lockstep"}

    def test_small_batches_route_to_cpu(self, geocity512):
        svc = TraversalService(ServiceConfig(min_gpu_batch=8))
        svc.register("pc", app="pc", data=geocity512, radius=0.1, leaf_size=4)
        tickets = svc.query_many("pc", jittered_queries(geocity512, 3, seed=7))
        assert {t.backend for t in tickets} == {"cpu"}

    def test_forced_backend_overrides_profiling(self, geocity512):
        svc = TraversalService(ServiceConfig(backend="nonlockstep"))
        svc.register("pc", app="pc", data=geocity512, radius=0.1, leaf_size=4)
        t = svc.query("pc", geocity512[0])
        assert t.backend == "nonlockstep"


class TestSpatialSorting:
    def test_morton_sorting_reduces_modeled_time(self, geocity512):
        """Section 4.4 at batch granularity: Morton-reordering a
        shuffled batch before launch reduces modeled kernel time."""
        queries = jittered_queries(geocity512, 128, seed=5)
        times = {}
        for sort in ("arrival", "morton"):
            cfg = ServiceConfig(max_batch=128, sort=sort, backend="lockstep")
            svc = TraversalService(cfg)
            svc.register("pc", app="pc", data=geocity512, radius=0.1, leaf_size=4)
            svc.query_many("pc", queries)
            times[sort] = svc.stats().total_exec_ms
        assert times["morton"] < times["arrival"]

    def test_tree_sorting_also_reduces_modeled_time(self, geocity512):
        queries = jittered_queries(geocity512, 128, seed=5)
        times = {}
        for sort in ("arrival", "tree"):
            cfg = ServiceConfig(max_batch=128, sort=sort, backend="lockstep")
            svc = TraversalService(cfg)
            svc.register("pc", app="pc", data=geocity512, radius=0.1, leaf_size=4)
            svc.query_many("pc", queries)
            times[sort] = svc.stats().total_exec_ms
        assert times["tree"] < times["arrival"]

    def test_sorting_does_not_change_results(self, geocity512):
        queries = jittered_queries(geocity512, 64, seed=8)
        results = {}
        for sort in ("arrival", "morton", "tree"):
            svc = TraversalService(ServiceConfig(max_batch=64, sort=sort))
            svc.register("knn", app="knn", data=geocity512, k=4, leaf_size=4)
            tickets = svc.query_many("knn", queries)
            results[sort] = np.stack([t.result["knn_dist"] for t in tickets])
        np.testing.assert_allclose(results["morton"], results["arrival"])
        np.testing.assert_allclose(results["tree"], results["arrival"])


class TestStatsSnapshot:
    def test_snapshot_fields(self, geocity512):
        cfg = ServiceConfig(max_batch=32, max_wait_ms=2.0)
        svc = TraversalService(cfg)
        svc.register("pc", app="pc", data=geocity512, radius=0.1, leaf_size=4)
        svc.register("knn", app="knn", data=geocity512, k=4, leaf_size=4)
        svc.query_many("pc", jittered_queries(geocity512, 70, seed=9))
        svc.query_many("knn", jittered_queries(geocity512, 3, seed=10))
        s = svc.stats()
        assert isinstance(s, ServiceStats)
        assert s.sessions == 2
        assert s.queries_submitted == s.queries_completed == 73
        assert s.queue_depth == 0
        assert s.batches == s.flush_full + s.flush_timeout + s.flush_forced
        assert s.flush_full == 2  # 70 pc queries at max_batch=32
        assert set(s.backends) == set(BACKENDS)
        assert sum(b.queries for b in s.backends.values()) == 73
        assert s.total_exec_ms > 0
        assert s.p95_latency_ms >= s.p50_latency_ms >= 0
        assert s.plan_cache.misses == 2
        assert s.backends_exercised >= 1
        # The cpu row must have caught the small batches: the 6-query
        # pc remainder and the 3-query knn batch (both < min_gpu_batch).
        assert s.backends["cpu"].queries == 9
        occupancies = [
            b.mean_occupancy for b in s.backends.values() if b.batches
        ]
        assert all(0 < o <= 1 for o in occupancies)

    def test_snapshot_format_renders(self, geocity512):
        svc = TraversalService(ServiceConfig())
        svc.register("nn", app="nn", data=geocity512)
        svc.query("nn", geocity512[0])
        text = svc.stats().format()
        assert "service stats" in text and "backend" in text
        assert "cpu" in text  # the one backend this single query used
        assert "plan cache" in text

    def test_empty_service_snapshot(self):
        s = TraversalService(ServiceConfig()).stats()
        assert s.batches == 0 and s.queries_submitted == 0
        # None, not NaN: empty aggregates must survive a JSON round-trip.
        assert s.p50_latency_ms is None
        assert s.p95_latency_ms is None


class TestMemoization:
    def test_repeat_query_served_from_memo(self, geocity512):
        svc = TraversalService(ServiceConfig())
        svc.register("nn", app="nn", data=geocity512)
        q = geocity512[7] + 0.003
        t1 = svc.query("nn", q)
        t2 = svc.query("nn", q)
        for key in t1.result:
            np.testing.assert_array_equal(t1.result[key], t2.result[key])
        s = svc.stats()
        assert s.memo.hits == 1 and s.memo.misses == 1
        assert s.memo.entries == 1 and s.memo.stores == 1
        # The hit bypassed batching entirely: one batch, two completions.
        assert s.batches == 1 and s.queries_completed == 2

    def test_memo_serves_copies(self, geocity512):
        svc = TraversalService(ServiceConfig())
        svc.register("nn", app="nn", data=geocity512)
        q = geocity512[3] + 0.001
        t1 = svc.query("nn", q)
        t1.result["nn_dist"][...] = -1.0  # caller scribbles on its copy
        t2 = svc.query("nn", q)
        assert float(t2.result["nn_dist"]) >= 0.0

    def test_capacity_zero_disables(self, geocity512):
        svc = TraversalService(ServiceConfig(memo_capacity=0))
        svc.register("nn", app="nn", data=geocity512)
        q = geocity512[7] + 0.003
        svc.query("nn", q)
        svc.query("nn", q)
        s = svc.stats()
        assert s.memo.hits == 0 and s.memo.misses == 0
        assert s.batches == 2

    def test_refresh_plan_invalidates_entries(self, geocity512):
        svc = TraversalService(ServiceConfig())
        svc.register("nn", app="nn", data=geocity512)
        q = geocity512[7] + 0.003
        svc.query("nn", q)
        svc.registry.refresh_plan("nn")  # epoch bump: stale keys never hit
        svc.query("nn", q)
        s = svc.stats()
        assert s.memo.hits == 0 and s.memo.misses == 2

    def test_quantum_buckets_nearby_queries(self, geocity512):
        svc = TraversalService(ServiceConfig(memo_quantum=0.01))
        svc.register("nn", app="nn", data=geocity512)
        q = geocity512[7] + 0.003
        svc.query("nn", q)
        svc.query("nn", q + 1e-6)  # same cell at quantum 0.01
        assert svc.stats().memo.hits == 1

    def test_fifo_eviction(self):
        m = TraversalMemo(capacity=2)
        for i in range(3):
            m.store(0, np.array([float(i), 0.0]), {"v": np.array([i])})
        snap = m.snapshot()
        assert snap.entries == 2 and snap.evictions == 1
        assert m.lookup(0, np.array([0.0, 0.0])) is None  # oldest evicted
        assert m.lookup(0, np.array([2.0, 0.0])) is not None


class TestEngineKnobs:
    def test_interp_service_matches_codegen(self, geocity512):
        queries = jittered_queries(geocity512, 40, seed=11)
        results = {}
        for engine in ENGINES:
            svc = TraversalService(
                ServiceConfig(engine=engine, memo_capacity=0))
            svc.register(
                "pc", app="pc", data=geocity512, radius=0.1, leaf_size=4,
            )
            tickets = svc.query_many("pc", queries)
            results[engine] = np.array([t.result["count"] for t in tickets])
        np.testing.assert_array_equal(results["codegen"], results["interp"])

    def test_session_knobs_override_config(self, geocity512):
        assert ServiceConfig().engine == "codegen"
        svc = TraversalService(ServiceConfig(engine="interp",
                                             compact_threshold=0.5))
        default = svc.register("a", app="nn", data=geocity512)
        override = svc.register(
            "b", app="nn", data=geocity512, compact_threshold=0.7,
        )
        assert default.compact_threshold is None
        assert override.compact_threshold == 0.7
        # Knobs are per-session, not part of the plan fingerprint.
        assert svc.stats().plan_cache.hits == 1

    def test_invalid_knobs_rejected(self, geocity512):
        for engine in ("jit", "compiled"):
            with pytest.raises(ValueError, match="engine"):
                ServiceConfig(engine=engine)
        with pytest.raises(ValueError, match="compact"):
            ServiceConfig(compact_threshold=1.5)
        svc = TraversalService(ServiceConfig())
        with pytest.raises(ValueError, match="compact"):
            svc.register("y", app="nn", data=geocity512,
                         compact_threshold=-0.1)


def _assert_no_nan(obj, path="$"):
    if isinstance(obj, float):
        assert math.isfinite(obj), f"non-finite float at {path}"
    elif isinstance(obj, dict):
        for k, v in obj.items():
            _assert_no_nan(v, f"{path}.{k}")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _assert_no_nan(v, f"{path}[{i}]")


class TestSnapshotRoundTrip:
    def test_to_dict_round_trips_with_telemetry(self, geocity512):
        cfg = ServiceConfig(
            max_batch=16, max_wait_ms=2.0,
            telemetry=TelemetryConfig(enabled=True, step_events=8),
        )
        svc = TraversalService(cfg)
        svc.register("pc", app="pc", data=geocity512, radius=0.1, leaf_size=4)
        queries = jittered_queries(geocity512, 40, seed=12)
        svc.query_many("pc", queries)
        svc.query("pc", queries[0])  # exercise the memo-hit path too
        d = svc.stats().to_dict()
        _assert_no_nan(d)
        blob = json.dumps(d, allow_nan=False)  # strict: no NaN/Infinity
        back = json.loads(blob)
        assert back == d, "to_dict payload not JSON-native"
        # The nested telemetry payload made the trip intact.
        tel = back["telemetry"]
        assert tel["enabled"] is True and tel["spans_recorded"] > 0
        assert "service_queries_total" in tel["metrics"]
        series = tel["metrics"]["service_exec_ms"]["series"]
        assert series and all(math.isfinite(b)
                              for s in series for b in s["bounds"])
        assert back["memo"]["hits"] == 1

    def test_disabled_telemetry_same_shape(self, geocity512):
        svc = TraversalService(ServiceConfig())
        svc.register("nn", app="nn", data=geocity512)
        svc.query("nn", geocity512[0])
        d = svc.stats().to_dict()
        assert json.loads(json.dumps(d, allow_nan=False)) == d
        assert d["telemetry"]["enabled"] is False
        assert d["telemetry"]["metrics"] == {}


class TestServiceConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="sort"):
            ServiceConfig(sort="random")
        with pytest.raises(ValueError, match="backend"):
            ServiceConfig(backend="tpu")

    def test_with_returns_frozen_copy(self):
        cfg = ServiceConfig(sort="morton")
        arr = cfg.with_(sort="arrival")
        assert arr.sort == "arrival" and cfg.sort == "morton"
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.sort = "tree"


class TestSessionChurn:
    """The last session over a plan key takes its build, plan and
    generated functions with it; a live session still shares them."""

    def test_churn_leaves_nothing_cached_and_memory_flat(self):
        import gc
        import tracemalloc

        svc = TraversalService(ServiceConfig(max_batch=32, memo_capacity=0))
        rng = np.random.default_rng(5)

        def cycle(i):
            data = rng.random((256, 2))
            svc.register(f"s{i}", app="pc", data=data, radius=0.05)
            tickets = svc.query_many(f"s{i}", data[:32],
                                     now=svc.now_ms + 1.0)
            assert all(t.ok for t in tickets)
            svc.unregister(f"s{i}")

        for i in range(10):  # warm-up: module caches, first emissions
            cycle(i)
        gc.collect()
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            for i in range(10, 60):
                cycle(i)
            gc.collect()
            live, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        stats = svc.plan_cache.stats()
        assert stats.misses == 60 and stats.codegen_misses >= 60
        assert (stats.size, stats.codegen_size, stats.invalidations) == (0, 0, 0)
        assert not svc.registry._builds
        # 50 cycles that each built, compiled and emitted, and freed it
        # all: what stays live is bounded by noise, not by cycles.
        assert live - base < 512 * 1024, live - base

    def test_live_session_keeps_build_and_plan(self, geocity512):
        svc = TraversalService(ServiceConfig())
        events = []
        svc.plan_cache.on_event = events.append
        svc.register("a", app="pc", data=geocity512, radius=0.1, leaf_size=4)
        svc.register("b", app="pc", data=geocity512, radius=0.1, leaf_size=4)
        svc.unregister("a")
        # "b" still holds the pair: nothing is freed, and registering
        # it again skips the build and hits the plan.
        built = svc.registry.get("b").app
        svc.register("c", app="pc", data=geocity512, radius=0.1, leaf_size=4)
        assert svc.registry.get("c").app is built
        assert (svc.plan_cache.stats().hits, svc.plan_cache.stats().misses) == (2, 1)
        svc.unregister("b")
        svc.unregister("c")
        assert len(svc.plan_cache) == 0 and not svc.registry._builds
        # Freeing with the last session is not an invalidation.
        assert "invalidate" not in events
        assert svc.plan_cache.stats().invalidations == 0
