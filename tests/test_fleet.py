"""Sharded serve fleet: hashring, slicing, wire, pool, router.

Three layers of coverage:

* **pure units** — consistent-hash placement properties (determinism,
  the stability bound under join/leave, uniform spread), scatter/gather
  slicing round-trips, wire payload conversion, metric-export merging;
* **process pool** — dotted-path jobs execute in order, child failures
  surface with tracebacks;
* **fleet integration** — a real router + worker processes: broadcast
  registration, routed and scattered submits bit-identical to a
  single-process oracle, one-seed reproducibility, worker-death breaker
  trips and rehashing, strict-JSON aggregate snapshots (``None`` —
  never ``NaN`` — for empty-worker fleets), and the drain-or-fail exit
  accounting.  Workers run unpinned here: CI runners share cores.
"""

import json

import numpy as np
import pytest

from repro.fleet import FleetConfig, FleetRouter, HashRing, ProcessPool
from repro.fleet.hashring import stable_hash
from repro.fleet.pool import PoolJobError
from repro.fleet.router import _aggregate_stats, _weighted_mean
from repro.fleet.server import FleetServer
from repro.fleet.slicing import gather, gather_arrays, scatter, scatter_slices
from repro.fleet.wire import make_chaos_payload
from repro.fleet.worker import derive_seed
from repro.gpusim.faults import ChaosConfig
from repro.points.datasets import dataset_by_name
from repro.service.service import ServiceConfig, TraversalService
from repro.telemetry import (
    MetricsRegistry,
    expose_export_text,
    merge_labeled_exports,
    sum_exports,
)
from repro.telemetry.http import to_jsonable

from tests.test_serve import assert_valid_prometheus


# -- consistent hashing ----------------------------------------------------


KEYS = [f"session-{i}" for i in range(2000)]


def test_stable_hash_is_process_independent():
    # Pinned value: SHA-1 is stable across runs, machines, and Python
    # versions (unlike the salted builtin hash()).
    assert stable_hash("session-0") == stable_hash("session-0")
    assert stable_hash("a") != stable_hash("b")
    # Two independent rings agree on every placement.
    r1 = HashRing(["w0", "w1", "w2"])
    r2 = HashRing(["w2", "w0", "w1"])  # insertion order must not matter
    assert [r1.place(k) for k in KEYS] == [r2.place(k) for k in KEYS]


def test_hashring_membership_errors():
    ring = HashRing(["w0"])
    with pytest.raises(ValueError):
        ring.add("w0")
    assert ring.remove("nope") is False
    assert ring.remove("w0") is True
    assert ring.place("anything") is None  # empty ring


def test_hashring_remove_only_moves_departed_keys():
    # Stability: removing a worker relocates exactly the keys it owned;
    # every other placement is untouched.
    ring = HashRing(["w0", "w1", "w2", "w3"])
    before = {k: ring.place(k) for k in KEYS}
    ring.remove("w2")
    after = {k: ring.place(k) for k in KEYS}
    for k in KEYS:
        if before[k] != "w2":
            assert after[k] == before[k]
        else:
            assert after[k] != "w2"


def test_hashring_join_moves_bounded_fraction():
    # Adding one worker to n-1 should move about 1/n of the keys —
    # exactly the ones the newcomer takes — and nothing else moves
    # anywhere but to the newcomer.
    n = 5
    ring = HashRing([f"w{i}" for i in range(n - 1)])
    before = {k: ring.place(k) for k in KEYS}
    ring.add(f"w{n - 1}")
    after = {k: ring.place(k) for k in KEYS}
    moved = [k for k in KEYS if after[k] != before[k]]
    assert all(after[k] == f"w{n - 1}" for k in moved)
    # Expected fraction 1/n = 0.2; allow generous variance for the
    # finite virtual-node count.
    frac = len(moved) / len(KEYS)
    assert 0.05 < frac < 0.45, f"join moved {frac:.1%} of keys"


def test_hashring_leave_and_rejoin_restores_placement_exactly():
    # The property session replay rests on: vnode positions are
    # stable_hash(f"{worker}#{r}") — pure functions of the worker id —
    # so remove + add restores the pre-departure placement bit for bit
    # and replayed sessions land back on their original shard.
    for n in (2, 3, 5, 8):
        ring = HashRing([f"w{i}" for i in range(n)])
        before = {k: ring.place(k) for k in KEYS}
        for victim in (f"w{n // 2}", "w0"):
            assert ring.remove(victim) is True
            ring.add(victim)
            after = {k: ring.place(k) for k in KEYS}
            assert after == before, f"rejoin of {victim} moved keys (n={n})"


def test_hashring_spread_is_roughly_uniform():
    workers = [f"w{i}" for i in range(4)]
    counts = HashRing(workers).spread(KEYS)
    assert sum(counts.values()) == len(KEYS)
    mean = len(KEYS) / len(workers)
    for w, c in counts.items():
        assert 0.45 * mean < c < 1.8 * mean, f"{w} owns {c} of {len(KEYS)}"


# -- scatter/gather slicing ------------------------------------------------


@pytest.mark.parametrize("n,shards", [(0, 3), (1, 4), (7, 3), (12, 4), (5, 8)])
def test_scatter_slices_partition(n, shards):
    slices = scatter_slices(n, shards)
    assert len(slices) == shards
    covered = [i for s in slices for i in range(s.start, s.stop)]
    assert covered == list(range(n))  # contiguous, in order, complete
    sizes = [s.stop - s.start for s in slices]
    assert max(sizes) - min(sizes) <= 1  # balanced


def test_scatter_slices_rejects_bad_args():
    with pytest.raises(ValueError):
        scatter_slices(4, 0)
    with pytest.raises(ValueError):
        scatter_slices(-1, 2)


def test_scatter_gather_round_trip():
    rng = np.random.default_rng(0)
    coords = rng.normal(size=(23, 3))
    parts = scatter(coords, 4)
    rows = gather([[tuple(row) for row in part] for part in parts])
    assert rows == [tuple(row) for row in coords]
    arrays = gather_arrays([{"x": p} for p in parts])
    np.testing.assert_array_equal(arrays["x"], coords)
    assert gather_arrays([{}, {}]) == {}


# -- wire payloads ---------------------------------------------------------


def test_to_jsonable_strips_numpy_and_nonfinite():
    payload = {
        "arr": np.arange(3, dtype=np.float64),
        "nan": float("nan"),
        "inf": np.float64("inf"),
        "nested": [np.int32(7), {"f": np.float32(1.5)}],
        "keep": "text",
    }
    out = to_jsonable(payload)
    assert out["arr"] == [0.0, 1.0, 2.0]
    assert out["nan"] is None and out["inf"] is None
    assert out["nested"] == [7, {"f": 1.5}]
    # The whole point: strict JSON never sees a NaN token.
    json.dumps(out, allow_nan=False)


def test_chaos_payload_round_trips():
    chaos = ChaosConfig(seed=5, p_backend_error=0.2, targets=("lockstep",))
    payload = make_chaos_payload(chaos)
    rebuilt = ChaosConfig(
        **{**payload, "targets": tuple(payload["targets"])}
    )
    assert rebuilt.seed == 5 and rebuilt.p_backend_error == 0.2
    assert make_chaos_payload(None) is None


def test_derive_seed_is_stable_and_distinct():
    assert derive_seed(7, 0, "load") == derive_seed(7, 0, "load")
    assert derive_seed(7, 0, "load") != derive_seed(7, 1, "load")
    assert derive_seed(7, 0, "load") != derive_seed(7, 0, "service")
    assert derive_seed(8, 0, "load") != derive_seed(7, 0, "load")


# -- metric export merging -------------------------------------------------


def _worker_export(batches: int, lat: float) -> dict:
    reg = MetricsRegistry()
    c = reg.counter("svc_batches_total", "batches", labels=("backend",))
    c.inc(batches, backend="lockstep")
    g = reg.gauge("svc_queue_depth", "depth")
    g.set(batches / 2)
    h = reg.histogram("svc_latency_ms", "latency", buckets=(1.0, 10.0))
    h.observe(lat)
    return reg.to_dict()


def test_merge_labeled_exports_tags_every_series():
    merged = merge_labeled_exports(
        {"w0": _worker_export(3, 0.5), "w1": _worker_export(5, 20.0)}
    )
    series = merged["svc_batches_total"]["series"]
    assert {s["labels"]["worker"] for s in series} == {"w0", "w1"}
    assert all(s["labels"]["backend"] == "lockstep" for s in series)
    text = expose_export_text(merged)
    assert_valid_prometheus(text)
    assert 'worker="w0"' in text and 'worker="w1"' in text


def test_merge_labeled_exports_rejects_conflicts():
    export = _worker_export(1, 1.0)
    with pytest.raises(ValueError):
        merge_labeled_exports({"w0": export}, label="backend")  # label taken
    other = {
        "svc_batches_total": {"kind": "gauge", "help": "", "series": []}
    }
    with pytest.raises(ValueError):
        merge_labeled_exports({"w0": export, "w1": other})  # kind mismatch


def test_sum_exports_sums_and_merges():
    summed = sum_exports({"w0": _worker_export(3, 0.5), "w1": _worker_export(5, 20.0)})
    [batches] = summed["svc_batches_total"]["series"]
    assert batches["value"] == 8
    [lat] = summed["svc_latency_ms"]["series"]
    assert lat["count"] == 2 and lat["counts"] == [1, 0, 1]
    assert lat["sum"] == pytest.approx(20.5)
    assert_valid_prometheus(expose_export_text(summed))


# -- process pool ----------------------------------------------------------


def test_process_pool_runs_jobs_in_order():
    with ProcessPool(3) as pool:
        results = pool.run(
            "tests.fleet_jobs:square", [{"x": i} for i in range(10)]
        )
    assert results == [i * i for i in range(10)]


def test_process_pool_surfaces_child_failure():
    with ProcessPool(2) as pool:
        with pytest.raises(PoolJobError, match="kaboom"):
            pool.run(
                "tests.fleet_jobs:boom", [{"message": "kaboom"}]
            )


def test_process_pool_surfaces_sigkilled_child_without_hanging():
    # A SIGKILLed child leaves only an EOF behind; the pool must raise
    # a typed error naming the worker, its exit code, and the jobs it
    # took down — and must not hang the wait loop (benchmarks.perf
    # --jobs N depends on exactly this).
    with ProcessPool(2) as pool:
        with pytest.raises(PoolJobError, match=r"died") as err:
            pool.run("tests.fleet_jobs:suicide", [{}, {}, {}])
    msg = str(err.value)
    assert "exitcode" in msg and "unfinished jobs" in msg


# -- statsz aggregation (pure) ---------------------------------------------


def test_weighted_mean_is_none_not_nan_when_empty():
    assert _weighted_mean([]) is None
    assert _weighted_mean([(None, 0.0), (None, 0.0)]) is None
    assert _weighted_mean([(2.0, 1.0), (4.0, 3.0)]) == pytest.approx(3.5)


def test_aggregate_stats_of_idle_workers_is_strict_json():
    # The empty-worker fix: freshly booted workers have no latency
    # samples; the aggregate must say None, never NaN.
    idle = {"queries_completed": 0, "p50_latency_ms": None,
            "p95_latency_ms": None, "sessions": 2, "resilience": {}}
    agg = _aggregate_stats([dict(idle), dict(idle)])
    assert agg["p50_latency_ms"] is None
    assert agg["p95_latency_ms"] is None
    assert agg["queries_completed"] == 0
    json.dumps(agg, allow_nan=False)


# -- fleet integration -----------------------------------------------------


N_DATA = 256


def _fleet(workers=2, **kw) -> FleetRouter:
    cfg = FleetConfig(
        workers=workers,
        pin_cpus=False,
        scatter_threshold=kw.pop("scatter_threshold", 8),
        call_timeout_s=60.0,
        service=kw.pop("service", {"max_batch": 64, "max_wait_ms": 2.0}),
        **kw,
    )
    router = FleetRouter(cfg)
    router.start()
    return router


def _register_geo(router, n=N_DATA, seed=7):
    geo = dataset_by_name("geocity", n, seed=seed)
    router.register("pc-geocity", "pc", geo.points, radius=0.1, leaf_size=4)
    return geo


def test_fleet_scatter_matches_single_process_oracle():
    router = _fleet(workers=3)
    try:
        geo = _register_geo(router)
        rng = np.random.default_rng(1)
        big = geo.points[rng.integers(0, N_DATA, size=40)]
        res = router.submit_many("pc-geocity", big, now=20.0)
        assert len(res) == 40 and all(r["ok"] for r in res)

        # Oracle: one plain TraversalService with worker 0's derived
        # seed executing the identical batch unsliced.
        svc = TraversalService(
            ServiceConfig(
                max_batch=64, max_wait_ms=2.0,
                seed=derive_seed(7, 0, "service"),
            )
        )
        svc.register("pc-geocity", "pc", geo.points, radius=0.1, leaf_size=4)
        svc.advance(20.0)
        tickets = [svc.submit("pc-geocity", c, now=svc.now_ms) for c in big]
        svc.flush()
        for row, ticket in zip(res, tickets):
            assert ticket.ok
            for key, expected in ticket.result.items():
                np.testing.assert_array_equal(row["result"][key], expected)
    finally:
        report = router.drain()
    assert report["ok"]
    assert all(e["exitcode"] == 0 for e in report["workers"].values())


def test_fleet_small_batch_routes_to_placed_shard():
    router = _fleet(workers=2, scatter_threshold=64)
    try:
        geo = _register_geo(router)
        res = router.submit_many("pc-geocity", geo.points[:4], now=5.0)
        assert len(res) == 4 and all(r["ok"] for r in res)
        owner = router.place("pc-geocity")
        assert router._m["routed"].value(worker=owner) == 1
        assert router._m["scattered"].value() == 0
    finally:
        router.drain()


def test_fleet_is_reproducible_from_one_seed():
    def run_once():
        router = _fleet(workers=2, seed=11)
        try:
            _register_geo(router)
            replies = router.run_load(
                ticks=4, queries_per_tick=6, keep_results=True
            )
            return {
                w: [(r["session"], tuple(np.asarray(r["coords"]).tolist()))
                    for r in reply["results"]]
                for w, reply in replies.items()
            }
        finally:
            router.drain()

    first, second = run_once(), run_once()
    assert first == second
    # Shared-nothing workers must not replay each other's streams.
    assert first["w0"] != first["w1"]


def test_fleet_worker_death_trips_breaker_and_rehashes():
    router = _fleet(workers=3)
    try:
        geo = _register_geo(router)
        victim = router.handles["w1"]
        victim.proc.terminate()
        victim.proc.join()

        health = router.healthz()
        assert health["status"] == "degraded"
        assert health["workers"]["w1"]["status"] == "dead"
        assert router.dead_workers() == ["w1"]

        # New placements avoid the dead shard entirely.
        places = {router.place(f"s{i}") for i in range(100)}
        assert "w1" not in places

        # Scatter over the survivors still resolves every row.
        rng = np.random.default_rng(2)
        big = geo.points[rng.integers(0, N_DATA, size=24)]
        res = router.submit_many("pc-geocity", big, now=9.0)
        assert len(res) == 24 and all(r["ok"] for r in res)
        assert router._m["deaths"].value(worker="w1") == 1
    finally:
        report = router.drain()
    # A dead worker makes the fleet drain not-ok by definition.
    assert not report["ok"]
    assert report["workers"]["w1"]["exitcode"] != 0
    assert report["workers"]["w0"]["exitcode"] == 0


def test_fleet_scatter_rechecks_live_set_at_dispatch():
    # Satellite fix: a breaker trip landing between submit_many's
    # admission check and the scatter must keep the dead shard out of
    # BOTH the slice computation and the dispatch — no rows may be
    # stranded on a worker known dead at dispatch time.
    router = _fleet(workers=3)
    try:
        geo = _register_geo(router)
        handle = router.handles["w1"]
        handle.breaker.trip("simulated concurrent trip")
        router.ring.remove("w1")
        res = router._scatter_submit("pc-geocity", geo.points[:24], 5.0)
        assert len(res) == 24 and all(r["ok"] for r in res)
        assert router._m["scatter_rows"].value(worker="w1") == 0
        assert router._m["scatter_rows"].value(worker="w0") > 0
    finally:
        # Un-trip so the (still healthy) process drains clean.
        handle.breaker.close()
        router.ring.add("w1")
        report = router.drain()
    assert report["ok"]


def test_fleet_scatter_retries_rows_lost_to_midflight_death():
    # A worker SIGKILLed while the router still believes it is live:
    # the scatter discovers the death on the wire and the one-shot
    # retry resolves every stranded row on the survivors — slower but
    # correct, never typed-error rows.
    router = _fleet(workers=3)
    try:
        geo = _register_geo(router)
        victim = router.handles["w2"]
        victim.proc.kill()
        victim.proc.join()
        res = router.submit_many("pc-geocity", geo.points[:24], now=5.0)
        assert len(res) == 24 and all(r["ok"] for r in res)
        assert router._m["scatter_retries"].value() == 1
        assert router.dead_workers() == ["w2"]
    finally:
        report = router.drain()
    assert not report["ok"]  # unhealed death still taints the drain


def test_fleet_statsz_and_endpoints_are_strict_json():
    router = _fleet(workers=2)
    server = FleetServer(router)
    try:
        # No sessions, no load: the empty-fleet snapshot must still be
        # strict JSON with None (not NaN) aggregates.
        snap = router.statsz()
        assert snap["aggregate"]["p50_latency_ms"] is None
        assert snap["aggregate"]["queries_completed"] == 0
        json.dumps(snap, allow_nan=False)

        _register_geo(router)
        router.run_load(ticks=2, queries_per_tick=4)

        status, ctype, body = server.respond("/statsz")
        assert status == 200 and "json" in ctype
        parsed = json.loads(body)
        assert parsed["aggregate"]["queries_completed"] > 0
        assert parsed["aggregate"]["workers_reporting"] == 2

        status, _, body = server.respond("/healthz")
        assert status == 200 and json.loads(body)["ok"]

        status, ctype, body = server.respond("/metrics")
        text = body.decode()
        assert status == 200
        assert_valid_prometheus(text)
        assert 'worker="w0"' in text and 'worker="w1"' in text
        assert "fleet_workers" in text

        status, _, _ = server.respond("/nope")
        assert status == 404
    finally:
        report = router.drain()
    assert report["ok"]
