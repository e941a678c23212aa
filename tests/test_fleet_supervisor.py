"""Self-healing fleet: supervisor policy, ledger replay, fleet chaos.

Three layers, mirroring ``tests/test_fleet.py``:

* **pure units** — restart policy backoff/budget math, supervision
  decisions on a scripted logical clock, session-ledger digests and
  coverage accounting, chaos schedule determinism;
* **integration** — a real router + workers: SIGKILL a worker, heal it
  (respawn + ledger replay + probe + ring rejoin), and prove placement,
  ``/healthz``, the recovery metrics, the flight-recorder span, and the
  drain exit all reflect a healed fleet; eviction when the budget is
  exhausted; partial registration surfaced while a worker is down and
  cleared by the replay;
* **chaos benchmark smoke** — one tiny seeded kill-and-recover run
  must audit clean with at least one healed restart.
"""

import json

import numpy as np
import pytest

from repro.fleet import FleetConfig, FleetRouter
from repro.fleet.chaos import (
    KIND_KILL,
    FleetChaos,
    FleetChaosConfig,
)
from repro.fleet.ledger import (
    STATE_MISSING,
    STATE_OK,
    SessionLedger,
    data_digest,
)
from repro.fleet.router import BREAKER_OPEN
from repro.fleet.server import FleetServer
from repro.fleet.supervisor import (
    DECIDE_EVICT,
    DECIDE_RESTART,
    DECIDE_WAIT,
    FleetSupervisor,
    RestartPolicy,
)
from repro.points.datasets import dataset_by_name

N_DATA = 256


# -- restart policy (pure) -------------------------------------------------


def test_restart_policy_backoff_curve():
    policy = RestartPolicy(
        backoff_base_ms=10.0, backoff_factor=2.0, backoff_max_ms=50.0
    )
    assert policy.backoff_ms(0) == 0.0  # first death heals immediately
    assert policy.backoff_ms(1) == 10.0
    assert policy.backoff_ms(2) == 20.0
    assert policy.backoff_ms(3) == 40.0
    assert policy.backoff_ms(4) == 50.0  # capped
    assert policy.backoff_ms(10) == 50.0


def test_restart_policy_validation():
    with pytest.raises(ValueError):
        RestartPolicy(backoff_base_ms=-1)
    with pytest.raises(ValueError):
        RestartPolicy(backoff_factor=0.5)
    with pytest.raises(ValueError):
        RestartPolicy(max_restarts=0)
    with pytest.raises(ValueError):
        RestartPolicy(window_ms=0)


def test_supervisor_first_death_restarts_immediately():
    sup = FleetSupervisor(RestartPolicy(backoff_base_ms=10.0))
    sup.note_death("w0", 100.0, "pipe broke")
    assert sup.decide("w0", 100.0) == DECIDE_RESTART
    sup.note_restarted("w0", 100.0)
    assert sup.dead_since("w0") is None
    assert sup.total_restarts() == 1


def test_supervisor_backoff_applies_after_first_restart():
    sup = FleetSupervisor(RestartPolicy(backoff_base_ms=10.0, max_restarts=5))
    sup.note_death("w0", 0.0, "x")
    assert sup.decide("w0", 0.0) == DECIDE_RESTART
    sup.note_restarted("w0", 0.0)
    # Second death: one restart in window -> 10ms backoff from death.
    sup.note_death("w0", 5.0, "x again")
    assert sup.decide("w0", 5.0) == DECIDE_WAIT
    assert sup.decide("w0", 14.0) == DECIDE_WAIT
    assert sup.decide("w0", 15.0) == DECIDE_RESTART


def test_supervisor_failed_restart_counts_against_budget():
    sup = FleetSupervisor(RestartPolicy(backoff_base_ms=10.0, max_restarts=2))
    sup.note_death("w0", 0.0, "x")
    sup.note_restart_failed("w0", 0.0)
    # Still dead; one budget slot burned, backoff restarts from the
    # failure time.
    assert sup.decide("w0", 5.0) == DECIDE_WAIT
    assert sup.decide("w0", 10.0) == DECIDE_RESTART
    sup.note_restart_failed("w0", 10.0)
    # Budget (2 per window) exhausted -> permanent eviction.
    assert sup.decide("w0", 100.0) == DECIDE_EVICT
    assert sup.is_evicted("w0")
    assert sup.evicted_workers() == ["w0"]
    # Eviction is sticky even after the window would have slid past.
    assert sup.decide("w0", 1e9) == DECIDE_EVICT


def test_supervisor_window_slides():
    sup = FleetSupervisor(
        RestartPolicy(backoff_base_ms=0.0, max_restarts=2, window_ms=100.0)
    )
    for t in (0.0, 10.0):
        sup.note_death("w0", t, "x")
        assert sup.decide("w0", t) == DECIDE_RESTART
        sup.note_restarted("w0", t)
    # Third death inside the window would evict; past it, the old
    # restarts age out and the budget refreshes.
    sup.note_death("w0", 500.0, "x")
    assert sup.decide("w0", 500.0) == DECIDE_RESTART
    assert not sup.is_evicted("w0")


def test_supervisor_snapshot_is_strict_json():
    sup = FleetSupervisor()
    sup.note_death("w1", 3.0, "killed")
    snap = sup.snapshot()
    assert snap["w1"]["deaths"] == 1
    assert snap["w1"]["dead_since_ms"] == 3.0
    json.dumps(snap, allow_nan=False)


# -- session ledger (pure) -------------------------------------------------


def test_data_digest_is_layout_independent():
    rng = np.random.default_rng(0)
    arr = rng.normal(size=(64, 3))
    fortran = np.asfortranarray(arr)
    assert data_digest(arr) == data_digest(fortran)
    assert data_digest(arr) != data_digest(arr + 1e-12)


def test_ledger_records_and_coverage():
    ledger = SessionLedger()
    data = np.arange(12.0).reshape(6, 2)
    record = ledger.begin("s1", "pc", data, {"radius": 0.1}, now_ms=7.0)
    assert record.digest == data_digest(data)
    ledger.mark("s1", "w0", STATE_OK)
    ledger.mark("s1", "w1", "failed: boom")
    assert ledger.names() == ["s1"]
    assert record.ok_workers() == ["w0"]
    assert ledger.partial_registrations(["w0"]) == []
    assert ledger.partial_registrations(["w0", "w1"]) == ["s1"]
    cov = ledger.coverage(["w0", "w1"])
    assert cov["s1"]["missing_on"] == ["w1"] and not cov["s1"]["complete"]
    json.dumps(cov, allow_nan=False)


def test_ledger_mark_worker_lost_flips_ok_to_missing():
    ledger = SessionLedger()
    data = np.zeros((4, 2))
    ledger.begin("a", "pc", data, {})
    ledger.begin("b", "knn", data, {})
    for name in ("a", "b"):
        ledger.mark(name, "w0", STATE_OK)
    ledger.mark("a", "w1", "failed: nope")
    ledger.mark_worker_lost("w0")
    assert ledger.get("a").workers["w0"] == STATE_MISSING
    assert ledger.get("b").workers["w0"] == STATE_MISSING
    # A failed registration is not rewritten as a death.
    assert ledger.get("a").workers["w1"] == "failed: nope"
    # Replay order is registration order.
    assert [r.name for r in ledger.records()] == ["a", "b"]
    assert ledger.forget("a") is True and ledger.forget("a") is False


# -- fleet chaos (pure) ----------------------------------------------------


def test_fleet_chaos_schedule_is_deterministic():
    cfg = FleetChaosConfig(seed=3, p_kill=0.3, p_drop_reply=0.2, p_stall=0.2)

    def drive(chaos):
        for bucket in range(40):
            now = bucket * cfg.bucket_ms
            for w in ("w0", "w1", "w2"):
                chaos.should_kill(w, now)
                chaos.should_drop_reply(w, now)
                chaos.should_stall(w, now)
        return chaos.events

    first = drive(FleetChaos(cfg))
    second = drive(FleetChaos(cfg))
    assert first == second and len(first) > 0
    other = drive(FleetChaos(FleetChaosConfig(seed=4, p_kill=0.3,
                                              p_drop_reply=0.2, p_stall=0.2)))
    assert other != first


def test_fleet_chaos_fires_at_most_once_per_cell():
    cfg = FleetChaosConfig(seed=0, p_kill=1.0, max_kills_per_bucket=99)
    chaos = FleetChaos(cfg)
    assert chaos.should_kill("w0", 0.0) is True
    assert chaos.should_kill("w0", 5.0) is False  # same bucket, same cell
    assert chaos.should_kill("w0", cfg.bucket_ms) is True  # next bucket


def test_fleet_chaos_caps_kills_per_bucket():
    chaos = FleetChaos(FleetChaosConfig(seed=0, p_kill=1.0,
                                        max_kills_per_bucket=1))
    fired = [chaos.should_kill(w, 0.0) for w in ("w0", "w1", "w2")]
    assert fired == [True, False, False]
    assert [e for e in chaos.events if e[0] == KIND_KILL] == [
        (KIND_KILL, "w0", 0)
    ]


def test_fleet_chaos_validation_and_zero_probability():
    with pytest.raises(ValueError):
        FleetChaosConfig(p_kill=1.5)
    with pytest.raises(ValueError):
        FleetChaosConfig(bucket_ms=0)
    with pytest.raises(ValueError):
        FleetChaosConfig(max_kills_per_bucket=0)
    chaos = FleetChaos(FleetChaosConfig(seed=0))  # all probabilities 0
    assert not chaos.should_kill("w0", 0.0)
    assert not chaos.should_drop_reply("w0", 0.0)
    assert not chaos.should_stall("w0", 0.0)
    assert chaos.schedule() == []


# -- integration: heal, evict, replay --------------------------------------


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


def test_fleet_heals_killed_worker_with_session_replay():
    router = _fleet(workers=2)
    try:
        geo = _register_geo(router)
        before = {f"k{i}": router.place(f"k{i}") for i in range(100)}

        victim = router.handles["w1"]
        victim.proc.kill()
        victim.proc.join()

        actions = router.heal(now=50.0)
        assert actions == {"w1": "restarted"}
        assert router.live_workers() == ["w0", "w1"]
        assert victim.incarnation == 1

        # Placement restored exactly: same vnode seeds on rejoin.
        after = {k: router.place(k) for k in before}
        assert after == before

        # The replayed shard serves: a batch scattered over both
        # workers resolves every row.
        res = router.submit_many("pc-geocity", geo.points[:24], now=60.0)
        assert len(res) == 24 and all(r["ok"] for r in res)

        # /healthz recovered to healthy and says so.
        health = router.healthz()
        assert health["ok"] and health["workers"]["w1"]["status"] == "ok"
        assert health["checks"]["restarts_total"] == 1
        assert health["checks"]["partial_registrations"] == []

        # Recovery observability: counters, histogram, flight span.
        assert router._m["restarts"].value(worker="w1") == 1
        assert router._m["replays"].value(worker="w1") == 1
        assert router._m["recovery_ms"].state().count == 1
        [span] = router.flight.ring("w1")
        assert span["name"] == "fleet.recover" and span["status"] == "ok"
        assert any(e["name"] == "replayed" for e in span["events"])

        # Ledger shows full coverage again after the replay.
        assert router.ledger.partial_registrations(["w0", "w1"]) == []

        snap = router.statsz()
        assert snap["fleet"]["supervision"]["w1"]["restarts"] == 1
        json.dumps(snap, allow_nan=False)
    finally:
        report = router.drain()
    # All losses were healed: the fleet drains clean, exit 0 semantics.
    assert report["ok"]
    assert report["restarts_total"] == 1
    assert report["workers"]["w1"]["exitcode"] == 0
    assert report["workers"]["w1"]["incarnation"] == 1


def test_fleet_evicts_worker_after_budget_exhausted():
    router = _fleet(
        workers=2,
        restart=RestartPolicy(backoff_base_ms=0.0, max_restarts=1,
                              window_ms=1e9),
    )
    try:
        _register_geo(router)
        victim = router.handles["w1"]
        victim.proc.kill()
        victim.proc.join()
        assert router.heal(now=10.0) == {"w1": "restarted"}

        # Second death: the 1-restart budget is spent -> evicted.
        router.handles["w1"].proc.kill()
        router.handles["w1"].proc.join()
        assert router.heal(now=20.0) == {"w1": "evicted"}
        assert router.heal(now=1e8) == {"w1": "evicted"}  # permanent
        assert router.supervisor.evicted_workers() == ["w1"]
        assert router._m["evictions"].value(worker="w1") == 1

        health = router.healthz()
        assert not health["ok"]
        assert health["workers"]["w1"]["status"] == "evicted"
    finally:
        report = router.drain()
    # An evicted worker is an unhealed loss: the drain refuses ok.
    assert not report["ok"]
    assert report["evicted"] == ["w1"]


def test_fleet_partial_registration_surfaced_then_healed():
    router = _fleet(workers=2)
    try:
        # Kill w1 and make the router notice (wire trip), then register
        # while the fleet is degraded.
        victim = router.handles["w1"]
        victim.proc.kill()
        victim.proc.join()
        with pytest.raises(Exception):
            router._call("w1", "ping")
        assert router.handles["w1"].breaker.state == BREAKER_OPEN

        geo = _register_geo(router)
        out = router.register(
            "pc-two", "pc", geo.points[:64], radius=0.1, leaf_size=4
        )
        assert out["workers"] == ["w0"] and not out["complete"]
        assert set(router.sessions) == {"pc-geocity", "pc-two"}

        # /statsz surfaces the gap instead of claiming fleet coverage.
        snap = router.statsz()
        assert snap["fleet"]["partial_registrations"] == []  # w1 not live
        assert snap["fleet"]["session_coverage"]["pc-two"]["workers"]["w1"] \
            == STATE_MISSING

        # Heal: the replay must install BOTH sessions on the new w1.
        assert router.heal(now=30.0) == {"w1": "restarted"}
        assert router._m["replays"].value(worker="w1") == 2
        assert router.ledger.partial_registrations(["w0", "w1"]) == []
        res = router.submit_many("pc-two", geo.points[:16], now=40.0)
        assert all(r["ok"] for r in res)
    finally:
        report = router.drain()
    assert report["ok"]


def test_fleet_register_fails_loudly_with_no_live_workers():
    router = _fleet(workers=1)
    try:
        victim = router.handles["w0"]
        victim.proc.kill()
        victim.proc.join()
        with pytest.raises(Exception):
            router._call("w0", "ping")
        geo = dataset_by_name("geocity", 64, seed=7)
        with pytest.raises(RuntimeError, match="no live worker"):
            router.register("s", "pc", geo.points, radius=0.1, leaf_size=4)
        assert router.sessions == []  # the failed record was forgotten
    finally:
        router.drain()


def test_fleet_stall_chaos_trips_then_reroutes_and_heals():
    # p_stall=1.0: the first routed submit's reply is abandoned without
    # being consumed — the pipe is desynchronized by construction, so
    # recovery MUST replace the process; the chaos-exempt reroute keeps
    # the answer flowing meanwhile.
    router = _fleet(
        workers=2,
        scatter_threshold=0,  # routed path only
        fleet_chaos=FleetChaosConfig(seed=1, p_stall=1.0, bucket_ms=10.0),
    )
    try:
        geo = _register_geo(router)
        res = router.submit_many("pc-geocity", geo.points[:4], now=5.0)
        assert len(res) == 4 and all(r["ok"] for r in res)
        assert router._m["reroutes"].total() == 1
        assert len(router.dead_workers()) == 1
        stalled = router.dead_workers()[0]
        assert router._m["chaos"].value(kind="stall", worker=stalled) == 1

        assert router.heal(now=20.0) == {stalled: "restarted"}
        assert router.healthz()["ok"]
    finally:
        report = router.drain()
    assert report["ok"]


def test_fleet_server_background_healer_recovers_healthz():
    # The serve-mode path: no logical clock driving heal() — the
    # background healer runs on wall-floored time and must bring a
    # SIGKILLed worker back to healthy on its own.
    import time as _time

    router = _fleet(workers=2)
    server = FleetServer(router, heal_interval_s=0.05)
    try:
        server.start()
        _register_geo(router)
        victim = router.handles["w1"]
        victim.proc.kill()
        victim.proc.join()
        deadline = _time.monotonic() + 30.0
        while _time.monotonic() < deadline:
            status, _, body = server.respond("/healthz")
            if status == 200 and json.loads(body)["ok"]:
                break
            _time.sleep(0.1)
        else:
            pytest.fail("healer never brought /healthz back to ok")
        assert router.supervisor.total_restarts() >= 1
        status, _, body = server.respond("/metrics")
        assert 'fleet_restarts_total{worker="w1"}' in body.decode()
    finally:
        report = server.shutdown()
    assert report["ok"]


# -- chaos benchmark smoke -------------------------------------------------


def test_chaos_benchmark_smoke_audits_clean():
    from benchmarks.fleet import run_chaos_benchmark

    report = run_chaos_benchmark(
        workers=2, rounds=10, batch=12, seed=7, n_data=128,
        p_kill=0.25, p_drop_reply=0.0, p_stall=0.0,
        pin_cpus=False, log=lambda *_: None,
    )
    audit = report["audit"]
    assert audit["compared"] == 10 * 2 * 12
    assert audit["lost"] == 0
    assert audit["mismatched"] == 0
    assert audit["oracle_wrong"] == 0
    assert report["recovery"]["restarts"] >= 1
    assert report["recovery"]["session_replays"] >= 1
    assert report["healthz_ok"] and report["drain_ok"]
    json.dumps(report, allow_nan=False)
