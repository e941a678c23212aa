"""Resilience layer tests: the typed error taxonomy, circuit breaker
state machine, deterministic retry backoff, chaos fault injection
(same seed => identical failure schedule), boundary validation,
admission control / load shedding, watchdog budgets with degraded-mode
failover, drain-or-fail ticket resolution, failure-driven plan-cache
invalidation, JSON-safe snapshots, and the chaos CLI audit."""

import json

import numpy as np
import pytest

from repro.gpusim.device import TESLA_C2070
from repro.gpusim.faults import ChaosConfig, FaultInjector, NO_FAULTS
from repro.gpusim.kernel import VisitBudgetExceeded, Watchdog
from repro.gpusim.stack import StackStorage
from repro.points.datasets import dataset_by_name
from repro.service import (
    BACKENDS,
    FALLBACK_CHAIN,
    AdaptiveDispatcher,
    BackendUnavailable,
    BudgetExhausted,
    CircuitBreaker,
    DeadlineExceeded,
    InvalidQuery,
    Overloaded,
    RetryPolicy,
    ServiceConfig,
    ServiceError,
    TraversalService,
)
from repro.service.__main__ import main as service_main
from repro.service.resilience import ERROR_CODES
from repro.service.resilience.breaker import (
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
)


@pytest.fixture(scope="module")
def random128():
    return dataset_by_name("random", 128, seed=5, dim=2).points


def make_service(data, **cfg):
    defaults = dict(max_batch=16, max_wait_ms=1.0, min_gpu_batch=4, seed=7)
    defaults.update(cfg)
    svc = TraversalService(ServiceConfig(**defaults))
    svc.register("s", app="nn", data=data)
    return svc


class TestErrorTaxonomy:
    def test_codes_and_retryability(self):
        assert InvalidQuery("x").code == "invalid_query"
        assert DeadlineExceeded("x").code == "deadline_exceeded"
        assert BudgetExhausted("x").retryable
        assert BackendUnavailable("x").retryable
        assert not Overloaded("x").retryable
        for code, cls in ERROR_CODES.items():
            assert cls.code == code
            assert issubclass(cls, ServiceError)

    def test_invalid_query_is_a_valueerror(self):
        # Backward compatibility: callers catching ValueError still work.
        with pytest.raises(ValueError):
            raise InvalidQuery("bad coords")

    def test_to_dict_is_json_safe(self):
        err = BackendUnavailable("gone", session="s", batch_id=3, backend="lockstep")
        d = json.loads(json.dumps(err.to_dict()))
        assert d["code"] == "backend_unavailable"
        assert d["backend"] == "lockstep" and d["batch_id"] == 3
        assert d["retryable"] is True


class TestCircuitBreaker:
    def test_trips_at_threshold_and_cools_down(self):
        b = CircuitBreaker("gpu", failure_threshold=3, cooldown_ms=10.0)
        assert b.state == STATE_CLOSED
        for t in range(2):
            b.record_failure(float(t))
            assert b.state == STATE_CLOSED and b.allow(float(t))
        b.record_failure(2.0)
        assert b.state == STATE_OPEN and b.trips == 1
        # Open: rejected until the cooldown elapses.
        assert not b.allow(5.0)
        assert b.rejections == 1
        # Cooldown over: half-open, one probe admitted.
        assert b.allow(12.0)
        assert b.state == STATE_HALF_OPEN

    def test_half_open_probe_success_closes(self):
        b = CircuitBreaker("gpu", failure_threshold=1, cooldown_ms=5.0)
        b.record_failure(0.0)
        assert b.allow(6.0)  # half-open probe
        b.record_success(6.0)
        assert b.state == STATE_CLOSED
        assert b.allow(6.0)

    def test_half_open_probe_failure_reopens(self):
        b = CircuitBreaker("gpu", failure_threshold=1, cooldown_ms=5.0)
        b.record_failure(0.0)
        assert b.allow(6.0)
        b.record_failure(6.0)
        assert b.state == STATE_OPEN and b.trips == 2
        # The cooldown re-armed from the re-trip time.
        assert not b.allow(8.0)
        assert b.allow(11.5)

    def test_probe_budget_is_bounded(self):
        b = CircuitBreaker("gpu", failure_threshold=1, cooldown_ms=1.0,
                           half_open_trials=2)
        b.record_failure(0.0)
        assert b.allow(2.0) and b.allow(2.0)  # two probes
        assert not b.allow(2.0)  # budget spent, no verdict yet
        assert b.snapshot().rejections == 1

    def test_success_resets_consecutive_count(self):
        b = CircuitBreaker("gpu", failure_threshold=2)
        b.record_failure(0.0)
        b.record_success(1.0)
        b.record_failure(2.0)
        assert b.state == STATE_CLOSED  # never two in a row


class TestRetryPolicy:
    def test_backoff_is_deterministic(self):
        p = RetryPolicy(seed=42)
        a = [p.backoff_ms(i, key=(9, 1)) for i in range(3)]
        b = [p.backoff_ms(i, key=(9, 1)) for i in range(3)]
        assert a == b
        assert a != [p.backoff_ms(i, key=(9, 2)) for i in range(3)]

    def test_backoff_grows_within_jitter_bounds(self):
        p = RetryPolicy(backoff_base_ms=1.0, backoff_multiplier=2.0, jitter=0.25)
        for attempt in range(4):
            nominal = 2.0**attempt
            got = p.backoff_ms(attempt, key=(0,))
            assert nominal * 0.75 <= got <= nominal * 1.25

    def test_zero_jitter_is_exact(self):
        p = RetryPolicy(backoff_base_ms=0.5, backoff_multiplier=3.0, jitter=0.0)
        assert p.schedule_ms() == [0.5, 1.5]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


class TestFaultInjector:
    CFG = ChaosConfig(
        seed=11, p_backend_error=0.5, p_stuck_warp=0.3, p_corrupt_stack=0.4,
        p_latency_spike=0.3, targets=("lockstep", "nonlockstep"),
    )

    def test_same_seed_same_schedule(self):
        a, b = FaultInjector(self.CFG), FaultInjector(self.CFG)
        plans_a = [a.plan(i, bk, t) for i in range(20)
                   for bk in BACKENDS for t in range(2)]
        plans_b = [b.plan(i, bk, t) for i in range(20)
                   for bk in BACKENDS for t in range(2)]
        assert plans_a == plans_b
        assert a.schedule() == b.schedule()
        assert any(p.any_armed for p in plans_a)  # rates high enough to fire

    def test_different_seed_different_schedule(self):
        other = ChaosConfig(**{**self.CFG.__dict__, "seed": 12})
        a, b = FaultInjector(self.CFG), FaultInjector(other)
        for i in range(20):
            a.plan(i, "lockstep", 0)
            b.plan(i, "lockstep", 0)
        assert a.schedule() != b.schedule()

    def test_untargeted_backend_is_safe(self):
        inj = FaultInjector(self.CFG)
        assert inj.plan(0, "cpu", 0) is NO_FAULTS
        assert inj.schedule() == ()

    def test_disabled_config_injects_nothing(self):
        inj = FaultInjector(ChaosConfig(seed=1))
        assert not inj.config.enabled
        assert inj.plan(0, "lockstep", 0) is NO_FAULTS

    def test_rate_validation(self):
        with pytest.raises(ValueError, match="p_backend_error"):
            ChaosConfig(p_backend_error=1.5)
        with pytest.raises(ValueError, match="latency_spike_factor"):
            ChaosConfig(latency_spike_factor=0.5)


class TestGpusimHooks:
    def test_watchdog_trips_past_budget(self):
        w = Watchdog(budget=5)
        for step in range(1, 6):
            w.tick(step)
        with pytest.raises(VisitBudgetExceeded) as ei:
            w.tick(6)
        assert ei.value.budget == 5

    def test_device_derate_slows_the_clock(self):
        slow = TESLA_C2070.derate(8.0)
        assert slow.clock_ghz == pytest.approx(TESLA_C2070.clock_ghz / 8.0)
        assert "derated" in slow.name
        assert TESLA_C2070.derate(1.0) is TESLA_C2070
        with pytest.raises(ValueError):
            TESLA_C2070.derate(0.5)

    def test_corrupt_top_overwrites_stack_head(self):
        from repro.gpusim.stack import RopeStackLayout
        from repro.gpusim.stats import KernelStats

        s = StackStorage(
            n_stacks=4,
            channels={"node": (np.int64, 1)},
            layout=RopeStackLayout.SHARED,
            device=TESLA_C2070,
            allocator=None,
            memory=None,
            stats=KernelStats(),
            lanes_per_access=4,
            account=False,
        )
        active = np.array([True, True, False, False])
        s.push(active, 0, node=np.array([3, 4, 0, 0]))
        hit = s.corrupt_top("node", 999)
        assert hit == 2  # only the two non-empty stacks
        popped = s.pop(active, 1)
        assert list(popped["node"][:2]) == [999, 999]


class TestBoundaryValidation:
    def test_nan_rejected(self, random128):
        svc = make_service(random128)
        with pytest.raises(InvalidQuery, match="non-finite"):
            svc.submit("s", [float("nan"), 0.5])
        assert svc.queue_depth == 0

    def test_inf_rejected(self, random128):
        svc = make_service(random128)
        with pytest.raises(InvalidQuery):
            svc.submit("s", [float("inf"), 0.5])

    def test_dim_mismatch_rejected(self, random128):
        svc = make_service(random128)
        with pytest.raises(InvalidQuery, match="coords"):
            svc.submit("s", [0.1, 0.2, 0.3])

    def test_query_many_rejects_atomically(self, random128):
        svc = make_service(random128)
        coords = np.random.default_rng(0).random((8, 2))
        coords[5, 0] = np.nan
        with pytest.raises(InvalidQuery, match="non-finite"):
            svc.query_many("s", coords)
        # Nothing half-submitted: one bad row rejects the whole call.
        assert svc.queue_depth == 0
        assert svc.stats().queries_submitted == 0

    def test_valid_query_still_flows(self, random128):
        svc = make_service(random128)
        t = svc.query("s", random128[0])
        assert t.ok and t.error is None


class TestAdmissionControl:
    def test_reject_new_raises_overloaded(self, random128):
        svc = make_service(
            random128, max_batch=64, max_wait_ms=100.0,
            max_queue_depth=2, shed_policy="reject-new",
        )
        svc.submit("s", random128[0], now=0.0)
        svc.submit("s", random128[1], now=0.0)
        with pytest.raises(Overloaded, match="rejected"):
            svc.submit("s", random128[2], now=0.0)
        assert svc.queue_depth == 2
        s = svc.stats()
        assert s.resilience.shed_rejected == 1
        assert s.resilience.errors["overloaded"] == 1

    def test_drop_oldest_sheds_the_head(self, random128):
        svc = make_service(
            random128, max_batch=64, max_wait_ms=100.0,
            max_queue_depth=2, shed_policy="drop-oldest",
        )
        first = svc.submit("s", random128[0], now=0.0)
        svc.submit("s", random128[1], now=0.0)
        third = svc.submit("s", random128[2], now=0.5)  # admitted
        assert svc.queue_depth == 2
        # The oldest ticket resolved with a typed error, not silently.
        assert first.done and not first.ok
        assert isinstance(first.error, Overloaded)
        assert not third.done
        s = svc.stats()
        assert s.resilience.shed_dropped == 1
        assert s.queries_failed == 1
        # The shed query still has an answer after flush for the rest.
        svc.flush()
        assert third.ok


class TestDegradedModeFailover:
    def test_budget_exhaustion_falls_back_to_cpu(self, random128):
        # A 3-step budget kills both GPU executors; the modeled CPU (no
        # watchdog) answers, and the answer is still correct.
        svc = make_service(random128, backend="lockstep", visit_budget=3,
                           breaker_cooldown_ms=1e9)
        t = svc.query("s", random128[0])
        assert t.ok and t.degraded and t.backend == "cpu"
        assert t.attempts > 1
        expected = svc.registry.get("s").oracle(random128[:1])
        assert np.isclose(t.result["nn_dist"], expected["nn_dist"][0])
        r = svc.stats().resilience
        assert r.degraded_batches == 1
        assert r.backend_failures["lockstep"] >= 1
        assert r.backend_failures["nonlockstep"] >= 1
        assert r.errors.get("budget_exhausted") is None  # served, not failed

    def test_breaker_trips_after_repeated_failures(self, random128):
        svc = make_service(
            random128, backend="lockstep", visit_budget=3,
            retry_max_attempts=3, breaker_threshold=3,
            breaker_cooldown_ms=1e9,
        )
        svc.query("s", random128[0])
        snaps = svc.dispatcher.breaker_snapshots()
        assert snaps["lockstep"].state == STATE_OPEN
        assert snaps["lockstep"].trips == 1
        # Next batch skips lockstep outright (breaker open -> rejected).
        svc.query("s", random128[1])
        assert svc.dispatcher.breaker_snapshots()["lockstep"].rejections >= 1

    def test_fallback_chain_shape(self):
        assert FALLBACK_CHAIN["lockstep"] == ("lockstep", "nonlockstep", "cpu")
        assert FALLBACK_CHAIN["cpu"] == ("cpu",)
        for chain in FALLBACK_CHAIN.values():
            assert chain[-1] == "cpu"  # every road ends at the safe harbor

    def test_chaos_corrupt_stack_failover_correct_results(self, random128):
        # Corrupt every lockstep attempt: the batch must fail over and
        # still return oracle-correct results.
        chaos = ChaosConfig(seed=3, p_corrupt_stack=1.0, targets=("lockstep",))
        svc = make_service(random128, backend="lockstep", chaos=chaos,
                           max_batch=32)
        tickets = svc.query_many("s", random128[:32])
        assert all(t.ok for t in tickets)
        assert all(t.degraded for t in tickets)
        expected = svc.registry.get("s").oracle(random128[:32])
        got = np.array([t.result["nn_id"] for t in tickets])
        assert np.array_equal(got, expected["nn_id"])
        r = svc.stats().resilience
        assert r.injected_faults.get("corrupt_stack", 0) >= 1


class TestDrainOrFail:
    def test_total_backend_failure_resolves_every_ticket(
        self, random128, monkeypatch
    ):
        svc = make_service(random128, retry_max_attempts=2)

        def boom(self, session, coords, backend, fault_plan=None):
            raise RuntimeError("kaboom")

        monkeypatch.setattr(AdaptiveDispatcher, "execute", boom)
        tickets = [svc.submit("s", c, now=0.0) for c in random128[:10]]
        svc.flush()
        # Drain-or-fail: every ticket resolved, nothing stranded.
        assert svc.queue_depth == 0
        assert all(t.done and not t.ok for t in tickets)
        assert all(isinstance(t.error, BackendUnavailable) for t in tickets)
        s = svc.stats()
        assert s.queries_failed == 10
        assert s.resilience.failed_batches == 1
        assert s.resilience.errors["backend_unavailable"] == 10

    def test_plan_invalidated_after_repeated_batch_failures(
        self, random128, monkeypatch
    ):
        svc = make_service(random128, retry_max_attempts=1,
                           plan_failure_threshold=2)

        def boom(self, session, coords, backend, fault_plan=None):
            raise RuntimeError("kaboom")

        monkeypatch.setattr(AdaptiveDispatcher, "execute", boom)
        for c in random128[:2]:
            svc.query("s", c)
        s = svc.stats()
        assert s.resilience.plan_invalidations == 1
        assert s.plan_cache.invalidations == 1
        # The recompiled plan serves fine once the backend heals.
        monkeypatch.undo()
        t = svc.query("s", random128[3])
        assert t.ok

    def test_flush_survives_a_poisoned_session(self, random128, monkeypatch):
        svc = make_service(random128, retry_max_attempts=1)
        svc.register("s2", app="nn", data=random128)
        calls = []
        real = AdaptiveDispatcher.execute

        def flaky(self, session, coords, backend, fault_plan=None):
            calls.append(session.name)
            if session.name == "s":
                raise RuntimeError("kaboom")
            return real(self, session, coords, backend, fault_plan)

        monkeypatch.setattr(AdaptiveDispatcher, "execute", flaky)
        bad = svc.submit("s", random128[0], now=0.0)
        good = svc.submit("s2", random128[1], now=0.0)
        svc.flush()
        # The failing session didn't strand the healthy one.
        assert bad.done and not bad.ok
        assert good.ok
        assert svc.queue_depth == 0


class TestDeadlines:
    def test_deadline_exceeded_is_typed(self, random128):
        svc = make_service(random128, deadline_ms=1e-9)
        t = svc.query("s", random128[0])
        assert t.done and not t.ok
        assert isinstance(t.error, DeadlineExceeded)
        s = svc.stats()
        assert s.resilience.deadline_misses == 1
        assert s.queries_failed == 1

    def test_generous_deadline_passes(self, random128):
        svc = make_service(random128, deadline_ms=1e9)
        t = svc.query("s", random128[0])
        assert t.ok and svc.stats().resilience.deadline_misses == 0


class TestSessionLifecycle:
    def test_unregister_is_idempotent(self, random128):
        svc = make_service(random128)
        pending = svc.submit("s", random128[0], now=0.0)
        assert svc.unregister("s") is True
        # Drain-or-fail: the pending query was flushed, not dropped.
        assert pending.done
        assert "s" not in svc.registry
        assert svc.unregister("s") is False  # second call: no-op
        with pytest.raises(KeyError):
            svc.submit("s", random128[0])

    def test_reregister_after_unregister_reuses_plan(self, random128):
        svc = make_service(random128)
        # A second live session over the same data holds the tree and
        # plan (the last session to unregister would free them).
        svc.register("keep", app="nn", data=random128)
        svc.query("s", random128[0])
        svc.unregister("s")
        svc.register("s", app="nn", data=random128)
        assert svc.stats().plan_cache.hits >= 2  # tree + plan were kept
        assert svc.query("s", random128[1]).ok


class TestChaosDeterminism:
    CHAOS = ChaosConfig(
        seed=21, p_backend_error=0.4, p_stuck_warp=0.2,
        p_corrupt_stack=0.3, p_latency_spike=0.2,
        targets=("lockstep", "nonlockstep"),
    )

    def run_trace(self, data, seed=21):
        svc = make_service(
            data, max_batch=8, chaos=self.CHAOS.__class__(
                **{**self.CHAOS.__dict__, "seed": seed}
            ),
        )
        rng = np.random.default_rng(0)
        now = 0.0
        tickets = []
        for c in data[rng.permutation(len(data))][:48]:
            now += 0.01
            svc.advance(now)
            tickets.append(svc.submit("s", c, now=now))
        svc.flush()
        return svc, tickets

    def test_same_seed_identical_run(self, random128):
        svc_a, t_a = self.run_trace(random128)
        svc_b, t_b = self.run_trace(random128)
        # Identical fault schedules...
        assert svc_a.dispatcher.injector.schedule() == (
            svc_b.dispatcher.injector.schedule()
        )
        # ... identical breaker histories ...
        assert svc_a.dispatcher.breaker_snapshots() == (
            svc_b.dispatcher.breaker_snapshots()
        )
        # ... identical resilience counters and outcomes.
        sa, sb = svc_a.stats(), svc_b.stats()
        assert sa.resilience == sb.resilience
        assert [(t.backend, t.attempts, t.ok) for t in t_a] == (
            [(t.backend, t.attempts, t.ok) for t in t_b]
        )

    def test_different_seed_diverges(self, random128):
        svc_a, _ = self.run_trace(random128, seed=21)
        svc_b, _ = self.run_trace(random128, seed=22)
        assert svc_a.dispatcher.injector.schedule() != (
            svc_b.dispatcher.injector.schedule()
        )

    def test_zero_lost_queries_under_chaos(self, random128):
        svc, tickets = self.run_trace(random128)
        assert all(t.done for t in tickets)  # nothing lost
        served = [t for t in tickets if t.ok]
        assert served  # chaos didn't take the whole service down
        coords = np.stack([t.coords for t in served])
        expected = svc.registry.get("s").oracle(coords)
        got_ids = np.array([t.result["nn_id"] for t in served])
        assert np.array_equal(got_ids, expected["nn_id"])


class TestSnapshotJsonSafety:
    def test_round_trip_no_nan(self, random128):
        svc = make_service(random128, chaos=ChaosConfig(
            seed=2, p_backend_error=0.5, targets=("lockstep", "nonlockstep"),
        ))
        svc.query_many("s", random128[:24])
        d = svc.stats().to_dict()
        # allow_nan=False would choke on any float("nan") sentinel left.
        text = json.dumps(d, allow_nan=False, default=str)
        back = json.loads(text)
        assert back["queries_submitted"] == 24
        assert "resilience" in back and "breakers" in back["resilience"]

    def test_empty_aggregates_are_none(self, random128):
        s = make_service(random128).stats()
        assert s.p50_latency_ms is None
        for b in s.backends.values():
            assert b.mean_work_expansion is None


class TestChaosCli:
    def test_chaos_demo_audit_passes(self, capsys):
        rc = service_main([
            "--chaos", "--queries", "60", "--data", "128",
            "--max-batch", "16", "--chaos-seed", "5",
            "--p-backend-error", "0.5", "--p-corrupt-stack", "0.5",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "chaos audit passed" in out
        assert "0 lost" in out and "0 oracle mismatches" in out

    def test_chaos_json_output_parses(self, capsys):
        rc = service_main([
            "--chaos", "--queries", "40", "--data", "128",
            "--max-batch", "16", "--json",
        ])
        assert rc == 0
        d = json.loads(capsys.readouterr().out)
        assert d["queries_submitted"] >= 40
