"""The service's CPU-side engine against the recursive interpreter.

The CPU backend and the Section 4.4 similarity probe walk the plan's
generated per-point traversal.  These tests recompute everything that
depends on those walks with :class:`RecursiveInterpreter` and
:func:`cpu_time_ms` and require the service to match bit for bit:
result arrays, modeled ``exec_ms`` (it comes from the visit
sequences, so it pins the logical clock), backends, and every routing
decision's mean Jaccard.
"""

import functools
import time

import numpy as np

import repro.service as service_pkg
from repro.core import passes
from repro.core.profiling import sample_similarity
from repro.cpusim.recursive import RecursiveInterpreter
from repro.cpusim.threads import cpu_time_ms
from repro.gpusim.executors import (
    AutoropesExecutor,
    LockstepExecutor,
    TraversalLaunch,
)
from repro.gpusim.stack import RopeStackLayout, lockstep_stack_layout
from repro.points.datasets import random_points
from repro.service import BackendUnavailable, ServiceConfig, TraversalService
from repro.service import dispatch

APPS = {
    "pc": {"radius": 0.1, "leaf_size": 4},
    "knn": {"k": 3, "leaf_size": 4},
    "nn": {},
    "vp": {"leaf_size": 4},
}


def make_service(config=None, n=400):
    svc = TraversalService(config or ServiceConfig(seed=11))
    data = {}
    for i, (app, kwargs) in enumerate(APPS.items()):
        data[app] = random_points(n=n, dim=3, seed=300 + i).points
        svc.register(app, app, data[app], **kwargs)
    return svc, data


def record_decisions(svc):
    """Wrap ``decide`` to log (session, reordered coords, decision)."""
    log = []
    decide = svc.dispatcher.decide

    def recording(session, coords):
        decision = decide(session, coords)
        log.append((session.name, np.array(coords), decision))
        return decision

    svc.dispatcher.decide = recording
    return log


def interp_batch(sess, coords):
    """The interpreter's visit sequences and ``out`` for one batch."""
    ctx = sess.make_batch_ctx(coords)
    interp = RecursiveInterpreter(sess.app.spec, sess.tree, ctx)
    return interp.run_points(range(len(coords))), ctx.out


def interp_similarity(cfg, sess, coords):
    scratch = sess.make_batch_ctx(coords)
    probe = RecursiveInterpreter(sess.app.spec, sess.tree, scratch)
    n = len(coords)
    return sample_similarity(
        probe.run_point,
        n_points=n,
        n_samples=min(cfg.similarity_samples, n - 1),
        threshold=cfg.similarity_threshold,
        seed=cfg.seed,
    )


def gpu_launch(cfg, sess, coords, backend):
    """Modeled time and ``out`` of one GPU launch, built by hand."""
    lockstep = backend == "lockstep"
    ctx = sess.make_batch_ctx(coords)
    launch = TraversalLaunch(
        kernel=sess.plan.kernel(lockstep=lockstep),
        tree=sess.tree,
        ctx=ctx,
        n_points=len(coords),
        device=cfg.device,
        stack_layout=(
            lockstep_stack_layout(sess.tree, sess.app.spec)
            if lockstep
            else RopeStackLayout.INTERLEAVED_GLOBAL
        ),
        visit_budget=cfg.visit_budget,
        engine=cfg.engine,
        compact_threshold=cfg.compact_threshold,
    )
    run = (LockstepExecutor if lockstep else AutoropesExecutor)(launch).run()
    return run.time_ms, ctx.out


def assert_bit_identical(got, want):
    got, want = np.asarray(got), np.asarray(want)
    np.testing.assert_array_equal(got, want)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_seeded_stream_matches_interpreter():
    cfg = ServiceConfig(seed=11)
    svc, data = make_service(cfg)
    decisions = record_decisions(svc)
    rng = np.random.default_rng(2024)
    sizes = [1, 1, cfg.min_gpu_batch, 1, 24, 1, 1, 40, cfg.min_gpu_batch + 3, 1]
    requests = []
    for app in APPS:
        for rows in sizes:
            picks = rng.integers(0, len(data[app]), size=rows)
            coords = data[app][picks] + rng.normal(0, 1e-3, (rows, 3))
            tickets = svc.query_many(app, coords)
            requests.append((app, coords, tickets))
    assert len(decisions) == len(requests)

    cpu_batches = gpu_batches = 0
    for (app, coords, tickets), (name, batch, decision) in zip(
        requests, decisions
    ):
        assert name == app
        sess = svc.registry.get(app)
        n = len(coords)
        # Row i of the executed batch is the order[i]-th ticket.
        order = [int(np.flatnonzero((coords == row).all(axis=1))[0]) for row in batch]
        assert sorted(order) == list(range(n))
        sequences, ref_out = interp_batch(sess, batch)
        if n < cfg.min_gpu_batch:
            cpu_batches += 1
            assert decision.backend == "cpu" and decision.similarity is None
            want_ms = cpu_time_ms(
                sequences,
                threads=cfg.cpu_threads,
                config=cfg.cpu,
                visit_cost_scale=sess.app.visit_cost_scale,
            ).time_ms
            want_out = ref_out
        else:
            gpu_batches += 1
            sim = interp_similarity(cfg, sess, batch)
            assert decision.similarity == sim
            assert decision.reason == f"mean neighbor Jaccard {sim.mean_jaccard:.2f}"
            backend = "lockstep" if sim.recommend_lockstep else "nonlockstep"
            assert decision.backend == backend
            want_ms, want_out = gpu_launch(cfg, sess, batch, backend)
            # The GPU answer is also the interpreter's, bit for bit.
            for key in ref_out:
                assert_bit_identical(want_out[key], ref_out[key])
        for row, tidx in enumerate(order):
            ticket = tickets[tidx]
            assert ticket.ok and ticket.backend == decision.backend
            assert ticket.exec_ms == want_ms
            for key in want_out:
                assert_bit_identical(ticket.result[key], want_out[key][row])
    assert cpu_batches >= 4 * 6 and gpu_batches >= 4 * 4
    assert {d.backend for _, _, d in decisions} >= {"cpu", "lockstep"}


def test_emitted_on_first_use_and_dropped_by_refresh_plan():
    svc, data = make_service(n=200)
    sess = svc.registry.get("pc")
    kernel = sess.plan.autoropes
    # register emits nothing: the traversal appears on first CPU use.
    assert "_scalar_traversal" not in kernel.__dict__
    assert svc.query("pc", data["pc"][0]).backend == "cpu"
    fn = kernel.__dict__["_scalar_traversal"]
    assert svc.query("pc", data["pc"][1]).backend == "cpu"
    assert kernel.__dict__["_scalar_traversal"] is fn
    svc.registry.refresh_plan("pc")
    fresh = sess.plan.autoropes
    assert fresh is not kernel
    assert "_scalar_traversal" not in fresh.__dict__
    assert svc.query("pc", data["pc"][2]).ok
    assert fresh.__dict__["_scalar_traversal"] is not fn


def test_cpu_guard_trip_is_typed_backend_unavailable(monkeypatch):
    """A runaway walk on the CPU backend fails its batch with a typed
    BackendUnavailable; it neither hangs nor escapes as RuntimeError."""
    svc, data = make_service(n=200)
    sess = svc.registry.get("pc")
    tree = sess.tree
    tree.children["left"][tree.root] = tree.root  # cyclic: root -> root
    monkeypatch.setattr(
        dispatch,
        "traversal_for",
        lambda kernel: functools.partial(
            passes.traversal_for(kernel), max_visits=1_000
        ),
    )
    t0 = time.perf_counter()
    ticket = svc.query("pc", data["pc"][0])
    assert time.perf_counter() - t0 < 5.0
    assert ticket.done and not ticket.ok
    assert isinstance(ticket.error, BackendUnavailable)
    assert "max_visits" in ticket.error.message
    assert ticket.error.backend == "cpu"


def test_service_does_not_use_the_interpreter():
    import importlib
    import pkgutil

    for info in pkgutil.iter_modules(service_pkg.__path__):
        module = importlib.import_module(f"repro.service.{info.name}")
        assert "RecursiveInterpreter" not in vars(module), info.name
