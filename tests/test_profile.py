"""Continuous kernel profiler: attribution, reconciliation, parity.

The profiler's contract has three legs:

* **Zero perturbation** — simulated stats are bit-identical with
  profiling on or off (attribution reads counters, never writes).
* **Reconciliation** — per-op attributed counters sum to the launch
  totals (the step-overhead label absorbs inter-op costs).
* **Engine parity** — the interp reference and the codegen engine
  produce the same per-op series for the same kernel, so hot-op
  rankings are comparable across the engine knob.
"""

import numpy as np
import pytest

from repro.core.autoropes import Continue, PushGroup
from repro.core.compile import op_label, program_for
from repro.core.ir import If, Update
from repro.gpusim.executors import (
    AutoropesExecutor,
    LockstepExecutor,
    TraversalLaunch,
)
from repro.telemetry import KernelProfiler, LaunchProfile
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.profile import (
    OVERHEAD_LABEL,
    PROFILE_COUNTERS,
    depth_map,
    op_cycles,
)

APPS = ("pc", "knn")


def _run_profiled(app, kernel, exec_cls, device, engine):
    prof = LaunchProfile(depth_of=depth_map(app.tree))
    launch = TraversalLaunch(
        kernel=kernel,
        tree=app.tree,
        ctx=app.make_ctx(),
        n_points=app.n_points,
        device=device,
        engine=engine,
        op_profile=prof,
    )
    result = exec_cls(launch).run()
    # Flush the final step's tail (post-note pops / loop bookkeeping)
    # into the overhead label so totals reconcile exactly.
    prof.sync(launch.stats)
    return prof, result


class TestOpLabel:
    def test_compiled_and_interp_labels_agree(self, all_apps, compiled_apps):
        """The compiled program's op table and the AST walk produce the
        same label multiset — the parity the profiler relies on."""
        for name in APPS:
            kernel = compiled_apps[name].lockstep
            prog = program_for(kernel)
            compiled_labels = sorted(label for _, label in prog.op_table())
            interp_labels = sorted(
                op_label(stmt)
                for stmt in kernel.body.walk()
                if isinstance(stmt, (If, Update, PushGroup, Continue))
            )
            assert compiled_labels == interp_labels, name

    def test_unknown_op_rejected(self):
        with pytest.raises(TypeError):
            op_label(object())


class TestDepthMap:
    def test_depths_follow_children(self, all_apps):
        tree = all_apps["pc"].tree
        depth_of = depth_map(tree)
        assert depth_of[tree.root] == 0
        for cname in tree.child_names:
            child = tree.children[cname]
            has = child >= 0
            np.testing.assert_array_equal(
                depth_of[child[has]], depth_of[has] + 1
            )

    def test_cached_on_tree(self, all_apps):
        tree = all_apps["knn"].tree
        assert depth_map(tree) is depth_map(tree)


class TestReconciliation:
    @pytest.mark.parametrize("name", APPS)
    @pytest.mark.parametrize("engine", ("interp", "codegen"))
    def test_per_op_counters_sum_to_launch_totals(
        self, name, engine, all_apps, compiled_apps, device4
    ):
        app = all_apps[name]
        prof, result = _run_profiled(
            app, compiled_apps[name].lockstep, LockstepExecutor, device4,
            engine,
        )
        for i, counter in enumerate(PROFILE_COUNTERS):
            attributed = sum(vec[i] for vec in prof.ops.values())
            total = float(getattr(result.stats, counter))
            assert attributed == pytest.approx(total, rel=1e-9, abs=1e-9), (
                f"{name}/{engine}: {counter} attribution does not "
                f"reconcile ({attributed} != {total})"
            )

    def test_overhead_label_present(self, all_apps, compiled_apps, device4):
        prof, _ = _run_profiled(
            all_apps["pc"], compiled_apps["pc"].lockstep, LockstepExecutor,
            device4, "codegen",
        )
        assert OVERHEAD_LABEL in prof.ops
        # Overhead is bookkeeping, never an executed op.
        assert OVERHEAD_LABEL not in prof.op_visits


class TestZeroPerturbation:
    @pytest.mark.parametrize("variant", ("lockstep", "autoropes"))
    def test_stats_bit_identical_with_profiling(
        self, variant, all_apps, compiled_apps, device4
    ):
        app = all_apps["pc"]
        kernel = getattr(compiled_apps["pc"], variant)
        exec_cls = (
            LockstepExecutor if variant == "lockstep" else AutoropesExecutor
        )
        prof, r_on = _run_profiled(app, kernel, exec_cls, device4, "codegen")
        launch = TraversalLaunch(
            kernel=kernel, tree=app.tree, ctx=app.make_ctx(),
            n_points=app.n_points, device=device4, engine="codegen",
        )
        r_off = exec_cls(launch).run()
        assert r_on.stats.as_dict() == r_off.stats.as_dict()
        assert r_on.timing.time_ms == r_off.timing.time_ms
        np.testing.assert_array_equal(
            r_on.nodes_per_point, r_off.nodes_per_point
        )


class TestEngineParity:
    @pytest.mark.parametrize("name", APPS)
    def test_hot_op_ranking_identical_across_engines(
        self, name, all_apps, compiled_apps, device4
    ):
        """Interp and codegen engines must rank the same ops in the
        same order with the same attributed cycles — the acceptance
        bar for cross-engine profiler comparability."""
        app = all_apps[name]
        kernel = compiled_apps[name].lockstep
        rankings = {}
        for engine in ("interp", "codegen"):
            profiler = KernelProfiler(sample_rate=1, top_k=16)
            prof, _ = _run_profiled(
                app, kernel, LockstepExecutor, device4, engine
            )
            profiler.fold(name, prof, device=device4)
            rankings[engine] = profiler.hot_ops(name)
        ri, rc = rankings["interp"], rankings["codegen"]
        assert [e["op"] for e in ri] == [e["op"] for e in rc], name
        for ei, ec in zip(ri, rc):
            assert ei["cycles"] == pytest.approx(ec["cycles"], rel=1e-9)
            assert ei["visits"] == ec["visits"]

    @pytest.mark.parametrize("name", APPS)
    def test_depth_histogram_identical_across_engines(
        self, name, all_apps, compiled_apps, device4
    ):
        app = all_apps[name]
        kernel = compiled_apps[name].lockstep
        profiles = {
            engine: _run_profiled(
                app, kernel, LockstepExecutor, device4, engine
            )
            for engine in ("interp", "codegen")
        }
        (pi, ri), (pc_, _) = profiles["interp"], profiles["codegen"]
        np.testing.assert_array_equal(pi.depth_visits, pc_.depth_visits)
        np.testing.assert_allclose(pi.depth_lane_visits, pc_.depth_lane_visits)
        # The two histogram layers reconcile with the kernel counters:
        # warp-level visits and per-lane useful visits.
        assert pi.depth_visits.sum() == float(ri.stats.warp_node_visits)
        assert pi.depth_lane_visits.sum() == pytest.approx(
            float(ri.stats.node_visits)
        )

    def test_autoropes_depth_visits_match_point_totals(
        self, all_apps, compiled_apps, device4
    ):
        app = all_apps["pc"]
        prof, result = _run_profiled(
            app, compiled_apps["pc"].autoropes, AutoropesExecutor, device4,
            "codegen",
        )
        # One row = one point in the non-lockstep executor, so visits
        # and lane visits coincide and both equal the useful total.
        np.testing.assert_allclose(prof.depth_visits, prof.depth_lane_visits)
        assert prof.depth_visits.sum() == float(result.stats.node_visits)


class TestKernelProfiler:
    def test_sampling_every_nth_first_always(self):
        profiler = KernelProfiler(sample_rate=3)
        picks = [profiler.should_sample() for _ in range(7)]
        assert picks == [True, False, False, True, False, False, True]
        assert profiler.launches_seen == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            KernelProfiler(sample_rate=0)
        with pytest.raises(ValueError):
            KernelProfiler(top_k=0)

    def test_hot_ops_ranked_and_bounded(self, all_apps, compiled_apps,
                                        device4):
        profiler = KernelProfiler(sample_rate=1, top_k=2)
        prof, _ = _run_profiled(
            all_apps["pc"], compiled_apps["pc"].lockstep, LockstepExecutor,
            device4, "codegen",
        )
        profiler.fold("pc", prof, device=device4)
        hot = profiler.hot_ops("pc")
        assert len(hot) == 2
        assert hot[0]["cycles"] >= hot[1]["cycles"]
        shares = [e["share"] for e in profiler.hot_ops("pc", k=100)]
        assert sum(shares) == pytest.approx(1.0)

    def test_unknown_session_empty(self):
        profiler = KernelProfiler()
        assert profiler.hot_ops("nope") == []
        assert profiler.depth_profile("nope") == {
            "visits": [], "lane_visits": []
        }

    def test_gauges_exported(self, all_apps, compiled_apps, device4):
        registry = MetricsRegistry()
        profiler = KernelProfiler(sample_rate=1, top_k=4, registry=registry)
        assert profiler.should_sample()
        prof, _ = _run_profiled(
            all_apps["knn"], compiled_apps["knn"].lockstep, LockstepExecutor,
            device4, "codegen",
        )
        profiler.fold("knn", prof, device=device4)
        text = registry.expose_text()
        assert "profile_hot_op_cycles" in text
        assert 'session="knn"' in text
        assert "profile_launches_sampled_total" in text
        top = profiler.hot_ops("knn")[0]
        snap = profiler.snapshot()
        assert snap["sessions"]["knn"]["ops"][0]["op"] == top["op"]
        assert snap["launches_sampled"] == 1

    def test_op_cycles_deterministic_without_device(self):
        vec_heavy = [100.0, 0, 0, 50.0, 10.0, 0, 0, 5.0, 0]
        vec_light = [1.0, 0, 0, 1.0, 1.0, 0, 0, 0.0, 0]
        assert op_cycles(vec_heavy) > op_cycles(vec_light)
