#!/usr/bin/env python
"""Quickstart: transform one traversal and run it on the simulated GPU.

This walks the full pipeline on the paper's running example, point
correlation (Fig. 4 -> Fig. 6/8):

1. declare the recursive traversal as a spec,
2. compile it (call-set analysis -> autoropes -> lockstep),
3. print the generated pseudocode (the paper's figures),
4. launch both variants on the simulated Tesla C2070 and compare
   against the brute-force oracle and the CPU baseline.

Run: ``python examples/quickstart.py``
"""

import numpy as np

from repro.apps.pointcorr import build_pointcorr_app
from repro.core.passes import render_iterative, render_recursive
from repro.core.pipeline import TransformPipeline
from repro.cpusim.threads import cpu_time_ms
from repro.gpusim.device import TESLA_C2070
from repro.gpusim.executors import (
    AutoropesExecutor,
    LockstepExecutor,
    RecursiveExecutor,
    TraversalLaunch,
)
from repro.gpusim.stack import RopeStackLayout
from repro.points.datasets import random_points
from repro.points.sorting import morton_order


def main() -> None:
    # -- 1. a dataset and a traversal spec --------------------------------
    ds = random_points(n=2048, dim=3, seed=7)
    order = morton_order(ds.points)  # Section 4.4: sort the points
    app = build_pointcorr_app(ds.points, order, radius=0.12, leaf_size=8)

    # -- 2. compile --------------------------------------------------------
    compiled = TransformPipeline().compile(app.spec)
    print("== transformation log ==")
    for line in compiled.log:
        print("  *", line)

    # -- 3. the paper's figures, regenerated -------------------------------
    print("\n== recursive form (Fig. 4) ==")
    print(render_recursive(app.spec))
    print("\n== autoropes form (Fig. 6) ==")
    print(render_iterative(compiled.autoropes))
    print("\n== lockstep form (Fig. 8) ==")
    print(render_iterative(compiled.lockstep))

    # -- 4. launch on the simulated GPU ------------------------------------
    want = app.brute_force()
    results = {}
    for name, kernel, executor, layout in [
        ("autoropes (non-lockstep)", compiled.autoropes, AutoropesExecutor,
         RopeStackLayout.INTERLEAVED_GLOBAL),
        ("lockstep", compiled.lockstep, LockstepExecutor, RopeStackLayout.SHARED),
    ]:
        ctx = app.make_ctx()
        launch = TraversalLaunch(
            kernel=kernel, tree=app.tree, ctx=ctx, n_points=app.n_points,
            device=TESLA_C2070, stack_layout=layout,
            record_visits=name.startswith("autoropes"),
        )
        res = executor(launch).run()
        app.check(ctx.out, want)  # exact against brute force
        results[name] = res
        print(f"\n{name}: {res.time_ms:.3f} model-ms, "
              f"avg nodes/point {res.avg_nodes_per_point:.0f}, "
              f"L2 hit rate {res.stats.l2_hit_rate:.2f}, "
              f"occupancy {res.occupancy:.2f}")

    ctx = app.make_ctx()
    rec = RecursiveExecutor(
        TraversalLaunch(kernel=compiled.autoropes, tree=app.tree, ctx=ctx,
                        n_points=app.n_points, device=TESLA_C2070),
        masking=False,
    ).run()
    app.check(ctx.out, want)
    print(f"\nnaive recursive GPU baseline: {rec.time_ms:.3f} model-ms "
          f"(autoropes improves it by "
          f"{(rec.time_ms / results['lockstep'].time_ms - 1) * 100:.0f}%)")

    seqs = results["autoropes (non-lockstep)"].per_point_sequences()
    for threads in (1, 8, 32):
        cpu = cpu_time_ms(seqs, threads)
        best = min(r.time_ms for r in results.values())
        print(f"CPU x{threads:>2}: {cpu.time_ms:8.3f} model-ms "
              f"(GPU speedup {cpu.time_ms / best:.1f}x)")


if __name__ == "__main__":
    main()
