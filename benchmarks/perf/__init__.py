"""Wall-clock benchmark of the two execution engines.

Unlike the pytest benchmarks in ``benchmarks/`` — which compare the
*simulated* costs of the paper's traversal variants — this harness
times the simulator itself: the same launch executed by the per-step
AST interpreter (``engine="interp"``, per-step validation on, matching
the seed executors) and by the generated-source engine
(``engine="codegen"``, the default: the whole per-step body emitted
from the kernel's op program and ``exec``-compiled through
:mod:`repro.core.passes`, with frontier compaction).

Every timed cell is also a differential test: the run aborts unless the
two engines produce bit-identical simulated stats, identical
per-point node counts, and (in ``--verify-visits`` mode) identical
visit logs.  Speed without equivalence is a bug, not a result.

Run from the repository root::

    PYTHONPATH=src python -m benchmarks.perf            # full trajectory
    PYTHONPATH=src python -m benchmarks.perf --smoke    # CI-sized subset
    PYTHONPATH=src python -m benchmarks.perf --check    # nonzero exit if
                                                        # codegen loses to
                                                        # interp or the seed
    PYTHONPATH=src python -m benchmarks.perf --jobs 4   # cells in parallel,
                                                        # one pinned CPU each

``--jobs N`` runs workload cells through the fleet's pinned process
pool (:class:`repro.fleet.pool.ProcessPool`): each cell times all
engines on its own CPU, so parallel cells stay honest as long as the
machine has a core per job.

Results land in ``BENCH_perf.json`` (override with ``--out``).
"""

from __future__ import annotations

import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.gpusim.device import TESLA_C2070
from repro.gpusim.executors import (
    AutoropesExecutor,
    LockstepExecutor,
    TraversalLaunch,
)
from repro.gpusim.executors.common import ENGINES
from repro.gpusim.stack import RopeStackLayout
from repro.harness.config import SCALES, ExperimentScale
from repro.harness.runner import ExperimentRunner

#: the benchmark trajectory: (bench, input, scale, executors).  One
#: representative input per application; clustered inputs (geocity,
#: plummer) produce the long-tailed traversals where frontier
#: compaction matters most, vp/random keeps an even-frontier
#: counterexample in the mix.  The pc/geocity *flagship* runs at the
#: xlarge tier — per-element work dominating per-call overhead is where
#: the codegen engine's headline speedup lives — and times lockstep
#: only (autoropes at 131k thread stacks would dominate the wall-clock
#: budget without adding information).  The ``-unsorted`` input variant
#: runs the same dataset with point order *shuffled* instead of
#: Morton-sorted (the paper's sorted-vs-unsorted axis): divergence goes
#: up, traversals get longer, and the cell shows whether the codegen
#: engine's win survives hostile input order.
ALL_EXECUTORS: Tuple[str, ...] = ("autoropes", "lockstep")

WORKLOADS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("pc", "geocity", "xlarge", ("lockstep",)),
    ("pc", "geocity-unsorted", "xlarge", ("lockstep",)),
    ("pc", "geocity", "large", ALL_EXECUTORS),
    ("knn", "geocity", "large", ALL_EXECUTORS),
    ("nn", "geocity", "large", ALL_EXECUTORS),
    ("vp", "random", "large", ALL_EXECUTORS),
    ("bh", "plummer", "large", ALL_EXECUTORS),
)


def parse_input(input_name: str) -> Tuple[str, bool]:
    """``"geocity-unsorted"`` -> ``("geocity", False)``; plain names
    stay Morton-sorted.  The suffix keeps the unsorted cell a distinct
    trend key without widening the trend schema."""
    if input_name.endswith("-unsorted"):
        return input_name[: -len("-unsorted")], False
    return input_name, True

#: CI-sized subset.  Medium scale: below it runs finish in well under a
#: second and the interp/codegen comparison is timer noise; medium is
#: the smallest tier where the codegen engine wins every cell with
#: reliable margin.
SMOKE_WORKLOADS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("pc", "geocity", "medium", ALL_EXECUTORS),
    ("knn", "geocity", "medium", ALL_EXECUTORS),
    ("nn", "geocity", "medium", ALL_EXECUTORS),
)

#: workloads also timed against the *seed* executors (the repository's
#: root commit, extracted via ``git archive`` and run in a
#: subprocess).  The seed predates the engine split, so its wall time
#: is the true "before" of this trajectory; its simulated stats are
#: cross-checked against the in-tree engines.  Restricted to the
#: long-tail geocity family — the seed interpreter needs minutes per
#: xlarge cell.
SEED_WORKLOADS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("pc", "geocity", "xlarge", ("lockstep",)),
    ("pc", "geocity-unsorted", "xlarge", ("lockstep",)),
    ("pc", "geocity", "large", ALL_EXECUTORS),
    ("knn", "geocity", "large", ALL_EXECUTORS),
    ("nn", "geocity", "large", ALL_EXECUTORS),
)

#: subprocess driver run against the seed checkout's ``src``.  Builds
#: the same app the in-tree :class:`ExperimentRunner` builds (same
#: datasets, same seeds, same tree parameters) and times one executor.
_SEED_DRIVER = r"""
import json, sys, time
spec = json.loads(sys.argv[1])
from repro.core.pipeline import TransformPipeline
from repro.gpusim.device import TESLA_C2070
from repro.gpusim.executors import (
    AutoropesExecutor, LockstepExecutor, TraversalLaunch,
)
from repro.gpusim.stack import RopeStackLayout
from repro.points.sorting import morton_order, shuffled_order

bench = spec["bench"]
# spec["dataset"] is the raw dataset name; spec["input"] keeps the
# row label (which may carry a "-unsorted" suffix).
def make_order(points_or_n):
    if spec["sorted"]:
        return morton_order(points_or_n)
    return shuffled_order(len(points_or_n), seed=99)

if bench == "bh":
    from repro.apps.barneshut import build_barneshut_app
    from repro.points.datasets import plummer_bodies, random_bodies
    maker = plummer_bodies if spec["dataset"] == "plummer" else random_bodies
    bodies = maker(spec["n"], seed=spec["dataset_seed"])
    order = make_order(bodies.pos)
    app = build_barneshut_app(
        bodies, order, theta=spec["theta"], leaf_size=spec["bh_leaf_size"]
    )
else:
    from repro.points.datasets import dataset_by_name
    ds = dataset_by_name(spec["dataset"], spec["n"], seed=spec["dataset_seed"])
    order = make_order(ds.points)
    if bench == "pc":
        from repro.apps.pointcorr import build_pointcorr_app
        app = build_pointcorr_app(
            ds.points, order, radius=spec["radius"], leaf_size=spec["leaf_size"]
        )
    elif bench == "knn":
        from repro.apps.knn import build_knn_app
        app = build_knn_app(
            ds.points, order, k=spec["k"], leaf_size=spec["leaf_size"]
        )
    elif bench == "nn":
        from repro.apps.nn import build_nn_app
        app = build_nn_app(ds.points, order)
    elif bench == "vp":
        from repro.apps.vptree_nn import build_vptree_app
        app = build_vptree_app(ds.points, order, leaf_size=spec["leaf_size"])
    else:
        raise SystemExit(f"unknown bench {bench!r}")

compiled = TransformPipeline().compile(app.spec)
kernel = compiled.lockstep if spec["executor"] == "lockstep" else compiled.autoropes
cls = LockstepExecutor if spec["executor"] == "lockstep" else AutoropesExecutor
L = TraversalLaunch(
    kernel=kernel, tree=app.tree, ctx=app.make_ctx(), n_points=app.n_points,
    device=TESLA_C2070, stack_layout=RopeStackLayout.INTERLEAVED_GLOBAL,
)
t0 = time.perf_counter()
cls(L).run()
wall = time.perf_counter() - t0
print(json.dumps({
    "wall_s": wall,
    "steps": int(L.stats.steps),
    "node_visits": int(L.stats.node_visits),
    "warp_node_visits": int(L.stats.warp_node_visits),
}))
"""


def _seed_checkout(dest: str, log) -> Optional[str]:
    """Extract the repo's root commit into ``dest``; return its ref."""
    try:
        ref = subprocess.run(
            ["git", "rev-list", "--max-parents=0", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip().splitlines()[0]
        archive = subprocess.run(
            ["git", "archive", ref], capture_output=True, check=True
        )
        subprocess.run(
            ["tar", "-x", "-C", dest], input=archive.stdout, check=True
        )
    except (subprocess.CalledProcessError, OSError, IndexError) as exc:
        log(f"seed baseline skipped: cannot extract seed checkout ({exc})")
        return None
    return ref


def measure_seed_baseline(
    workloads: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...],
    log=print,
) -> Optional[dict]:
    """Time the seed (root-commit) executors on ``workloads``.

    Runs each cell in a subprocess whose ``PYTHONPATH`` points at a
    pristine checkout of the seed, so the numbers are the actual
    "before" of the trajectory, not the in-tree interpreter re-walking
    the seed's footsteps with this PR's shared-library improvements.
    The checkout lives in a temporary directory that is removed on
    every way out.
    """
    with tempfile.TemporaryDirectory(prefix="seed-baseline-") as dest:
        ref = _seed_checkout(dest, log)
        if ref is None:
            return None
        return _time_seed_cells(workloads, ref, os.path.join(dest, "src"), log)


def _time_seed_cells(workloads, ref: str, src: str, log) -> dict:
    """Run every seed cell in a subprocess against the checkout ``src``."""
    env = dict(os.environ, PYTHONPATH=src)
    rows = []
    for bench, input_name, scale_name, executors in workloads:
        s = SCALES[scale_name]
        dataset, sorted_points = parse_input(input_name)
        for executor in executors:
            spec = {
                "bench": bench,
                "input": input_name,
                "dataset": dataset,
                "sorted": sorted_points,
                "executor": executor,
                "n": s.n_bodies if bench == "bh" else s.n_points,
                "dataset_seed": (42 if dataset == "plummer" else 43)
                if bench == "bh" else 0,
                "radius": s.pc_radius(dataset),
                "leaf_size": s.leaf_size,
                "bh_leaf_size": s.bh_leaf_size,
                "k": s.knn_k,
                "theta": s.theta,
            }
            proc = subprocess.run(
                [sys.executable, "-c", _SEED_DRIVER, json.dumps(spec)],
                capture_output=True, text=True, env=env,
            )
            if proc.returncode != 0:
                log(
                    f"seed baseline {bench}/{input_name}@{scale_name} "
                    f"{executor} failed:\n{proc.stderr.strip()}"
                )
                continue
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            rows.append(
                {
                    "app": bench,
                    "input": input_name,
                    "scale": scale_name,
                    "executor": executor,
                    "wall_s": round(out["wall_s"], 4),
                    "steps": out["steps"],
                    "node_visits": out["node_visits"],
                    "warp_node_visits": out["warp_node_visits"],
                }
            )
            log(
                f"seed {bench}/{input_name}@{scale_name} {executor}: "
                f"{out['wall_s']:.3f}s"
            )
    return {"git_ref": ref, "rows": rows}


def _merge_seed_speedups(report: dict, seed: Optional[dict]) -> None:
    """Attach seed wall times / speedups to the matching codegen rows.

    Also cross-checks simulated stats: the seed run must agree with
    the in-tree engines on steps and visit counts, or the trajectory
    is comparing different computations.
    """
    if not seed or not seed.get("rows"):
        return
    report["seed_baseline"] = seed
    by_cell = {
        (r["app"], r["input"], r["scale"], r["executor"], r["engine"]): r
        for r in report["rows"]
    }
    vs_seed = []
    for srow in seed["rows"]:
        key = (srow["app"], srow["input"], srow["scale"], srow["executor"])
        crow = by_cell.get(key + ("codegen",))
        if crow is None:
            continue
        for stat in ("steps", "node_visits", "warp_node_visits"):
            if srow[stat] != crow[stat]:
                raise AssertionError(
                    f"seed baseline diverged on {key}: {stat} "
                    f"{srow[stat]} != {crow[stat]}"
                )
        vs_seed.append(
            {
                "app": srow["app"],
                "input": srow["input"],
                "scale": srow["scale"],
                "executor": srow["executor"],
                "seed_s": srow["wall_s"],
                "codegen_s": crow["wall_s"],
                "speedup": round(srow["wall_s"] / crow["wall_s"], 2),
            }
        )
    report["speedups_vs_seed"] = vs_seed
    lockstep = [s["speedup"] for s in vs_seed if s["executor"] == "lockstep"]
    report["max_lockstep_speedup_vs_seed"] = max(lockstep) if lockstep else None
    report["min_speedup_vs_seed"] = (
        min(s["speedup"] for s in vs_seed) if vs_seed else None
    )


def measure_telemetry_overhead(
    engines: Tuple[str, ...] = ENGINES,
    n_points: int = 2048,
    n_queries: int = 512,
    repeat: int = 3,
    log=print,
) -> List[dict]:
    """Time the service layer with telemetry off vs fully on, per engine.

    The zero-cost-when-disabled claim (``docs/OBSERVABILITY.md``) is a
    design goal of the telemetry layer: with ``enabled=False`` every
    hook reduces to one ``is not None`` branch per batch.  This probe
    measures it instead of asserting it: the same seeded query stream
    runs through two :class:`~repro.service.service.TraversalService`
    instances — telemetry disabled, and telemetry fully enabled
    (metrics + tracing + structured log + flight recorder + per-launch
    profiling) — and the best-of-``repeat`` wall times land in the
    report meta.  Memoization is off so every query executes; tree
    build and plan compile happen before the clock starts.

    ``overhead_pct`` can dip below zero on a noisy machine — it is a
    measurement, not a floor check.
    """
    from repro.service.service import ServiceConfig, TraversalService
    from repro.telemetry import TelemetryConfig

    modes = (
        ("off", TelemetryConfig(enabled=False)),
        ("on", TelemetryConfig(enabled=True, profile_sample_rate=1)),
    )
    rows: List[dict] = []
    for engine in engines:
        walls: Dict[str, float] = {}
        for mode, tel in modes:
            best = math.inf
            for _ in range(repeat):
                rng = np.random.default_rng(1234)
                data = rng.random((n_points, 2))
                queries = rng.random((n_queries, 2))
                svc = TraversalService(
                    ServiceConfig(
                        engine=engine,
                        telemetry=tel,
                        memo_capacity=0,
                        max_batch=64,
                    )
                )
                svc.register("pc", "pc", data, radius=0.05)
                t0 = time.perf_counter()
                svc.query_many("pc", queries)
                best = min(best, time.perf_counter() - t0)
            walls[mode] = best
        rows.append(
            {
                "engine": engine,
                "queries": n_queries,
                "telemetry_off_s": round(walls["off"], 4),
                "telemetry_on_s": round(walls["on"], 4),
                "overhead_pct": round(
                    100.0 * (walls["on"] - walls["off"]) / walls["off"], 1
                ),
            }
        )
        log(
            f"telemetry overhead {engine}: off {walls['off']:.4f}s, "
            f"on {walls['on']:.4f}s "
            f"({rows[-1]['overhead_pct']:+.1f}%)"
        )
    return rows


@dataclass
class Row:
    """One timed (workload, executor, engine) cell."""

    app: str
    input_name: str
    scale: str
    executor: str
    engine: str
    wall_s: float
    steps: int
    node_visits: int
    warp_node_visits: int
    model_time_ms: float

    def as_dict(self) -> dict:
        return {
            "app": self.app,
            "input": self.input_name,
            "scale": self.scale,
            "executor": self.executor,
            "engine": self.engine,
            "wall_s": round(self.wall_s, 4),
            "steps": self.steps,
            "node_visits": self.node_visits,
            "warp_node_visits": self.warp_node_visits,
            "model_time_ms": round(self.model_time_ms, 3),
        }


def _launch(app, kernel, engine: str, verify_visits: bool) -> TraversalLaunch:
    kw: Dict = {}
    if engine == "interp":
        # The seed executors validated every pop unconditionally; keep
        # that behavior on the baseline side of the comparison.
        kw["validate"] = True
    return TraversalLaunch(
        kernel=kernel,
        tree=app.tree,
        ctx=app.make_ctx(),
        n_points=app.n_points,
        device=TESLA_C2070,
        stack_layout=RopeStackLayout.INTERLEAVED_GLOBAL,
        record_visits=verify_visits,
        engine=engine,
        **kw,
    )


def _time_run(executor_cls, launch: TraversalLaunch):
    """Wall time and result of one fresh launch."""
    t0 = time.perf_counter()
    result = executor_cls(launch).run()
    return time.perf_counter() - t0, result


def _assert_equivalent(
    app: str, executor: str, ri, rc, verify_visits: bool,
    engine: str = "codegen",
) -> None:
    di, dc = ri.stats.as_dict(), rc.stats.as_dict()
    if di != dc:
        diff = {k: (di[k], dc[k]) for k in di if di[k] != dc[k]}
        raise AssertionError(
            f"{app}/{executor}: {engine} engine changed simulated stats: {diff}"
        )
    if not np.array_equal(ri.nodes_per_point, rc.nodes_per_point):
        raise AssertionError(
            f"{app}/{executor}: {engine} engine changed nodes_per_point"
        )
    if verify_visits:
        vi = [(p.tolist(), n.tolist()) for p, n in ri.visits]
        vc = [(p.tolist(), n.tolist()) for p, n in rc.visits]
        if vi != vc:
            raise AssertionError(
                f"{app}/{executor}: {engine} engine changed the visit log"
            )


def run_cell(
    bench: str,
    input_name: str,
    scale_name: str,
    executors: Tuple[str, ...],
    repeat: int = 3,
    verify_visits: bool = False,
    runner: Optional[ExperimentRunner] = None,
) -> dict:
    """Time one workload cell: both engines, every requested executor.

    Each of the ``repeat`` repetitions runs every engine once, in turn,
    so a slow phase of the host lands on both engines rather than on
    whichever one happened to be timing then.  Rows keep each engine's
    best (minimum) wall time; speedup rows also carry each engine's
    maximum, the spread of the repetitions.

    Returns plain ``{"rows": [...], "speedups": [...]}`` dicts so the
    cell is a valid :class:`repro.fleet.pool.ProcessPool` job
    (``"benchmarks.perf:run_cell"``) — ``--jobs N`` runs cells in
    pinned worker processes, serial mode calls it inline.  The
    interp/codegen equivalence assertions run inside the cell, so a
    divergence fails the job (and with it the whole run) either way.
    """
    dataset, sorted_points = parse_input(input_name)
    if runner is None:
        runner = ExperimentRunner(scale=SCALES[scale_name])
    app, compiled = runner.app_for(bench, dataset, sorted_points=sorted_points)
    variants: List[Tuple[str, type, object]] = []
    if "autoropes" in executors:
        variants.append(("autoropes", AutoropesExecutor, compiled.autoropes))
    if "lockstep" in executors and compiled.lockstep is not None:
        variants.append(("lockstep", LockstepExecutor, compiled.lockstep))
    rows: List[Row] = []
    speedups: List[dict] = []
    for exec_name, exec_cls, kernel in variants:
        walls: Dict[str, List[float]] = {engine: [] for engine in ENGINES}
        results: Dict[str, object] = {}
        for _ in range(repeat):
            for engine in ENGINES:
                wall, results[engine] = _time_run(
                    exec_cls, _launch(app, kernel, engine, verify_visits)
                )
                walls[engine].append(wall)
            _assert_equivalent(
                bench, exec_name, results["interp"], results["codegen"],
                verify_visits,
            )
        for engine in ENGINES:
            result = results[engine]
            rows.append(
                Row(
                    app=bench,
                    input_name=input_name,
                    scale=scale_name,
                    executor=exec_name,
                    engine=engine,
                    wall_s=min(walls[engine]),
                    steps=result.stats.steps,
                    node_visits=result.stats.node_visits,
                    warp_node_visits=result.stats.warp_node_visits,
                    model_time_ms=result.time_ms,
                )
            )
        wi, wg = min(walls["interp"]), min(walls["codegen"])
        speedups.append(
            {
                "app": bench,
                "input": input_name,
                "scale": scale_name,
                "executor": exec_name,
                "interp_s": round(wi, 4),
                "interp_max_s": round(max(walls["interp"]), 4),
                "codegen_s": round(wg, 4),
                "codegen_max_s": round(max(walls["codegen"]), 4),
                "codegen_speedup": round(wi / wg if wg > 0 else float("inf"), 2),
            }
        )
    return {"rows": [r.as_dict() for r in rows], "speedups": speedups}


def run_benchmark(
    workloads: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...],
    repeat: int = 3,
    verify_visits: bool = False,
    log=print,
    jobs: int = 1,
) -> dict:
    rows: List[dict] = []
    speedups: List[dict] = []
    if jobs > 1:
        from repro.fleet.pool import ProcessPool

        kwargs_list = [
            {
                "bench": b, "input_name": i, "scale_name": s,
                "executors": list(e), "repeat": repeat,
                "verify_visits": verify_visits,
            }
            for b, i, s, e in workloads
        ]
        with ProcessPool(min(jobs, len(kwargs_list))) as pool:
            cells = pool.run("benchmarks.perf:run_cell", kwargs_list, log=log)
    else:
        runners: Dict[str, ExperimentRunner] = {}
        cells = []
        for bench, input_name, scale_name, executors in workloads:
            runner = runners.setdefault(
                scale_name, ExperimentRunner(scale=SCALES[scale_name])
            )
            cells.append(
                run_cell(
                    bench, input_name, scale_name, executors,
                    repeat=repeat, verify_visits=verify_visits, runner=runner,
                )
            )
    for cell in cells:
        rows.extend(cell["rows"])
        speedups.extend(cell["speedups"])
        for s in cell["speedups"]:
            log(
                f"{s['app']}/{s['input']}@{s['scale']} {s['executor']}: "
                f"interp {s['interp_s']:.3f}-{s['interp_max_s']:.3f}s, "
                f"codegen {s['codegen_s']:.3f}-{s['codegen_max_s']:.3f}s "
                f"-> {s['codegen_speedup']:.2f}x (stats identical)"
            )
    lockstep_sp = [
        s["codegen_speedup"] for s in speedups if s["executor"] == "lockstep"
    ]
    report = {
        "meta": {
            "scales": sorted({w[2] for w in workloads}),
            "device": "TESLA_C2070 (simulated)",
            "python": platform.python_version(),
            "numpy": np.__version__,
            "repeat": repeat,
            "generated_unix": int(time.time()),
        },
        "rows": rows,
        "speedups": speedups,
        "max_lockstep_speedup": max(lockstep_sp) if lockstep_sp else None,
        "min_codegen_speedup": (
            min(s["codegen_speedup"] for s in speedups) if speedups else None
        ),
    }
    return report


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    ap = argparse.ArgumentParser(
        prog="benchmarks.perf",
        description="Time interp vs codegen engines; write BENCH_perf.json",
    )
    ap.add_argument(
        "--scale",
        default=None,
        choices=sorted(SCALES),
        help="force every workload to this scale tier "
        "(default: each workload's own tier)",
    )
    ap.add_argument(
        "--smoke",
        action="store_true",
        help="medium scale, three workloads (CI-sized)",
    )
    ap.add_argument(
        "--check",
        action="store_true",
        help="exit 1 if the codegen engine is slower than the interpreter "
        "on any workload, or than the seed executors on any seed cell",
    )
    ap.add_argument(
        "--repeat",
        type=int,
        default=3,
        help="best-of-N timing; each repetition runs both engines in turn",
    )
    ap.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="run workload cells in N pinned worker processes "
        "(repro.fleet.pool); 1 = serial in-process",
    )
    ap.add_argument(
        "--no-seed-baseline",
        action="store_true",
        help="skip timing the seed (root-commit) executors",
    )
    ap.add_argument(
        "--no-telemetry-overhead",
        action="store_true",
        help="skip the service-layer telemetry on/off overhead probe",
    )
    ap.add_argument(
        "--verify-visits",
        action="store_true",
        help="also record and compare full visit logs (slower)",
    )
    ap.add_argument("--out", default="BENCH_perf.json")
    args = ap.parse_args(argv)

    workloads = SMOKE_WORKLOADS if args.smoke else WORKLOADS
    if args.scale:
        # Forcing one scale can collapse the flagship and breadth
        # entries of the same workload into one; merge their executors.
        merged: Dict[Tuple[str, str, str], Tuple[str, ...]] = {}
        for bench, inp, _, execs in workloads:
            key = (bench, inp, args.scale)
            have = merged.get(key, ())
            merged[key] = have + tuple(e for e in execs if e not in have)
        workloads = tuple((b, i, s, e) for (b, i, s), e in merged.items())

    if args.jobs < 1:
        ap.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.repeat < 1:
        ap.error(f"--repeat must be >= 1, got {args.repeat}")
    report = run_benchmark(
        workloads,
        repeat=args.repeat,
        verify_visits=args.verify_visits,
        jobs=args.jobs,
    )
    report["meta"]["jobs"] = args.jobs
    if not args.no_telemetry_overhead:
        report["meta"]["telemetry_overhead"] = measure_telemetry_overhead()
    if not args.smoke and not args.no_seed_baseline:
        timed = {(w[0], w[1], w[2]) for w in workloads}
        seed_set = tuple(
            w for w in SEED_WORKLOADS if (w[0], w[1], w[2]) in timed
        )
        _merge_seed_speedups(report, measure_seed_baseline(seed_set))
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")
    if report["max_lockstep_speedup"] is not None:
        print(f"max lockstep speedup: {report['max_lockstep_speedup']}x")
    if report.get("max_lockstep_speedup_vs_seed") is not None:
        print(
            f"max lockstep speedup vs seed: "
            f"{report['max_lockstep_speedup_vs_seed']}x"
        )
    if args.check:
        for field, baseline in (
            ("min_codegen_speedup", "the interpreter"),
            ("min_speedup_vs_seed", "the seed executors"),
        ):
            floor = report.get(field)
            if floor is not None and floor < 1.0:
                print(
                    f"FAIL: codegen engine slower than {baseline} "
                    f"(min speedup {floor}x)",
                    file=sys.stderr,
                )
                return 1
    return 0
