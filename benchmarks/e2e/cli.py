"""Command line of the end-to-end benchmark.

Every run starts the workload in a fresh ``python -m
benchmarks.e2e.workloads`` process with ``OMP_NUM_THREADS``,
``OPENBLAS_NUM_THREADS`` and ``MKL_NUM_THREADS`` set to 1, prints each
metric named in ``BENCHMARK.json`` with its unit, and ends its standard
output with one JSON line::

    {"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}

End-to-end metrics come from untraced runs, per-layer metrics from
``--trace 1`` runs.  The exit code is nonzero when any answer is wrong,
a kernel counter drifts, or traced layers do not add up.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
REPORTS = HERE / "reports"
#: a run that has not finished by now is killed (its whole process group).
CHILD_TIMEOUT_S = 170.0
SMOKE_SECONDS = 1.0


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_child(workload: str, seed: int, seconds: float, trace: bool,
              smoke: bool, record_pins: bool = False) -> dict:
    """One workload run in its own process group; returns its result."""
    REPORTS.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}" + ("-smoke" if smoke else "")
    stem += "-traced" if trace else ""
    out = REPORTS / f"{stem}.json"
    if out.exists():
        out.unlink()
    spec = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "smoke": smoke, "record_pins": record_pins,
        "out": str(out),
        "chrome_trace": str(REPORTS / f"{stem}.trace.json") if trace else None,
    }
    paths = [str(ROOT / "src"), str(ROOT)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env = dict(
        os.environ, PYTHONPATH=os.pathsep.join(paths),
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.e2e.workloads", json.dumps(spec)],
        cwd=ROOT, env=env, stdout=sys.stderr, start_new_session=True,
    )
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"{workload} run exceeded {CHILD_TIMEOUT_S}s")
    finally:
        # Fleet workers belong to the run's process group; none may
        # outlive it, whatever way the run ended.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if not out.exists():
        raise RuntimeError(f"{workload} run exited {code} without a result")
    return json.loads(out.read_text())


def pick_metrics(result: dict, specs: List[dict], key: str) -> Dict[str, dict]:
    values = result[key]
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise RuntimeError(f"run reported no value for {missing}")
    return {
        s["name"]: {"value": float(values[s["name"]]), "unit": s["unit"]}
        for s in specs
    }


def print_metrics(metrics: Dict[str, dict]) -> None:
    width = max(len(name) for name in metrics)
    for name, m in metrics.items():
        print(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}")


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, dict]) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    })


def single_run(bench: dict, workload: str, seed: int, seconds: float,
               trace: bool, smoke: bool) -> dict:
    result = run_child(workload, seed, seconds, trace, smoke)
    key, specs = (
        ("per_layer", bench["per_layer"]) if trace
        else ("end_to_end", bench["end_to_end"])
    )
    metrics = pick_metrics(result, specs, key)
    mode = "traced" if trace else "untraced"
    print(f"{workload} seed={seed} {mode}: {result['attempted']} attempted, "
          f"{result['failed']} failed")
    for problem in result["problems"]:
        print(f"  FAIL {problem}")
    print_metrics(metrics)
    return {"result": result, "metrics": metrics}


def spread(values: List[float]) -> Dict[str, float]:
    """Median, interquartile range, and the range as a share of the median."""
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "iqr": 0.0, "spread": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median, "iqr": q3 - q1,
        "spread": (q3 - q1) / abs(median) if median else 0.0,
    }


def repeat_runs(bench: dict, workload: str, seed: int, seconds: float,
                runs: int, trace: bool, smoke: bool) -> int:
    """``--runs N``: N runs of the same seed, medians and spreads.

    A metric whose interquartile range exceeds its bound is flagged:
    the bound could not tell a regression from noise.  With ``--trace
    1`` the same number of traced runs follows, and the tracing
    overhead is the change in median ``throughput_qps``.
    """
    sets = {"end_to_end": [single_run(bench, workload, seed, seconds, False, smoke)
                           for _ in range(runs)]}
    if trace:
        sets["per_layer"] = [single_run(bench, workload, seed, seconds, True, smoke)
                             for _ in range(runs)]
    summary: Dict[str, dict] = {}
    flagged = []
    print(f"\n{workload} seed={seed}: median / IQR / spread over {runs} runs")
    for key, done in sets.items():
        for spec in bench[key]:
            stats = spread([d["metrics"][spec["name"]]["value"] for d in done])
            bound = spec.get("bound")
            stats["flag"] = bound is not None and stats["spread"] > bound
            summary[spec["name"]] = stats
            if stats["flag"]:
                flagged.append(spec["name"])
            print(f"  {spec['name']:<40} {stats['median']:.6g} {spec['unit']} "
                  f"iqr {stats['iqr']:.4g} spread {stats['spread']:.3%}"
                  + (f" > bound {bound:.0%}  FLAG" if stats["flag"] else ""))
    if trace:
        untraced = summary["throughput_qps"]["median"]
        traced = summary["trace.throughput_qps"]["median"]
        overhead = (untraced - traced) / untraced
        summary["tracing_overhead"] = {"throughput_qps": untraced - traced,
                                       "share": overhead}
        print(f"  tracing overhead: throughput_qps {untraced:.6g} -> "
              f"{traced:.6g} ({overhead:+.2%})")
    all_runs = [d for done in sets.values() for d in done]
    correct = all(d["result"]["correct"] for d in all_runs)
    attempted = sum(d["result"]["attempted"] for d in all_runs)
    failed = sum(d["result"]["failed"] for d in all_runs)
    REPORTS.mkdir(exist_ok=True)
    report = REPORTS / f"{workload}-seed{seed}-runs{runs}.json"
    report.write_text(json.dumps({
        "workload": workload, "seed": seed, "seconds": seconds,
        "runs": runs, "smoke": smoke, "summary": summary, "flagged": flagged,
        "values": {k: [d["metrics"] for d in done] for k, done in sets.items()},
    }, indent=2))
    medians = {
        spec["name"]: {"value": summary[spec["name"]]["median"],
                       "unit": spec["unit"]}
        for spec in bench["end_to_end"]
    }
    print(result_line(correct, attempted, failed, medians))
    return 0 if correct else 1


def record_pins(workload: str, seed: int, smoke: bool) -> int:
    """Run one pass without pin checks; the run stores its counters."""
    result = run_child(workload, seed, 0.0, False, smoke, record_pins=True)
    if not result["correct"]:
        print(f"not pinned, the run failed: {result['problems']}")
        return 1
    print(f"pinned {workload} seed {seed}" + (" (smoke)" if smoke else ""))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    bench = load_benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(
        prog="benchmarks.e2e",
        description="End-to-end benchmark of the traversal service, fleet "
        "and GPU-simulator kernels (see benchmarks/e2e/README.md)",
    )
    ap.add_argument("--workload", choices=workloads,
                    help="required unless --smoke (which then runs all five)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help=f"measured window (default {bench['run_seconds']}, "
                    f"{SMOKE_SECONDS:g} with --smoke)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: traced run reporting the per-layer metrics")
    ap.add_argument("--traced", action="store_true", help="same as --trace 1")
    ap.add_argument("--runs", type=int, default=1,
                    help="repeat the run N times and report median and spread")
    ap.add_argument("--smoke", action="store_true", help="tiny sizes")
    ap.add_argument("--record-pins", action="store_true",
                    help="store this seed's kernel counters in pins.json")
    args = ap.parse_args(argv)
    trace = bool(args.trace or args.traced)
    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else float(bench["run_seconds"])
    if args.runs < 1:
        ap.error("--runs must be >= 1")

    if args.record_pins:
        if not args.workload or not args.workload.startswith("kernel-"):
            ap.error("--record-pins needs --workload kernel-lockstep or "
                     "kernel-autoropes")
        return record_pins(args.workload, args.seed, args.smoke)
    if args.workload is None:
        if not args.smoke:
            ap.error("--workload is required (or --smoke for all five)")
        return smoke_all(bench, workloads, args.seed, seconds, trace)
    if args.runs > 1:
        return repeat_runs(bench, args.workload, args.seed, seconds,
                           args.runs, trace, args.smoke)
    done = single_run(bench, args.workload, args.seed, seconds, trace,
                      args.smoke)
    r = done["result"]
    print(result_line(r["correct"], r["attempted"], r["failed"],
                      done["metrics"]))
    return 0 if r["correct"] else 1


def smoke_all(bench: dict, workloads: List[str], seed: int, seconds: float,
              trace: bool) -> int:
    """Every workload at smoke sizes; one summary JSON line."""
    runs = {w: single_run(bench, w, seed, seconds, trace, True)
            for w in workloads}
    correct = all(d["result"]["correct"] for d in runs.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(d["result"]["attempted"] for d in runs.values()),
        "failed": sum(d["result"]["failed"] for d in runs.values()),
        "workloads": {w: d["metrics"] for w, d in runs.items()},
    }))
    return 0 if correct else 1
