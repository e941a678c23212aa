"""Checks of the end-to-end benchmark.  Not in the tier-1 suite; run

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py -q

from the repository root (about a minute: two --smoke passes).
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from benchmarks.e2e import workloads

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _smoke(*extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--smoke", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def untraced() -> dict:
    return _smoke()


@pytest.fixture(scope="module")
def traced() -> dict:
    return _smoke("--trace", "1")


def test_benchmark_json_names_the_five_workloads():
    names = [w["name"] for w in BENCH["workloads"]]
    assert names == list(workloads.WORKLOADS)
    metrics = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(metrics) == len(set(metrics))
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_every_end_to_end_metric_with_its_unit(untraced):
    assert untraced["correct"] and untraced["failed"] == 0
    assert untraced["attempted"] > 0
    assert list(untraced["workloads"]) == list(workloads.WORKLOADS)
    for metrics in untraced["workloads"].values():
        assert list(metrics) == [m["name"] for m in BENCH["end_to_end"]]
        for spec in BENCH["end_to_end"]:
            assert metrics[spec["name"]]["unit"] == spec["unit"]
            assert metrics[spec["name"]]["value"] > 0


def test_traced_layers_add_up(traced):
    assert traced["correct"] and traced["failed"] == 0
    for name, metrics in traced["workloads"].items():
        assert list(metrics) == [m["name"] for m in BENCH["per_layer"]]
        coverage = metrics["trace.coverage"]["value"]
        assert abs(coverage - 1.0) <= workloads.ATTRIBUTION_TOLERANCE, name


def test_oracle_gate_catches_a_wrong_row():
    data = workloads.corpus(256)
    rng = np.random.default_rng(0)
    coords = workloads.draw_queries(rng, data["knn"], 4)
    registry = workloads.SessionRegistry()
    registry.register("knn", "knn", data["knn"], **workloads.BUILD_KWARGS["knn"])
    expected = registry.get("knn").oracle(coords)
    rows = [
        ("knn", coords[i], {k: v[i].copy() for k, v in expected.items()})
        for i in range(len(coords))
    ]
    sessions = {"knn": ("knn", data["knn"])}
    assert workloads.oracle_wrong(sessions, rows) == 0
    rows[2][2]["knn_id"][0] += 1
    assert workloads.oracle_wrong(sessions, rows) == 1


def test_kernel_pins_cover_the_smoke_seed():
    pins = json.loads(workloads.PINS_PATH.read_text())
    for name in workloads.KERNEL_CELLS:
        assert "0" in pins[name + "@smoke"]
        assert "0" in pins[name]


def test_union_counts_overlap_once():
    assert workloads.union_s([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
