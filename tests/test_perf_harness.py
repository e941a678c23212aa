"""The wall-clock engine benchmark's own bookkeeping (benchmarks/perf).

Its timings are measurements, not test subjects; what is tested here is
that the seed checkout never outlives a run and that a cell alternates
the engines within each repetition and reports each engine's spread.
"""

import subprocess
import tempfile

import pytest

import benchmarks.perf as perf


@pytest.fixture
def temp_root(tmp_path, monkeypatch):
    """Point ``tempfile`` at a private directory for the test."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    return tmp_path


def _stub_git(monkeypatch, fail_on=None):
    """Replace git/tar with stubs; ``fail_on`` names the one that fails."""
    calls = []

    def fake_run(cmd, **kw):
        calls.append(cmd[0] if cmd[0] == "tar" else " ".join(cmd[:2]))
        if cmd[0] == fail_on or cmd[:2] == ["git", fail_on]:
            raise subprocess.CalledProcessError(1, cmd)
        if cmd[:2] == ["git", "rev-list"]:
            return subprocess.CompletedProcess(cmd, 0, stdout="abc123\n")
        return subprocess.CompletedProcess(cmd, 0, stdout=b"")

    monkeypatch.setattr(perf.subprocess, "run", fake_run)
    return calls


def _leftovers(root):
    return sorted(p.name for p in root.glob("seed-baseline-*"))


def test_seed_checkout_removed_after_a_run(temp_root, monkeypatch):
    calls = _stub_git(monkeypatch)
    seed = perf.measure_seed_baseline((), log=lambda msg: None)
    assert seed == {"git_ref": "abc123", "rows": []}
    assert calls == ["git rev-list", "git archive", "tar"]
    assert _leftovers(temp_root) == []


@pytest.mark.parametrize("fail_on", ["archive", "tar"])
def test_seed_checkout_removed_when_extraction_fails(
    temp_root, monkeypatch, fail_on
):
    _stub_git(monkeypatch, fail_on=fail_on)
    logged = []
    assert perf.measure_seed_baseline((), log=logged.append) is None
    assert "seed baseline skipped" in logged[0]
    assert _leftovers(temp_root) == []


def test_seed_checkout_removed_when_a_cell_raises(temp_root, monkeypatch):
    _stub_git(monkeypatch)

    def boom(*args):
        raise RuntimeError("cell failed")

    monkeypatch.setattr(perf, "_time_seed_cells", boom)
    with pytest.raises(RuntimeError):
        perf.measure_seed_baseline((), log=lambda msg: None)
    assert _leftovers(temp_root) == []


def test_cell_alternates_engines_and_records_spread(monkeypatch):
    order = []
    real_time_run = perf._time_run

    def spy(executor_cls, launch):
        order.append(launch.engine)
        return real_time_run(executor_cls, launch)

    monkeypatch.setattr(perf, "_time_run", spy)
    cell = perf.run_cell("knn", "geocity", "tiny", ("lockstep",), repeat=3)
    assert order == ["interp", "codegen"] * 3
    (row,) = cell["speedups"]
    for engine in ("interp", "codegen"):
        assert 0 < row[f"{engine}_s"] <= row[f"{engine}_max_s"]
    by_engine = {r["engine"]: r for r in cell["rows"]}
    assert by_engine["interp"]["steps"] == by_engine["codegen"]["steps"]
