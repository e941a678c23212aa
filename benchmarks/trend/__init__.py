"""Perf-trend tracking over successive ``BENCH_perf.json`` reports.

The wall-clock harness (``python -m benchmarks.perf``) snapshots one
moment; this tool strings those snapshots into a trend line.  Each
report is ingested into a history file (``--add``), keyed per *cell* —
``(app, input, scale, executor, engine)`` — and the latest entry is
compared cell-by-cell against its predecessor.  Deltas inside the
noise threshold are reported as stable; regressions beyond it fail
``--check``, which is how the nightly CI job turns a slow drift into a
red build instead of a surprise.

Run from the repository root::

    PYTHONPATH=src python -m benchmarks.trend --add BENCH_perf.json
    PYTHONPATH=src python -m benchmarks.trend --markdown TREND.md
    PYTHONPATH=src python -m benchmarks.trend --check --threshold 10

The history file (``BENCH_trend.json`` by default) is append-only JSON
so it can live as a CI artifact and be re-downloaded between runs.
Comparisons use ``wall_s`` — the quantity the codegen engine exists
to shrink; ``model_time_ms`` is carried along and compared at zero
tolerance because the simulated cost model is deterministic: *any*
model-time change means the semantics moved, not the machine.
"""

from __future__ import annotations

import argparse
import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

#: per-cell identity within one report.
KEY_FIELDS: Tuple[str, ...] = ("app", "input", "scale", "executor", "engine")

#: default noise threshold, percent.  Wall-clock on shared CI runners
#: jitters a few percent run-to-run; 5% separates noise from drift for
#: the medium/large cells the nightly job times.
DEFAULT_THRESHOLD_PCT = 5.0

STATUS_ORDER = ("regression", "model-change", "improvement", "new", "removed", "stable")


def cell_key(row: dict) -> Tuple[str, ...]:
    return tuple(str(row.get(f, "?")) for f in KEY_FIELDS)


def cell_name(key: Tuple[str, ...]) -> str:
    return "/".join(key)


def load_report(path: str) -> dict:
    """Load one ``BENCH_perf.json`` report and validate its shape."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "rows" not in data:
        raise ValueError(f"{path}: not a perf report (missing 'rows')")
    rows = data["rows"]
    if not isinstance(rows, list):
        raise ValueError(f"{path}: 'rows' must be a list")
    seen = set()
    for row in rows:
        if "wall_s" not in row:
            raise ValueError(f"{path}: row missing 'wall_s': {row}")
        key = cell_key(row)
        if key in seen:
            raise ValueError(f"{path}: duplicate cell {cell_name(key)}")
        seen.add(key)
    return data


def load_history(path: str) -> dict:
    if not os.path.exists(path):
        return {"meta": {"format": "bench-trend-v1"}, "entries": []}
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "entries" not in data:
        raise ValueError(f"{path}: not a trend history (missing 'entries')")
    return data


def save_history(history: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(history, fh, indent=1, sort_keys=True)
        fh.write("\n")


def add_report(history: dict, report: dict, label: Optional[str] = None) -> dict:
    """Append one perf report to the history; returns the new entry.

    Entries are identified by the report's ``meta.generated_unix``
    stamp — re-adding the same report is a no-op so CI retries don't
    double-count a run.
    """
    meta = report.get("meta", {})
    stamp = meta.get("generated_unix")
    for entry in history["entries"]:
        if stamp is not None and entry.get("generated_unix") == stamp:
            return entry
    entry = {
        "generated_unix": stamp,
        "label": label or "",
        "meta": dict(meta),
        "rows": [dict(r) for r in report["rows"]],
    }
    history["entries"].append(entry)
    history["entries"].sort(key=lambda e: (e.get("generated_unix") or 0))
    return entry


def _index(rows: Sequence[dict]) -> Dict[Tuple[str, ...], dict]:
    return {cell_key(r): r for r in rows}


def diff_entries(
    old_rows: Sequence[dict],
    new_rows: Sequence[dict],
    threshold_pct: float = DEFAULT_THRESHOLD_PCT,
) -> List[dict]:
    """Per-cell wall-clock deltas between two report row sets.

    Status per cell:

    * ``regression``   — wall_s grew beyond the noise threshold.
    * ``improvement``  — wall_s shrank beyond the noise threshold.
    * ``stable``       — delta within the threshold.
    * ``model-change`` — ``model_time_ms`` differs at all (the
      simulated cost model is deterministic; a changed value means the
      traversal itself changed, which outranks any wall-clock delta).
    * ``new`` / ``removed`` — cell present in only one report.
    """
    old_ix, new_ix = _index(old_rows), _index(new_rows)
    diffs: List[dict] = []
    for key in sorted(set(old_ix) | set(new_ix)):
        old, new = old_ix.get(key), new_ix.get(key)
        cell = dict(zip(KEY_FIELDS, key))
        if old is None:
            cell.update(status="new", new_wall_s=new["wall_s"])
            diffs.append(cell)
            continue
        if new is None:
            cell.update(status="removed", old_wall_s=old["wall_s"])
            diffs.append(cell)
            continue
        old_wall, new_wall = float(old["wall_s"]), float(new["wall_s"])
        delta_pct = (
            0.0 if old_wall == 0.0 else (new_wall - old_wall) / old_wall * 100.0
        )
        old_model = old.get("model_time_ms")
        new_model = new.get("model_time_ms")
        if old_model is not None and new_model is not None and old_model != new_model:
            status = "model-change"
        elif delta_pct > threshold_pct:
            status = "regression"
        elif delta_pct < -threshold_pct:
            status = "improvement"
        else:
            status = "stable"
        cell.update(
            status=status,
            old_wall_s=old_wall,
            new_wall_s=new_wall,
            delta_pct=round(delta_pct, 2),
            old_model_time_ms=old_model,
            new_model_time_ms=new_model,
        )
        diffs.append(cell)
    return diffs


def latest_diff(
    history: dict, threshold_pct: float = DEFAULT_THRESHOLD_PCT
) -> Optional[List[dict]]:
    """Diff the newest history entry against its predecessor."""
    entries = history["entries"]
    if len(entries) < 2:
        return None
    return diff_entries(entries[-2]["rows"], entries[-1]["rows"], threshold_pct)


def summarize(diffs: Sequence[dict]) -> Dict[str, int]:
    counts = {s: 0 for s in STATUS_ORDER}
    for d in diffs:
        counts[d["status"]] = counts.get(d["status"], 0) + 1
    return counts


def render_markdown(
    history: dict,
    threshold_pct: float = DEFAULT_THRESHOLD_PCT,
) -> str:
    """Markdown trend report: latest diff table plus per-cell history."""
    entries = history["entries"]
    lines = ["# Perf trend", ""]
    if not entries:
        lines.append("No entries ingested yet.")
        return "\n".join(lines) + "\n"
    lines.append(
        f"{len(entries)} report(s) in history; noise threshold "
        f"±{threshold_pct:g}% on `wall_s`."
    )
    lines.append("")

    diffs = latest_diff(history, threshold_pct)
    if diffs is None:
        lines.append("Only one report — nothing to diff yet.")
    else:
        counts = summarize(diffs)
        headline = ", ".join(
            f"{counts[s]} {s}" for s in STATUS_ORDER if counts.get(s)
        )
        lines.append(f"## Latest vs previous — {headline}")
        lines.append("")
        lines.append(
            "| cell | old wall_s | new wall_s | Δ% | status |"
        )
        lines.append("|---|---:|---:|---:|---|")
        order = {s: i for i, s in enumerate(STATUS_ORDER)}
        for d in sorted(
            diffs,
            key=lambda d: (order.get(d["status"], 99), -abs(d.get("delta_pct", 0.0))),
        ):
            old_w = d.get("old_wall_s")
            new_w = d.get("new_wall_s")
            delta = d.get("delta_pct")
            mark = {"regression": " ⚠", "model-change": " ⚠"}.get(d["status"], "")
            lines.append(
                "| {cell} | {old} | {new} | {delta} | {status}{mark} |".format(
                    cell=cell_name(cell_key(d)),
                    old="—" if old_w is None else f"{old_w:.4f}",
                    new="—" if new_w is None else f"{new_w:.4f}",
                    delta="—" if delta is None else f"{delta:+.1f}",
                    status=d["status"],
                    mark=mark,
                )
            )
    lines.append("")

    # per-cell wall_s across every entry, newest last: the trend line.
    lines.append("## History")
    lines.append("")
    stamps = [e.get("generated_unix") or 0 for e in entries]
    header = " | ".join(f"run {i + 1}" for i in range(len(entries)))
    lines.append(f"| cell | {header} |")
    lines.append("|---|" + "---:|" * len(entries))
    all_keys = sorted({cell_key(r) for e in entries for r in e["rows"]})
    indexed = [_index(e["rows"]) for e in entries]
    for key in all_keys:
        vals = []
        for ix in indexed:
            row = ix.get(key)
            vals.append("—" if row is None else f"{float(row['wall_s']):.4f}")
        lines.append(f"| {cell_name(key)} | " + " | ".join(vals) + " |")
    lines.append("")
    lines.append(
        "Runs ordered oldest→newest by `meta.generated_unix` ("
        + ", ".join(str(s) for s in stamps)
        + ")."
    )
    return "\n".join(lines) + "\n"


def check(diffs: Optional[Sequence[dict]]) -> Tuple[bool, str]:
    """Gate for CI: fail on any regression or model-change cell."""
    if diffs is None:
        return True, "trend check: fewer than two reports, nothing to gate"
    bad = [d for d in diffs if d["status"] in ("regression", "model-change")]
    if not bad:
        counts = summarize(diffs)
        return True, (
            "trend check: OK ("
            + ", ".join(f"{counts[s]} {s}" for s in STATUS_ORDER if counts.get(s))
            + ")"
        )
    msgs = []
    for d in bad:
        if d["status"] == "model-change":
            msgs.append(
                f"  {cell_name(cell_key(d))}: model_time_ms "
                f"{d['old_model_time_ms']} -> {d['new_model_time_ms']} "
                "(simulated cost moved)"
            )
        else:
            msgs.append(
                f"  {cell_name(cell_key(d))}: wall_s "
                f"{d['old_wall_s']:.4f} -> {d['new_wall_s']:.4f} "
                f"({d['delta_pct']:+.1f}%)"
            )
    return False, "trend check: FAIL\n" + "\n".join(msgs)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.trend",
        description="Track wall-clock perf trends across BENCH_perf.json reports.",
    )
    parser.add_argument(
        "--history",
        default="BENCH_trend.json",
        help="trend history file (default: %(default)s)",
    )
    parser.add_argument(
        "--add",
        action="append",
        default=[],
        metavar="REPORT",
        help="ingest a BENCH_perf.json report (repeatable)",
    )
    parser.add_argument(
        "--label", default="", help="label attached to reports added this run"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD_PCT,
        metavar="PCT",
        help="noise threshold in percent (default: %(default)s)",
    )
    parser.add_argument(
        "--markdown",
        metavar="PATH",
        help="write a markdown trend report ('-' for stdout)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero if the latest entry regresses beyond the threshold",
    )
    args = parser.parse_args(argv)
    if args.threshold < 0:
        parser.error("--threshold must be >= 0")

    history = load_history(args.history)
    if args.add:
        for path in args.add:
            report = load_report(path)
            entry = add_report(history, report, label=args.label)
            print(
                f"ingested {path} -> {args.history} "
                f"({len(entry['rows'])} cells, stamp {entry['generated_unix']})"
            )
        save_history(history, args.history)

    if args.markdown:
        text = render_markdown(history, args.threshold)
        if args.markdown == "-":
            print(text, end="")
        else:
            with open(args.markdown, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"wrote {args.markdown}")

    if args.check:
        ok, msg = check(latest_diff(history, args.threshold))
        print(msg)
        return 0 if ok else 1

    if not args.add and not args.markdown:
        diffs = latest_diff(history, args.threshold)
        if diffs is None:
            print(
                f"{args.history}: {len(history['entries'])} entr"
                f"{'y' if len(history['entries']) == 1 else 'ies'}; "
                "need two to diff"
            )
        else:
            _, msg = check(diffs)
            print(msg)
    return 0
