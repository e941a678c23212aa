"""Continuous kernel profiler: per-op and per-depth cost attribution.

The paper's argument is quantitative — lockstep trades work expansion
for coalesced accesses (Sections 4/6) — but the aggregate
:class:`~repro.gpusim.stats.KernelStats` a launch returns cannot say
*which kernel op* paid for the trade.  This module attributes the
simulated architectural events (instruction issue and divergence
waste, global transactions and their L2 hits, stack traffic) to the
individual ops of the compiled program, and node visits to tree
depths, continuously while the service runs:

* a :class:`LaunchProfile` rides one sampled launch via
  ``TraversalLaunch(op_profile=...)``.  Executors call :meth:`~
  LaunchProfile.sync` once per traversal step and :meth:`~
  LaunchProfile.note` after each op's own work; the profile measures
  the *delta* of the shared stats counters since the previous mark, so
  attribution costs one tuple of attribute reads per op and never
  perturbs the counters themselves (stats stay bit-identical with
  profiling on or off).  Labels come from
  :func:`repro.core.compile.op_label` and are engine-agnostic: the
  generated codegen loop and the interp reference produce the same
  series for the same kernel position, so hot-op rankings are comparable across
  engines.
* a :class:`KernelProfiler` (held by the
  :class:`~repro.telemetry.Telemetry` facade) decides which launches
  to sample (every ``sample_rate``-th), folds finished profiles into
  per-session aggregates, ranks "hot ops" by modeled cycles, and
  exports the top-K through the metrics registry and the
  ``/profilez`` endpoint of serve mode.

Costs between two op marks that belong to no op — stack pops at the
top of a step, the initial root push — accumulate under
:data:`OVERHEAD_LABEL`, so per-op cycles always sum to the launch
total.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.core.compile import op_label

#: KernelStats counters the profiler attributes per op, in vector order.
PROFILE_COUNTERS = (
    "warp_instructions",
    "divergent_instructions",
    "wasted_lane_fraction",
    "global_transactions",
    "l2_hit_transactions",
    "dram_bytes",
    "bytes_requested",
    "shared_accesses",
    "stack_ops",
)

#: label for inter-op costs (stack pops, pushes of the root, guard
#: bookkeeping) so attributed cycles reconcile with launch totals.
OVERHEAD_LABEL = "(step-overhead)"

_N = len(PROFILE_COUNTERS)


def depth_map(tree) -> np.ndarray:
    """Per-node depth for a :class:`~repro.trees.linearize.LinearTree`.

    Computed once by a vectorized BFS over the child arrays and cached
    on the tree instance (node ids are stable for the tree's lifetime,
    and every session keeps one tree).
    """
    cached = getattr(tree, "_profile_depth_of", None)
    if cached is not None:
        return cached
    n = tree.n_nodes
    depth_of = np.zeros(n, dtype=np.int64)
    child_arrays = [tree.children[name] for name in tree.child_names]
    frontier = np.array([tree.root], dtype=np.int64)
    d = 0
    while frontier.size and d <= n:
        d += 1
        nxt = [arr[frontier] for arr in child_arrays]
        frontier = np.concatenate([c[c >= 0] for c in nxt]) if nxt else (
            np.empty(0, dtype=np.int64)
        )
        depth_of[frontier] = d
    tree._profile_depth_of = depth_of
    return depth_of


class LaunchProfile:
    """Cost-attribution collector for one sampled kernel launch.

    Works by cursor deltas: every :meth:`note`/:meth:`sync` reads the
    launch's shared counters, charges the change since the previous
    mark to a label, and moves the cursor.  The executors therefore
    only need one call per op — no per-op counter plumbing.
    """

    __slots__ = (
        "_cursor",
        "ops",
        "op_visits",
        "_labels",
        "depth_of",
        "n_depths",
        "depth_visits",
        "depth_lane_visits",
    )

    def __init__(self, depth_of: Optional[np.ndarray] = None) -> None:
        self._cursor = (0.0,) * _N
        #: label -> accumulated counter vector (PROFILE_COUNTERS order).
        self.ops: Dict[str, List[float]] = {}
        #: label -> number of times the op executed (was noted).
        self.op_visits: Dict[str, int] = {}
        self._labels: Dict[int, str] = {}
        self.depth_of = depth_of
        if depth_of is not None:
            self.n_depths = int(depth_of.max()) + 1 if depth_of.size else 1
            self.depth_visits = np.zeros(self.n_depths, dtype=np.int64)
            self.depth_lane_visits = np.zeros(self.n_depths, dtype=np.float64)
        else:
            self.n_depths = 0
            self.depth_visits = None
            self.depth_lane_visits = None

    def sync(self, stats) -> None:
        """Charge everything since the last mark to step overhead.

        Executors call this once per step, right after the stack pop,
        so pop traffic and loop bookkeeping never pollute the first
        op's attribution.
        """
        self._attribute(OVERHEAD_LABEL, stats)

    def note(self, op, stats) -> None:
        """Charge everything since the last mark to ``op``.

        ``op`` is a compiled op record or an interp AST statement; the
        engine-agnostic label is resolved once per object and cached by
        identity (op objects live on the memoized program/kernel, the
        profile lives for one launch).
        """
        label = self._labels.get(id(op))
        if label is None:
            label = self._labels[id(op)] = op_label(op)
        self._attribute(label, stats)
        self.op_visits[label] = self.op_visits.get(label, 0) + 1

    def _attribute(self, label: str, stats) -> None:
        cur = tuple(float(getattr(stats, f)) for f in PROFILE_COUNTERS)
        prev = self._cursor
        self._cursor = cur
        vec = self.ops.get(label)
        if vec is None:
            vec = self.ops[label] = [0.0] * _N
        for i in range(_N):
            vec[i] += cur[i] - prev[i]

    def note_depth(self, node, mask, lane_counts=None) -> None:
        """Bin this step's node visits by tree depth.

        ``node`` holds per-row node ids, ``mask`` selects the rows that
        visited a real node this step.  ``lane_counts`` (lockstep) adds
        per-row live-lane counts so warp-level visits and per-lane
        useful visits are tracked separately — their ratio per depth is
        the work-expansion profile.  Per-thread executors omit it (one
        row = one visit).
        """
        if self.depth_of is None:
            return
        sel = node[mask]
        if sel.size == 0:
            return
        d = self.depth_of[sel]
        binc = np.bincount(d, minlength=self.n_depths)
        self.depth_visits += binc
        if lane_counts is None:
            self.depth_lane_visits += binc
        else:
            self.depth_lane_visits += np.bincount(
                d,
                weights=np.asarray(lane_counts, dtype=np.float64)[mask],
                minlength=self.n_depths,
            )


def op_cycles(vec: List[float], device=None) -> float:
    """Modeled serial cycles for one op's counter vector.

    Mirrors :class:`~repro.gpusim.cost.CostModel`'s two roofs without
    the overlap term (per-op overlap is not attributable): per-SM issue
    cycles plus memory-system service cycles.  With no device the
    generic weights still rank deterministically — but the dispatcher
    always passes the configured device, so rankings use the same
    knobs as the launch timing.
    """
    wi = vec[0]
    gt = vec[3]
    l2 = vec[4]
    shared = vec[7]
    if device is not None:
        compute = (
            wi * device.issue_cycles + shared * device.shared_access_cycles
        ) / device.num_sms
        memory = (gt - l2) * device.dram_cycles_per_transaction + (
            l2 * device.dram_cycles_per_transaction * device.l2_hit_cost_fraction
        )
    else:
        compute = wi + 2.0 * shared
        memory = (gt - l2) * 32.0 + l2 * 8.0
    return float(compute + memory)


class _SessionProfile:
    """Per-session aggregate of folded launch profiles."""

    __slots__ = ("ops", "op_visits", "depth_visits", "depth_lane_visits",
                 "launches", "device")

    def __init__(self) -> None:
        self.ops: Dict[str, List[float]] = {}
        self.op_visits: Dict[str, int] = {}
        self.depth_visits: List[float] = []
        self.depth_lane_visits: List[float] = []
        self.launches = 0
        self.device = None

    def fold(self, profile: LaunchProfile, device=None) -> None:
        self.launches += 1
        if device is not None:
            self.device = device
        for label, vec in profile.ops.items():
            agg = self.ops.get(label)
            if agg is None:
                agg = self.ops[label] = [0.0] * _N
            for i in range(_N):
                agg[i] += vec[i]
        for label, n in profile.op_visits.items():
            self.op_visits[label] = self.op_visits.get(label, 0) + n
        if profile.depth_visits is not None:
            if len(self.depth_visits) < profile.n_depths:
                grow = profile.n_depths - len(self.depth_visits)
                self.depth_visits.extend([0.0] * grow)
                self.depth_lane_visits.extend([0.0] * grow)
            for i in range(profile.n_depths):
                self.depth_visits[i] += float(profile.depth_visits[i])
                self.depth_lane_visits[i] += float(profile.depth_lane_visits[i])


class KernelProfiler:
    """Continuous profiler: samples launches, aggregates, ranks, exports.

    ``sample_rate=N`` profiles every N-th GPU launch (the first launch
    is always sampled, so short runs still produce a profile);
    ``top_k`` bounds both the gauge export and the default
    ``/profilez`` ranking.  Thread safety is the caller's job (serve
    mode holds the service lock around both dispatch and snapshots).
    """

    def __init__(self, sample_rate: int = 1, top_k: int = 10, registry=None):
        if sample_rate < 1:
            raise ValueError(f"sample_rate must be >= 1, got {sample_rate}")
        if top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {top_k}")
        self.sample_rate = int(sample_rate)
        self.top_k = int(top_k)
        self.registry = registry
        self.launches_seen = 0
        self.launches_sampled = 0
        self._sessions: Dict[str, _SessionProfile] = {}
        if registry is not None:
            self._g_cycles = registry.gauge(
                "profile_hot_op_cycles",
                "modeled cycles attributed to the hottest kernel ops",
                labels=("session", "op"),
            )
            self._g_share = registry.gauge(
                "profile_hot_op_share",
                "fraction of the session's attributed cycles per hot op",
                labels=("session", "op"),
            )
            self._c_sampled = registry.counter(
                "profile_launches_sampled_total",
                "kernel launches profiled",
                labels=("session",),
            )
        else:
            self._g_cycles = None
            self._g_share = None
            self._c_sampled = None

    # -- sampling ---------------------------------------------------------

    def should_sample(self) -> bool:
        """Advance the launch counter; True for sampled launches."""
        self.launches_seen += 1
        return (self.launches_seen - 1) % self.sample_rate == 0

    def begin(self, tree=None) -> LaunchProfile:
        """A fresh collector for one launch (with depth attribution
        when the launch's tree is provided)."""
        return LaunchProfile(
            depth_of=depth_map(tree) if tree is not None else None
        )

    # -- aggregation ------------------------------------------------------

    def fold(self, session: str, profile: LaunchProfile, device=None) -> None:
        """Fold a finished launch profile into the session aggregate
        and refresh the top-K gauges."""
        self.launches_sampled += 1
        agg = self._sessions.get(session)
        if agg is None:
            agg = self._sessions[session] = _SessionProfile()
        agg.fold(profile, device=device)
        if self._c_sampled is not None:
            self._c_sampled.inc(session=session)
        if self._g_cycles is not None:
            for entry in self.hot_ops(session):
                self._g_cycles.set(
                    entry["cycles"], session=session, op=entry["op"]
                )
                self._g_share.set(
                    entry["share"], session=session, op=entry["op"]
                )

    def sessions(self) -> List[str]:
        return sorted(self._sessions)

    def hot_ops(self, session: str, k: Optional[int] = None) -> List[dict]:
        """Ranked per-op attribution for one session, hottest first.

        Each entry is JSON-safe: the op label, its modeled cycles and
        share of the session total, visit count, and every attributed
        counter by name.  Ties rank by label for determinism.
        """
        agg = self._sessions.get(session)
        if agg is None:
            return []
        k = self.top_k if k is None else k
        scored = [
            (op_cycles(vec, agg.device), label, vec)
            for label, vec in agg.ops.items()
        ]
        total = sum(c for c, _, _ in scored)
        scored.sort(key=lambda e: (-e[0], e[1]))
        out = []
        for cycles, label, vec in scored[:k]:
            entry = {
                "op": label,
                "cycles": cycles,
                "share": cycles / total if total > 0 else 0.0,
                "visits": agg.op_visits.get(label, 0),
            }
            entry.update(
                {name: vec[i] for i, name in enumerate(PROFILE_COUNTERS)}
            )
            out.append(entry)
        return out

    def depth_profile(self, session: str) -> dict:
        """Per-depth visit histogram for one session (JSON-safe)."""
        agg = self._sessions.get(session)
        if agg is None or not agg.depth_visits:
            return {"visits": [], "lane_visits": []}
        return {
            "visits": list(agg.depth_visits),
            "lane_visits": list(agg.depth_lane_visits),
        }

    def snapshot(self) -> dict:
        """Full JSON-safe export (the ``/profilez`` payload)."""
        return {
            "sample_rate": self.sample_rate,
            "top_k": self.top_k,
            "launches_seen": self.launches_seen,
            "launches_sampled": self.launches_sampled,
            "sessions": {
                name: {
                    "launches": agg.launches,
                    "ops": self.hot_ops(name),
                    "depths": self.depth_profile(name),
                }
                for name, agg in sorted(self._sessions.items())
            },
        }
