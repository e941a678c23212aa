"""Tree/session registry: build once, rope once, serve forever.

A *session* is a long-lived (application, dataset) pair: the dataset's
tree is built and linearized once, the traversal spec is compiled once
through the shared :class:`~repro.core.plancache.PlanCache` (autoropes
+ lockstep variants), and every subsequent batch of queries launches
against the cached plan with only a fresh batch-sized evaluation
context.  Registering the same app over the same dataset again — even
under a different session name — reuses the built tree and hits the
plan cache instead of recompiling.

Ad-hoc service queries are *not* dataset members, so their
``orig_ids`` are set to ``-1``: the apps' self-exclusion tests
(``bucket_ids != mine``) then never fire, and a query coinciding with
a data point correctly finds it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.apps.base import QuerySet, TraversalApp, chunked_sq_dists
from repro.apps.knn import build_knn_app
from repro.apps.nn import build_nn_app
from repro.apps.pointcorr import build_pointcorr_app
from repro.apps.vptree_nn import build_vptree_app
from repro.core.ir import EvalContext
from repro.core.pipeline import CompiledTraversal
from repro.core.plancache import PlanCache


@dataclass(frozen=True)
class AppAdapter:
    """Everything the service needs to serve one application online."""

    name: str
    #: (data, order, **build_kwargs) -> TraversalApp (tree + spec).
    build: Callable[..., TraversalApp]
    #: batch-sized fresh output arrays: (n_queries, app params) -> out.
    make_out: Callable[[int, Dict[str, float]], Dict[str, np.ndarray]]
    #: brute-force reference for a query batch (tests / verification):
    #: (coords, data, app params) -> out-shaped dict.
    oracle: Callable[[np.ndarray, np.ndarray, Dict[str, float]], Dict[str, np.ndarray]]


def _knn_make_out(n: int, params: Dict[str, float]) -> Dict[str, np.ndarray]:
    k = int(params["k"])
    return {
        "knn_dist": np.full((n, k), np.inf, dtype=np.float64),
        "knn_id": np.full((n, k), -1, dtype=np.int64),
    }


def _knn_oracle(coords, data, params):
    k = int(params["k"])
    d = chunked_sq_dists(coords, data)
    idx = np.argpartition(d, k - 1, axis=1)[:, :k]
    dd = np.take_along_axis(d, idx, axis=1)
    order_k = np.argsort(dd, axis=1, kind="stable")
    return {
        "knn_dist": np.take_along_axis(dd, order_k, axis=1),
        "knn_id": np.take_along_axis(idx, order_k, axis=1).astype(np.int64),
    }


def _nn_make_out(n: int, params: Dict[str, float]) -> Dict[str, np.ndarray]:
    return {
        "nn_dist": np.full(n, np.inf, dtype=np.float64),
        "nn_id": np.full(n, -1, dtype=np.int64),
    }


def _nn_oracle(coords, data, params):
    d = chunked_sq_dists(coords, data)
    nn = d.argmin(axis=1)
    return {
        "nn_dist": d[np.arange(len(coords)), nn],
        "nn_id": nn.astype(np.int64),
    }


def _vp_oracle(coords, data, params):
    out = _nn_oracle(coords, data, params)
    return {"nn_dist": np.sqrt(out["nn_dist"]), "nn_id": out["nn_id"]}


def _pc_make_out(n: int, params: Dict[str, float]) -> Dict[str, np.ndarray]:
    return {"count": np.zeros(n, dtype=np.int64)}


def _pc_oracle(coords, data, params):
    d = chunked_sq_dists(coords, data)
    return {"count": (d <= params["radius_sq"]).sum(axis=1).astype(np.int64)}


ADAPTERS: Dict[str, AppAdapter] = {
    "knn": AppAdapter("knn", build_knn_app, _knn_make_out, _knn_oracle),
    "nn": AppAdapter("nn", build_nn_app, _nn_make_out, _nn_oracle),
    "vp": AppAdapter("vp", build_vptree_app, _nn_make_out, _vp_oracle),
    "pc": AppAdapter("pc", build_pointcorr_app, _pc_make_out, _pc_oracle),
}


@dataclass
class TreeSession:
    """One registered (app, dataset) pair, ready to serve batches."""

    name: str
    adapter: AppAdapter
    app: TraversalApp
    plan: CompiledTraversal
    data: np.ndarray
    #: the plan-cache key this session's plan was compiled under (used
    #: for failure-driven invalidation; see SessionRegistry.refresh_plan).
    plan_key: Optional[Tuple] = None
    #: per-session frontier-compaction override; None defers to config.
    compact_threshold: Optional[float] = None
    #: bumped on every refresh_plan — memoized results are keyed on it,
    #: so a recompile invalidates them without comparing plan objects
    #: (object ids can be reused after GC).
    plan_epoch: int = 0

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    @property
    def tree(self):
        return self.app.tree

    def make_batch_ctx(self, coords: np.ndarray) -> EvalContext:
        """A fresh evaluation context for one query batch."""
        coords = np.ascontiguousarray(coords, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != self.dim:
            raise ValueError(
                f"batch coords must be (n, {self.dim}), got {coords.shape}"
            )
        n = len(coords)
        return EvalContext(
            tree=self.app.tree,
            points=QuerySet(coords, np.full(n, -1, dtype=np.int64)),
            out=self.adapter.make_out(n, self.app.params),
            params=dict(self.app.params),
        )

    def extract(self, out: Dict[str, np.ndarray], i: int) -> Dict[str, np.ndarray]:
        """One query's result rows from a batch's output arrays."""
        return {key: np.copy(arr[i]) for key, arr in out.items()}

    def oracle(self, coords: np.ndarray) -> Dict[str, np.ndarray]:
        """Brute-force reference results for a query batch."""
        coords = np.asarray(coords, dtype=np.float64)
        return self.adapter.oracle(coords, self.data, self.app.params)


def _dataset_fingerprint(data: np.ndarray) -> str:
    h = hashlib.sha1()
    h.update(str(data.shape).encode())
    h.update(np.ascontiguousarray(data).tobytes())
    return h.hexdigest()


class SessionRegistry:
    """Builds and caches sessions; shares one plan cache across them."""

    def __init__(self, plans: Optional[PlanCache] = None) -> None:
        self.plans = plans or PlanCache()
        self._sessions: Dict[str, TreeSession] = {}
        #: (app, dataset fingerprint, build kwargs) -> built app, so
        #: re-registering the same tree skips the build entirely.
        self._builds: Dict[Tuple, TraversalApp] = {}

    def register(
        self,
        name: str,
        app: str,
        data: np.ndarray,
        *,
        compact_threshold: Optional[float] = None,
        **build_kwargs,
    ) -> TreeSession:
        """Build (or reuse) the tree + plan for ``(app, data)``.

        ``build_kwargs`` pass through to the app builder (``k``,
        ``radius``, ``leaf_size``, ...).  ``compact_threshold`` is a
        per-session *execution* override — it never reaches the builder
        and is not part of the build fingerprint, because the same
        tree + plan serves every threshold.
        """
        if compact_threshold is not None and not 0.0 <= compact_threshold <= 1.0:
            raise ValueError(
                f"compact_threshold must be in [0, 1], got {compact_threshold}"
            )
        if name in self._sessions:
            raise KeyError(f"session {name!r} already registered")
        if app not in ADAPTERS:
            raise KeyError(f"unknown app {app!r}; options: {sorted(ADAPTERS)}")
        adapter = ADAPTERS[app]
        data = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        if data.ndim != 2 or len(data) < 2:
            raise ValueError("data must be a (n >= 2, d) array")
        key = (app, _dataset_fingerprint(data), tuple(sorted(build_kwargs.items())))
        built = self._builds.get(key)
        if built is None:
            built = adapter.build(data, np.arange(len(data)), **build_kwargs)
            self._builds[key] = built
        plan = self.plans.get_or_compile(key, built.spec)
        session = TreeSession(
            name=name, adapter=adapter, app=built, plan=plan, data=data,
            plan_key=key, compact_threshold=compact_threshold,
        )
        self._sessions[name] = session
        return session

    def unregister(self, name: str) -> bool:
        """Remove a session; idempotent (False if it was not there).

        The built tree and compiled plan stay cached — a later
        ``register`` of the same (app, data) pair reuses them.
        """
        return self._sessions.pop(name, None) is not None

    def refresh_plan(self, name: str) -> TreeSession:
        """Invalidate and recompile a session's plan (failure recovery).

        Called by the service after repeated execution failures against
        one plan: the cached entry is dropped and the spec recompiled,
        clearing any poisoned cached state.  Other sessions sharing the
        same key pick up the fresh plan on their next registration.
        """
        session = self.get(name)
        if session.plan_key is not None:
            self.plans.invalidate(session.plan_key)
            session.plan = self.plans.get_or_compile(
                session.plan_key, session.app.spec
            )
            session.plan_epoch += 1
        return session

    def get(self, name: str) -> TreeSession:
        try:
            return self._sessions[name]
        except KeyError:
            raise KeyError(f"no session {name!r}; registered: {sorted(self._sessions)}")

    def __contains__(self, name: str) -> bool:
        return name in self._sessions

    def __len__(self) -> int:
        return len(self._sessions)

    def names(self):
        return sorted(self._sessions)
