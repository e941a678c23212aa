"""Sharded multi-process serve fleet: router + shared-nothing workers.

``repro.fleet`` scales the online traversal service past the
one-process ceiling of ``repro.service --serve``.  The topology
(``docs/FLEET.md``):

* **Workers** (:mod:`repro.fleet.worker`) are shared-nothing processes,
  each owning a full :class:`~repro.service.service.TraversalService`
  — its own trees, plans, batchers, telemetry registry, and logical
  clock — driven over a pipe by the wire protocol
  (:mod:`repro.fleet.wire`).
* The **router** (:mod:`repro.fleet.router`) owns the worker pool,
  places sessions on workers by consistent hash
  (:mod:`repro.fleet.hashring`), scatter-slices large single-session
  batches across the live workers and gather-merges the results in
  submission order (:mod:`repro.fleet.slicing`).  The **server**
  (:mod:`repro.fleet.server`) fronts the fleet with the same HTTP
  front-end serve mode uses (:mod:`repro.telemetry.http`) —
  ``/metrics`` (per-worker-labelled merge), ``/healthz`` (degraded if
  any worker is), ``/statsz`` (strict-JSON fleet snapshot), and the
  merged ``/tracez`` and ``/logz`` timelines.
* The **pool** (:mod:`repro.fleet.pool`) is the generic pinned-process
  layer under the workers; ``benchmarks/perf --jobs N`` reuses it to
  run benchmark cells in parallel.
* The fleet **self-heals**: worker death trips a router-side breaker,
  the supervisor (:mod:`repro.fleet.supervisor`) respawns the process
  under a seeded backoff/budget policy, and the router replays the
  session catalog from its ledger (:mod:`repro.fleet.ledger`) so the
  rejoined shard serves bit-identical answers.  Fleet-level fault
  injection lives in :mod:`repro.fleet.chaos`.

Determinism: the whole fleet is reproducible from one seed — worker
``w`` derives its chaos/load seeds from ``(fleet seed, w)`` — and
per-query results are bit-identical to a single-process run of the
same streams, because traversal results depend only on (session data,
coordinates), never on batch composition.

CLI::

    PYTHONPATH=src python -m repro.fleet --workers 4
"""

from repro.fleet.chaos import FleetChaos, FleetChaosConfig
from repro.fleet.hashring import HashRing
from repro.fleet.ledger import SessionLedger, data_digest
from repro.fleet.pool import ProcessPool, pin_to_cpu
from repro.fleet.router import FleetConfig, FleetRouter
from repro.fleet.server import FleetServer
from repro.fleet.slicing import gather, scatter, scatter_slices
from repro.fleet.supervisor import FleetSupervisor, RestartPolicy
from repro.fleet.wire import WireError, WorkerGone

__all__ = [
    "FleetChaos",
    "FleetChaosConfig",
    "FleetConfig",
    "FleetRouter",
    "FleetServer",
    "FleetSupervisor",
    "HashRing",
    "ProcessPool",
    "RestartPolicy",
    "SessionLedger",
    "WireError",
    "WorkerGone",
    "data_digest",
    "gather",
    "pin_to_cpu",
    "scatter",
    "scatter_slices",
]
