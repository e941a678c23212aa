"""Rope-stack storage with the layout options of Section 5.2.

The paper lays out per-thread rope stacks *interleaved* in global
memory, "such that if two adjacent threads are at the same stack level
their accesses are made to contiguous locations in memory, providing
the best opportunity for memory coalescing", and moves the stack to
per-warp *shared memory* for lockstep traversals of shallow trees.
A strided contiguous-per-thread layout is kept as an ablation baseline.

:class:`StackStorage` both stores the stack payload (host-side numpy —
node indices, traversal-variant arguments, lockstep masks) and accounts
the simulated memory traffic each push/pop generates under the chosen
layout.

Interleaved stacks have a structural accounting path.  Entry (stack
``s``, depth ``d``) sits at ``base + (d * n_alloc + s) * entry_bytes``,
so when the region base is segment-aligned, ``entry_bytes`` is a power
of two that divides the segment, and one access group's row of entries
(``lanes_per_access * entry_bytes``) is a whole number of segments, an
active lane's segment is ``(d * n_alloc + s + base / entry_bytes) >>
log2(segment / entry_bytes)``.  No entry straddles a segment and no two
access groups share one, so a push or pop costs exactly its distinct
segments: one 1-D shift plus the L2 update of
:meth:`~repro.gpusim.memory.GlobalMemory.segment_access`, instead of
the general coalescing pass.  :meth:`StructuralSegments.can_be_applied`
checks that precondition once, when the storage is built; the
contiguous layout, odd entry sizes and narrow warps keep the general
:meth:`~repro.gpusim.memory.GlobalMemory.warp_access` path, and the
shared layout keeps its own shared-access count.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Tuple

import numpy as np

from repro.gpusim.device import DeviceConfig
from repro.gpusim.memory import DeviceAllocator, GlobalMemory
from repro.gpusim.stats import KernelStats


class RopeStackLayout(enum.Enum):
    """Where and how rope-stack entries live."""

    #: entry (stack s, depth d) at ``(d * n_stacks + s)``: neighboring
    #: threads at equal depth are contiguous -> coalesced (paper default).
    INTERLEAVED_GLOBAL = "interleaved_global"
    #: entry (s, d) at ``(s * max_depth + d)``: each thread's stack is
    #: contiguous, so warp accesses stride by ``max_depth`` (ablation).
    CONTIGUOUS_GLOBAL = "contiguous_global"
    #: per-warp stack in shared memory (lockstep, shallow trees); no
    #: global traffic but consumes shared memory, limiting occupancy.
    SHARED = "shared"


class StackOverflowError(RuntimeError):
    """A traversal exceeded the stack capacity cap."""


class CorruptedRopeStack(RuntimeError):
    """A popped rope-stack entry failed validation (garbage node).

    Executors validate every popped node index against the tree bounds;
    an out-of-range pointer means the stack memory was corrupted (the
    chaos layer injects exactly this) and the launch must be aborted
    rather than chased into unrelated memory.
    """

    def __init__(self, message: str, step: int = 0) -> None:
        super().__init__(message)
        self.step = step


#: shared-memory stacks are used when the estimated per-warp stack
#: footprint stays below this (Section 5.2: "if the depth of the tree
#: is reasonably small then the fast shared memory can be used").
SHARED_STACK_BUDGET_BYTES = 4096


def lockstep_stack_layout(
    tree, spec, budget_bytes: int = SHARED_STACK_BUDGET_BYTES
) -> RopeStackLayout:
    """Pick the rope-stack layout for a lockstep launch over ``tree``.

    Estimates the worst-case per-warp stack footprint (one entry holds
    node + mask + the traversal-variant arguments; each visit can push
    ``fanout`` entries while popping one) and chooses shared memory
    only when it fits the budget.  Shared by the experiment harness and
    the online query service so both price the same launch identically.
    """
    entry_bytes = 16 + 8 * len(spec.variant_args)
    fanout = max(1, len(tree.child_names) - 1)
    est_depth = tree.depth * fanout + 2
    if est_depth * entry_bytes <= budget_bytes:
        return RopeStackLayout.SHARED
    return RopeStackLayout.INTERLEAVED_GLOBAL


class StructuralSegments:
    """The interleaved layout's structural accounting precondition.

    A guard in the declared-transformation style: :meth:`can_be_applied`
    decides once, from the layout and the region geometry, whether a
    push or pop's transactions are exactly its distinct segments.
    """

    @staticmethod
    def can_be_applied(
        layout: RopeStackLayout,
        base: int,
        entry_bytes: int,
        lanes_per_access: int,
        segment_bytes: int,
    ) -> bool:
        if layout is not RopeStackLayout.INTERLEAVED_GLOBAL:
            return False
        # A power-of-two segment makes segment / entry_bytes one too.
        if segment_bytes <= 0 or segment_bytes & (segment_bytes - 1):
            return False
        # The region starts on a segment boundary.
        if base % segment_bytes:
            return False
        # Entries tile the segment: none straddles a boundary.
        if entry_bytes <= 0 or entry_bytes & (entry_bytes - 1):
            return False
        if segment_bytes % entry_bytes:
            return False
        # One access group's row at one depth is whole segments, so no
        # two groups (or depths) share a segment.
        return (lanes_per_access * entry_bytes) % segment_bytes == 0


class StackStorage:
    """A set of parallel stacks with layout-aware traffic accounting.

    Parameters
    ----------
    n_stacks:
        one stack per thread (non-lockstep) or per warp (lockstep).
    channels:
        mapping ``name -> (dtype, width)`` of payload lanes stored per
        entry; e.g. ``{"node": (np.int64, 1), "mask": (np.uint64, 1)}``.
    lanes_per_access:
        how many stacks form one warp access group: ``warp_size`` for
        per-thread stacks, ``1`` for per-warp stacks.
    max_depth:
        capacity cap; storage grows lazily up to this.
    """

    def __init__(
        self,
        n_stacks: int,
        channels: Dict[str, Tuple[np.dtype, int]],
        layout: RopeStackLayout,
        device: DeviceConfig,
        allocator: Optional[DeviceAllocator],
        memory: Optional[GlobalMemory],
        stats: KernelStats,
        lanes_per_access: int,
        max_depth: int = 4096,
        initial_depth: int = 64,
        name: str = "rope_stack",
        account: bool = True,
    ) -> None:
        if n_stacks <= 0:
            raise ValueError("n_stacks must be positive")
        if n_stacks % lanes_per_access != 0:
            raise ValueError("n_stacks must be a multiple of lanes_per_access")
        self.n_stacks = n_stacks
        self.layout = layout
        self.device = device
        self.memory = memory
        self.stats = stats
        self.lanes_per_access = lanes_per_access
        self.max_depth = max_depth
        #: original stack id of each current row.  Frontier compaction
        #: (:meth:`compact`) gathers rows but keeps these ids, so entry
        #: addressing — and therefore the coalescing/L2 accounting — is
        #: identical to the uncompacted run.
        self.stack_ids = np.arange(n_stacks, dtype=np.int64)
        #: the allocation-time stack count; the INTERLEAVED layout's
        #: address arithmetic must keep using it after compaction.
        self._n_stacks_alloc = n_stacks
        #: cached row indices (pop uses them every step).
        self._rows = np.arange(n_stacks, dtype=np.int64)
        self._channels: Dict[str, np.ndarray] = {}
        self._widths: Dict[str, int] = {}
        entry_bytes = 0
        cap = max(1, min(initial_depth, max_depth))
        for cname, (dtype, width) in channels.items():
            dt = np.dtype(dtype)
            shape = (n_stacks, cap) if width == 1 else (n_stacks, cap, width)
            self._channels[cname] = np.zeros(shape, dtype=dt)
            self._widths[cname] = width
            entry_bytes += dt.itemsize * width
        self.entry_bytes = entry_bytes
        self.sp = np.zeros(n_stacks, dtype=np.int64)
        self._capacity = cap
        self.high_water = 0
        #: when False, the stack stores payload but generates no
        #: simulated traffic (used by the recursive baseline, whose
        #: control stack is accounted as call frames instead).
        self.account = account

        if layout is RopeStackLayout.SHARED:
            self.region = None  # no global allocation; traffic is shared-mem
        else:
            if allocator is None:
                raise ValueError("global stack layouts need an allocator")
            self.region = allocator.alloc(name, entry_bytes, n_stacks * max_depth)
        #: log2 of the entries per segment on the structural accounting
        #: path (``entry_idx >> shift`` is the entry's segment offset),
        #: or ``None`` when pushes and pops take the general
        #: ``warp_access`` path (see :class:`StructuralSegments`).
        self.segment_shift: Optional[int] = None
        #: the region base in entries (segment-aligned on that path).
        self.base_entry = 0
        seg = device.segment_bytes
        if (
            memory is not None
            and self.region is not None
            and StructuralSegments.can_be_applied(
                layout, self.region.base, entry_bytes, lanes_per_access, seg
            )
        ):
            self.segment_shift = (seg // entry_bytes).bit_length() - 1
            self.base_entry = self.region.base // entry_bytes

    # -- capacity -------------------------------------------------------

    @property
    def shared_bytes_per_group(self) -> int:
        """Shared memory a warp-group of stacks consumes (occupancy input).

        Uses the high-water depth so shallow traversals are not charged
        the full capacity cap.
        """
        if self.layout is not RopeStackLayout.SHARED:
            return 0
        depth = max(1, self.high_water)
        return depth * self.entry_bytes * self.lanes_per_access

    def _grow(self, needed: int) -> None:
        if needed > self.max_depth:
            raise StackOverflowError(
                f"stack depth {needed} exceeds cap {self.max_depth}"
            )
        new_cap = self._capacity
        while new_cap < needed:
            new_cap = min(self.max_depth, new_cap * 2)
        for cname, arr in self._channels.items():
            pad_shape = list(arr.shape)
            pad_shape[1] = new_cap - arr.shape[1]
            self._channels[cname] = np.concatenate(
                [arr, np.zeros(pad_shape, dtype=arr.dtype)], axis=1
            )
        self._capacity = new_cap

    # -- traffic accounting ----------------------------------------------

    def _entry_addresses(self, stack_ids: np.ndarray, depths: np.ndarray) -> np.ndarray:
        assert self.region is not None
        if self.layout is RopeStackLayout.INTERLEAVED_GLOBAL:
            entry_idx = depths * self._n_stacks_alloc + stack_ids
        else:  # CONTIGUOUS_GLOBAL
            entry_idx = stack_ids * self.max_depth + depths
        return self.region.addresses(entry_idx)

    def _account(self, active: np.ndarray, depths: np.ndarray, step: int) -> None:
        """Charge the traffic of touching ``(stack, depth)`` entries."""
        if not self.account:
            return
        n_active = int(np.count_nonzero(active))
        if n_active == 0:
            return
        self.stats.stack_ops += n_active
        groups = self.n_stacks // self.lanes_per_access
        if self.layout is RopeStackLayout.SHARED:
            grp_active = active.reshape(groups, self.lanes_per_access).any(axis=1)
            self.stats.shared_accesses += int(grp_active.sum())
            return
        if self.memory is None:
            return
        if self.segment_shift is not None:
            entry = depths * self._n_stacks_alloc + self.stack_ids
            segs = entry[active]
            segs += self.base_entry
            segs >>= self.segment_shift
            self.memory.segment_access(segs, step)
            return
        addrs = self._entry_addresses(self.stack_ids, depths).reshape(
            groups, self.lanes_per_access
        )
        self.memory.warp_access(
            addrs, self.entry_bytes, active.reshape(groups, self.lanes_per_access), step
        )

    # -- stack operations --------------------------------------------------

    def push(self, active: np.ndarray, step: int, **values: np.ndarray) -> None:
        """Push one entry on every stack where ``active`` is set.

        ``values`` must contain exactly the configured channels; each is
        an array of shape ``(n_stacks,)`` (or ``(n_stacks, width)``).
        """
        if set(values) != set(self._channels):
            raise KeyError(
                f"push channels {sorted(values)} != {sorted(self._channels)}"
            )
        if not active.any():
            return
        depths = self.sp
        max_needed = int(depths.max(initial=0, where=active)) + 1
        if max_needed > self._capacity:
            self._grow(max_needed)
        idx = np.nonzero(active)[0]
        d = depths[idx]
        for cname, arr in self._channels.items():
            arr[idx, d] = values[cname][idx]
        self._account(active, depths, step)
        self.sp[idx] += 1
        self.high_water = max(self.high_water, max_needed)

    def pop(self, active: np.ndarray, step: int) -> Dict[str, np.ndarray]:
        """Pop the top entry of every stack where ``active`` is set.

        Returns full-width arrays; entries for inactive stacks are
        whatever was previously stored there (callers must mask).
        """
        if np.any(active & (self.sp == 0)):
            raise IndexError("pop from empty rope stack")
        out: Dict[str, np.ndarray] = {}
        if not active.any():
            for cname, arr in self._channels.items():
                out[cname] = arr[:, 0].copy()
            return out
        new_sp = np.where(active, self.sp - 1, self.sp)
        # An inactive full stack keeps sp == capacity: clamp its read.
        top = np.minimum(np.maximum(new_sp, 0), self._capacity - 1)
        rows = self._rows
        for cname, arr in self._channels.items():
            out[cname] = arr[rows, top]  # fancy indexing already copies
        self._account(active, new_sp, step)
        self.sp = new_sp
        return out

    def compact(self, group_sel: np.ndarray) -> None:
        """Gather the stacks of the selected warp-access groups.

        ``group_sel`` indexes groups of ``lanes_per_access`` adjacent
        stacks (warps): frontier compaction keeps whole groups so the
        coalescing model still sees the same warp-access shapes.  Rows
        keep their original :attr:`stack_ids`, so the simulated traffic
        of every subsequent push/pop is bit-identical to the
        uncompacted run — only the host-side array widths shrink.
        """
        group_sel = np.asarray(group_sel, dtype=np.int64)
        lpa = self.lanes_per_access
        rows = (group_sel[:, None] * lpa + np.arange(lpa, dtype=np.int64)).ravel()
        for cname, arr in self._channels.items():
            self._channels[cname] = arr[rows]
        self.sp = self.sp[rows]
        self.stack_ids = self.stack_ids[rows]
        self.n_stacks = len(rows)
        self._rows = np.arange(self.n_stacks, dtype=np.int64)

    def corrupt_top(self, channel: str, value) -> int:
        """Overwrite the top entry of every non-empty stack (chaos hook).

        Models a corrupted stack region: the next pop returns garbage
        in ``channel``.  Returns how many stacks were corrupted; no
        simulated traffic is charged (corruption is not a program
        access).
        """
        if channel not in self._channels:
            raise KeyError(f"no stack channel {channel!r}")
        idx = np.nonzero(self.sp > 0)[0]
        if idx.size:
            self._channels[channel][idx, self.sp[idx] - 1] = value
        return int(idx.size)

    def nonempty(self) -> np.ndarray:
        """Bool array: which stacks still hold entries."""
        return self.sp > 0

    def any_nonempty(self) -> bool:
        return bool((self.sp > 0).any())
