"""Global-memory model: coalescing into 128-byte transactions + L2.

Section 2.2 of the paper: *"Global memory is capable of achieving very
high throughput as long as threads of a warp access elements from the
same 128-byte segment. If memory accesses are coalesced then each
request will be merged into a single global memory transaction;
otherwise the hardware will group accesses into as few transactions as
possible."* This module implements exactly that accounting: a warp
access touching ``k`` distinct segments costs ``k`` transactions.

The L2 is approximated with a reuse-window model: a segment access hits
if the segment was touched within the last ``W`` warp-steps, where ``W``
adapts so that ``W x (average distinct segments per step)`` matches the
L2 capacity in lines. This is a deterministic stand-in for LRU that
preserves the effect the evaluation depends on: small, shared working
sets (lockstep warps marching down the same nodes) hit; scattered
non-lockstep accesses miss.

Two entry points share that L2 update. :meth:`GlobalMemory.warp_access`
is the general coalescing pass: it masks, sorts and compares every
access group's lane segments. :meth:`GlobalMemory.segment_access` takes
the segments of an access whose layout already fixes the answer — no
lane straddles a segment and no two access groups share one, so the
transactions are exactly the distinct segments. The interleaved rope
stack (:mod:`repro.gpusim.stack`) uses it when its region and entry
size meet that precondition; both paths produce the same counts and the
same L2 state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.gpusim.device import DeviceConfig
from repro.gpusim.stats import KernelStats

_FAR_PAST = -(10**9)
_SENTINEL = np.iinfo(np.int64).max


@dataclass(frozen=True)
class Region:
    """A named allocation in simulated device global memory.

    ``addresses(idx)`` maps element indices to byte addresses, which is
    all the coalescing model needs; no element data is stored here (the
    executors keep real data in host numpy arrays).
    """

    name: str
    base: int
    itemsize: int
    count: int

    @property
    def nbytes(self) -> int:
        return self.itemsize * self.count

    def addresses(self, indices: np.ndarray) -> np.ndarray:
        """Byte address of each element index (vectorized)."""
        return self.base + indices.astype(np.int64, copy=False) * self.itemsize


class DeviceAllocator:
    """Bump allocator handing out segment-aligned :class:`Region`\\ s.

    Distinct regions never share a coalescing segment, mirroring
    ``cudaMalloc``'s alignment guarantees, so cross-region accesses are
    never spuriously coalesced together.
    """

    def __init__(self, device: DeviceConfig) -> None:
        self.device = device
        self._next = device.segment_bytes  # keep address 0 unused
        self._regions: dict[str, Region] = {}

    def alloc(self, name: str, itemsize: int, count: int) -> Region:
        """Allocate ``count`` elements of ``itemsize`` bytes."""
        if itemsize <= 0 or count < 0:
            raise ValueError(f"bad allocation {name}: {itemsize=} {count=}")
        if name in self._regions:
            raise ValueError(f"region {name!r} already allocated")
        seg = self.device.segment_bytes
        base = self._next
        size = itemsize * count
        self._next = ((base + size + seg - 1) // seg) * seg
        region = Region(name=name, base=base, itemsize=itemsize, count=count)
        self._regions[name] = region
        return region

    def region(self, name: str) -> Region:
        return self._regions[name]

    @property
    def heap_bytes(self) -> int:
        """Total allocated bytes (upper bound of any valid address)."""
        return self._next


class GlobalMemory:
    """Coalescing + L2 accounting for warp accesses.

    One instance per kernel launch; accumulates into a
    :class:`~repro.gpusim.stats.KernelStats`.
    """

    def __init__(
        self,
        device: DeviceConfig,
        allocator: DeviceAllocator,
        stats: KernelStats,
        l2_enabled: bool = True,
    ) -> None:
        self.device = device
        self.allocator = allocator
        self.stats = stats
        self.l2_enabled = l2_enabled
        n_segments = allocator.heap_bytes // device.segment_bytes + 2
        seg = device.segment_bytes
        #: segment size as a shift when it is a power of two (it always
        #: is on real devices): ``addr >> shift`` replaces the int64
        #: floor-division, which numpy cannot vectorize nearly as well.
        self._seg_shift = seg.bit_length() - 1 if seg & (seg - 1) == 0 else None
        self._last_touch = np.full(n_segments, _FAR_PAST, dtype=np.int64)
        self._ema_unique_per_step = 1.0
        self._capacity_lines = max(1, device.l2_bytes // device.l2_line_bytes)

    # -- internal -----------------------------------------------------

    def _ensure_capacity(self, max_segment: int) -> None:
        if max_segment >= len(self._last_touch):
            grown = np.full(max_segment + 1024, _FAR_PAST, dtype=np.int64)
            grown[: len(self._last_touch)] = self._last_touch
            self._last_touch = grown

    def _l2_window(self) -> float:
        return self._capacity_lines / max(1.0, self._ema_unique_per_step)

    # -- public API ---------------------------------------------------

    def warp_access(
        self,
        addresses: np.ndarray,
        nbytes: int,
        active: Optional[np.ndarray],
        step: int,
    ) -> int:
        """Account one memory operation issued by many warps at once.

        Parameters
        ----------
        addresses:
            int64 array of shape ``(n_warps, lanes)`` — byte address
            requested by each lane. For warp-uniform (lockstep) loads
            pass shape ``(n_warps, 1)``.
        nbytes:
            bytes read/written per lane (may straddle two segments).
        active:
            bool mask of the same shape, or ``None`` for all-active.
        step:
            current warp-step (the L2 reuse clock).

        Returns
        -------
        int
            number of global transactions generated.
        """
        if addresses.ndim != 2:
            raise ValueError("addresses must be (n_warps, lanes)")
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        seg_size = self.device.segment_bytes
        addr = addresses.astype(np.int64, copy=False)
        if active is None:
            act = np.ones(addr.shape, dtype=bool)
        else:
            act = active
        shift = self._seg_shift
        if shift is not None:
            seg_lo = addr >> shift
            seg_hi = (addr + (nbytes - 1)) >> shift
        else:
            seg_lo = addr // seg_size
            seg_hi = (addr + (nbytes - 1)) // seg_size
        if addr.shape[1] == 1:
            # One lane per access group (per-warp lockstep loads and
            # warp-stack entries): a row's transactions are just its
            # own segment(s), no cross-lane dedup needed.  Same counts
            # and L2 touches as the general path, far fewer array ops.
            lo, hi, on = seg_lo[:, 0], seg_hi[:, 0], act[:, 0]
            straddle = on & (hi > lo)
            n_straddle = int(np.count_nonzero(straddle))
            n_trans = int(np.count_nonzero(on)) + n_straddle
            if n_trans == 0:
                return 0
            if n_straddle:
                flat = np.concatenate([lo[on], hi[straddle]])
            else:
                flat = lo[on]
        else:
            if np.any(seg_hi > seg_lo):
                segs = np.concatenate([seg_lo, seg_hi], axis=1)
                act2 = np.concatenate([act, act & (seg_hi > seg_lo)], axis=1)
            else:
                segs, act2 = seg_lo, act

            masked = np.where(act2, segs, _SENTINEL)
            masked.sort(axis=1)
            first_valid = masked[:, 0] < _SENTINEL
            if masked.shape[1] > 1:
                fresh = (masked[:, 1:] != masked[:, :-1]) & (
                    masked[:, 1:] < _SENTINEL
                )
                per_warp = first_valid.astype(np.int64) + fresh.sum(axis=1)
            else:
                per_warp = first_valid.astype(np.int64)
            n_trans = int(per_warp.sum())
            if n_trans == 0:
                return 0

            flat = masked[masked < _SENTINEL]

        self._touch(flat, n_trans, step)
        return n_trans

    def segment_access(self, segments: np.ndarray, step: int) -> int:
        """Account an access whose transactions are its distinct segments.

        ``segments`` is the 1-D int64 segment index of every active lane
        (sorted in place).  The caller guarantees that no lane straddles
        a segment and that no two access groups share a segment, so one
        transaction per distinct segment is exactly what
        :meth:`warp_access` would count.  Returns that count.
        """
        if len(segments) == 0:
            return 0
        return self._touch(segments, None, step)

    def _touch(
        self, flat: np.ndarray, n_trans: Optional[int], step: int
    ) -> int:
        """Charge ``n_trans`` transactions over the segments in ``flat``.

        ``flat`` holds one entry per (access group, segment) pair and is
        sorted in place; ``n_trans`` of ``None`` means one transaction per
        distinct segment.  Runs the L2 reuse-window filter, then updates
        the last-touch clock and the unique-segments EMA.
        """
        # L2: device-wide reuse-window filter over distinct segments.
        # Sort-based dedup instead of np.unique: same values, but it
        # skips unique's dispatch/reshape overhead, which at millions
        # of small per-step calls is a measurable slice of a launch.
        flat.sort()
        if len(flat) > 1:
            keep = np.empty(len(flat), dtype=bool)
            keep[0] = True
            np.not_equal(flat[1:], flat[:-1], out=keep[1:])
            unique_segs = flat[keep]
        else:
            unique_segs = flat
        if n_trans is None:
            n_trans = len(unique_segs)
        self.stats.global_transactions += n_trans
        self._ensure_capacity(int(unique_segs[-1]))
        if self.l2_enabled:
            window = self._l2_window()
            age = step - self._last_touch[unique_segs]
            hit_seg = age <= window
            # A warp re-touching a segment another warp touched in this
            # same step also hits (the transaction is still counted, it
            # is just serviced from L2): duplicates across warps.
            dup_trans = n_trans - len(unique_segs)
            hits = int(hit_seg.sum()) + dup_trans
        else:
            hits = 0
        self._last_touch[unique_segs] = step
        self._ema_unique_per_step = (
            0.98 * self._ema_unique_per_step + 0.02 * len(unique_segs)
        )

        self.stats.l2_hit_transactions += hits
        self.stats.dram_bytes += (n_trans - hits) * self.device.segment_bytes
        return n_trans
