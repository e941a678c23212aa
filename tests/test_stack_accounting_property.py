"""The interleaved rope stack's structural accounting path equals the
general coalescing pass, call by call.

A :class:`StackStorage` whose layout meets the structural precondition
charges each push and pop as its distinct segments
(``GlobalMemory.segment_access``).  Every accounting call is replayed on
a twin :class:`GlobalMemory` through the general ``warp_access`` pass
with the same entry addresses; the stats, the last-touch clock and the
unique-segments EMA must agree after every call, across random pushes,
pops, active masks and whole-group compaction.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim.device import TESLA_C2070, small_test_device
from repro.gpusim.memory import DeviceAllocator, GlobalMemory
from repro.gpusim.stack import RopeStackLayout, StackStorage, StructuralSegments
from repro.gpusim.stats import KernelStats

#: channel sets giving 8-, 16- and 24-byte entries
CHANNELS = {
    8: {"node": (np.int64, 1)},
    16: {"node": (np.int64, 1), "arg.a": (np.float64, 1)},
    24: {
        "node": (np.int64, 1),
        "arg.a": (np.float64, 1),
        "arg.b": (np.float64, 1),
    },
}


def _device(ws):
    return TESLA_C2070 if ws == 32 else small_test_device(warp_size=ws)


def _stack(device, n_stacks, entry_bytes, layout, stats, memory, alloc):
    return StackStorage(
        n_stacks=n_stacks,
        channels=CHANNELS[entry_bytes],
        layout=layout,
        device=device,
        allocator=alloc,
        memory=memory,
        stats=stats,
        lanes_per_access=device.warp_size,
        max_depth=64,
        initial_depth=2,
    )


def _twin_memories(device):
    """Two memories over identical heaps, each with the stack region
    allocated after the memory (as in a launch)."""
    out = []
    for _ in range(2):
        stats = KernelStats()
        alloc = DeviceAllocator(device)
        alloc.alloc("tree.hot", 24, 100)
        out.append((stats, alloc, GlobalMemory(device, alloc, stats)))
    return out


def _assert_same(mem_a, mem_b, stats_a, stats_b):
    assert stats_a.as_dict() == stats_b.as_dict()
    np.testing.assert_array_equal(mem_a._last_touch, mem_b._last_touch)
    assert mem_a._ema_unique_per_step == mem_b._ema_unique_per_step


@st.composite
def programs(draw):
    ws = draw(st.sampled_from([4, 32]))
    entry_bytes = draw(st.sampled_from([8, 16, 24]))
    groups = draw(st.integers(1, 6))
    n_ops = draw(st.integers(1, 24))
    ops = []
    for _ in range(n_ops):
        kind = draw(st.sampled_from(["push", "push", "pop", "compact"]))
        ops.append((kind, draw(st.integers(0, 2**32 - 1))))
    return ws, entry_bytes, groups, ops


@given(programs())
@settings(max_examples=60, deadline=None)
def test_structural_path_matches_warp_access(program):
    ws, entry_bytes, groups, ops = program
    device = _device(ws)
    (stats_a, alloc_a, mem_a), (stats_b, alloc_b, mem_b) = _twin_memories(device)
    n = groups * ws
    stack = _stack(
        device, n, entry_bytes, RopeStackLayout.INTERLEAVED_GLOBAL,
        stats_a, mem_a, alloc_a,
    )
    twin_region = alloc_b.alloc("rope_stack", entry_bytes, n * 64)
    assert twin_region.base == stack.region.base
    structural = stack.segment_shift is not None
    assert structural == (entry_bytes != 24 and ws * entry_bytes % 128 == 0)

    real_account = stack._account
    calls = []

    def account_and_replay(active, depths, step):
        real_account(active, depths, step)
        n_active = int(np.count_nonzero(active))
        if n_active:
            stats_b.stack_ops += n_active
            rows = stack.n_stacks // ws
            mem_b.warp_access(
                stack._entry_addresses(stack.stack_ids, depths).reshape(rows, ws),
                entry_bytes,
                active.reshape(rows, ws),
                step,
            )
        calls.append(n_active)
        _assert_same(mem_a, mem_b, stats_a, stats_b)

    stack._account = account_and_replay
    for step, (kind, seed) in enumerate(ops, start=1):
        rng = np.random.default_rng(seed)
        rows = stack.n_stacks
        if kind == "push":
            active = rng.random(rows) < rng.random()
            if int(stack.sp.max(initial=0)) >= 60:
                active[:] = False
            values = {
                c: rng.integers(0, 1000, rows).astype(dt)
                for c, (dt, _) in CHANNELS[entry_bytes].items()
            }
            stack.push(active, step, **values)
        elif kind == "pop":
            active = (rng.random(rows) < rng.random()) & stack.nonempty()
            stack.pop(active, step)
        else:
            n_groups = rows // ws
            keep = np.flatnonzero(rng.random(n_groups) < 0.7)
            if len(keep):
                stack.compact(keep)
    _assert_same(mem_a, mem_b, stats_a, stats_b)
    if structural and any(calls):
        assert stats_a.global_transactions > 0


@pytest.mark.parametrize(
    "ws,entry_bytes,layout,expected",
    [
        (32, 8, RopeStackLayout.INTERLEAVED_GLOBAL, True),
        (32, 16, RopeStackLayout.INTERLEAVED_GLOBAL, True),
        (4, 32, RopeStackLayout.INTERLEAVED_GLOBAL, True),
        (32, 24, RopeStackLayout.INTERLEAVED_GLOBAL, False),
        (4, 8, RopeStackLayout.INTERLEAVED_GLOBAL, False),
        (32, 8, RopeStackLayout.CONTIGUOUS_GLOBAL, False),
    ],
)
def test_guard_picks_generic_path_exactly_when_precondition_fails(
    ws, entry_bytes, layout, expected
):
    device = _device(ws)
    seg = device.segment_bytes
    stats = KernelStats()
    alloc = DeviceAllocator(device)
    mem = GlobalMemory(device, alloc, stats)
    channels = (
        {"node": (np.int64, 1), "pad": (np.int8, 24)}
        if entry_bytes == 32
        else CHANNELS[entry_bytes]
    )
    stack = StackStorage(
        n_stacks=2 * ws, channels=channels, layout=layout, device=device,
        allocator=alloc, memory=mem, stats=stats, lanes_per_access=ws,
    )
    assert stack.entry_bytes == entry_bytes
    assert StructuralSegments.can_be_applied(
        layout, stack.region.base, entry_bytes, ws, seg
    ) is expected
    assert (stack.segment_shift is not None) is expected
    if expected:
        assert seg >> stack.segment_shift == entry_bytes
        assert stack.base_entry * entry_bytes == stack.region.base


def test_guard_rejects_unaligned_base_and_shared_layout():
    seg = TESLA_C2070.segment_bytes
    interleaved = RopeStackLayout.INTERLEAVED_GLOBAL
    assert StructuralSegments.can_be_applied(interleaved, 4 * seg, 8, 32, seg)
    assert not StructuralSegments.can_be_applied(
        interleaved, 4 * seg + 8, 8, 32, seg
    )
    assert not StructuralSegments.can_be_applied(
        RopeStackLayout.SHARED, 4 * seg, 8, 32, seg
    )
    # One lane per access group (lockstep warp stacks): a row of one
    # small entry is not a whole segment.
    assert not StructuralSegments.can_be_applied(interleaved, 4 * seg, 16, 1, seg)
