"""Rope-stack storage tests: LIFO semantics and layout-aware traffic."""

import numpy as np
import pytest

from repro.gpusim.device import small_test_device
from repro.gpusim.memory import DeviceAllocator, GlobalMemory
from repro.gpusim.stack import RopeStackLayout, StackOverflowError, StackStorage
from repro.gpusim.stats import KernelStats


@pytest.fixture
def device():
    return small_test_device(warp_size=4)


def make_stack(device, n_stacks=8, layout=RopeStackLayout.INTERLEAVED_GLOBAL,
               lanes=4, channels=None, max_depth=64, account=True):
    stats = KernelStats()
    alloc = DeviceAllocator(device)
    mem = GlobalMemory(device, alloc, stats)
    st = StackStorage(
        n_stacks=n_stacks,
        channels=channels or {"node": (np.int64, 1)},
        layout=layout,
        device=device,
        allocator=None if layout is RopeStackLayout.SHARED else alloc,
        memory=mem,
        stats=stats,
        lanes_per_access=lanes,
        max_depth=max_depth,
        initial_depth=2,
        account=account,
    )
    return st, stats


def all_on(n):
    return np.ones(n, dtype=bool)


class TestLifoSemantics:
    def test_push_pop_roundtrip(self, device):
        st, _ = make_stack(device)
        st.push(all_on(8), 1, node=np.arange(8))
        out = st.pop(all_on(8), 2)
        np.testing.assert_array_equal(out["node"], np.arange(8))
        assert not st.any_nonempty()

    def test_lifo_order(self, device):
        st, _ = make_stack(device)
        st.push(all_on(8), 1, node=np.full(8, 10))
        st.push(all_on(8), 2, node=np.full(8, 20))
        assert st.pop(all_on(8), 3)["node"][0] == 20
        assert st.pop(all_on(8), 4)["node"][0] == 10

    def test_partial_masks(self, device):
        st, _ = make_stack(device)
        mask = np.array([True, False] * 4)
        st.push(mask, 1, node=np.arange(8))
        np.testing.assert_array_equal(st.nonempty(), mask)
        out = st.pop(st.nonempty(), 2)
        np.testing.assert_array_equal(out["node"][mask], np.arange(8)[mask])

    def test_pop_skips_a_full_inactive_stack(self, device):
        # initial_depth=2: two pushes fill every stack to capacity
        st, _ = make_stack(device)
        st.push(all_on(8), 1, node=np.full(8, 10))
        st.push(all_on(8), 2, node=np.arange(8))
        mask = np.array([True, False] * 4)
        out = st.pop(mask, 3)
        np.testing.assert_array_equal(out["node"][mask], np.arange(8)[mask])
        np.testing.assert_array_equal(st.sp, np.where(mask, 1, 2))

    def test_pop_empty_raises(self, device):
        st, _ = make_stack(device)
        with pytest.raises(IndexError, match="empty"):
            st.pop(all_on(8), 1)

    def test_multiple_channels(self, device):
        st, _ = make_stack(
            device,
            channels={"node": (np.int64, 1), "mask": (np.uint64, 1),
                      "arg.dsq": (np.float64, 1)},
        )
        st.push(all_on(8), 1, node=np.arange(8), mask=np.full(8, 7, np.uint64),
                **{"arg.dsq": np.full(8, 2.5)})
        out = st.pop(all_on(8), 2)
        assert out["mask"][3] == 7
        assert out["arg.dsq"][3] == 2.5

    def test_push_requires_all_channels(self, device):
        st, _ = make_stack(
            device, channels={"node": (np.int64, 1), "mask": (np.uint64, 1)}
        )
        with pytest.raises(KeyError, match="push channels"):
            st.push(all_on(8), 1, node=np.arange(8))

    def test_growth_beyond_initial_depth(self, device):
        st, _ = make_stack(device, max_depth=64)
        for d in range(40):
            st.push(all_on(8), d, node=np.full(8, d))
        for d in range(39, -1, -1):
            assert st.pop(all_on(8), 100 + d)["node"][0] == d

    def test_overflow_cap(self, device):
        st, _ = make_stack(device, max_depth=4)
        for d in range(4):
            st.push(all_on(8), d, node=np.full(8, d))
        with pytest.raises(StackOverflowError):
            st.push(all_on(8), 9, node=np.zeros(8, np.int64))

    def test_high_water_tracked(self, device):
        st, _ = make_stack(device)
        for d in range(5):
            st.push(all_on(8), d, node=np.full(8, d))
        st.pop(all_on(8), 9)
        assert st.high_water == 5


class TestTrafficAccounting:
    def test_interleaved_synced_pushes_coalesce(self, device):
        """All stacks at the same depth: adjacent entries are contiguous
        (8 bytes x 4 lanes = 32 bytes -> 1 segment per warp group)."""
        st, stats = make_stack(device, layout=RopeStackLayout.INTERLEAVED_GLOBAL)
        st.push(all_on(8), 1, node=np.arange(8))
        assert stats.stack_ops == 8
        assert stats.global_transactions == 2  # two 4-lane groups

    def test_contiguous_layout_scatters(self, device):
        st, stats = make_stack(device, layout=RopeStackLayout.CONTIGUOUS_GLOBAL)
        st.push(all_on(8), 1, node=np.arange(8))
        # per-stack contiguous: each lane's entry is max_depth*8 apart.
        assert stats.global_transactions == 8

    def test_shared_layout_counts_shared_accesses(self, device):
        st, stats = make_stack(device, layout=RopeStackLayout.SHARED, lanes=1)
        st.push(all_on(8), 1, node=np.arange(8))
        assert stats.global_transactions == 0
        assert stats.shared_accesses == 8
        assert st.shared_bytes_per_group == st.entry_bytes * 1  # depth 1

    def test_shared_bytes_zero_for_global(self, device):
        st, _ = make_stack(device)
        assert st.shared_bytes_per_group == 0

    def test_account_false_is_silent(self, device):
        st, stats = make_stack(device, account=False)
        st.push(all_on(8), 1, node=np.arange(8))
        st.pop(all_on(8), 2)
        assert stats.global_transactions == 0
        assert stats.stack_ops == 0

    def test_desynced_interleaved_scatters(self, device):
        """Stacks at different depths hit different rows -> more
        transactions than the synced case."""
        st, stats = make_stack(device)
        half = np.array([True] * 4 + [False] * 4)
        st.push(half, 1, node=np.arange(8))  # first 4 stacks to depth 1
        base = stats.global_transactions
        st.push(all_on(8), 2, node=np.arange(8))  # depths now differ
        assert stats.global_transactions - base >= 2


class TestConstruction:
    def test_lanes_must_divide(self, device):
        with pytest.raises(ValueError, match="multiple"):
            make_stack(device, n_stacks=6, lanes=4)

    def test_global_layout_needs_allocator(self, device):
        stats = KernelStats()
        with pytest.raises(ValueError, match="allocator"):
            StackStorage(
                n_stacks=4,
                channels={"node": (np.int64, 1)},
                layout=RopeStackLayout.INTERLEAVED_GLOBAL,
                device=device,
                allocator=None,
                memory=None,
                stats=stats,
                lanes_per_access=4,
            )
