"""Value Storage free-space tracking: allocation order and memory.

Allocation order is part of the determinism contract: every golden
file pins chunk ids, so the allocator must hand out exactly what the
reference model below does — a ``deque`` of every chunk id, popped
from the left and appended to on release — while its own memory grows
with the chunks in use, never with device capacity.
"""

from __future__ import annotations

import tracemalloc
from collections import deque
from typing import Optional

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.cluster.router import ClusterConfig, PrismCluster
from repro.core.value_storage import RECORD_HEADER, ValueStorage
from repro.storage.base import StorageError
from repro.storage.specs import FLASH_SSD_GEN4_SPEC
from repro.storage.ssd import SSDDevice

CHUNK = 4096
NUM_CHUNKS = 32
FULL = CHUNK - RECORD_HEADER  # value size that fills a chunk on its own
KiB = 1024
MiB = 1024**2

value_sizes = st.lists(
    st.integers(min_value=1, max_value=FULL), min_size=1, max_size=10
)


class _FlakySSD(SSDDevice):
    """An SSD whose writes raise once ``writes_left`` more have succeeded."""

    writes_left: Optional[int] = None

    def write_async(self, at: float, offset: int, data: bytes) -> float:
        if self.writes_left is not None:
            if self.writes_left == 0:
                raise StorageError(f"{self.name}: injected write failure")
            self.writes_left -= 1
        return super().write_async(at, offset, data)


def _small_storage(ssd_cls=SSDDevice) -> ValueStorage:
    ssd = ssd_cls(FLASH_SSD_GEN4_SPEC.with_capacity(NUM_CHUNKS * CHUNK))
    return ValueStorage(0, ssd, chunk_size=CHUNK)


class AllocationMachine(RuleBasedStateMachine):
    """``ValueStorage`` against a ``deque(range(n))`` reference free list."""

    @initialize()
    def setup(self):
        self.vs = _small_storage(_FlakySSD)
        self.free = deque(range(NUM_CHUNKS))
        self.live = {}  # chunk_id -> {offset: (hsit_idx, size)}
        self.next_idx = 0

    def _plan(self, sizes):
        """Placements the reference model predicts, the chunk ids they
        take, and whether the model runs out of chunks first."""
        placements, taken, head = [], [], 0
        for size in sizes:
            need = RECORD_HEADER + size
            if not taken or head + need > CHUNK:
                if len(taken) == len(self.free):
                    return placements, taken, True
                taken.append(self.free[len(taken)])
                head = 0
            placements.append((taken[-1], head, size))
            head += need
        return placements, taken, False

    def _records(self, sizes):
        first, self.next_idx = self.next_idx, self.next_idx + len(sizes)
        return [(first + i, bytes([i % 251]) * size) for i, size in enumerate(sizes)]

    def _add_live(self, placements, records):
        for (chunk_id, offset, size), (idx, _) in zip(placements, records):
            self.live.setdefault(chunk_id, {})[offset] = (idx, size)

    def _invalidate(self, chunk_id, offset):
        self.vs.invalidate(chunk_id, offset)
        slots = self.live[chunk_id]
        del slots[offset]
        if not slots:
            del self.live[chunk_id]
            self.free.append(chunk_id)

    @rule(sizes=value_sizes)
    def write(self, sizes):
        records = self._records(sizes)
        expected, taken, exhausted = self._plan(sizes)
        for _ in taken:
            self.free.popleft()
        if exhausted:
            with pytest.raises(StorageError, match="no free chunks"):
                self.vs.write_records(0.0, records)
            # Running out raises before any IO is issued: the chunks
            # taken earlier in the call stay in use with their records.
            self._add_live(expected, records)
        else:
            placements, _ = self.vs.write_records(0.0, records)
            assert placements == expected
            self._add_live(placements, records)

    @rule(sizes=value_sizes, fail_at=st.integers(min_value=0, max_value=9))
    def failing_write(self, sizes, fail_at):
        _, taken, exhausted = self._plan(sizes)
        if exhausted:
            return
        self.vs.ssd.writes_left = fail_at % len(taken)
        try:
            with pytest.raises(StorageError, match="injected"):
                self.vs.write_records(0.0, self._records(sizes))
        finally:
            self.vs.ssd.writes_left = None
        # Rollback releases every chunk of the call, in allocation order.
        for _ in taken:
            self.free.popleft()
        self.free.extend(taken)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def invalidate_record(self, data):
        chunk_id = data.draw(st.sampled_from(sorted(self.live)))
        offset = data.draw(st.sampled_from(sorted(self.live[chunk_id])))
        self._invalidate(chunk_id, offset)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def invalidate_chunk(self, data):
        chunk_id = data.draw(st.sampled_from(sorted(self.live)))
        for offset in sorted(self.live[chunk_id]):
            self._invalidate(chunk_id, offset)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def rebuild(self, data):
        keep = data.draw(st.sets(st.sampled_from(sorted(self.live))))
        self.live = {c: self.live[c] for c in keep}
        self.vs.rebuild_from(
            {(c, o): rec for c, slots in self.live.items() for o, rec in slots.items()}
        )
        self.free = deque(c for c in range(NUM_CHUNKS) if c not in self.live)

    @invariant()
    def free_space_matches_model(self):
        assert self.vs.free_chunks == len(self.free)
        assert self.vs.used_chunks == len(self.live) == NUM_CHUNKS - len(self.free)


TestAllocationOrder = AllocationMachine.TestCase
TestAllocationOrder.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)


def test_recovered_chunk_released_early_comes_back_once_from_fifo():
    vs = _small_storage()
    placements, _ = vs.write_records(0.0, [(i, b"v" * FULL) for i in range(8)])
    assert [c for c, _, _ in placements] == list(range(8))
    vs.rebuild_from({(c, o): (c, s) for c, o, s in placements if c in (2, 5)})
    c, o, _ = placements[5]
    vs.invalidate(c, o)  # released before the bump pointer reaches 5
    assert vs.free_chunks == NUM_CHUNKS - 1
    refill, _ = vs.write_records(
        0.0, [(i, b"w" * FULL) for i in range(NUM_CHUNKS - 1)]
    )
    fresh = [c for c in range(NUM_CHUNKS) if c not in (2, 5)]
    assert [c for c, _, _ in refill] == fresh + [5]
    assert vs.free_chunks == 0
    with pytest.raises(StorageError, match="no free chunks"):
        vs.write_records(0.0, [(99, b"x")])


def _traced_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_default_cluster_build_memory_is_capacity_independent():
    # Four shards of default 1 TB SSDs: a capacity-sized free list
    # would trace hundreds of MiB here.
    peak = _traced_bytes(
        lambda: PrismCluster(ClusterConfig(num_shards=4, replication_factor=2))
    )
    assert peak < 4 * MiB


def test_rebuild_from_memory_is_capacity_independent():
    vs = ValueStorage(0, SSDDevice())  # default 1 TB SSD
    assert vs.num_chunks > 2_000_000
    placements, _ = vs.write_records(
        0.0, [(i, b"v" * (300 * KiB)) for i in range(3)]
    )
    live = {(c, o): (i, s) for i, (c, o, s) in enumerate(placements)}
    assert len({c for c, _ in live}) == 3
    assert _traced_bytes(lambda: vs.rebuild_from(live)) < 64 * KiB
    assert vs.used_chunks == 3
    assert vs.free_chunks == vs.num_chunks - 3
