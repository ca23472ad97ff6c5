"""Value Storage: log-structured chunked store on one SSD (§5.1–5.2).

Space is divided into fixed-size chunks (512 KB by default).  A chunk
holds records of ``[backward pointer (8B)][size (4B)][value]`` — the
per-value metadata that makes recovery possible without logs.  With
``checksums`` enabled the header grows a CRC32 over header + payload
(``[backptr (8B)][size (4B)][crc32 (4B)][value]``), verified on every
read path; a mismatch raises a typed
:class:`~repro.faults.errors.CorruptionError`.  Each
chunk keeps a validity bitmap *in DRAM* (rebuildable from the HSIT, so
it needs no persistence), tracking which records are up to date.

Writes happen only in chunk granularity, asynchronously, through the
io_uring ring — large sequential writes are what flash likes.
Allocating a free chunk is the *only* critical section of the write
path (§5.2), modelled by a short virtual lock.

Garbage collection (§5.2) is greedy: when free chunks run low, the
chunks with the least live data are merged into fresh chunks; validity
bitmaps — not index traversals — decide liveness.
"""

from __future__ import annotations

import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.faults.errors import CorruptionError
from repro.sim.resources import VLock
from repro.sim.vthread import VThread
from repro.storage.base import StorageError
from repro.storage.crash import NULL_CRASH_POINT
from repro.storage.iouring import IORequest, IOUring
from repro.storage.ssd import SSDDevice

RECORD_HEADER = 12  # backward pointer (8B) + value size (4B)
# Checksummed framing adds a CRC32 over header + payload (ISSUE 3).
CHECKED_RECORD_HEADER = 16  # backward pointer (8B) + size (4B) + CRC32 (4B)
DEFAULT_CHUNK_SIZE = 512 * 1024


def record_crc(header12: bytes, value: bytes) -> int:
    """CRC32 over the logical header (backptr + size) and the payload."""
    return zlib.crc32(value, zlib.crc32(header12))


@dataclass
class _Slot:
    """DRAM bookkeeping for one record in a chunk."""

    hsit_idx: int
    offset: int
    size: int  # value bytes (not counting the header)
    valid: bool = True


@dataclass
class _ChunkInfo:
    """DRAM-side chunk state, including the validity bitmap."""

    slots: Dict[int, _Slot] = field(default_factory=dict)  # offset -> slot
    live_records: int = 0
    live_bytes: int = 0
    write_head: int = 0  # next free byte within the chunk


class ValueStorage:
    """One log-structured value store per SSD."""

    # Crash-exploration hook; the owning store swaps in its own point.
    crash_point = NULL_CRASH_POINT

    def __init__(
        self,
        vs_id: int,
        ssd: SSDDevice,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        queue_depth: int = 64,
        checksums: bool = False,
        mirror: Optional[SSDDevice] = None,
    ) -> None:
        if chunk_size < 4096:
            raise ValueError(f"chunk size too small: {chunk_size}")
        if mirror is not None and mirror.capacity < ssd.capacity:
            raise ValueError(
                f"mirror {mirror.name} smaller than primary {ssd.name}"
            )
        self.vs_id = vs_id
        self.ssd = ssd
        self.chunk_size = chunk_size
        self.checksums = checksums
        self.header_size = CHECKED_RECORD_HEADER if checksums else RECORD_HEADER
        # Optional chunk-level redundancy: every chunk write is
        # duplicated onto a different SSD; the repair layer reads the
        # mirror copy when the primary record fails its checksum or the
        # primary device dies.  Off (None) by default.
        self.mirror = mirror
        self.mirror_write_failures = 0
        self.ring = IOUring(ssd, queue_depth)
        self.num_chunks = ssd.capacity // chunk_size
        # Free space costs O(used chunks), not O(device): ids at or past
        # the bump pointer that are not in ``_skip`` (chunks recovered
        # live by ``rebuild_from``) are free, plus every id in the
        # ``_recycled`` FIFO.  Allocation order is fixed — fresh ids in
        # ascending order, then released ids in release order — and the
        # determinism goldens depend on it.
        self._next_fresh = 0
        self._skip: Set[int] = set()
        self._recycled: Deque[int] = deque()
        self._chunks: Dict[int, _ChunkInfo] = {}
        self._alloc_lock = VLock(name=f"vs{vs_id}-chunk-alloc")
        self._open_sync: Dict[int, int] = {}  # tid -> open chunk (ablation)
        self.chunk_writes = 0
        self.gc_runs = 0
        self.gc_moved_bytes = 0

    # ------------------------------------------------------------------
    # space
    # ------------------------------------------------------------------
    @property
    def free_chunks(self) -> int:
        return (
            self.num_chunks - self._next_fresh - len(self._skip)
            + len(self._recycled)
        )

    @property
    def used_chunks(self) -> int:
        return len(self._chunks)

    def free_fraction(self) -> float:
        return self.free_chunks / self.num_chunks

    def used_bytes(self) -> int:
        return self.used_chunks * self.chunk_size

    def _allocate_chunk(self, thread: Optional[VThread]) -> int:
        """The only critical section of the write path (§5.2)."""
        if thread is not None:
            self._alloc_lock.acquire(thread)
        try:
            if thread is not None:
                thread.spend(50e-9)
            while self._next_fresh in self._skip:
                self._skip.remove(self._next_fresh)
                self._next_fresh += 1
            if self._next_fresh < self.num_chunks:
                chunk_id = self._next_fresh
                self._next_fresh += 1
            elif self._recycled:
                chunk_id = self._recycled.popleft()
            else:
                raise StorageError(f"vs{self.vs_id}: no free chunks")
            self._chunks[chunk_id] = _ChunkInfo()
            return chunk_id
        finally:
            if thread is not None:
                self._alloc_lock.release(thread)

    def record_bytes(self, value_len: int) -> int:
        return self.header_size + value_len

    def chunk_payload_capacity(self) -> int:
        return self.chunk_size

    def _frame(self, hsit_idx: int, value: bytes) -> bytes:
        """Build one on-media record: header (+ optional CRC) + value."""
        header = hsit_idx.to_bytes(8, "little") + len(value).to_bytes(4, "little")
        if not self.checksums:
            return header + value
        return header + record_crc(header, value).to_bytes(4, "little") + value

    def _mirror_write(self, at: float, offset: int, data: bytes) -> float:
        """Best-effort duplicate of a chunk write onto the mirror SSD.

        A failing mirror never blocks the primary write path — the
        record merely loses its redundant copy (counted).
        """
        assert self.mirror is not None
        try:
            return self.mirror.write_async(at, offset, data)
        except StorageError:
            self.mirror_write_failures += 1
            return at

    # ------------------------------------------------------------------
    # writes (always whole chunks, always async)
    # ------------------------------------------------------------------
    def write_records(
        self,
        at: float,
        records: Sequence[Tuple[int, bytes]],
        thread: Optional[VThread] = None,
    ) -> Tuple[List[Tuple[int, int, int]], float]:
        """Write (hsit_idx, value) records, packed into chunks.

        Starts at virtual time ``at`` (or the thread's clock) and
        returns ``(placements, done_time)`` where each placement is
        ``(chunk_id, offset, size)`` in record order.  The caller — a
        background reclaimer or the GC — updates HSIT forward pointers
        only after ``done_time``.
        """
        if thread is not None:
            at = max(at, thread.now)
        placements: List[Tuple[int, int, int]] = []
        done = at
        pending: List[Tuple[int, bytearray, List[Tuple[int, int, int]]]] = []
        chunk_id: Optional[int] = None
        buffer = bytearray()
        chunk_placements: List[Tuple[int, int, int]] = []

        def _seal() -> None:
            nonlocal chunk_id, buffer, chunk_placements
            if chunk_id is None:
                return
            pending.append((chunk_id, buffer, chunk_placements))
            chunk_id, buffer, chunk_placements = None, bytearray(), []

        for hsit_idx, value in records:
            need = self.record_bytes(len(value))
            if need > self.chunk_size:
                raise StorageError(
                    f"value of {len(value)}B exceeds chunk size {self.chunk_size}"
                )
            if chunk_id is None or len(buffer) + need > self.chunk_size:
                _seal()
                chunk_id = self._allocate_chunk(thread)
            offset = len(buffer)
            buffer += self._frame(hsit_idx, value)
            info = self._chunks[chunk_id]
            info.slots[offset] = _Slot(hsit_idx, offset, len(value))
            info.live_records += 1
            info.live_bytes += len(value)
            info.write_head = offset + need
            placement = (chunk_id, offset, len(value))
            chunk_placements.append(placement)
            placements.append(placement)
        _seal()

        self.crash_point.maybe_crash("vs.write.pre")
        try:
            for cid, buf, _ in pending:
                req = IORequest("write", cid * self.chunk_size, len(buf), data=bytes(buf))
                self.ring.submit(at, [req])
                done = max(done, req.completion)
                self.chunk_writes += 1
                if self.mirror is not None:
                    done = max(
                        done,
                        self._mirror_write(at, cid * self.chunk_size, bytes(buf)),
                    )
        except StorageError:
            # Failure atomicity: no HSIT entry will ever point at these
            # chunks (the caller aborts), so leaving their slots marked
            # valid would fabricate valid-but-unreachable records.
            # Release every chunk this call allocated — data already
            # durable in earlier chunks of the batch is orphaned log
            # garbage, which is exactly what reusing the chunk erases.
            for cid, _, _ in pending:
                if cid in self._chunks:
                    self._release_chunk(cid)
            raise
        self.crash_point.maybe_crash("vs.write.done")
        return placements, done

    def append_record_sync(
        self, thread: Optional[VThread], hsit_idx: int, value: bytes
    ) -> Tuple[int, int]:
        """Durably write ONE record, blocking the caller (no-PWB ablation).

        Models a store without a write buffer: every write pays SSD
        latency in the critical path and the IO is padded to 4 KB
        pages.  Returns (chunk_id, offset).
        """
        need = self.record_bytes(len(value))
        tid = thread.tid if thread is not None else 0
        chunk_id = self._open_sync.get(tid)
        info = self._chunks.get(chunk_id) if chunk_id is not None else None
        if info is None or info.write_head + need > self.chunk_size:
            chunk_id = self._allocate_chunk(thread)
            info = self._chunks[chunk_id]
            self._open_sync[tid] = chunk_id
        offset = info.write_head
        record = self._frame(hsit_idx, value)
        io_size = min(-(-need // 4096) * 4096, self.chunk_size - offset)
        req = IORequest(
            "write",
            chunk_id * self.chunk_size + offset,
            io_size,
            data=record + b"\0" * (io_size - need),
        )
        at = thread.now if thread is not None else 0.0
        done = self.ring.submit_one(at, req)
        if self.mirror is not None:
            self._mirror_write(at, chunk_id * self.chunk_size + offset, record)
        if thread is not None:
            thread.wait_until(done)
        info.slots[offset] = _Slot(hsit_idx, offset, len(value))
        info.live_records += 1
        info.live_bytes += len(value)
        info.write_head = offset + need
        return chunk_id, offset

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def record_request(self, chunk_id: int, offset: int) -> IORequest:
        """Build the read request covering one record.

        The record size comes from the DRAM-side slot metadata (the
        same structure that backs the validity bitmap).
        """
        slot = self._slot(chunk_id, offset)
        return IORequest(
            "read",
            chunk_id * self.chunk_size + offset,
            self.header_size + slot.size,
            context=(chunk_id, offset),
        )

    def slot_size(self, chunk_id: int, offset: int) -> int:
        return self._slot(chunk_id, offset).size

    def parse_record(
        self, raw: bytes, where: str = "", device: str = "", at: int = 0
    ) -> Tuple[int, bytes]:
        """Split the raw record starting at ``raw[at]`` into (backward
        pointer, value).  ``at`` lets a merged multi-record read be
        parsed in place, without copying its tail per record.

        With checksums enabled the stored CRC32 is verified over header
        + payload; a mismatch raises :class:`CorruptionError` naming
        ``device`` (defaults to the primary SSD) and ``where``.
        """
        hsit_idx = int.from_bytes(raw[at : at + 8], "little")
        size = int.from_bytes(raw[at + 8 : at + 12], "little")
        if not self.checksums:
            return hsit_idx, raw[at + 12 : at + 12 + size]
        stored = int.from_bytes(raw[at + 12 : at + 16], "little")
        value = raw[at + 16 : at + 16 + size]
        if len(value) != size or record_crc(raw[at : at + 12], value) != stored:
            raise CorruptionError(
                device or self.ssd.name, where or f"vs{self.vs_id} record"
            )
        return hsit_idx, value

    def read_record_raw(self, chunk_id: int, offset: int) -> Tuple[int, bytes]:
        """Untimed record read (recovery, GC, tests); checksum-verified."""
        slot = self._slot(chunk_id, offset)
        raw = self.ssd.read_raw(
            chunk_id * self.chunk_size + offset, self.header_size + slot.size
        )
        return self.parse_record(
            raw, where=f"vs{self.vs_id} chunk {chunk_id} off {offset}"
        )

    def read_record_mirror(self, chunk_id: int, offset: int) -> Tuple[int, bytes]:
        """Untimed record read from the mirror copy; checksum-verified."""
        if self.mirror is None:
            raise StorageError(f"vs{self.vs_id}: no mirror configured")
        slot = self._slot(chunk_id, offset)
        raw = self.mirror.read_raw(
            chunk_id * self.chunk_size + offset, self.header_size + slot.size
        )
        return self.parse_record(
            raw,
            where=f"mirror of vs{self.vs_id} chunk {chunk_id} off {offset}",
            device=self.mirror.name,
        )

    # ------------------------------------------------------------------
    # validity bitmap
    # ------------------------------------------------------------------
    def _slot(self, chunk_id: int, offset: int) -> _Slot:
        info = self._chunks.get(chunk_id)
        if info is None:
            raise StorageError(f"vs{self.vs_id}: chunk {chunk_id} not in use")
        slot = info.slots.get(offset)
        if slot is None:
            raise StorageError(
                f"vs{self.vs_id}: no record at chunk {chunk_id} offset {offset}"
            )
        return slot

    def is_valid(self, chunk_id: int, offset: int) -> bool:
        return self._slot(chunk_id, offset).valid

    def invalidate(self, chunk_id: int, offset: int) -> None:
        """Clear a record's validity bit (its value moved or died)."""
        info = self._chunks.get(chunk_id)
        if info is None:
            return  # chunk already reclaimed
        slot = info.slots.get(offset)
        if slot is None or not slot.valid:
            return
        slot.valid = False
        info.live_records -= 1
        info.live_bytes -= slot.size
        if info.live_records == 0:
            self._release_chunk(chunk_id)

    def _release_chunk(self, chunk_id: int) -> None:
        # A recovered chunk the bump pointer has not passed stays in
        # ``_skip``, so it comes back only from the recycled FIFO.
        del self._chunks[chunk_id]
        self._recycled.append(chunk_id)

    # ------------------------------------------------------------------
    # garbage collection (greedy, §5.2)
    # ------------------------------------------------------------------
    def gc_victims(self, count: int) -> List[int]:
        """Chunks with the least live data, worst first."""
        sealed = [
            (info.live_bytes, cid)
            for cid, info in self._chunks.items()
        ]
        sealed.sort()
        return [cid for _, cid in sealed[:count]]

    def live_records_of(self, chunk_id: int) -> List[_Slot]:
        info = self._chunks.get(chunk_id)
        if info is None:
            return []
        return [slot for slot in info.slots.values() if slot.valid]

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def rebuild_from(self, live: Dict[Tuple[int, int], Tuple[int, int]]) -> None:
        """Reconstruct chunk state and validity bitmaps after a crash.

        ``live`` maps (chunk_id, offset) -> (hsit_idx, size) for every
        record the HSIT proved reachable.  Everything else is garbage:
        every chunk without a live record is free again, handed out in
        ascending id order before any chunk released afterwards.  Costs
        O(live records), independent of device capacity.
        """
        self._chunks.clear()
        by_chunk: Dict[int, List[Tuple[int, int, int]]] = {}
        for (chunk_id, offset), (hsit_idx, size) in live.items():
            by_chunk.setdefault(chunk_id, []).append((offset, hsit_idx, size))
        self._next_fresh = 0
        self._skip = set(by_chunk)
        self._recycled = deque()
        for chunk_id, slots in by_chunk.items():
            info = _ChunkInfo()
            for offset, hsit_idx, size in slots:
                info.slots[offset] = _Slot(hsit_idx, offset, size)
                info.live_records += 1
                info.live_bytes += size
                info.write_head = max(info.write_head, offset + self.header_size + size)
            self._chunks[chunk_id] = info
