"""The Prism key-value store (§4–§5).

Wires the five components together over simulated devices:

* writes persist to the per-thread PWB on NVM, then the HSIT forward
  pointer flips (the linearization point), making the critical path a
  few hundred nanoseconds of NVM work;
* background reclamation drains PWBs into log-structured Value Storage
  chunks on SSD; greedy GC keeps free chunks available;
* reads resolve PWB → SVC → Value Storage, with SSD misses combined
  across threads into io_uring batches, and fetched values admitted to
  the scan-aware DRAM cache.

A note on the simulation: background work (reclamation, GC, cache
maintenance) executes synchronously in *code* the moment it is
triggered, but its effects are timestamped on background virtual
threads — foreground latency only feels them through device-bandwidth
contention and PWB-full stalls, matching the paper's "off the critical
path" design.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cache.read_cache import ReadCache
from repro.core import pointers as ptr
from repro.core.config import PrismConfig
from repro.core.containment import resolve_partial_publish
from repro.core.epoch import EpochManager
from repro.core.hsit import ENTRY_BYTES, HSIT
from repro.core.pwb import PersistentWriteBuffer, PWBFullError
from repro.core.svc import ScanAwareValueCache
from repro.core.tcq import ThreadCombiner
from repro.core.value_storage import ValueStorage
from repro.faults.errors import (
    CorruptionError,
    DeviceError,
    NoHealthyStorageError,
    ReadDegradedError,
)
from repro.faults.injector import FaultInjector
from repro.faults.retry import RetryExecutor
from repro.obs.metrics import EventLog, MetricsRegistry, NULL_REGISTRY
from repro.sim.clock import VirtualClock
from repro.sim.vthread import VThread
from repro.storage.base import StorageError
from repro.storage.crash import CrashPoint
from repro.storage.dram import DRAMDevice
from repro.storage.iouring import IORequest
from repro.storage.nvm import NVMDevice
from repro.storage.ssd import SSDDevice
from repro.index.pactree import PACTree
from repro.tiering import TierManager


class _WholeStoreCrash:
    """Adapter letting a CrashPoint power-fail an entire store."""

    def __init__(self, store: "Prism") -> None:
        self.store = store

    def power_failure(self) -> None:
        self.store.crash()


class Prism:
    """A key-value store for heterogeneous storage devices."""

    def __init__(
        self,
        config: Optional[PrismConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        clock: Optional[VirtualClock] = None,
    ) -> None:
        self.config = config or PrismConfig()
        cfg = self.config
        # A caller-supplied clock lets several instances share one
        # virtual timeline (cluster shards); standalone stores keep a
        # private clock, exactly as before.
        self.clock = clock if clock is not None else VirtualClock()
        # Per-op phase tracing goes through this registry.  The no-op
        # default keeps the hooks zero-cost; the benchmark driver swaps
        # in a per-run registry when the store was built with
        # ``enable_metrics``.
        if metrics is not None:
            self.metrics = metrics
        elif cfg.enable_metrics:
            self.metrics = MetricsRegistry()
        else:
            self.metrics = NULL_REGISTRY

        # --- devices ---------------------------------------------------
        self.nvm = NVMDevice(cfg.nvm_spec)
        self.dram = DRAMDevice(cfg.dram_spec)
        self.ssds: List[SSDDevice] = [
            SSDDevice(cfg.ssd_spec, name=f"ssd{i}") for i in range(cfg.num_ssds)
        ]
        # Cold QLC pool (ISSUE 9): extra Value Storages on cheap
        # high-capacity devices.  Empty when tiering is off, so every
        # loop below degenerates to the fast-only layout.
        self.cold_ssds: List[SSDDevice] = []
        if cfg.enable_tiering:
            self.cold_ssds = [
                SSDDevice(cfg.cold_ssd_spec, name=f"cssd{i}")
                for i in range(cfg.num_cold_ssds)
            ]
        # Chunk mirroring (ISSUE 3): one dedicated mirror SSD per Value
        # Storage — a different device, so chunk addresses never collide
        # and a primary death leaves every record recoverable.  Mirrors
        # align with storage order (fast first, then cold), so vs_id
        # indexes both lists.
        self.mirror_ssds: List[SSDDevice] = []
        if cfg.mirror_chunks:
            self.mirror_ssds = [
                SSDDevice(cfg.ssd_spec, name=f"ssd{i}m")
                for i in range(cfg.num_ssds)
            ] + [
                SSDDevice(cfg.cold_ssd_spec, name=f"cssd{i}m")
                for i in range(len(self.cold_ssds))
            ]

        # --- components --------------------------------------------------
        self.epoch = EpochManager()
        self.hsit = HSIT(self.nvm, cfg.hsit_capacity)
        self.index = PACTree(self.nvm, leaf_capacity=cfg.index_leaf_capacity)
        self.pwbs: List[PersistentWriteBuffer] = [
            PersistentWriteBuffer(
                self.nvm, i, cfg.pwb_capacity, checksums=cfg.enable_checksums
            )
            for i in range(cfg.num_threads)
        ]
        self.storages: List[ValueStorage] = [
            ValueStorage(
                i,
                ssd,
                cfg.chunk_size,
                cfg.queue_depth,
                checksums=cfg.enable_checksums,
                mirror=self.mirror_ssds[i] if self.mirror_ssds else None,
            )
            for i, ssd in enumerate(self.ssds + self.cold_ssds)
        ]
        self.combiners: List[ThreadCombiner] = [
            ThreadCombiner(
                vs.ring,
                mode=cfg.read_batching,
                combine_window=cfg.combine_window,
                timeout_window=cfg.timeout_window,
            )
            for vs in self.storages
        ]
        self.svc = ScanAwareValueCache(
            self.dram,
            cfg.svc_capacity,
            self.hsit,
            self.epoch,
            scan_aware=cfg.svc_scan_aware,
            page_mode=cfg.svc_page_mode,
        )
        # DRAM read-cache tier (ISSUE 6): consulted by get() before the
        # index.  None when disabled — the read path then costs one
        # attribute load and a None check, and runs are bit-identical
        # to a build without the cache subsystem.
        self.read_cache: Optional[ReadCache] = None
        if cfg.enable_read_cache:
            self.read_cache = ReadCache(
                self.dram,
                cfg.read_cache_capacity,
                sketch_width=cfg.read_cache_sketch_width,
            )
        # Hot/cold tiered placement (ISSUE 9): None when disabled —
        # every branch below then costs one attribute load and a None
        # check, and runs are bit-identical to a build without the
        # tiering subsystem.
        self.tiering: Optional[TierManager] = None
        if cfg.enable_tiering:
            self.tiering = TierManager(cfg)

        # --- background threads ----------------------------------------
        self._bg_reclaim = VThread(-1, self.clock, name="bg-reclaim", background=True)
        self._bg_gc = VThread(-2, self.clock, name="bg-gc", background=True)
        self._bg_cache = VThread(-3, self.clock, name="bg-cache", background=True)
        self._bg_tier = VThread(-4, self.clock, name="bg-tier", background=True)
        self._default_thread = VThread(0, self.clock, name="caller")

        # --- stats -------------------------------------------------------
        self.bytes_put = 0
        self.puts = 0
        self.gets = 0
        self.deletes = 0
        self.scans = 0
        self.reclaims = 0
        # Structured GC/reclaim history (always on: both are rare, and
        # Figure 17 needs the events regardless of the metrics switch).
        self.events = EventLog("prism")
        self._ops = 0
        # Hot-path caches: _tick()/put() run once per op and two-hop
        # ``self.config.*`` chases show up in profiles.
        self._epoch_every = cfg.epoch_advance_every
        self._enable_pwb = cfg.enable_pwb
        self._pwb_watermark = cfg.pwb_watermark
        self._rr_storage = itertools.count()
        self._rr_cold = itertools.count()
        self._crashed = False
        # GC reentrancy guard: cross-tier relocation can trigger GC on
        # the destination, which could relocate back and re-enter GC on
        # a storage whose victim records are already mid-move.
        self._gc_active: set = set()

        # --- fault injection & retries ---------------------------------
        self.retry_exec = RetryExecutor(
            cfg.retry, injector=None, events=self.events, metrics=self.metrics
        )
        self.injector: Optional[FaultInjector] = None
        if cfg.faults is not None:
            self.injector = FaultInjector(
                cfg.faults, events=self.events, metrics=self.metrics
            )
            self.retry_exec.injector = self.injector
            self.nvm.attach_injector(self.injector)
            for ssd in self.ssds:
                ssd.attach_injector(self.injector)
            for ssd in self.cold_ssds:
                ssd.attach_injector(self.injector)
            for ssd in self.mirror_ssds:
                ssd.attach_injector(self.injector)
            # Failed flushes retry inside the device, covering every
            # persist point (PWB appends, HSIT publishes) at once.
            self.nvm.attach_retry(self.retry_exec)
            for combiner in self.combiners:
                combiner.retry = self.retry_exec

        # --- crash exploration -----------------------------------------
        # One store-wide crash point shared by every instrumented
        # component; unarmed it costs one no-op call per label.
        self.crash_point = CrashPoint(_WholeStoreCrash(self))
        self.hsit.crash_point = self.crash_point
        for pwb in self.pwbs:
            pwb.crash_point = self.crash_point
        for vs in self.storages:
            vs.crash_point = self.crash_point

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return "Prism"

    @property
    def gc_events(self) -> List[float]:
        """GC start times (compat shim over the structured event log)."""
        return [float(e["at"]) for e in self.events.of_kind("gc")]

    def _thread(self, thread: Optional[VThread]) -> VThread:
        return thread if thread is not None else self._default_thread

    def _check_key(self, key: bytes) -> None:
        if not isinstance(key, (bytes, bytearray)) or not key:
            raise TypeError(f"keys must be non-empty bytes, got {key!r}")
        if self._crashed:
            raise RuntimeError("store crashed; call recover() first")

    def _pwb_for(self, thread: VThread) -> PersistentWriteBuffer:
        return self.pwbs[thread.tid % len(self.pwbs)]

    def _vs_dead(self, vs: ValueStorage) -> bool:
        return self.injector is not None and self.injector.is_dead(vs.ssd.name)

    def _healthy_storages(self) -> List[ValueStorage]:
        """Value Storages whose device still works (degraded mode §ISSUE).

        With no injector every storage is healthy and this is the plain
        list — zero overhead on the fault-free path.
        """
        if self.injector is None:
            return self.storages
        healthy = [vs for vs in self.storages if not self.injector.is_dead(vs.ssd.name)]
        if not healthy:
            raise NoHealthyStorageError("every Value Storage device is dead")
        return healthy

    def _retrying_write(
        self, vs: ValueStorage, at: float, records: List[Tuple[int, bytes]]
    ):
        """write_records with the store's retry policy applied.

        Safe to retry wholesale: on error write_records releases every
        chunk it allocated, so a repeat attempt starts clean.
        """
        if self.injector is None:
            return vs.write_records(at, records)
        return self.retry_exec.run_at(
            lambda t: vs.write_records(t, records),
            at,
            device=vs.ssd.name,
            op="vs_write",
        )

    def _placement_storages(self) -> List[ValueStorage]:
        """Storages eligible for new-data placement.

        Temperature policy: new data lands on the fast tier only
        (reclaim demotes its cold share explicitly); the spread
        baseline and a tiering-off store use every healthy storage.
        Falls back to the full healthy set when the whole fast tier is
        dead — degraded, but writable beats read-only.
        """
        tier = self.tiering
        if tier is None or not tier.temperature_policy:
            return self._healthy_storages()
        fast = self.storages[: tier.num_fast]
        if self.injector is not None:
            fast = [
                vs for vs in fast if not self.injector.is_dead(vs.ssd.name)
            ]
            if not fast:
                return self._healthy_storages()
        return fast

    def _pick_storage(self, at: float) -> ValueStorage:
        """Prefer an idle healthy Value Storage; else least loaded (§5.2)."""
        candidates = self._placement_storages()
        start = next(self._rr_storage)
        n = len(candidates)
        for i in range(n):
            vs = candidates[(start + i) % n]
            if vs.ring.idle_at(at):
                return vs
        return min(candidates, key=lambda s: s.ring.inflight_at(at))

    def _pick_cold_storage(self, at: float) -> Optional[ValueStorage]:
        """Healthy cold Value Storage with free space: rotating-start
        idle scan, else least loaded.  Background reclaimers all run at
        quiet timestamps where every ring reports zero in-flight, so a
        bare ``min`` would tie-break onto the first device forever and
        saturate it while its siblings idle."""
        tier = self.tiering
        cold = self.storages[tier.num_fast :]
        if self.injector is not None:
            cold = [
                vs for vs in cold if not self.injector.is_dead(vs.ssd.name)
            ]
        cold = [vs for vs in cold if vs.free_chunks > 0]
        if not cold:
            return None
        start = next(self._rr_cold)
        n = len(cold)
        for i in range(n):
            vs = cold[(start + i) % n]
            if vs.ring.idle_at(at):
                return vs
        return min(cold, key=lambda s: s.ring.inflight_at(at))

    def _promotion_target(self, at: float) -> Optional[ValueStorage]:
        """A healthy fast Value Storage with promotion headroom.

        None when every fast storage is dead or below the headroom
        floor — promoting into a full fast tier would just thrash
        against the next demotion round.
        """
        tier = self.tiering
        fast = self.storages[: tier.num_fast]
        if self.injector is not None:
            fast = [
                vs for vs in fast if not self.injector.is_dead(vs.ssd.name)
            ]
        fast = [vs for vs in fast if vs.free_fraction() > tier.fast_headroom]
        if not fast:
            return None
        return max(fast, key=lambda s: s.free_chunks)

    @staticmethod
    def _batch_fits(vs: ValueStorage, records) -> bool:
        """Would ``vs.write_records`` find enough free chunks for this
        batch?  Mirrors its greedy first-fit packing exactly."""
        chunks, room = 0, 0
        for _idx, value in records:
            need = vs.record_bytes(len(value))
            if need > room:
                chunks += 1
                room = vs.chunk_size
            room -= need
        return chunks <= vs.free_chunks

    def _fast_fit_storage(self, records, at: float):
        """Least-loaded healthy fast storage that can host ``records``,
        or None when the whole fast tier is out of room."""
        fits = [
            vs
            for vs in self._placement_storages()
            if self._batch_fits(vs, records)
        ]
        if not fits:
            return None
        return min(fits, key=lambda s: s.ring.inflight_at(at))

    def _fast_tier_pressure(self) -> bool:
        """Is the fast tier close enough to its GC threshold that
        reclaim should stop honoring recency protection?  Placing
        borderline records cold now beats GC demoting them moments
        later (one write instead of two)."""
        fast = self.storages[: self.tiering.num_fast]
        free = sum(vs.free_chunks for vs in fast)
        total = sum(vs.num_chunks for vs in fast)
        return free / total < max(0.25, 2 * self.config.gc_free_threshold)

    def _tick(self) -> None:
        if self._crashed:
            # A simulated power failure fired mid-operation; the unwind
            # must not touch (or advance epochs over) post-crash state.
            return
        self._ops += 1
        if self._ops % self._epoch_every == 0:
            self.epoch.try_advance()
        # pending_work() inlined: when used <= capacity the backlog is
        # just len(_pending), so the disjunction below is equivalent.
        svc = self.svc
        if svc.used > svc.capacity or len(svc._pending) > 256:
            self._run_cache_maintenance()
        tier = self.tiering
        if tier is not None and tier.has_pending():
            self._drain_promotions()

    def _run_cache_maintenance(self) -> None:
        if self._bg_cache.now < self.clock.now:
            self._bg_cache.now = self.clock.now
        self.svc.process_background(self._bg_cache, self.storages)

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def put(self, key: bytes, value: bytes, thread: Optional[VThread] = None) -> None:
        """Insert or update; durable when this returns."""
        self._check_key(key)
        if not isinstance(value, (bytes, bytearray)) or not value:
            raise TypeError(f"values must be non-empty bytes, got {type(value)}")
        thread = self._thread(thread)
        m = self.metrics
        self.epoch.enter(thread.tid)
        is_new = False
        inserted = False
        idx = None
        try:
            # Phase attribution is gated on ``m.enabled`` so the obs-off
            # path costs one attribute load per site — no null-instrument
            # calls, no f-strings, no per-op allocation.
            enabled = m.enabled
            t0 = thread.now
            idx = self.index.lookup(key, thread)
            if enabled:
                m.phase("put", "index_lookup", thread.now - t0)
            is_new = idx is None
            cp = self.crash_point
            if is_new:
                idx = self.hsit.allocate(thread)
                if cp.active:
                    cp.maybe_crash("put.allocated")
            vlen = len(value)
            if self._enable_pwb:
                pwb = self.pwbs[thread.tid % len(self.pwbs)]
                t0 = thread.now
                # Fast path: the record fits without applying a pending
                # release (would_fit inlined; ceil-to-8 == record_bytes).
                # Deferring poll() is safe — the tail of put() always
                # polls before the reclaim-watermark check, and release
                # application never touches virtual time.
                need = (pwb.header_size + vlen + 7) & ~7
                capacity = pwb.capacity
                head = pwb.head
                pos = head % capacity
                start = head + capacity - pos if pos + need > capacity else head
                if (start + need) - pwb.tail > capacity:
                    self._ensure_pwb_space(pwb, vlen, thread)
                if enabled:
                    m.phase("put", "pwb_space_wait", thread.now - t0)
                t0 = thread.now
                offset = pwb.append(idx, value, thread)
                if enabled:
                    m.phase("put", "pwb_append", thread.now - t0)
                word = ptr.encode_pwb(pwb.pwb_id, offset)
            else:
                t0 = thread.now
                vs = self._pick_storage(thread.now)
                chunk_id, off = self._append_sync_retrying(vs, thread, idx, value)
                if enabled:
                    m.phase("put", "vs_append", thread.now - t0)
                word = ptr.encode_vs(vs.vs_id, chunk_id, off)
                self._maybe_gc(vs, thread.now)
            if cp.active:
                cp.maybe_crash("put.appended")
            t0 = thread.now
            old_word = self.hsit.publish_location_word(idx, word, thread)
            self._supersede_word(idx, old_word, thread)
            if is_new:
                self.index.insert(key, idx, thread)
                inserted = True
            if enabled:
                m.phase("put", "publish", thread.now - t0)
            if cp.active:
                cp.maybe_crash("put.done")
            tier = self.tiering
            if tier is not None:
                tier.tracker.touch(idx)
            self.bytes_put += vlen
            self.puts += 1
            if self._enable_pwb:
                # poll() and utilization() inlined (once per put).
                pending = pwb.pending_release
                if pending is not None and thread.now >= pending[1]:
                    pwb.pending_release = None
                    pwb.release_through(pending[0])
                if (
                    (pwb.head - pwb.tail) / pwb.capacity >= self._pwb_watermark
                    and pwb.pending_release is None
                ):
                    self._reclaim(pwb, thread.now)
        except DeviceError:
            # The put failed after allocating a fresh HSIT entry but
            # before the key reached the index: the entry would leak
            # until the next recovery pass.  Return it now — the value
            # record (if persisted) becomes ill-coupled garbage.
            if is_new and idx is not None and not inserted:
                try:
                    self.hsit.free(idx, thread)
                except DeviceError:
                    pass  # NVM itself is failing; recovery will reclaim
            raise
        finally:
            self.epoch.exit(thread.tid)
            self._tick()

    def _append_sync_retrying(
        self, vs: ValueStorage, thread: VThread, idx: int, value: bytes
    ) -> Tuple[int, int]:
        """append_record_sync with retry (no-PWB ablation path)."""
        if self.injector is None:
            return vs.append_record_sync(thread, idx, value)
        return self.retry_exec.run(
            lambda: vs.append_record_sync(thread, idx, value),
            thread=thread,
            device=vs.ssd.name,
            op="vs_append",
        )

    def _supersede(
        self, idx: int, old: ptr.Location, thread: Optional[VThread]
    ) -> None:
        """Invalidate whatever the old forward pointer referenced."""
        if old.in_vs:
            self.storages[old.vs_id].invalidate(old.chunk_id, old.vs_offset)
        entry_id = self.hsit.read_svc(idx, thread)
        if entry_id is not None:
            self.hsit.clear_svc(idx, thread)
            self.svc.invalidate(entry_id, thread)
        if self.read_cache is not None:
            self.read_cache.invalidate_idx(idx)

    def _supersede_word(
        self, idx: int, old_word: int, thread: Optional[VThread]
    ) -> None:
        """:meth:`_supersede` on a raw location word (write hot path —
        extracts VS fields with bit ops instead of decoding)."""
        if old_word & ptr.MEDIUM_MASK == ptr.MEDIUM_VS_BITS:
            self.storages[(old_word >> ptr.VS_ID_SHIFT) & ptr.VS_ID_MASK].invalidate(
                (old_word >> ptr.VS_CHUNK_SHIFT) & ptr.VS_CHUNK_MASK,
                old_word & ptr.VS_OFFSET_MASK,
            )
        hsit = self.hsit
        entry_id = hsit.read_svc(idx, thread)
        if entry_id is not None:
            hsit.clear_svc(idx, thread)
            self.svc.invalidate(entry_id, thread)
        if self.read_cache is not None:
            self.read_cache.invalidate_idx(idx)

    def _ensure_pwb_space(
        self, pwb: PersistentWriteBuffer, value_len: int, thread: VThread
    ) -> None:
        pwb.poll(thread.now)
        if pwb.would_fit(value_len):
            return
        # Wait out an in-flight reclamation, if any.
        if pwb.pending_release is not None:
            thread.wait_until(pwb.reclaim_done_at)
            pwb.poll(thread.now)
            if pwb.would_fit(value_len):
                return
        # Emergency: reclaim synchronously in the critical path.
        self._reclaim(pwb, thread.now)
        thread.wait_until(pwb.reclaim_done_at)
        pwb.poll(thread.now)
        if not pwb.would_fit(value_len):
            raise PWBFullError(
                f"pwb {pwb.pwb_id} cannot host a {value_len}B value"
            )

    # ------------------------------------------------------------------
    # background reclamation (§5.2)
    # ------------------------------------------------------------------
    def _reclaim(self, pwb: PersistentWriteBuffer, at: float) -> None:
        bg = self._bg_reclaim
        if bg.now < at:
            bg.now = at
        if pwb.pending_release is not None:
            # An earlier reclamation is still in flight; chain after it.
            bg.wait_until(pwb.reclaim_done_at)
            pwb.poll(bg.now)
        start_at = bg.now
        upto = pwb.head
        region = upto - pwb.tail
        if region <= 0:
            return
        # Scan the region and check well-coupledness (two NVM reads per
        # value: the backward pointer and the HSIT forward pointer).
        live: List[Tuple[int, bytes]] = []
        count = 0
        # Well-coupled iff the (dirty-cleared) forward pointer encodes
        # exactly this buffer and offset — one word comparison per
        # record instead of a Location decode.
        hsit = self.hsit
        nvm_load_word = hsit.nvm.load_word
        hsit_base = hsit._base
        expect_base = ptr.MEDIUM_PWB_BITS | (pwb.pwb_id << ptr.PWB_ID_SHIFT)
        for offset, hsit_idx, value in pwb.records_between(pwb.tail, upto):
            count += 1
            word = nvm_load_word(None, hsit_base + hsit_idx * ENTRY_BYTES)
            if word & ~ptr.DIRTY_BIT == expect_base | offset:
                live.append((hsit_idx, value))
        self.nvm.charge_read(bg, min(region, pwb.capacity) + 16 * count)
        if live:
            # Reclaim is the first placement decision (ISSUE 9):
            # records that are neither frequent nor recent skip the
            # fast tier entirely and land cold — PrismDB's tiered
            # compaction, applied at PWB drain time.
            tier = self.tiering
            cold_batch: List[Tuple[int, bytes]] = []
            if tier is not None and tier.temperature_policy:
                tracker = tier.tracker
                pressure = self._fast_tier_pressure()
                hot_batch = []
                for hsit_idx, value in live:
                    if tracker.is_hot(hsit_idx, pressure):
                        hot_batch.append((hsit_idx, value))
                    else:
                        cold_batch.append((hsit_idx, value))
            else:
                hot_batch = live
            if cold_batch:
                cvs = self._pick_cold_storage(bg.now)
                if cvs is None:
                    # No cold capacity left: everything stays fast.
                    hot_batch = live
                else:
                    if not self._reclaim_batch(
                        pwb, cvs, cold_batch, bg, start_at, "tier.demote"
                    ):
                        return
                    tier.cold_reclaims += len(cold_batch)
                    self.metrics.counter("tier.cold_reclaims").inc(
                        len(cold_batch)
                    )
                    self._maybe_gc(cvs, bg.now)
            if hot_batch:
                try:
                    vs = self._pick_storage(bg.now)
                except NoHealthyStorageError:
                    self.events.emit(
                        start_at, "reclaim_failed", pwb_id=pwb.pwb_id,
                        phase="write",
                    )
                    self.metrics.counter("faults.reclaim_failures").inc()
                    return
                label = "reclaim"
                if (
                    tier is not None
                    and tier.temperature_policy
                    and not self._batch_fits(vs, hot_batch)
                ):
                    # Hard pressure: the fast tier cannot hold its own
                    # hot set.  Spill the batch cold rather than wedge
                    # the PWB; re-access promotes survivors back once
                    # GC frees fast chunks.
                    alt = self._fast_fit_storage(hot_batch, bg.now)
                    if alt is not None:
                        vs = alt
                    else:
                        cvs = self._pick_cold_storage(bg.now)
                        if cvs is not None:
                            vs, label = cvs, "tier.demote"
                if not self._reclaim_batch(
                    pwb, vs, hot_batch, bg, start_at, label
                ):
                    return
                if label == "tier.demote":
                    tier.spills += len(hot_batch)
                    self.metrics.counter("tier.spills").inc(len(hot_batch))
                self._maybe_gc(vs, bg.now)
        pwb.pending_release = (upto, bg.now)
        pwb.reclaim_done_at = bg.now
        self.reclaims += 1
        self.events.emit(
            start_at,
            "reclaim",
            pwb_id=pwb.pwb_id,
            region_bytes=region,
            scanned_records=count,
            live_records=len(live),
            live_bytes=sum(len(v) for _, v in live),
            duration=bg.now - start_at,
        )

    def _reclaim_batch(
        self,
        pwb: PersistentWriteBuffer,
        vs: ValueStorage,
        records: List[Tuple[int, bytes]],
        bg: VThread,
        start_at: float,
        label: str,
    ) -> bool:
        """Write one reclaim batch into ``vs`` and publish it.

        Returns False on failure, leaving the PWB window unreleased so
        the next trigger rescans it (records already published by an
        earlier batch are no longer well-coupled and drop out of that
        scan).  ``label`` names the crash points: "reclaim" for the
        fast tier — bit-identical to the pre-tiering path — and
        "tier.demote" for cold placement.
        """
        try:
            placements, done = self._retrying_write(vs, bg.now, records)
        except (StorageError, NoHealthyStorageError):
            # The write never stuck (write_records released its
            # chunks).  Leave the PWB untouched: records stay
            # readable in NVM and the next trigger retries, on a
            # healthier storage if one exists.
            self.events.emit(
                start_at, "reclaim_failed", pwb_id=pwb.pwb_id, phase="write"
            )
            self.metrics.counter("faults.reclaim_failures").inc()
            return False
        bg.wait_until(done)
        self.crash_point.maybe_crash(label + ".pre_publish")
        published = 0
        try:
            for (hsit_idx, _value), (chunk_id, offset, _size) in zip(
                records, placements
            ):
                self.hsit.publish_location_word(
                    hsit_idx, ptr.encode_vs(vs.vs_id, chunk_id, offset), bg
                )
                published += 1
        except DeviceError:
            # Containment: placements that never published would be
            # valid-but-unreachable; drop them.  Published entries
            # stand, but the PWB window must NOT be released while
            # any entry still points into it.
            resolve_partial_publish(
                self.hsit,
                vs,
                [
                    (hsit_idx, placement, None, 0, 0)
                    for (hsit_idx, _v), placement in zip(records, placements)
                ],
                published,
            )
            self.events.emit(
                start_at, "reclaim_failed", pwb_id=pwb.pwb_id, phase="publish"
            )
            self.metrics.counter("faults.reclaim_failures").inc()
            return False
        self.crash_point.maybe_crash(label + ".published")
        return True

    # ------------------------------------------------------------------
    # garbage collection in Value Storage (§5.2)
    # ------------------------------------------------------------------
    def _maybe_gc(self, vs: ValueStorage, at: float) -> None:
        if self._vs_dead(vs):
            return  # read-degraded storage: nothing to collect into
        if vs.free_fraction() >= self.config.gc_free_threshold:
            return
        if vs.vs_id in self._gc_active:
            return  # already collecting this storage further up the stack
        self._gc_active.add(vs.vs_id)
        try:
            self._gc(vs, at)
        finally:
            self._gc_active.discard(vs.vs_id)

    def _gc(self, vs: ValueStorage, at: float) -> None:
        bg = self._bg_gc
        if bg.now < at:
            bg.now = at
        start_at = bg.now
        free_before = vs.free_chunks
        victims = vs.gc_victims(self.config.gc_batch_chunks)
        moves: List[Tuple[int, bytes, int, int]] = []
        read_done = bg.now
        # Bound once: the slot loop runs per live record per victim.
        moves_append = moves.append
        live_records_of = vs.live_records_of
        read_record_raw = vs.read_record_raw
        try:
            for chunk_id in victims:
                for slot in live_records_of(chunk_id):
                    try:
                        _, value = read_record_raw(chunk_id, slot.offset)
                    except CorruptionError:
                        # A rotted record would poison the GC move; heal
                        # it from a repair source, or leave it in place
                        # (it stays valid; a later read surfaces the
                        # typed error and retries the repair).
                        self.metrics.counter("corruption.detected").inc()
                        from repro.repair import fetch_value

                        fetched = fetch_value(
                            self, slot.hsit_idx, vs.vs_id, chunk_id, slot.offset
                        )
                        if fetched is None:
                            self.events.emit(
                                bg.now,
                                "gc_skipped_corrupt",
                                vs_id=vs.vs_id,
                                chunk=chunk_id,
                                offset=slot.offset,
                            )
                            continue
                        value = fetched[0]
                    moves_append((slot.hsit_idx, value, chunk_id, slot.offset))
                read_done = max(
                    read_done,
                    vs.ssd.read_async(bg.now, chunk_id * vs.chunk_size, vs.chunk_size),
                )
        except DeviceError:
            # Nothing moved or invalidated yet: abort this GC round.
            self.events.emit(start_at, "gc_failed", vs_id=vs.vs_id, phase="read")
            self.metrics.counter("faults.gc_failures").inc()
            return
        bg.wait_until(read_done)
        tier = self.tiering
        if tier is not None and tier.temperature_policy and moves:
            kept = self._tiered_gc_partition(vs, moves, bg, start_at)
            if kept is None:
                # A cross-tier relocation failed mid-batch; containment
                # already restored consistency.  Abort this GC round —
                # every un-relocated record is still valid in place.
                self.events.emit(
                    start_at, "gc_failed", vs_id=vs.vs_id, phase="relocate"
                )
                self.metrics.counter("faults.gc_failures").inc()
                return
            moves = kept
        if not moves:
            self.events.emit(
                start_at,
                "gc",
                vs_id=vs.vs_id,
                victim_chunks=len(victims),
                moved_records=0,
                moved_bytes=0,
                chunks_freed=vs.free_chunks - free_before,
                duration=bg.now - start_at,
            )
            return
        try:
            placements, done = self._retrying_write(
                vs, bg.now, [(idx, value) for idx, value, _, _ in moves]
            )
        except StorageError:
            self.events.emit(start_at, "gc_failed", vs_id=vs.vs_id, phase="write")
            self.metrics.counter("faults.gc_failures").inc()
            return
        bg.wait_until(done)
        self.crash_point.maybe_crash("gc.pre_publish")
        published = 0
        rc = self.read_cache
        publish_word = self.hsit.publish_location_word
        encode_vs = ptr.encode_vs
        invalidate = vs.invalidate
        vs_id = vs.vs_id
        try:
            for (idx, value, old_chunk, old_off), (chunk_id, offset, _sz) in zip(
                moves, placements
            ):
                publish_word(idx, encode_vs(vs_id, chunk_id, offset), bg)
                published += 1
                invalidate(old_chunk, old_off)
                if rc is not None:
                    # GC freed the chunk the cached copy was coupled
                    # to; drop it with the relocation publish rather
                    # than risk serving from a reference into a
                    # reclaimed region.
                    rc.invalidate_idx(idx)
        except DeviceError:
            resolve_partial_publish(
                self.hsit,
                vs,
                [
                    (idx, placement, vs, old_chunk, old_off)
                    for (idx, _v, old_chunk, old_off), placement in zip(
                        moves, placements
                    )
                ],
                published,
            )
            self.events.emit(start_at, "gc_failed", vs_id=vs.vs_id, phase="publish")
            self.metrics.counter("faults.gc_failures").inc()
            return
        self.crash_point.maybe_crash("gc.published")
        vs.gc_runs += 1
        moved_bytes = sum(len(value) for _, value, _, _ in moves)
        vs.gc_moved_bytes += moved_bytes
        self.events.emit(
            start_at,
            "gc",
            vs_id=vs.vs_id,
            victim_chunks=len(victims),
            moved_records=len(moves),
            moved_bytes=moved_bytes,
            chunks_freed=vs.free_chunks - free_before,
            duration=bg.now - start_at,
        )

    # ------------------------------------------------------------------
    # tiered placement (ISSUE 9)
    # ------------------------------------------------------------------
    def _tiered_gc_partition(
        self,
        vs: ValueStorage,
        moves: List[Tuple[int, bytes, int, int]],
        bg: VThread,
        start_at: float,
    ) -> Optional[List[Tuple[int, bytes, int, int]]]:
        """Split GC survivors by temperature and relocate across tiers.

        Fast-tier GC demotes cold survivors to the cold pool (how
        aggressively scales with space pressure); cold-tier GC promotes
        rewarmed survivors back to fast.  Returns the moves that stay
        in ``vs`` for the normal local rewrite, or None when a
        relocation batch failed and the whole GC round must abort.
        """
        tier = self.tiering
        tracker = tier.tracker
        keep: List[Tuple[int, bytes, int, int]] = []
        batch: List[Tuple[int, bytes, int, int]] = []
        if not tier.is_cold_vs(vs.vs_id):
            # Demotion ladder: the emptier the storage, the more the
            # recency/frequency protections relax — at the bottom rung
            # everything movable leaves, or GC livelocks rewriting hot
            # data into a tier with no room for it.
            free_frac = vs.free_fraction()
            thr = self.config.gc_free_threshold
            pressure = self._fast_tier_pressure()
            for mv in moves:
                if free_frac < thr * 0.25:
                    hot = False
                elif free_frac < thr * 0.5:
                    hot = tracker.frequency(mv[0]) >= tracker.hot_threshold
                else:
                    hot = tracker.is_hot(mv[0], pressure)
                (keep if hot else batch).append(mv)
            if not batch:
                return moves
            dest = self._pick_cold_storage(bg.now)
            if dest is None:
                return moves  # cold pool full/dead: rewrite locally
            if not self._relocate_batch(vs, dest, batch, bg, "tier.demote"):
                return None
            nbytes = sum(len(v) for _, v, _, _ in batch)
            tier.demotions += len(batch)
            tier.demoted_bytes += nbytes
            self.metrics.counter("tier.demotions").inc(len(batch))
            self.events.emit(
                start_at,
                "tier_demote",
                src_vs=vs.vs_id,
                dest_vs=dest.vs_id,
                records=len(batch),
                bytes=nbytes,
            )
            self._maybe_gc(dest, bg.now)
            return keep
        # Cold-tier GC: survivors that warmed back up go fast again.
        for mv in moves:
            if tracker.should_promote(mv[0]):
                batch.append(mv)
            else:
                keep.append(mv)
        if not batch:
            return moves
        dest = self._promotion_target(bg.now)
        if dest is None:
            return moves  # no fast headroom: stay cold for now
        if not self._relocate_batch(vs, dest, batch, bg, "tier.promote"):
            return None
        nbytes = sum(len(v) for _, v, _, _ in batch)
        tier.promotions += len(batch)
        tier.promoted_bytes += nbytes
        self.metrics.counter("tier.promotions").inc(len(batch))
        self.events.emit(
            start_at,
            "tier_promote",
            trigger="gc",
            src_vs=vs.vs_id,
            dest_vs=dest.vs_id,
            records=len(batch),
            bytes=nbytes,
        )
        self._maybe_gc(dest, bg.now)
        return keep

    def _relocate_batch(
        self,
        src: ValueStorage,
        dest: ValueStorage,
        batch: List[Tuple[int, bytes, int, int]],
        bg: VThread,
        label: str,
    ) -> bool:
        """Move live records from ``src`` to ``dest`` (cross-tier GC).

        Entries are ``(hsit_idx, value, old_chunk, old_off)`` within
        ``src``.  Publish-then-invalidate per record, with the standard
        partial-publish containment on failure.  Returns False when the
        batch did not fully land: a failed write changed nothing, a
        partial publish was resolved by containment — either way the
        caller must abort its GC round rather than re-move entries
        whose old slots may already be invalid.
        """
        records = [(idx, value) for idx, value, _, _ in batch]
        try:
            placements, done = self._retrying_write(dest, bg.now, records)
        except (StorageError, NoHealthyStorageError):
            return False
        bg.wait_until(done)
        self.crash_point.maybe_crash(label + ".pre_publish")
        published = 0
        rc = self.read_cache
        try:
            for (idx, _value, old_chunk, old_off), (chunk_id, offset, _sz) in zip(
                batch, placements
            ):
                self.hsit.publish_location_word(
                    idx, ptr.encode_vs(dest.vs_id, chunk_id, offset), bg
                )
                published += 1
                src.invalidate(old_chunk, old_off)
                if rc is not None:
                    rc.invalidate_idx(idx)
        except DeviceError:
            resolve_partial_publish(
                self.hsit,
                dest,
                [
                    (idx, placement, src, old_chunk, old_off)
                    for (idx, _v, old_chunk, old_off), placement in zip(
                        batch, placements
                    )
                ],
                published,
            )
            return False
        self.crash_point.maybe_crash(label + ".published")
        return True

    def _drain_promotions(self) -> None:
        """Background promotion: republish warmed-up cold values fast.

        Runs on the tier VThread, so foreground requests only feel it
        through device contention.  Fresh-key protection: every queued
        entry carries the pointer word observed at read time; an entry
        whose word has changed since (client put, delete, or a GC
        relocation) is dropped — promotion never clobbers a newer
        value.  The drain runs synchronously in code, so nothing can
        intervene between this check and the publish below.
        """
        tier = self.tiering
        bg = self._bg_tier
        if bg.now < self.clock.now:
            bg.now = self.clock.now
        start_at = bg.now
        hsit = self.hsit
        fresh: List[Tuple[int, int, bytes]] = []
        for idx, expected, value in tier.take_pending():
            if ptr.clear_dirty(hsit.location_word(idx)) != expected:
                tier.promotions_stale += 1
                continue
            fresh.append((idx, expected, value))
        if not fresh:
            return
        dest = self._promotion_target(bg.now)
        if dest is None:
            return  # no fast headroom; the cold copies stay valid
        try:
            placements, done = self._retrying_write(
                dest, bg.now, [(idx, value) for idx, _e, value in fresh]
            )
        except (StorageError, NoHealthyStorageError):
            return
        bg.wait_until(done)
        self.crash_point.maybe_crash("tier.promote.pre_publish")
        olds = [ptr.decode(expected) for _i, expected, _v in fresh]
        published = 0
        rc = self.read_cache
        try:
            for (idx, _e, _value), old, (chunk_id, offset, _sz) in zip(
                fresh, olds, placements
            ):
                self.hsit.publish_location_word(
                    idx, ptr.encode_vs(dest.vs_id, chunk_id, offset), bg
                )
                published += 1
                self.storages[old.vs_id].invalidate(old.chunk_id, old.vs_offset)
                if rc is not None:
                    rc.invalidate_idx(idx)
        except DeviceError:
            resolve_partial_publish(
                self.hsit,
                dest,
                [
                    ((f[0]), placement, self.storages[old.vs_id],
                     old.chunk_id, old.vs_offset)
                    for f, old, placement in zip(fresh, olds, placements)
                ],
                published,
            )
            return
        self.crash_point.maybe_crash("tier.promote.published")
        nbytes = sum(len(value) for _i, _e, value in fresh)
        tier.promotions += len(fresh)
        tier.promoted_bytes += nbytes
        self.metrics.counter("tier.promotions").inc(len(fresh))
        self.events.emit(
            start_at,
            "tier_promote",
            trigger="read",
            dest_vs=dest.vs_id,
            records=len(fresh),
            bytes=nbytes,
        )
        self._maybe_gc(dest, bg.now)

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def get(self, key: bytes, thread: Optional[VThread] = None) -> Optional[bytes]:
        """Point lookup; returns None for missing keys."""
        self._check_key(key)
        thread = self._thread(thread)
        m = self.metrics
        self.epoch.enter(thread.tid)
        try:
            self.gets += 1
            # DRAM read-cache tier: a hit short-circuits the whole
            # index -> HSIT -> PWB/VS path at DRAM cost.  Coherent by
            # construction — every publish invalidates synchronously —
            # so a hit never returns superseded bytes.
            rc = self.read_cache
            if rc is not None:
                t0 = thread.now
                cached = rc.lookup(key, thread)
                if cached is not None:
                    if m.enabled:
                        m.phase("get", "cache_hit", thread.now - t0)
                        m.counter("read.cache_hits").inc()
                    return cached
                if m.enabled:
                    m.counter("read.cache_misses").inc()
            t0 = thread.now
            idx = self.index.lookup(key, thread)
            if m.enabled:
                m.phase("get", "index_lookup", thread.now - t0)
            if idx is None:
                return None
            value = self._read_value(idx, key, thread)
            if rc is not None and value is not None:
                t0 = thread.now
                rc.admit(key, idx, value, thread)
                if m.enabled:
                    m.phase("get", "cache_admit", thread.now - t0)
            return value
        finally:
            self.epoch.exit(thread.tid)
            self._tick()

    def _read_value(self, idx: int, key: bytes, thread: VThread) -> Optional[bytes]:
        m = self.metrics
        enabled = m.enabled
        tier = self.tiering
        if tier is not None:
            tier.tracker.touch(idx)
        loc = self.hsit.read_location(idx, thread)
        # Compare the medium field directly: the is_null/in_pwb
        # properties are descriptor calls and this runs on every read.
        medium = loc.medium
        if medium == ptr.MEDIUM_NULL:
            return None
        if medium == ptr.MEDIUM_PWB:
            t0 = thread.now
            _, value = self.pwbs[loc.pwb_id].read(loc.pwb_offset, thread)
            if enabled:
                m.phase("get", "pwb_read", thread.now - t0)
                m.counter("read.pwb_hits").inc()
            return value
        # Value Storage — try the DRAM cache first (Figure 2 ➍ over ➌).
        if self.config.enable_svc:
            entry_id = self.hsit.read_svc(idx, thread)
            if entry_id is not None:
                t0 = thread.now
                cached = self.svc.lookup(entry_id, thread)
                if cached is not None:
                    if enabled:
                        m.phase("get", "svc_hit", thread.now - t0)
                        m.counter("read.svc_hits").inc()
                    return cached
                if enabled:
                    m.phase("get", "svc_miss", thread.now - t0)
        if enabled:
            m.counter("read.svc_misses").inc()
        vs = self.storages[loc.vs_id]
        if self._vs_dead(vs):
            # The durable copy sits on a dead device.  With a repair
            # source configured the read re-materialises the record
            # onto healthy storage (read-repair); otherwise the key is
            # read-degraded, not silently missing.
            value = self._repair_read(
                idx, key, loc.vs_id, loc.chunk_id, loc.vs_offset, thread,
                dead_device=True,
            )
        else:
            req = vs.record_request(loc.chunk_id, loc.vs_offset)
            raw = self.combiners[loc.vs_id].read_one(thread, req, m)
            try:
                _, value = vs.parse_record(raw)
            except CorruptionError:
                m.counter("corruption.detected").inc()
                value = self._repair_read(
                    idx, key, loc.vs_id, loc.chunk_id, loc.vs_offset, thread
                )
        if tier is not None:
            if tier.is_cold_vs(loc.vs_id):
                tier.cold_reads += 1
                if tier.temperature_policy and tier.tracker.should_promote(idx):
                    # Queue the value for background promotion, tagged
                    # with the word we read it under (fresh-key guard).
                    tier.enqueue_promotion(
                        idx,
                        ptr.encode_vs(loc.vs_id, loc.chunk_id, loc.vs_offset),
                        value,
                    )
            else:
                tier.fast_reads += 1
        if self.config.enable_svc:
            t0 = thread.now
            self.svc.admit(idx, key, value, thread)
            if enabled:
                m.phase("get", "svc_admit", thread.now - t0)
        return value

    def _repair_read(
        self,
        idx: int,
        key: bytes,
        vs_id: int,
        chunk_id: int,
        offset: int,
        thread: VThread,
        dead_device: bool = False,
    ) -> bytes:
        """Heal one unreadable Value Storage record in the read path.

        Re-materialises the value from a repair source (mirror chunk,
        then an unreclaimed PWB copy), rewrites it through the normal
        publish path onto healthy storage, and returns it.  Raises
        :class:`UnrecoverableCorruptionError` when no intact copy
        exists — typed loss, never silently wrong bytes.  A dead device
        without a mirror keeps PR 2's :class:`ReadDegradedError`.
        """
        vs = self.storages[vs_id]
        if dead_device and vs.mirror is None:
            raise ReadDegradedError(vs.ssd.name, key)
        from repro.repair import read_repair

        return read_repair(self, idx, key, vs_id, chunk_id, offset, thread)

    # ------------------------------------------------------------------
    # scan (§4.4)
    # ------------------------------------------------------------------
    def scan(
        self, start: bytes, count: int, thread: Optional[VThread] = None
    ) -> List[Tuple[bytes, bytes]]:
        """Range scan: up to ``count`` pairs with key >= start."""
        self._check_key(start)
        thread = self._thread(thread)
        m = self.metrics
        self.epoch.enter(thread.tid)
        try:
            t0 = thread.now
            matches = self.index.scan(start, count, thread)
            if m.enabled:
                m.phase("scan", "index_scan", thread.now - t0)
            t0 = thread.now
            results: Dict[bytes, bytes] = {}
            misses: Dict[int, List[Tuple[int, int, int, bytes]]] = {}
            chain_entries: List[Tuple[bytes, int]] = []
            # Bound hot callables once: the loop body runs per matched
            # key and these attribute chains dominated its cost.
            read_location = self.hsit.read_location
            read_svc = self.hsit.read_svc
            enable_svc = self.config.enable_svc
            svc_lookup = self.svc.lookup if enable_svc else None
            pwbs = self.pwbs
            storages = self.storages
            misses_setdefault = misses.setdefault
            for key, idx in matches:
                loc = read_location(idx, thread)
                if loc.in_pwb:
                    _, value = pwbs[loc.pwb_id].read(loc.pwb_offset, thread)
                    results[key] = value
                    continue
                if loc.is_null:
                    continue
                if enable_svc:
                    entry_id = read_svc(idx, thread)
                    if entry_id is not None:
                        cached = svc_lookup(entry_id, thread)
                        if cached is not None:
                            results[key] = cached
                            chain_entries.append((key, entry_id))
                            continue
                if self._vs_dead(storages[loc.vs_id]):
                    value = self._repair_read(
                        idx, key, loc.vs_id, loc.chunk_id, loc.vs_offset,
                        thread, dead_device=True,
                    )
                    results[key] = value
                    if self.config.enable_svc:
                        entry_id = self.svc.admit(idx, key, value, thread)
                        chain_entries.append((key, entry_id))
                    continue
                misses_setdefault(loc.vs_id, []).append(
                    (loc.chunk_id, loc.vs_offset, idx, key)
                )
            # Every Value Storage's merged batch goes to its own ring
            # before the thread waits, so the devices serve them in
            # parallel virtual time and the scan pays the slowest one.
            plans = [
                (vs_id, self._plan_merged(vs_id, items))
                for vs_id, items in misses.items()
            ]
            if plans:
                t1 = submitted_at = done = thread.now
                for vs_id, (requests, _) in plans:
                    combiner = self.combiners[vs_id]
                    done = max(done, combiner.submit(thread, requests))
                    submitted_at = max(submitted_at, combiner.submitted_at)
                thread.wait_until(done)
                if m.enabled:
                    combiner.record_wait(m, t1, submitted_at, done)
            for vs_id, (requests, runs) in plans:
                for idx, key, value in self._parse_merged(
                    vs_id, requests, runs, thread
                ):
                    results[key] = value
                    if self.config.enable_svc:
                        entry_id = self.svc.admit(idx, key, value, thread)
                        chain_entries.append((key, entry_id))
            if self.config.enable_svc and self.config.svc_scan_aware:
                chain_entries.sort()
                self.svc.link_scan_chain([eid for _, eid in chain_entries])
            if m.enabled:
                m.phase("scan", "fetch", thread.now - t0)
            self.scans += 1
            return [(key, results[key]) for key, _ in matches if key in results]
        finally:
            self.epoch.exit(thread.tid)
            self._tick()

    def _plan_merged(
        self, vs_id: int, items: Sequence[Tuple[int, int, int, bytes]]
    ) -> Tuple[List[IORequest], List[list]]:
        """Merge adjacent records of one Value Storage into runs, one
        read request per run.

        Scan-aware reorganization places values of a range contiguously
        in a chunk; merging adjacent records into single IOs is where
        that locality pays off (fewer, larger SSD reads).  Each run is
        ``[chunk_id, first offset, end offset, items]``.
        """
        vs = self.storages[vs_id]
        header = vs.header_size
        slot_size = vs.slot_size
        runs: List[list] = []
        for item in sorted(items):
            chunk_id, offset = item[0], item[1]
            end = offset + header + slot_size(chunk_id, offset)
            if runs:
                run = runs[-1]
                if run[0] == chunk_id and run[2] == offset:
                    run[2] = end
                    run[3].append(item)
                    continue
            runs.append([chunk_id, offset, end, [item]])
        chunk_size = vs.chunk_size
        requests = [
            IORequest("read", chunk_id * chunk_size + first, end - first)
            for chunk_id, first, end, _ in runs
        ]
        return requests, runs

    def _parse_merged(
        self,
        vs_id: int,
        requests: Sequence[IORequest],
        runs: Sequence[list],
        thread: VThread,
    ) -> List[Tuple[int, bytes, bytes]]:
        """Split completed merged reads back into ``(idx, key, value)``,
        in plan order; a record failing its checksum is read-repaired."""
        vs = self.storages[vs_id]
        parse_record = vs.parse_record
        out: List[Tuple[int, bytes, bytes]] = []
        for req, (_, base, _, items) in zip(requests, runs):
            raw = req.result
            assert raw is not None
            for chunk_id, offset, idx, key in items:
                try:
                    _, value = parse_record(raw, at=offset - base)
                except CorruptionError:
                    self.metrics.counter("corruption.detected").inc()
                    value = self._repair_read(
                        idx, key, vs_id, chunk_id, offset, thread
                    )
                out.append((idx, key, value))
        return out

    # ------------------------------------------------------------------
    # delete
    # ------------------------------------------------------------------
    def delete(self, key: bytes, thread: Optional[VThread] = None) -> bool:
        """Remove a key. Returns True when it existed."""
        self._check_key(key)
        thread = self._thread(thread)
        m = self.metrics
        self.epoch.enter(thread.tid)
        try:
            t0 = thread.now
            idx = self.index.lookup(key, thread)
            if m.enabled:
                m.phase("delete", "index_lookup", thread.now - t0)
            if idx is None:
                return False
            self.crash_point.maybe_crash("delete.begin")
            t0 = thread.now
            self.index.delete(key, thread)
            old_word = self.hsit.publish_location_word(idx, 0, thread)
            self._supersede_word(idx, old_word, thread)
            if m.enabled:
                m.phase("delete", "publish", thread.now - t0)
            self.crash_point.maybe_crash("delete.published")
            # The HSIT entry rejoins the free list after two epochs (§5.4).
            self.epoch.retire(lambda i=idx: self.hsit.free(i))
            if self.tiering is not None:
                self.tiering.tracker.forget(idx)
            self.deletes += 1
            return True
        finally:
            self.epoch.exit(thread.tid)
            self._tick()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.index)

    def flush(self, thread: Optional[VThread] = None) -> None:
        """Drain PWBs into Value Storage and finish background work."""
        at = self.clock.now
        for pwb in self.pwbs:
            pwb.poll(float("inf"))
            if pwb.used > 0:
                self._reclaim(pwb, at)
                pwb.poll(float("inf"))
        self._run_cache_maintenance()
        if self.tiering is not None:
            while self.tiering.has_pending():
                self._drain_promotions()
        for _ in range(3):
            self.epoch.try_advance()

    def close(self) -> None:
        self.flush()
        self.epoch.drain()

    def crash(self) -> None:
        """Simulate power failure across all devices."""
        self.nvm.crash()
        self.index.crash()
        self.dram.crash()
        self.svc.crash()
        if self.read_cache is not None:
            self.read_cache.crash()
        for ssd in self.ssds:
            ssd.crash()
        for ssd in self.cold_ssds:
            ssd.crash()
        for ssd in self.mirror_ssds:
            ssd.crash()
        if self.tiering is not None:
            self.tiering.crash()
        self._crashed = True

    def recover(self, recovery_threads: int = 4) -> "RecoveryReport":
        from repro.core.recovery import recover

        report = recover(self, recovery_threads=recovery_threads)
        self._crashed = False
        return report

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def ssd_bytes_written(self) -> int:
        # Cold-tier writes count too: WAF must charge demotion traffic.
        return sum(ssd.bytes_written for ssd in self.ssds) + sum(
            ssd.bytes_written for ssd in self.cold_ssds
        )

    def waf(self) -> float:
        """SSD-level write amplification (SSD writes / application writes)."""
        if self.bytes_put == 0:
            return 0.0
        return self.ssd_bytes_written() / self.bytes_put

    def nvm_bytes_used(self) -> int:
        return self.nvm.used

    def stats(self) -> Dict[str, float]:
        stats = {
            "puts": self.puts,
            "gets": self.gets,
            "scans": self.scans,
            "deletes": self.deletes,
            "reclaims": self.reclaims,
            "gc_runs": sum(vs.gc_runs for vs in self.storages),
            "svc_hits": self.svc.hits,
            "svc_admissions": self.svc.admissions,
            "svc_evictions": self.svc.evictions,
            "scan_writebacks": self.svc.scan_writebacks,
            "waf": self.waf(),
            "ssd_bytes_written": self.ssd_bytes_written(),
            "nvm_bytes_used": self.nvm_bytes_used(),
            "hsit_entries": self.hsit.allocations - self.hsit.frees,
        }
        # Only present when the tier is on, so cache-off metrics JSONs
        # stay byte-identical to builds without the cache subsystem.
        if self.read_cache is not None:
            stats.update(self.read_cache.stats())
        # Same contract for tiering: the tier.* surface exists only
        # when the cold pool does.
        if self.tiering is not None:
            stats.update(self.tiering.stats(self))
        return stats
