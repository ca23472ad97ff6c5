"""The benchmark's workloads: set-up, warm-up, measured window, oracle.

Everything here drives ``repro`` through its public surface
(``build_prism``/``Prism``, ``preload``, ``run_workload``,
``PrismCluster``, ``run_cluster_workload``).  The program receives only
the generated operations; the seed never reaches it as a setting.

A *round* builds a fresh store, preloads it, warms it up, runs one
measured window and then reads every key back.  A run is ``ROUNDS``
rounds, each with its own seed derived from the run's seed, so the
simulated samples of all rounds pool into one distribution.
"""

from __future__ import annotations

import bisect
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro import Prism, PrismConfig, VThread
from repro.bench.runner import run_workload
from repro.bench.stores import MB, build_prism
from repro.cluster.router import ClusterConfig, PrismCluster
from repro.cluster.runner import run_cluster_workload
from repro.workloads.generator import make_key
from repro.workloads.ycsb import WORKLOADS, WorkloadSpec

KEYS = 20_000
VALUE_SIZE = 1024
DATASET = KEYS * VALUE_SIZE
CLIENTS = 4  # virtual clients of a single store
ROUNDS = 3
# Pooled samples must leave at least ten beyond p99.9.
MIN_POOLED_OPS = 10_000

SHARDS = 4
REPLICATION = 2
CLIENTS_PER_SHARD = 4

# Update-only burst used by the scan workload's warm-up (uniform keys,
# so every client's write buffer fills at the same pace).
_UPDATE_BURST = WorkloadSpec(
    name="U-uniform", update=1.0, distribution="uniform",
    description="Update-only burst (warm-up)",
)
B_UNIFORM = WorkloadSpec(
    name="B-uniform", read=0.95, update=0.05, distribution="uniform",
    description="95% read, 5% update, uniform keys",
)


class Oracle:
    """Shadow map of the last acknowledged value of every key.

    Installs checking wrappers as instance attributes over the store's
    ``put``/``get``/``scan``.  The runners in ``repro`` look these up on
    the instance per call, so every operation of preload, warm-up and
    window passes through the checks.  Operations run to completion one
    at a time on the host, so the last acknowledged value is the only
    correct answer to a read.
    """

    def __init__(self, store) -> None:
        self.store = store
        self.shadow: Dict[bytes, bytes] = {}
        self._sorted: Optional[List[bytes]] = None
        self.checked = 0
        self.failed = 0
        self.errors: List[str] = []
        put, get, scan = store.put, store.get, store.scan

        def checked_put(key, value, thread=None):
            put(key, value, thread)
            if key not in self.shadow:
                self._sorted = None
            self.shadow[key] = value

        def checked_get(key, thread=None):
            value = get(key, thread)
            self.checked += 1
            if value != self.shadow.get(key):
                self._fail(f"get {key!r}: wrong value")
            return value

        def checked_scan(start, count, thread=None):
            pairs = scan(start, count, thread)
            self.checked += 1
            if self._sorted is None:
                self._sorted = sorted(self.shadow)
            keys = self._sorted
            lo = bisect.bisect_left(keys, start)
            if [k for k, _ in pairs] != keys[lo : lo + count]:
                self._fail(f"scan {start!r}+{count}: wrong or unordered keys")
            elif any(value != self.shadow[key] for key, value in pairs):
                self._fail(f"scan {start!r}+{count}: wrong value")
            return pairs

        store.put = checked_put
        store.get = checked_get
        store.scan = checked_scan

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)

    def live_bytes(self) -> int:
        return sum(len(v) for v in self.shadow.values())

    def read_back(self) -> None:
        """Read every key once more, after the window, on a fresh thread."""
        thread = VThread(0, self.store.clock, name="read-back")
        thread.now = self.store.clock.now
        get = self.store.get
        for key in sorted(self.shadow):
            get(key, thread)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Host ops/s the window is sized by: window ops per round are
    # ``ops_per_s * seconds / ROUNDS``, a fixed count for a given
    # ``--seconds``, so simulated results never depend on host speed.
    ops_per_s: float
    build: Callable[[], object]
    warmup: Callable[[object, int], None]
    window: Callable[[object, int, int], dict]
    # Floor on window ops per round, for workloads whose per-op host
    # cost would otherwise leave too few samples in the tail.
    min_window_ops: int = -(-MIN_POOLED_OPS // ROUNDS)

    def window_ops(self, seconds: float) -> int:
        return max(int(self.ops_per_s * seconds / ROUNDS), self.min_window_ops)


# ----------------------------------------------------------------------
# single-store workloads
# ----------------------------------------------------------------------
def _build_gc_squeezed() -> Prism:
    # Figure 17's configuration: Value Storage is 2x the dataset per
    # SSD and GC starts when 30% of its chunks are free.
    return build_prism(
        num_threads=CLIENTS,
        num_ssds=2,
        dataset_bytes=DATASET,
        expected_keys=KEYS * 2,
        ssd_capacity=max(16 * MB, 2 * DATASET),
        gc_free_threshold=0.3,
        enable_metrics=False,
    )


def _build_default() -> Prism:
    return build_prism(
        num_threads=CLIENTS,
        dataset_bytes=DATASET,
        expected_keys=KEYS * 2,
        enable_metrics=False,
    )


def _single_window(spec: WorkloadSpec) -> Callable[[object, int, int], dict]:
    def window(store, ops: int, seed: int) -> dict:
        result = run_workload(
            store, spec, ops, KEYS, CLIENTS, VALUE_SIZE,
            seed=seed, collect_metrics=False,
        )
        return {"run": result, "shed": 0, "raised": 0, "audit": {}}

    return window


def _warm_ycsb_a(store, seed: int) -> None:
    # GC first runs about 40k ops after preload; 60k ops leave two GC
    # cycles behind the window and WAF level.
    run_workload(
        store, WORKLOADS["A"], 60_000, KEYS, CLIENTS, VALUE_SIZE,
        seed=seed, collect_metrics=False,
    )


def _warm_ycsb_e(store, seed: int) -> None:
    # Preload leaves values scattered in load order, so the first ~15k
    # scans trigger a storm of scan-aware write-backs, and the write
    # buffers still hold preload data whose reclaim would land in the
    # window.  A cheaper warm-up reaches the same steady state: one
    # sequential sweep lets the SVC reorganize the whole key space, an
    # update burst carries every write buffer through a reclaim, and a
    # short run of the real mix brings the cache to its skewed state.
    thread = VThread(0, store.clock, name="sweep")
    thread.now = store.clock.now
    step = 100
    for first in range(0, KEYS, step):
        store.scan(make_key(first), step, thread)
    run_workload(
        store, _UPDATE_BURST, 600, KEYS, CLIENTS, VALUE_SIZE,
        seed=seed, collect_metrics=False,
    )
    run_workload(
        store, WORKLOADS["E"], 1_000, KEYS, CLIENTS, VALUE_SIZE,
        seed=seed, collect_metrics=False,
    )


# ----------------------------------------------------------------------
# replicated cluster
# ----------------------------------------------------------------------
def _shard_factory(shard_id: int, clock) -> Prism:
    # Each shard holds RF/SHARDS of the dataset and gets the paper's
    # cache ratios for its share: SVC 20%, write buffers 16%.  Uniform
    # reads over a share five times the SVC miss the caches mostly.
    share = DATASET * REPLICATION // SHARDS
    return Prism(
        PrismConfig(
            num_threads=CLIENTS,
            svc_capacity=share // 5,
            pwb_capacity=max(64 * 1024, share * 16 // 100 // CLIENTS),
            hsit_capacity=KEYS * 2,
        ),
        clock=clock,
    )


def _build_cluster() -> PrismCluster:
    return PrismCluster(
        ClusterConfig(
            num_shards=SHARDS,
            replication_factor=REPLICATION,
            replication_mode="quorum",
        ),
        shard_factory=_shard_factory,
    )


def _warm_cluster(cluster, seed: int) -> None:
    run_cluster_workload(
        cluster, B_UNIFORM, 10_000, KEYS,
        clients_per_shard=CLIENTS_PER_SHARD, value_size=VALUE_SIZE,
        seed=seed, collect_metrics=False, audit=False,
    )


def _cluster_window(cluster, ops: int, seed: int) -> dict:
    result = run_cluster_workload(
        cluster, B_UNIFORM, ops, KEYS,
        clients_per_shard=CLIENTS_PER_SHARD, value_size=VALUE_SIZE,
        seed=seed, collect_metrics=False, audit=True,
    )
    return {
        "run": result.run,
        "shed": result.ops_shed,
        "raised": result.ops_failed,
        "audit": result.audit,
    }


WORKLOADS_BY_NAME: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="ycsb_a_gc",
            why=(
                "YCSB-A, Zipfian 0.99, squeezed Value Storage: the write "
                "path end to end (PWB, HSIT publish, reclaim, GC)"
            ),
            ops_per_s=20_000,
            build=_build_gc_squeezed,
            warmup=_warm_ycsb_a,
            window=_single_window(WORKLOADS["A"]),
        ),
        Workload(
            name="ycsb_e_scan",
            why=(
                "YCSB-E, 95% scans: PACTree scans, SVC chains, TCQ-batched "
                "SSD reads; the write path stays nearly idle"
            ),
            ops_per_s=700,
            build=_build_default,
            warmup=_warm_ycsb_e,
            window=_single_window(WORKLOADS["E"]),
            min_window_ops=4_500,
        ),
        Workload(
            name="cluster_b_rf2",
            why=(
                "4 shards, RF=2 quorum, 95% uniform reads that miss the "
                "caches: router, replication, per-shard set-up state"
            ),
            ops_per_s=12_000,
            build=_build_cluster,
            warmup=_warm_cluster,
            window=_cluster_window,
        ),
    )
}


def round_seed(workload: str, seed: int, index: int) -> int:
    return zlib.crc32(f"{workload}:{seed}:{index}".encode())
