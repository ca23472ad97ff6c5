"""Cluster crash-sweep targets: a shard dies at every reachable crash
point, and the *router* must keep the contract.

The driver is :class:`repro.faults.crash_sweep.CrashSweep`; this module
supplies only the cluster targets it runs.  The failure model is
harsher than a single store's power failure — the crashed shard never
comes back.  The cluster-level contract, at replication factor ≥ 2 with
quorum acks:

* **acknowledged durability** — every mutation the router acknowledged
  before the crash is served afterwards with its exact value (reads
  route around the dead shard; re-replication restores RF);
* **pending atomicity** — the operation in flight when the crash point
  fired is observed either fully applied or fully absent, never torn
  and never half-replicated into view;
* **no stale reads** — a key overwritten after the failover must never
  be served at its pre-failover value;
* the crashed shard is marked down.

Mechanics: the watched shard's :class:`~repro.storage.crash.CrashPoint`
runs the discovery pass; then, per label, a fresh identical cluster
replays the workload with that label armed.  When the simulated crash
fires the driver — playing the client — treats the shard as dead
(:meth:`PrismCluster.fail_shard`), finishes the workload on the
survivors, and verifies the contract with reads through the router.

Run directly::

    PYTHONPATH=src python -m repro.faults.crash_sweep --cluster [--gray 1]
    PYTHONPATH=src python -m repro.faults.crash_sweep --rebalance [--role R]
"""

from __future__ import annotations

from typing import List, Optional

from repro.cluster.errors import ClusterError
from repro.cluster.router import ClusterConfig, PrismCluster
from repro.core.config import PrismConfig
from repro.core.prism import Prism
from repro.faults.crash_sweep import Target
from repro.faults.errors import StorageError
from repro.faults.injector import FaultConfig
from repro.obs.metrics import MetricsRegistry
from repro.sim.clock import VirtualClock
from repro.storage.crash import CrashPoint
from repro.storage.specs import FLASH_SSD_GEN4_SPEC

CRASH_SHARD = 0  # the member whose crash points are explored by default
NUM_SHARDS = 3
GRAY_MULTIPLIER = 10.0  # gray shard's device latency inflation
TRIGGER_FRACTION = 1.0 / 3.0  # rebalance starts this far into the workload
BANDWIDTH = 32.0 * 1024  # rebalance copy-stream budget, bytes/s


def default_cluster_factory() -> PrismCluster:
    """A 3-shard RF=2 quorum cluster of deliberately tight stores, so
    the per-shard workload slice reaches reclamation and GC labels."""

    def shard_factory(shard_id: int, clock: VirtualClock) -> Prism:
        kb = 1024
        return Prism(
            PrismConfig(
                num_threads=2,
                num_ssds=2,
                ssd_spec=FLASH_SSD_GEN4_SPEC.with_capacity(512 * kb),
                chunk_size=16 * kb,
                pwb_capacity=32 * kb,
                gc_free_threshold=0.4,
                svc_capacity=32 * kb,
                hsit_capacity=50_000,
                enable_checksums=True,
                faults=FaultConfig(seed=9000 + shard_id),
            ),
            metrics=MetricsRegistry(prefix=f"shard{shard_id}/"),
            clock=clock,
        )

    return PrismCluster(
        ClusterConfig(
            num_shards=NUM_SHARDS, replication_factor=2, replication_mode="quorum"
        ),
        shard_factory=shard_factory,
    )


class ClusterTarget(Target):
    """Kills shard :data:`CRASH_SHARD` at its crash points; the audit
    goes through the router.

    With ``gray_shard`` set, that shard's devices are latency-inflated
    (:data:`GRAY_MULTIPLIER`×, no errors) from the start of every
    replay — the compound scenario: one member fail-slow while another
    fail-stops mid-operation.  The durability contract is unchanged;
    gray slowness must never cost an acknowledged write.
    """

    errors = (ClusterError, StorageError)
    shard = CRASH_SHARD  # the watched member, killed when its point fires

    def __init__(self, gray_shard: Optional[int] = None) -> None:
        if gray_shard is not None and gray_shard == CRASH_SHARD:
            raise ValueError(
                f"gray shard must differ from the crash shard {CRASH_SHARD}"
            )
        self.gray_shard = gray_shard
        slow = "" if gray_shard is None else f", shard {gray_shard} slow"
        self.name = f"cluster, shard {self.shard} dies{slow}"

    def build(self) -> PrismCluster:
        cluster = default_cluster_factory()
        if self.gray_shard is not None:
            cluster.slow_shard(self.gray_shard, 0.0, multiplier=GRAY_MULTIPLIER)
        return cluster

    def point(self, cluster: PrismCluster) -> Optional[CrashPoint]:
        if self.shard < len(cluster.shards):
            return cluster.shards[self.shard].store.crash_point
        return None

    def drain(self, cluster: PrismCluster) -> None:
        cluster.finish_rebalance()

    def on_crash(self, cluster: PrismCluster) -> bool:
        # The node died mid-operation.  The client's view: the op never
        # acknowledged; the shard is gone; the workload goes on.
        cluster.fail_shard(self.shard)
        return True

    def audit(self, cluster: PrismCluster) -> List[str]:
        if cluster.shards[self.shard].up:
            return [f"crashed shard {self.shard} never marked down"]
        return []


class RebalanceTarget(ClusterTarget):
    """Shard death at every crash label reached *during a live
    migration* — the crash-safety half of the elasticity contract.

    A membership change triggers at :data:`TRIGGER_FRACTION` of the
    workload; discovery then records which crash labels the watched
    shard's store reaches inside the migration window, and each replay
    arms one of those in-window occurrences and kills the shard when
    it fires.  Three roles cover the interesting deaths:

    * ``source`` — shard 0 (an old owner streaming keys out) dies
      while a new member is being added;
    * ``target`` — the joining shard itself (id :data:`NUM_SHARDS`,
      which exists only after the trigger) dies mid-copy: the
      migration must abort and routing revert to the old ring, with
      migration-window writes resynced back;
    * ``leaving`` — scale-in: shard 0 drains out and a *surviving*
      owner (shard 1, receiving the copy stream) dies mid-migration
      (the handoff fast-forwards onto the remaining members).

    Every crash label lives on a mutation path, and a draining shard
    admits no mutations — it has no torn mid-operation state to
    explore — so the scale-in role kills the member with inbound
    stream writes instead; the draining shard's own (state-less) death
    is covered by the direct kill-mid-drain tests.
    """

    ROLES = ("source", "target", "leaving")
    _WATCHED = {"source": CRASH_SHARD, "target": NUM_SHARDS, "leaving": 1}

    def __init__(self, role: str) -> None:
        if role not in self.ROLES:
            raise ValueError(f"unknown rebalance-crash role: {role}")
        super().__init__()
        self.role = role
        self.shard = self._WATCHED[role]
        self.name = f"rebalance {role}, shard {self.shard} dies"

    def trigger_at(self, num_ops: int) -> int:
        return max(1, int(num_ops * TRIGGER_FRACTION))

    def trigger(self, cluster: PrismCluster) -> None:
        if self.role == "leaving":
            cluster.remove_shard(CRASH_SHARD, bandwidth=BANDWIDTH)
        else:
            cluster.add_shard(bandwidth=BANDWIDTH)

    def migrating(self, cluster: PrismCluster) -> bool:
        return cluster.rebalancing
