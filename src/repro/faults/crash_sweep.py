"""Automated crash exploration: one driver over every crash-sweep target.

The sweep answers the question crash-consistency tests usually sample
by hand: *for every instrumented point in the protocol, does a failure
there leave a system that honors the durability contract?*

The contract it checks (§5.4–5.5 of the paper):

* **acknowledged durability** — every operation that returned before
  the crash is fully visible afterwards (puts readable with their exact
  value, deletes absent);
* **pending atomicity** — the one operation in flight when the crash
  struck is either fully applied or fully invisible, never torn;
* **the target's own audit** — zero cross-media invariant violations
  from :func:`repro.core.checker.audit` on a recovered store, or the
  dead shard marked down in a cluster.

The driver (:class:`CrashSweep`) owns everything that is the same for
every target: the op applier, the acked/pending replay loop, the
contract check (:func:`check_contract`), discovery, the parallel
``run``/``fuzz`` tasks, the report, and the CLI.  A :class:`Target`
supplies only what differs — how to build a fresh system, which
:class:`~repro.storage.crash.CrashPoint` to watch, an optional trigger
at one op index plus an end-of-workload drain, what happens when the
crash fires, the post-crash audit, and the typed errors a failed op or
read may raise.  :class:`StoreTarget` (one Prism store, optionally
tiered) lives here; the cluster, gray-cluster and live-rebalance
targets live in :mod:`repro.cluster.crash_sweep`.

Phases:

1. *Discovery*: run the workload once with the watched point recording
   — yielding every label reached inside the target's window (the
   whole workload, or the migration window after a trigger) and, for
   stores, every label recovery reaches.
2. *Sweep*: for each label, replay on a fresh system with that label
   armed, let the crash fire, and verify the contract.  For each
   recovery-phase label, complete the workload, crash, let recovery die
   at the label, then recover *again* — recovery must be idempotent.
3. *Fuzz* (optional): seeded random (label, occurrence) draws explore
   later occurrences of each point, where state differs from the first
   hit (ring wrap-around, GC pressure, chained reclamations).

Run directly (CI smoke job)::

    PYTHONPATH=src python -m repro.faults.crash_sweep --fuzz 5
    PYTHONPATH=src python -m repro.faults.crash_sweep --rebalance --role leaving
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.faults.errors import DegradedError
from repro.storage.crash import CrashPoint, SimulatedCrash

# One workload operation: ("put", key, value) | ("delete", key)
#                       | ("get", key) | ("scan", key, count)
Op = Tuple
# Acknowledged state: key -> last acked value (None for a delete).
Acked = Dict[bytes, Optional[bytes]]

RECOVERY_THREADS = 2


@dataclass
class LabelOutcome:
    """Verdict for one armed crash point."""

    label: str
    occurrence: int
    fired: bool
    violations: List[str] = field(default_factory=list)
    keys_checked: int = 0
    during_recovery: bool = False

    @property
    def ok(self) -> bool:
        return self.fired and not self.violations

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        status = "ok" if self.ok else "FAIL"
        phase = " (during recovery)" if self.during_recovery else ""
        return (
            f"[{status}] {self.label}#{self.occurrence}{phase}: "
            f"fired={self.fired} violations={len(self.violations)}"
        )


@dataclass
class SweepReport:
    """Everything one sweep discovered and verified."""

    target: str = ""
    workload_labels: Dict[str, int] = field(default_factory=dict)
    recovery_labels: Dict[str, int] = field(default_factory=dict)
    # Per workload label: hits on the watched point before the window
    # opened.  Replays arm hit ``offset + occurrence``, so every crash
    # lands inside the window.
    offsets: Dict[str, int] = field(default_factory=dict)
    outcomes: List[LabelOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.outcomes) and all(o.ok for o in self.outcomes)

    def failures(self) -> List[LabelOutcome]:
        return [o for o in self.outcomes if not o.ok]

    def summary(self) -> str:
        lines = [
            f"crash sweep ({self.target}): {len(self.workload_labels)} "
            f"workload labels, {len(self.recovery_labels)} recovery labels, "
            f"{len(self.outcomes)} crashes injected"
        ]
        for outcome in self.failures():
            lines.append(f"  FAIL {outcome.label}#{outcome.occurrence}")
            lines.extend(f"       {v}" for v in outcome.violations[:5])
        lines.append("PASS" if self.ok else "FAIL")
        return "\n".join(lines)


class Unreadable(Exception):
    """A contract read failed with one of the target's typed errors."""


def check_contract(
    read: Callable[[bytes], Optional[bytes]], acked: Acked, pending: Optional[Op]
) -> List[str]:
    """Acknowledged durability and pending-op atomicity, through ``read``.

    Every acked key must read back its acked value (absent for a
    delete).  The key of the mutation in flight at the crash must read
    back its old state — its last acked value, or absent when it was
    never acked — or its new one, nothing else.  ``read`` raises
    :class:`Unreadable` when the read fails with a typed error.
    """
    allowed = {key: (value,) for key, value in acked.items()}
    if pending and pending[0] in ("put", "delete"):
        new = pending[2] if pending[0] == "put" else None
        allowed[pending[1]] = (acked.get(pending[1]), new)
    violations: List[str] = []
    for key, states in allowed.items():
        try:
            got = read(key)
        except Unreadable as exc:
            violations.append(f"key {key!r} unreadable: {exc}")
            continue
        if got not in states:
            what = "lost" if len(states) == 1 else f"torn by pending {pending[0]}"
            violations.append(
                f"key {key!r} {what}: got {_short(got)}, expected "
                + " or ".join(_short(v) for v in states)
            )
    return violations


def _short(value: Optional[bytes]) -> str:
    return "absent" if value is None else repr(value[:16])


class Target:
    """The part of a crash sweep that differs per system under test.

    The defaults here are the no-op hooks; subclasses set ``name`` and
    ``errors`` and implement :meth:`build`, :meth:`point`,
    :meth:`on_crash` and :meth:`audit`.  Instances are pickled to
    worker processes, so they hold configuration only — never a
    built system.
    """

    name = "target"
    # Typed errors: an op failing with one is simply not acknowledged;
    # a contract read failing with one is a violation.
    errors: Tuple[type, ...] = ()
    # Whether crash points are also explored inside recovery itself.
    has_recovery = False

    def build(self):
        """A fresh system, identical on every call."""
        raise NotImplementedError

    def point(self, system) -> Optional[CrashPoint]:
        """The crash point to watch, or None while it does not exist yet."""
        raise NotImplementedError

    def trigger_at(self, num_ops: int) -> Optional[int]:
        """Op index where :meth:`trigger` runs and the window opens."""
        return None

    def trigger(self, system) -> None:
        pass

    def migrating(self, system) -> bool:
        """True while the window a trigger opened is still open."""
        return False

    def drain(self, system) -> None:
        """Finish background work left when the workload ends."""

    def on_crash(self, system) -> bool:
        """React to the armed crash firing; True keeps replaying."""
        raise NotImplementedError

    def audit(self, system) -> List[str]:
        """Target-specific post-crash violations."""
        raise NotImplementedError

    def read(self, system, key: bytes) -> Optional[bytes]:
        try:
            return system.get(key)
        except self.errors as exc:
            raise Unreadable(str(exc)) from exc


class StoreTarget(Target):
    """One Prism store: power failure, recover, audit the media."""

    errors = (DegradedError,)
    has_recovery = True

    def __init__(self, tiered: bool = False) -> None:
        self.tiered = tiered
        self.name = "tiered store" if tiered else "store"

    def build(self):
        return tiered_store_factory() if self.tiered else default_store_factory()

    def point(self, store) -> CrashPoint:
        return store.crash_point

    def on_crash(self, store) -> bool:
        store.recover(RECOVERY_THREADS)
        return False

    def audit(self, store) -> List[str]:
        from repro.core.checker import audit

        return [f"audit: {v}" for v in audit(store).violations]


def _apply_op(system, op: Op) -> None:
    kind = op[0]
    if kind == "put":
        system.put(op[1], op[2])
    elif kind == "delete":
        system.delete(op[1])
    elif kind == "get":
        system.get(op[1])
    elif kind == "scan":
        system.scan(op[1], op[2])
    else:
        raise ValueError(f"unknown workload op: {op!r}")


def _delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {
        label: count - before.get(label, 0)
        for label, count in after.items()
        if count > before.get(label, 0)
    }


class CrashSweep:
    """Discovers, arms, and verifies every reachable crash point of one
    :class:`Target` under one workload."""

    def __init__(self, target: Target, ops: Sequence[Op]) -> None:
        self.target = target
        self.ops = list(ops)

    def _replay(
        self, system, label: Optional[str] = None, occurrence: int = 1
    ) -> Tuple[Acked, Optional[Op], bool, Optional[CrashPoint]]:
        """Run ops, with ``label`` armed at its ``occurrence``-th hit as
        soon as the watched point exists, then drain.

        Returns ``(acked, pending, crashed, point)``: the mutations whose
        calls returned (value, or None for a delete), the op in flight
        when the crash struck (None when it struck in the drain or not
        at all), and the armed point.  An op is *acknowledged* exactly
        when its call returned — the moment a real client would
        consider it durable.
        """
        target = self.target
        at = target.trigger_at(len(self.ops))
        acked: Acked = {}
        pending: Optional[Op] = None
        crashed = False
        point = None
        for i, op in enumerate(self.ops):
            if i == at:
                target.trigger(system)
            if point is None and label is not None:
                point = target.point(system)
                if point is not None:
                    point.arm(label, occurrence)
            try:
                _apply_op(system, op)
            except SimulatedCrash:
                crashed, pending = True, op
                if target.on_crash(system):
                    continue
                return acked, pending, crashed, point
            except target.errors:
                continue  # failed cleanly; not acknowledged
            if op[0] == "put":
                acked[op[1]] = op[2]
            elif op[0] == "delete":
                acked[op[1]] = None
        if not crashed:
            # The armed occurrence may sit in background work that
            # outlives the last client op.
            try:
                target.drain(system)
            except SimulatedCrash:
                crashed = True
                target.on_crash(system)
        target.drain(system)
        return acked, pending, crashed, point

    def discover(self) -> SweepReport:
        """Label → occurrence count inside the target's window (plus,
        for stores, the labels recovery reaches), with no outcomes."""
        target = self.target
        system = target.build()
        at = target.trigger_at(len(self.ops))
        point = target.point(system)
        if point is not None:
            point.start_recording()
        before: Dict[str, int] = {}
        window: Optional[Dict[str, int]] = None
        for i, op in enumerate(self.ops):
            if i == at:
                target.trigger(system)
                if point is None:
                    point = target.point(system)
                    point.start_recording()
                before = dict(point.seen)
            _apply_op(system, op)
            if (
                window is None
                and at is not None
                and i >= at
                and not target.migrating(system)
            ):
                window = dict(point.seen)
        if window is None:
            # Background work that outlived the workload is still part
            # of the window.
            target.drain(system)
            window = dict(point.seen)
        report = SweepReport(target=target.name, workload_labels=_delta(window, before))
        report.offsets = {
            label: before[label] for label in report.workload_labels if label in before
        }
        if target.has_recovery:
            system.crash()
            system.recover(RECOVERY_THREADS)
            report.recovery_labels = _delta(point.seen, window)
        point.stop_recording()
        return report

    def verify_label(
        self, label: str, occurrence: int = 1, offset: int = 0
    ) -> LabelOutcome:
        """Crash at one workload-phase point (its ``offset +
        occurrence``-th hit), then verify the contract."""
        system = self.target.build()
        acked, pending, crashed, point = self._replay(system, label, offset + occurrence)
        outcome = LabelOutcome(
            label=label,
            occurrence=occurrence,
            fired=point is not None and point.fired == label,
        )
        if not outcome.fired:
            if point is not None:
                point.disarm()
            return outcome
        return self._check(outcome, system, acked, pending, crashed)

    def verify_recovery_label(self, label: str, occurrence: int = 1) -> LabelOutcome:
        """Crash *during recovery* at one point; recovery must be
        idempotent, so a second pass has to produce a clean store."""
        system = self.target.build()
        acked = self._replay(system)[0]
        system.crash()
        point = self.target.point(system)
        point.arm(label, occurrence)
        fired = False
        try:
            system.recover(RECOVERY_THREADS)
        except SimulatedCrash:
            fired = True
        outcome = LabelOutcome(
            label=label, occurrence=occurrence, fired=fired, during_recovery=True
        )
        if not fired:
            point.disarm()
            return outcome
        system.recover(RECOVERY_THREADS)
        return self._check(outcome, system, acked, None, crashed=True)

    def _check(
        self,
        outcome: LabelOutcome,
        system,
        acked: Acked,
        pending: Optional[Op],
        crashed: bool,
    ) -> LabelOutcome:
        if not crashed:
            outcome.violations.append(
                f"label {outcome.label} fired but no crash surfaced"
            )
            return outcome
        read = functools.partial(self.target.read, system)
        outcome.violations = self.target.audit(system) + check_contract(
            read, acked, pending
        )
        outcome.keys_checked = len(acked)
        return outcome

    def run(self, jobs: Optional[int] = None) -> SweepReport:
        """Discover serially, then verify every label (``jobs`` wide).

        Discovery is one recorded run and stays in-process; each
        verification replays on a fresh system with a private clock, so
        the label list partitions cleanly across workers.  Outcomes are
        collected in label order — identical to the serial sweep.
        """
        from repro.parallel import parallel_map

        report = self.discover()
        tasks = [
            (self, False, label, 1, report.offsets.get(label, 0))
            for label in sorted(report.workload_labels)
        ] + [
            (self, True, label, 1, 0) for label in sorted(report.recovery_labels)
        ]
        report.outcomes = parallel_map(_verify_task, tasks, jobs=jobs)
        return report

    def fuzz(
        self, trials: int, seed: int = 0, jobs: Optional[int] = None
    ) -> List[LabelOutcome]:
        """Seeded random draws over (label, occurrence) pairs."""
        from repro.parallel import parallel_map

        found = self.discover()
        rng = random.Random(seed)
        draws: List[tuple] = []
        workload_pool = sorted(found.workload_labels.items())
        recovery_pool = sorted(found.recovery_labels.items())
        for _ in range(trials):
            use_recovery = bool(recovery_pool) and rng.random() < 0.25
            pool = recovery_pool if use_recovery else workload_pool
            if not pool:
                break
            label, count = pool[rng.randrange(len(pool))]
            occurrence = rng.randint(1, count)
            draws.append(
                (self, use_recovery, label, occurrence, found.offsets.get(label, 0))
            )
        return parallel_map(_verify_task, draws, jobs=jobs)


def _verify_task(
    sweep: CrashSweep, during_recovery: bool, label: str, occurrence: int, offset: int
) -> LabelOutcome:
    """One armed crash point, replayed on a fresh system (spawn-safe)."""
    if during_recovery:
        return sweep.verify_recovery_label(label, occurrence)
    return sweep.verify_label(label, occurrence, offset)


# ----------------------------------------------------------------------
# defaults for the CLI / CI smoke job
# ----------------------------------------------------------------------
def default_ops(num_ops: int = 300, num_keys: int = 60, seed: int = 7) -> List[Op]:
    """A deterministic mixed workload dense in protocol transitions:
    overwrites fragment the log (reclamation + GC), deletes exercise
    entry freeing, gets/scans drive cache admission and writeback."""
    rng = random.Random(seed)
    ops: List[Op] = []
    for i in range(num_ops):
        key = b"k%04d" % rng.randrange(num_keys)
        roll = rng.random()
        if roll < 0.55:
            value = bytes([i % 256]) + rng.randbytes(rng.randrange(64, 320))
            ops.append(("put", key, value))
        elif roll < 0.65:
            ops.append(("delete", key))
        elif roll < 0.9:
            ops.append(("get", key))
        else:
            ops.append(("scan", key, 8))
    return ops


def default_store_factory() -> "Prism":
    """A store tight enough that the workload reaches reclamation and
    GC labels, built fresh (and identically) for every replay."""
    from repro.core.config import PrismConfig
    from repro.core.prism import Prism
    from repro.storage.specs import FLASH_SSD_GEN4_SPEC

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
            # Checksummed framing so every post-recovery audit also
            # exercises invariant I7 (stored CRCs match).
            enable_checksums=True,
        )
    )


def tiered_store_factory() -> "Prism":
    """A tiered store tight enough that the 300-op default workload
    reaches the demotion and promotion crash labels: a single tiny
    fast storage (so reclaim and GC fire constantly), one cold QLC
    storage, and a recency window short enough that records go cold
    within the run."""
    from repro.core.config import PrismConfig
    from repro.core.prism import Prism
    from repro.storage.specs import FLASH_SSD_GEN4_SPEC, QLC_SSD_SPEC

    kb = 1024
    return Prism(
        PrismConfig(
            num_threads=2,
            num_ssds=1,
            ssd_spec=FLASH_SSD_GEN4_SPEC.with_capacity(256 * kb),
            chunk_size=16 * kb,
            pwb_capacity=32 * kb,
            gc_free_threshold=0.4,
            svc_capacity=32 * kb,
            hsit_capacity=50_000,
            enable_checksums=True,
            enable_tiering=True,
            num_cold_ssds=1,
            cold_ssd_spec=QLC_SSD_SPEC.with_capacity(512 * kb),
            tier_hot_threshold=3,
            tier_promote_threshold=2,
            tier_recency_window=32,
        )
    )


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.faults.crash_sweep",
        description="Crash at every discovered crash point; verify the "
                    "durability contract.",
    )
    parser.add_argument("--ops", type=int, default=300, help="workload length")
    parser.add_argument("--keys", type=int, default=60, help="key-space size")
    parser.add_argument("--seed", type=int, default=7, help="workload seed")
    parser.add_argument(
        "--fuzz", type=int, default=0,
        help="extra randomized (label, occurrence) trials per target",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="verify crash labels across N worker processes "
             "(default: $REPRO_JOBS or 1); verdicts are identical to -j1",
    )
    parser.add_argument(
        "--cluster", action="store_true",
        help="cluster mode: kill a whole shard at each crash point and "
             "audit durability through the router (repro.cluster)",
    )
    parser.add_argument(
        "--gray", type=int, default=None, metavar="SHARD",
        help="cluster mode: additionally latency-inflate this shard's "
             "devices 10x from the start (gray failure + fail-stop combined)",
    )
    parser.add_argument(
        "--rebalance", action="store_true",
        help="elasticity mode: kill a migration participant (source, "
             "target, and leaving shard) at every crash point reached "
             "during a live reshard, and audit through the router",
    )
    parser.add_argument(
        "--role", choices=("source", "target", "leaving", "all"), default=None,
        help="rebalance mode: which participant dies (default: all)",
    )
    parser.add_argument(
        "--tiering", action="store_true",
        help="tiered store: sweep the hot/cold placement crash points "
             "(tier.demote.*, tier.promote.*) alongside the usual ones",
    )
    args = parser.parse_args(argv)

    if args.gray is not None and not args.cluster:
        parser.error("--gray requires --cluster")
    if args.role is not None and not args.rebalance:
        parser.error("--role requires --rebalance")
    if args.rebalance and (args.cluster or args.gray is not None):
        parser.error("--rebalance and --cluster are mutually exclusive")
    if args.tiering and (args.cluster or args.rebalance):
        parser.error("--tiering runs on a single store; drop --cluster/--rebalance")

    if args.jobs is not None:
        from repro.parallel import set_jobs

        set_jobs(args.jobs)

    if args.rebalance:
        from repro.cluster.crash_sweep import RebalanceTarget

        roles = (args.role,) if args.role not in (None, "all") else RebalanceTarget.ROLES
        targets: List[Target] = [RebalanceTarget(role) for role in roles]
    elif args.cluster:
        from repro.cluster.crash_sweep import ClusterTarget

        targets = [ClusterTarget(gray_shard=args.gray)]
    else:
        targets = [StoreTarget(tiered=args.tiering)]

    ok = True
    for target in targets:
        sweep = CrashSweep(target, default_ops(args.ops, args.keys, args.seed))
        report = sweep.run()
        if args.fuzz:
            report.outcomes.extend(sweep.fuzz(args.fuzz, seed=args.seed))
        print(report.summary())
        ok = ok and report.ok
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover - CLI entry
    import sys

    sys.exit(main())
