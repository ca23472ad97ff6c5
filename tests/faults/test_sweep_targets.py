"""One crash-sweep driver, many targets: what each target explores is
pinned, and the shared contract check holds at every scope."""

from __future__ import annotations

import functools
import hashlib
import json

import pytest

from repro.cluster.crash_sweep import ClusterTarget, RebalanceTarget
from repro.cluster.errors import ClusterError
from repro.faults.crash_sweep import (
    CrashSweep,
    StoreTarget,
    check_contract,
    default_ops,
    default_store_factory,
    main,
)
from repro.faults.errors import DegradedError
from repro.storage.crash import SimulatedCrash

# name: (target, workload, sha256 of the sweep's payload)
SWEEPS = {
    "store": (
        StoreTarget(), default_ops(250),
        "4e1184403dc8bcc25e1f002a38df9fa437ca86b06941490ade4fa36944595dd0",
    ),
    "tiered": (
        StoreTarget(tiered=True), default_ops(200, 40, 7),
        "615594555f69cce49359dc494d14fb4d54217d2f10f1b1eba7d46325e0b4523b",
    ),
    # Gray slowness moves virtual time, not code paths: same digest as
    # the plain cluster sweep.
    "cluster": (
        ClusterTarget(), default_ops(200, 40, 7),
        "3ff0c62d6e270eb8b72806219365373264faa87c126e860e87cd403020fd8664",
    ),
    "gray": (
        ClusterTarget(gray_shard=1), default_ops(200, 40, 7),
        "3ff0c62d6e270eb8b72806219365373264faa87c126e860e87cd403020fd8664",
    ),
    "rebalance-source": (
        RebalanceTarget("source"), default_ops(200, 40, 7),
        "2c845a404bf0723606bae7aa8cd52d41fafbdebf4d38f6d8929636efaf85081e",
    ),
    "rebalance-target": (
        RebalanceTarget("target"), default_ops(200, 40, 7),
        "4cd4afeabd63a880eaf006a0916e9fc49f605616895ab1b1d98e019a8800578c",
    ),
    "rebalance-leaving": (
        RebalanceTarget("leaving"), default_ops(200, 40, 7),
        "3b9143ae056505d49a12aa716268a4ccc1523e942021ebd614cc8c041bd3628c",
    ),
}


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_explores_exactly_what_it_did(name):
    """Digest of each sweep at its CI size: the discovered workload and
    recovery ``label -> count`` maps, then the ordered ``(label,
    occurrence, fired, ok)`` verdicts of the full sweep followed by 10
    fuzz draws (seed 7) —
    ``json.dumps({"labels": [...], "verdicts": [...]}, sort_keys=True)``.

    The digests were captured with this recipe on commit ``a3dbdcb``
    (``git archive a3dbdcb``), through the per-mode sweep classes that
    predate the shared driver, so any drift in discovery, arming, the
    fuzz draw sequence or a verdict shows up here.
    """
    target, ops, digest = SWEEPS[name]
    sweep = CrashSweep(target, ops)
    report = sweep.run(jobs=1)
    outcomes = report.outcomes + sweep.fuzz(10, seed=7, jobs=1)
    payload = {
        "labels": [report.workload_labels, report.recovery_labels],
        "verdicts": [[o.label, o.occurrence, o.fired, o.ok] for o in outcomes],
    }
    assert all(o.ok for o in outcomes), report.summary()
    blob = json.dumps(payload, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


class _Serves:
    """A stand-in system whose reads return one fixed value."""

    def __init__(self, value):
        self.value = value

    def get(self, key):
        if isinstance(self.value, Exception):
            raise self.value
        return self.value


@pytest.mark.parametrize(
    "target", [StoreTarget(), ClusterTarget()], ids=["store", "cluster"]
)
def test_torn_pending_put_on_never_acked_key_is_caught(target):
    pending = ("put", b"k1", b"new")
    read = functools.partial(target.read, _Serves(b"torn"))
    violations = check_contract(read, {}, pending)
    assert len(violations) == 1 and "torn" in violations[0], violations
    # Old state (absent) and new state are both atomic outcomes.
    for served in (None, b"new"):
        read = functools.partial(target.read, _Serves(served))
        assert check_contract(read, {}, pending) == []


@pytest.mark.parametrize(
    "target, typed_error",
    [(StoreTarget(), DegradedError("degraded")),
     (ClusterTarget(), ClusterError("no replica"))],
    ids=["store", "cluster"],
)
def test_typed_read_error_is_a_violation(target, typed_error):
    read = functools.partial(target.read, _Serves(typed_error))
    violations = check_contract(read, {b"k1": b"v"}, None)
    assert len(violations) == 1 and "unreadable" in violations[0], violations


class _SwallowsCrash:
    """A store whose put hides the simulated crash from its caller."""

    def __init__(self, store):
        self._store = store

    def __getattr__(self, name):
        return getattr(self._store, name)

    def put(self, key, value):
        try:
            self._store.put(key, value)
        except SimulatedCrash:
            pass


class _SwallowingStoreTarget(StoreTarget):
    def build(self):
        return _SwallowsCrash(default_store_factory())


def test_fired_label_without_surfaced_crash_is_a_violation():
    sweep = CrashSweep(_SwallowingStoreTarget(), [("put", b"k1", b"v" * 64)])
    outcome = sweep.verify_label("put.done")
    assert outcome.fired
    assert not outcome.ok
    assert outcome.violations == ["label put.done fired but no crash surfaced"]


@pytest.mark.parametrize(
    "role, shard", [("source", 0), ("target", 3), ("leaving", 1)]
)
def test_rebalance_report_names_the_watched_shard(role, shard):
    report = CrashSweep(RebalanceTarget(role), default_ops(120, 30, 7)).discover()
    first = report.summary().splitlines()[0]
    assert f"rebalance {role}, shard {shard} dies" in first, first


def test_cli_rebalance_leaving_names_shard_1(capsys):
    argv = ["--rebalance", "--role", "leaving", "--ops", "120", "--keys", "30"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "rebalance leaving, shard 1 dies" in out
    assert "rebalance source" not in out and "rebalance target" not in out
    assert "PASS" in out


def test_cli_rejects_unknown_role(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--role", "bogus"])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_cli_rejects_role_without_rebalance(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--role", "source"])
    assert exc.value.code == 2
    assert "--role requires --rebalance" in capsys.readouterr().err
