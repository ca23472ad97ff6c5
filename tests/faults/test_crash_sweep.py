"""The crash-exploration harness: discovery finds the protocol's
labels, and a crash at every one of them recovers cleanly."""

import pytest

from repro.faults.crash_sweep import CrashSweep, StoreTarget, default_ops, main

# Protocol points that any non-trivial workload must reach.
CORE_WORKLOAD_LABELS = {
    "put.allocated",
    "put.appended",
    "put.done",
    "pwb.append.pre",
    "pwb.append.persisted",
    "hsit.publish.pre",
    "hsit.publish.dirty",
    "hsit.publish.flushed",
    "hsit.publish.done",
}
CORE_RECOVERY_LABELS = {
    "recover.index_done",
    "recover.walked",
    "recover.flushed",
    "recover.done",
}


@pytest.fixture(scope="module")
def sweep() -> CrashSweep:
    return CrashSweep(StoreTarget(), default_ops(160))


def test_discovery_splits_workload_and_recovery_labels(sweep):
    found = sweep.discover()
    workload, recovery = found.workload_labels, found.recovery_labels
    assert CORE_WORKLOAD_LABELS <= set(workload)
    assert CORE_RECOVERY_LABELS <= set(recovery)
    assert all(count >= 1 for count in workload.values())


def test_full_sweep_recovers_at_every_label(sweep):
    report = sweep.run()
    assert report.outcomes, "sweep found nothing to crash"
    failures = report.failures()
    assert not failures, report.summary()
    # every discovered label was actually exercised
    covered = {o.label for o in report.outcomes}
    assert covered == set(report.workload_labels) | set(report.recovery_labels)
    assert all(o.fired for o in report.outcomes)


def test_unreached_label_reports_not_fired(sweep):
    outcome = sweep.verify_label("put.allocated", occurrence=10**9)
    assert not outcome.fired
    assert not outcome.ok


def test_crash_during_recovery_is_idempotent(sweep):
    # Explicit satellite check on top of the sweep: die inside the
    # recovery walk, then recover again from the half-recovered state.
    for label in sorted(CORE_RECOVERY_LABELS):
        outcome = sweep.verify_recovery_label(label)
        assert outcome.fired, label
        assert outcome.ok, (label, outcome.violations)


def test_cli_smoke(capsys):
    assert main(["--ops", "120"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


@pytest.mark.slow_faults
def test_fuzzed_occurrences_all_recover():
    sweep = CrashSweep(StoreTarget(), default_ops(400))
    outcomes = sweep.fuzz(trials=30, seed=3)
    bad = [o for o in outcomes if o.fired and not o.ok]
    assert not bad, [str(o) for o in bad]
    assert sum(1 for o in outcomes if o.fired) >= 25
