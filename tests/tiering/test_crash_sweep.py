"""Crash exploration through the tier-migration protocol.

The demotion and promotion paths publish forward pointers exactly like
reclaim and GC do, so a power failure at any point inside them must
leave a recoverable store that honors the durability contract.
"""

from __future__ import annotations

import pytest

from repro.faults.crash_sweep import CrashSweep, StoreTarget, default_ops

TIER_LABELS = {
    "tier.demote.pre_publish",
    "tier.demote.published",
    "tier.promote.pre_publish",
    "tier.promote.published",
}


def test_workload_reaches_every_tier_crash_label():
    sweep = CrashSweep(StoreTarget(tiered=True), default_ops())
    workload = sweep.discover().workload_labels
    missing = TIER_LABELS - set(workload)
    assert not missing, f"tier crash labels never reached: {missing}"


def test_crash_inside_demotion_and_promotion_recovers():
    """Sweep just the tier labels (the full-label sweep runs under the
    slow_tiering marker): crash at each, recover, audit, and check
    acknowledged durability."""
    sweep = CrashSweep(StoreTarget(tiered=True), default_ops())
    for label in sorted(TIER_LABELS):
        outcome = sweep.verify_label(label)
        assert outcome.fired, label
        assert outcome.ok, f"{label}: {outcome.violations}"


@pytest.mark.slow_tiering
def test_full_tiered_crash_sweep_is_green():
    sweep = CrashSweep(StoreTarget(tiered=True), default_ops())
    report = sweep.run()
    assert TIER_LABELS <= set(report.workload_labels)
    assert report.ok, report.summary()


@pytest.mark.slow_tiering
def test_tiered_crash_fuzz_is_green():
    sweep = CrashSweep(StoreTarget(tiered=True), default_ops())
    outcomes = sweep.fuzz(trials=10, seed=9)
    bad = [o for o in outcomes if not o.ok]
    assert not bad, [str(o) for o in bad]
