"""Cluster crash sweep: a shard death at discovered crash points must
never surface a lost or stale value through the router."""

import pytest

from repro.cluster.crash_sweep import ClusterTarget
from repro.faults.crash_sweep import CrashSweep, default_ops, main as sweep_main


@pytest.fixture(scope="module")
def sweep() -> CrashSweep:
    return CrashSweep(ClusterTarget(), default_ops(num_ops=160, num_keys=32))


@pytest.fixture(scope="module")
def labels(sweep):
    found = sweep.discover().workload_labels
    assert found, "workload reached no crash points on shard 0"
    return found


class TestDiscovery:
    def test_discovery_is_deterministic(self, sweep, labels):
        assert sweep.discover().workload_labels == labels

    def test_labels_cover_write_path(self, labels):
        # The tight shard config must at least reach PWB writeback.
        assert any("pwb" in label or "log" in label for label in labels), labels


class TestShardDeathAtLabel:
    def test_first_labels_keep_contract(self, sweep, labels):
        """Spot-check a few labels inline (the full sweep is the
        slow_cluster job / CI smoke)."""
        for label in sorted(labels)[:3]:
            outcome = sweep.verify_label(label)
            assert outcome.fired, f"{label} never fired"
            assert outcome.violations == [], (label, outcome.violations)
            assert outcome.keys_checked > 0

    def test_unreachable_occurrence_reports_not_fired(self, sweep, labels):
        label = sorted(labels)[0]
        outcome = sweep.verify_label(label, occurrence=10_000)
        assert not outcome.fired
        assert not outcome.ok


@pytest.mark.slow_cluster
class TestFullSweep:
    def test_every_label_keeps_contract(self, sweep):
        report = sweep.run()
        assert report.ok, report.summary()

    def test_cli_cluster_mode(self):
        assert sweep_main(["--cluster", "--ops", "160", "--keys", "32"]) == 0
