"""Acceptance: ``--jobs N`` output is byte-identical to ``--jobs 1``.

One bench experiment and two crash sweeps (a single store, and the
rebalance ``leaving`` role — the target with the most per-sweep state),
each run serially and with a 4-worker pool, compared at the byte level
— the merged metrics JSON and the printed report for the experiment,
the full verdict list for each sweep.  Any nondeterminism introduced
by the fan-out (completion order leaking into merge order, worker-local
state, pickling drift) fails these tests.
"""

from __future__ import annotations

from repro.bench.__main__ import main
from repro.cluster.crash_sweep import RebalanceTarget
from repro.faults.crash_sweep import CrashSweep, StoreTarget, default_ops


def _run_cli(monkeypatch, capsys, tmp_path, jobs: int) -> tuple[bytes, str]:
    out_path = tmp_path / f"fig11.jobs{jobs}.metrics.json"
    # Touch REPRO_JOBS through monkeypatch so teardown restores it
    # (main() exports the flag into the environment).
    monkeypatch.setenv("REPRO_JOBS", "1")
    monkeypatch.setenv("REPRO_SCALE", "1.0")
    assert main([
        "fig11", "--scale", "0.05",
        "--metrics-out", str(out_path),
        "--jobs", str(jobs),
    ]) == 0
    return out_path.read_bytes(), capsys.readouterr().out


def test_bench_experiment_byte_identical_across_jobs(
    monkeypatch, capsys, tmp_path
):
    serial_json, serial_out = _run_cli(monkeypatch, capsys, tmp_path, jobs=1)
    pooled_json, pooled_out = _run_cli(monkeypatch, capsys, tmp_path, jobs=4)
    assert pooled_json == serial_json
    # The printed tables must match too (paths in the trailing
    # "metrics: ..." line differ by construction — drop it).
    strip = lambda s: [l for l in s.splitlines() if not l.startswith("metrics:")]
    assert strip(pooled_out) == strip(serial_out)


def _assert_sweep_identical_across_jobs(target, ops):
    serial = CrashSweep(target, ops).run(jobs=1)
    pooled = CrashSweep(target, ops).run(jobs=4)
    assert serial.outcomes, "sweep found nothing to crash"
    assert [str(o) for o in pooled.outcomes] == [str(o) for o in serial.outcomes]
    assert pooled.summary() == serial.summary()
    assert pooled.workload_labels == serial.workload_labels
    assert pooled.recovery_labels == serial.recovery_labels
    assert pooled.offsets == serial.offsets


def test_crash_sweep_byte_identical_across_jobs():
    _assert_sweep_identical_across_jobs(StoreTarget(), default_ops(160))


def test_rebalance_leaving_sweep_byte_identical_across_jobs():
    _assert_sweep_identical_across_jobs(
        RebalanceTarget("leaving"), default_ops(160, 40, 7)
    )
