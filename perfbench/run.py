"""Run one benchmark workload and print its metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ycsb_a_gc --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics: one fresh worker process
runs the workload's rounds with tracing off.  ``--trace 1`` runs one
round untraced and the same round traced, each in a fresh process,
checks that both produced the same simulated outputs, and reports the
per-layer metrics plus the tracing overhead.  Metric names and units
come from ``BENCHMARK.json``.  Every run checks the store's answers
against a shadow map; the last line of standard output is one JSON
object, and the exit code is nonzero when any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0
HOST_METRICS = {"host_ops_per_s", "peak_rss_mb", "setup_s", "trace.overhead_x"}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def run_worker(args, deadline: float, trace: str = "", rounds: int = 0) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    if rounds:
        cmd += ["--rounds", str(rounds)]
    if trace:
        cmd += ["--trace", trace]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    # subprocess.run kills and reaps the worker if it overruns.
    done = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {done.returncode}")
    report = json.loads(lines[-1])
    if report.get("crashed"):
        raise RuntimeError("worker crashed (traceback above)")
    return report


def kind(name: str) -> str:
    host = name in HOST_METRICS or name.endswith("host_self_s") or name.startswith("setup.")
    return "host" if host else "sim"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    deadline = started + DEADLINE_S
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no repro sources under {ROOT / 'src'}; run from a checkout")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    if args.seconds < 1:
        return fail("--seconds must be at least 1")

    try:
        if args.trace:
            declared = spec["per_layer"]
            plain = run_worker(args, deadline, rounds=1)
            spans = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
            traced = run_worker(args, deadline, trace=str(spans), rounds=1)
            values = dict(traced["layers"])
            values.update(
                {f"setup.{k[:-2]}_s": v for k, v in plain["setup"][0].items()}
            )
            values["trace.overhead_x"] = traced["window_s"][0] / plain["window_s"][0]
            same = traced["digests"] == plain["digests"]
            attempted = plain["attempted"] + traced["attempted"]
            failed = plain["failed"] + traced["failed"] + (0 if same else 1)
            errors = plain["errors"] + traced["errors"]
            if not same:
                errors.append("traced run changed the simulated outputs")
            notes = [
                f"simulated digest traced == untraced: {same}",
                f"spans: {traced['spans']} written to {spans.relative_to(ROOT)}",
            ]
        else:
            declared = spec["end_to_end"]
            plain = run_worker(args, deadline)
            values = dict(plain["metrics"])
            attempted, failed, errors = plain["attempted"], plain["failed"], plain["errors"]
            notes = [
                f"window ops per round: {plain['window_ops']} x {len(plain['window_s'])} rounds",
                f"latency samples: {values['sim_samples']}",
                f"uncorrected host figures: {values['host_ops_per_s_raw']:.6g} ops/s, "
                f"set-up {values['setup_raw_s']:.6g} s",
                f"failed_frac: {failed / attempted:.6g} ({failed} of {attempted} checked ops)",
            ]
    except (RuntimeError, subprocess.TimeoutExpired, KeyError, ValueError) as exc:
        return fail(f"{args.workload} seed {args.seed}: {exc}")

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        return fail(f"worker did not report {missing}")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"({time.monotonic() - started:.1f}s)")
    for m in declared:
        print(f"  {m['name']:36} {values[m['name']]:>16.6g} {m['unit']:8} "
              f"{kind(m['name']):4} {m['better']} is better")
    for note in notes:
        print(f"  {note}")
    for error in errors:
        print(f"  FAILED CHECK: {error}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
