"""One benchmark process: run a workload's rounds, print one JSON line.

``run.py`` starts it with ``PYTHONPATH=src``::

    python3 perfbench/worker.py --workload ycsb_a_gc --seed 1 \
        --seconds 12 [--rounds 3] [--trace SPANS_PATH]

Without ``--trace`` the process measures.  With it, the layer wrappers
and the sampling profiler run during each window, the per-layer figures
are reported and the sampled spans are written to ``SPANS_PATH``.  The
last line of standard output is a JSON object that also carries a
digest of every round's simulated outputs.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402  (needs HERE on the path)
from repro.bench.runner import preload  # noqa: E402
from repro.cluster.router import PrismCluster  # noqa: E402

READ_KINDS = ("read", "scan")
WRITE_KINDS = ("update", "insert", "delete")
COUNTERS = (
    "bytes_put", "pwb.reclaims", "svc.hits", "svc.admissions",
    "svc.evictions", "svc.scan_writebacks", "value_storage.gc_runs",
    "iouring.requests", "iouring.batches", "tcq.batches", "tcq.combined",
    "ssd.read_bytes", "ssd.write_bytes", "ssd.busy_vsec", "nvm.flushes",
    "nvm.bytes_flushed",
)


def _prisms(store) -> list:
    if isinstance(store, PrismCluster):
        return [shard.store for shard in store.shards]
    return [store]


def counters(store) -> Dict[str, float]:
    """The program's own cumulative counters, summed over shards."""
    c: Dict[str, float] = dict.fromkeys(COUNTERS, 0)
    for p in _prisms(store):
        ssds = p.ssds + p.cold_ssds
        c["bytes_put"] += p.bytes_put
        c["pwb.reclaims"] += p.reclaims
        c["svc.hits"] += p.svc.hits
        c["svc.admissions"] += p.svc.admissions
        c["svc.evictions"] += p.svc.evictions
        c["svc.scan_writebacks"] += p.svc.scan_writebacks
        c["value_storage.gc_runs"] += sum(vs.gc_runs for vs in p.storages)
        c["iouring.requests"] += sum(vs.ring.requests_submitted for vs in p.storages)
        c["iouring.batches"] += sum(vs.ring.batches_submitted for vs in p.storages)
        c["tcq.batches"] += sum(cb.batches for cb in p.combiners)
        c["tcq.combined"] += sum(cb.combined_requests for cb in p.combiners)
        c["ssd.read_bytes"] += sum(s.bytes_read for s in ssds)
        c["ssd.write_bytes"] += sum(s.bytes_written for s in ssds)
        c["ssd.busy_vsec"] += sum(
            s.read_channel.busy_time + s.write_channel.busy_time for s in ssds
        )
        c["nvm.flushes"] += p.nvm.flushes
        c["nvm.bytes_flushed"] += p.nvm.bytes_flushed
    if isinstance(store, PrismCluster):
        stats = store.stats()
        for name in ("shed", "repl_queued", "repl_applied", "repl_dropped"):
            c[f"cluster.{name}"] = stats[f"cluster_{name}"]
    return c


def percentile(ordered: List[float], p: float) -> float:
    """Linear-interpolated percentile of sorted seconds, in microseconds."""
    rank = (p / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return (ordered[lo] * (1 - frac) + ordered[hi] * frac) * 1e6


# The reference loop's median time on the machine the bounds were set
# on (2-vCPU Xeon container, CPython 3.11).  It only sets the scale of
# the corrected host figures.
REFERENCE_LOOP_S = 0.003
CALIBRATION_PERIOD_S = 0.05


def _reference_loop() -> None:
    table: Dict[int, int] = {}
    for i in range(20_000):
        key = i & 1023
        table[key] = table.get(key, 0) + i


class HostClock:
    """Host seconds between marks, raw and corrected for host speed.

    A shared host can drift in speed by 20% over minutes (measured on
    a 2-vCPU container), more than any useful bound.  A SIGALRM handler
    times a fixed pure-Python loop every CALIBRATION_PERIOD_S; an
    interval's corrected time is its host
    time, minus the loop's own, scaled by REFERENCE_LOOP_S over the
    loop's median time within the interval.  The handler touches no
    simulator state (the traced run, which runs without it, checks
    that the simulated outputs are unchanged).
    """

    def __init__(self, calibrate: bool) -> None:
        self.calibrate = calibrate
        self.loops: List[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _reference_loop()
        elapsed = time.perf_counter() - t0
        self.loops.append(elapsed)
        self.spent += elapsed

    def __enter__(self) -> "HostClock":
        if self.calibrate:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(
                signal.ITIMER_REAL, CALIBRATION_PERIOD_S, CALIBRATION_PERIOD_S
            )
        return self

    def __exit__(self, *exc) -> None:
        if self.calibrate:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple:
        return time.perf_counter(), len(self.loops), self.spent

    def seconds(self, a: tuple, b: tuple) -> Tuple[float, float]:
        """(raw, corrected) host seconds from mark ``a`` to mark ``b``."""
        raw = (b[0] - a[0]) - (b[2] - a[2])
        loops = self.loops[a[1] : b[1]]
        if not loops:
            return raw, raw
        return raw, raw * REFERENCE_LOOP_S / statistics.median(loops)


def run_round(
    wl: W.Workload, seed: int, index: int, ops: int, tracer=None
) -> dict:
    sub = W.round_seed(wl.name, seed, index)
    with HostClock(calibrate=tracer is None) as clock:
        m0 = clock.mark()
        store = wl.build()
        oracle = W.Oracle(store)
        m1 = clock.mark()
        preload(store, W.KEYS, W.VALUE_SIZE, num_threads=W.CLIENTS, seed=sub)
        m2 = clock.mark()
        wl.warmup(store, sub + 1)
        m3 = clock.mark()
        before = counters(store)
        if tracer is not None:
            tracer.start()
        w0 = clock.mark()
        out = wl.window(store, ops, sub + 2)
        w1 = clock.mark()
        if tracer is not None:
            tracer.stop()
    after = counters(store)
    delta = {k: after[k] - before[k] for k in after}
    if "cluster.repl_queued" in after:  # a queue length, not a count
        delta["cluster.repl_queued"] = after["cluster.repl_queued"]
    space_used = sum(
        sum(vs.used_bytes() for vs in p.storages) + p.nvm_bytes_used()
        for p in _prisms(store)
    )
    live = oracle.live_bytes()
    audit = out["audit"]
    audit_failed = audit.get("lost_acked", 0) + audit.get("wrong_value", 0)
    run = out["run"]
    oracle.read_back()
    kinds = {k: sorted(rec.samples) for k, rec in run.per_kind.items()}
    simulated = {
        "ops": run.ops,
        "duration": run.duration,
        "kinds": kinds,
        "space_used": space_used,
        "live_bytes": live,
        "ssds": sum(len(p.ssds) + len(p.cold_ssds) for p in _prisms(store)),
        "counters": delta,
        "audit": audit,
    }
    digest = hashlib.sha256(
        json.dumps(simulated, sort_keys=True).encode()
    ).hexdigest()
    result = dict(
        simulated,
        digest=digest,
        build_s=clock.seconds(m0, m1)[1],
        preload_s=clock.seconds(m1, m2)[1],
        warmup_s=clock.seconds(m2, m3)[1],
        setup_raw_s=clock.seconds(m0, m3)[0],
        window_s=clock.seconds(w0, w1)[1],
        window_raw_s=clock.seconds(w0, w1)[0],
        checked=oracle.checked + audit.get("keys_checked", 0),
        failed=oracle.failed + out["shed"] + out["raised"] + audit_failed,
        errors=oracle.errors + ([f"audit: {audit}"] if audit_failed else []),
    )
    # Free this round's store before the next one is built, so peak RSS
    # is one store's.
    del store, oracle, out, run
    gc.collect()
    return result


def end_to_end(rounds: List[dict]) -> Dict[str, float]:
    """Simulated figures pool every round's samples; so does host
    throughput, while set-up time is the median over rounds."""

    def pooled(kinds) -> List[float]:
        return sorted(s for r in rounds for k in kinds for s in r["kinds"].get(k, ()))

    samples = pooled(READ_KINDS + WRITE_KINDS)
    reads, writes = pooled(READ_KINDS), pooled(WRITE_KINDS)
    ops = sum(r["ops"] for r in rounds)
    duration = sum(r["duration"] for r in rounds)
    put = sum(r["counters"]["bytes_put"] for r in rounds)
    return {
        "host_ops_per_s": ops / sum(r["window_s"] for r in rounds),
        "host_ops_per_s_raw": ops / sum(r["window_raw_s"] for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(
            r["build_s"] + r["preload_s"] + r["warmup_s"] for r in rounds
        ),
        "setup_raw_s": statistics.median(r["setup_raw_s"] for r in rounds),
        "sim_kops": ops / duration / 1e3,
        "sim_p50_us": percentile(samples, 50),
        "sim_p99_us": percentile(samples, 99),
        "sim_p999_us": percentile(samples, 99.9),
        "sim_read_p99_us": percentile(reads, 99) if reads else 0.0,
        # A mean, not a p99: the scan workload's few writes leave fewer
        # than ten samples beyond p99, which then flips between two
        # latency plateaus from seed to seed.
        "sim_write_mean_us": statistics.fmean(writes) * 1e6 if writes else 0.0,
        "waf": sum(r["counters"]["ssd.write_bytes"] for r in rounds) / put,
        "space_amp": sum(r["space_used"] for r in rounds)
        / sum(r["live_bytes"] for r in rounds),
        "sim_samples": len(samples),
    }


def per_layer(tracer, rnd: dict) -> Dict[str, float]:
    """Per-layer figures of one traced round."""
    c = rnd["counters"]
    calls, vsec = tracer.calls, tracer.vsec
    cached = c["svc.hits"] + c["svc.admissions"]
    out: Dict[str, float] = {
        "prism.put.calls": calls["prism.put"],
        "prism.put.vsec": vsec["prism.put"],
        "prism.put.self_vsec": tracer.self_vsec["prism.put"],
        "prism.get.calls": calls["prism.get"],
        "prism.get.vsec": vsec["prism.get"],
        "prism.scan.calls": calls["prism.scan"],
        "prism.scan.vsec": vsec["prism.scan"],
        "index.lookup.calls": calls["index.lookup"],
        "index.lookup.vsec": vsec["index.lookup"],
        "index.scan.calls": calls["index.scan"],
        "index.scan.vsec": vsec["index.scan"],
        "hsit.publish.calls": calls["hsit.publish"],
        "hsit.publish.vsec": vsec["hsit.publish"],
        "hsit.read_location.calls": calls["hsit.read_location"],
        "pwb.append.calls": calls["pwb.append"],
        "pwb.append.vsec": vsec["pwb.append"],
        "pwb.append.bytes": tracer.nbytes["pwb.append"],
        "pwb.read.calls": calls["pwb.read"],
        "pwb.reclaims": c["pwb.reclaims"],
        "svc.lookup.calls": calls["svc.lookup"],
        # Reads that reached the SVC: a hit, or a miss that admitted.
        "svc.hit_ratio": c["svc.hits"] / cached if cached else 0.0,
        "svc.admit.calls": calls["svc.admit"],
        "svc.evictions": c["svc.evictions"],
        "svc.scan_writebacks": c["svc.scan_writebacks"],
        "svc.background.vsec": vsec["svc.background"],
        "tcq.read.calls": calls["tcq.read"],
        "tcq.read.vsec": vsec["tcq.read"],
        "tcq.avg_batch": c["tcq.combined"] / c["tcq.batches"]
        if c["tcq.batches"] else 0.0,
        "value_storage.write_records.calls": calls["value_storage.write_records"],
        "value_storage.write_records.bytes": tracer.nbytes["value_storage.write_records"],
        "value_storage.write_records.vsec": vsec["value_storage.write_records"],
        "value_storage.gc_runs": c["value_storage.gc_runs"],
        "value_storage.gc_victims.calls": tracer.count("value_storage.gc_victims"),
        "storage.iouring.requests": c["iouring.requests"],
        "storage.iouring.avg_batch": c["iouring.requests"] / c["iouring.batches"]
        if c["iouring.batches"] else 0.0,
        "storage.ssd.read_bytes": c["ssd.read_bytes"],
        "storage.ssd.write_bytes": c["ssd.write_bytes"],
        # Transfer time per SSD per virtual second of the window.
        "storage.ssd.busy_frac": c["ssd.busy_vsec"] / (rnd["duration"] * rnd["ssds"]),
        "storage.ssd.queue_wait_vsec": vsec["storage.ssd.queue_wait"],
        "storage.ssd.service_vsec": vsec["storage.ssd.service"],
        "storage.nvm.flush_calls": c["nvm.flushes"],
        "storage.nvm.bytes_flushed": c["nvm.bytes_flushed"],
        "sim.bandwidth.calls": tracer.count("sim.bandwidth"),
        "cluster.put.vsec": vsec["cluster.put"],
        "cluster.get.vsec": vsec["cluster.get"],
        # Cluster op minus its primary-shard op: routing plus the wait
        # for replica acks.
        "cluster.router_self_vsec": sum(
            vsec[op] - tracer.first_child_vsec[op]
            for op in ("cluster.put", "cluster.get")
        ),
    }
    for name in ("repl_queued", "repl_applied", "repl_dropped", "shed"):
        out[f"cluster.{name}"] = c.get(f"cluster.{name}", 0)
    for module, seconds in tracer.sampler.host_self_s().items():
        out[f"{module}.host_self_s"] = seconds
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS_BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--rounds", type=int, default=W.ROUNDS)
    parser.add_argument("--trace", default="", help="traced run; write spans here")
    args = parser.parse_args(argv)
    if args.trace and args.rounds != 1:
        parser.error("--trace measures one round: pass --rounds 1")
    wl = W.WORKLOADS_BY_NAME[args.workload]
    ops = wl.window_ops(args.seconds)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(str(HERE))
        tracer.install()
    report: dict = {"workload": wl.name, "seed": args.seed, "window_ops": ops}
    try:
        rounds = [
            run_round(wl, args.seed, i, ops, tracer) for i in range(args.rounds)
        ]
        report.update(
            metrics=end_to_end(rounds),
            digests=[r["digest"] for r in rounds],
            window_s=[r["window_raw_s"] for r in rounds],
            setup=[
                {k: r[k] for k in ("build_s", "preload_s", "warmup_s")}
                for r in rounds
            ],
            attempted=sum(r["checked"] for r in rounds),
            failed=sum(r["failed"] for r in rounds),
            errors=[e for r in rounds for e in r["errors"]][:5],
        )
        if tracer is not None:
            report["layers"] = per_layer(tracer, rounds[-1])
            report["spans"] = tracer.write_spans(args.trace)
    except Exception:  # a crashed run is reported as such, not raised
        traceback.print_exc()
        report["crashed"] = True
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
