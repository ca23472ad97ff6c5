"""The traced run: layer wrappers and a sampling profiler.

``Tracer.install`` wraps public methods of each layer's class from the
outside.  A wrapper reads the calling virtual thread's ``now`` before
and after the call (or, for the asynchronous device calls, takes the
returned completion time minus ``at``), so it observes virtual time but
never advances it: a traced run's simulated results equal the untraced
run's.  Wrappers only see calls that go through a public method, so
host CPU per module comes from :class:`Sampler` instead, a
``setitimer(ITIMER_PROF)`` profiler that charges each sample to the
innermost frame of a known module.

Spans (name, start, end, parent, op id) are kept in memory for every
``SPAN_EVERY``-th top-level operation and written out when the run
ends; counts and virtual seconds cover every call.
"""

from __future__ import annotations

import gzip
import inspect
import json
import os
import signal
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

from repro.cluster.router import PrismCluster
from repro.core.hsit import HSIT
from repro.core.prism import Prism
from repro.core.pwb import PersistentWriteBuffer
from repro.core.svc import ScanAwareValueCache
from repro.core.tcq import ThreadCombiner
from repro.core.value_storage import ValueStorage
from repro.index.pactree import PACTree
from repro.sim.resources import BandwidthChannel
from repro.storage.nvm import NVMDevice
from repro.storage.ssd import SSDDevice


class Tracer:
    # Spans are kept for every SPAN_EVERY-th top-level operation.
    SPAN_EVERY = 64

    def __init__(self, bench_dir: str) -> None:
        self.active = False
        self.sampler = Sampler(bench_dir)
        self.calls: Dict[str, int] = defaultdict(int)
        self.vsec: Dict[str, float] = defaultdict(float)
        self.self_vsec: Dict[str, float] = defaultdict(float)
        self.first_child_vsec: Dict[str, float] = defaultdict(float)
        self.nbytes: Dict[str, int] = defaultdict(int)
        # Always-on call counters for the hottest kernel entry points,
        # read as deltas around the window.
        self.counts: Dict[str, int] = defaultdict(int)
        self._counts_at_start: Dict[str, int] = {}
        self.spans: List[list] = []
        # Open calls, innermost last:
        # [label, thread, start, same-thread child vsec, first child vsec, span]
        self._stack: List[list] = []
        self._op = -1

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _timed(
        self,
        cls,
        name: str,
        label: str,
        thread_arg: Optional[str] = None,
        at_arg: Optional[str] = None,
        done: Optional[Callable[[object], float]] = None,
        measure: Optional[Callable[[tuple, object, float], None]] = None,
    ) -> None:
        """Wrap ``cls.name``: calls, virtual seconds, self time, spans.

        Timing comes from the ``thread_arg`` VThread's clock, or from
        ``done(result) - at_arg`` for calls that return a completion
        time instead of advancing a thread.  ``measure(args, result,
        elapsed)`` records layer-specific extras.
        """
        orig = getattr(cls, name)
        params = list(inspect.signature(orig).parameters)
        pos = params.index(thread_arg or at_arg)
        key = thread_arg or at_arg
        tracer = self
        stack = self._stack
        spans = self.spans
        calls, vsec, self_vsec = self.calls, self.vsec, self.self_vsec
        first_child = self.first_child_vsec

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            arg = args[pos] if len(args) > pos else kwargs.get(key)
            thread = arg if thread_arg else None
            if thread is not None:
                start = thread.now
            elif at_arg:
                start = arg
            else:
                start = None
            if not stack:
                tracer._op += 1
            span = -1
            if tracer._op % Tracer.SPAN_EVERY == 0:
                span = len(spans)
                parent = stack[-1][5] if stack else -1
                spans.append([label, start, None, parent, tracer._op])
            frame = [label, thread, start, 0.0, None, span]
            stack.append(frame)
            result = None
            try:
                result = orig(*args, **kwargs)
                return result
            finally:
                stack.pop()
                if thread is not None:
                    end = thread.now
                elif at_arg and result is not None:
                    end = done(result)
                else:
                    end = start
                elapsed = end - start if start is not None else 0.0
                calls[label] += 1
                vsec[label] += elapsed
                self_vsec[label] += elapsed - frame[3]
                if frame[4] is not None:
                    first_child[label] += frame[4]
                if stack and thread is not None:
                    outer = stack[-1]
                    if outer[1] is thread:
                        outer[3] += elapsed
                        if outer[4] is None:
                            outer[4] = elapsed
                if span >= 0:
                    spans[span][2] = end
                if measure is not None:
                    measure(args, result, elapsed)

        setattr(cls, name, wrapper)

    def _counted(self, cls, name: str, label: str) -> None:
        orig = getattr(cls, name)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[label] += 1
            return orig(*args, **kwargs)

        setattr(cls, name, wrapper)

    def install(self) -> None:
        """Wrap every layer.  Call before any store is built: devices
        bind some channel methods at construction."""
        t = self._timed
        nbytes, vsec = self.nbytes, self.vsec

        def count_bytes(label, size):
            def measure(args, result, elapsed):
                nbytes[label] += size(args)
            return measure

        def ssd_split(kind):
            # Queue wait versus service: service is the spec latency
            # plus the transfer at full channel bandwidth; the rest of
            # the elapsed time waited behind other traffic.
            def measure(args, result, elapsed):
                dev = args[0]
                if kind == "read":
                    size, channel = args[3], dev.read_channel
                    latency = dev.spec.read_latency
                else:
                    size, channel = len(args[3]), dev.write_channel
                    latency = dev.spec.write_latency
                service = latency + size / channel.bandwidth
                if elapsed <= 0.0:
                    return
                service = min(service, elapsed)
                vsec["storage.ssd.service"] += service
                vsec["storage.ssd.queue_wait"] += elapsed - service
            return measure

        t(Prism, "put", "prism.put", thread_arg="thread")
        t(Prism, "get", "prism.get", thread_arg="thread")
        t(Prism, "scan", "prism.scan", thread_arg="thread")
        t(Prism, "delete", "prism.delete", thread_arg="thread")
        t(PACTree, "lookup", "index.lookup", thread_arg="thread")
        t(PACTree, "insert", "index.insert", thread_arg="thread")
        t(PACTree, "scan", "index.scan", thread_arg="thread")
        t(HSIT, "allocate", "hsit.allocate", thread_arg="thread")
        t(HSIT, "publish_location_word", "hsit.publish", thread_arg="thread")
        t(HSIT, "read_location", "hsit.read_location", thread_arg="thread")
        t(HSIT, "read_svc", "hsit.read_svc", thread_arg="thread")
        t(PersistentWriteBuffer, "append", "pwb.append", thread_arg="thread",
          measure=count_bytes("pwb.append", lambda a: len(a[2])))
        t(PersistentWriteBuffer, "read", "pwb.read", thread_arg="thread")
        t(ScanAwareValueCache, "lookup", "svc.lookup", thread_arg="thread")
        t(ScanAwareValueCache, "admit", "svc.admit", thread_arg="thread")
        t(ScanAwareValueCache, "invalidate", "svc.invalidate", thread_arg="thread")
        t(ScanAwareValueCache, "process_background", "svc.background",
          thread_arg="bg")
        t(ThreadCombiner, "read", "tcq.read", thread_arg="thread")
        t(ValueStorage, "write_records", "value_storage.write_records",
          at_arg="at", done=lambda r: r[1],
          measure=count_bytes(
              "value_storage.write_records",
              lambda a: sum(len(v) for _, v in a[2]),
          ))
        t(SSDDevice, "read", "storage.ssd.read", thread_arg="thread",
          measure=ssd_split("read"))
        t(SSDDevice, "write", "storage.ssd.write", thread_arg="thread",
          measure=ssd_split("write"))
        t(SSDDevice, "read_async", "storage.ssd.read_async", at_arg="at",
          done=lambda r: r, measure=ssd_split("read"))
        t(SSDDevice, "write_async", "storage.ssd.write_async", at_arg="at",
          done=lambda r: r, measure=ssd_split("write"))
        t(NVMDevice, "persist", "storage.nvm.persist", thread_arg="thread")
        t(NVMDevice, "flush", "storage.nvm.flush", thread_arg="thread")
        t(NVMDevice, "fence", "storage.nvm.fence", thread_arg="thread")
        t(NVMDevice, "publish_word", "storage.nvm.publish_word", thread_arg="thread")
        t(PrismCluster, "put", "cluster.put", thread_arg="thread")
        t(PrismCluster, "get", "cluster.get", thread_arg="thread")
        self._counted(ValueStorage, "gc_victims", "value_storage.gc_victims")
        self._counted(BandwidthChannel, "request", "sim.bandwidth")

    # ------------------------------------------------------------------
    # window control and output
    # ------------------------------------------------------------------
    def start(self) -> None:
        self._counts_at_start = dict(self.counts)
        self.active = True
        self.sampler.start()

    def stop(self) -> None:
        self.sampler.stop()
        self.active = False

    def count(self, label: str) -> int:
        return self.counts[label] - self._counts_at_start.get(label, 0)

    def write_spans(self, path: str) -> int:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with gzip.open(path, "wt") as out:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op,
                }) + "\n")
        return len(self.spans)


# ----------------------------------------------------------------------
# sampling profiler
# ----------------------------------------------------------------------
_CORE_LAYERS = {"hsit", "pwb", "svc", "tcq", "value_storage"}
_DIR_LAYERS = {"index", "storage", "sim", "workloads", "cluster", "obs"}
MODULES = (
    "prism", "index", "hsit", "pwb", "svc", "tcq", "value_storage",
    "storage", "sim", "workloads", "cluster", "obs", "runner", "bench",
    "other",
)


def module_of(filename: str, bench_dir: str) -> str:
    """The layer a source file belongs to; "" when it is no module of
    ours (the stdlib), so the sample goes to a caller frame."""
    path = filename.replace(os.sep, "/")
    if path.startswith(bench_dir):
        return "bench"
    marker = "/repro/"
    pos = path.rfind(marker)
    if pos < 0:
        return ""
    rel = path[pos + len(marker):]
    top, _, rest = rel.partition("/")
    if top == "core":
        mod = rest[:-3] if rest.endswith(".py") else rest
        return mod if mod in _CORE_LAYERS else "prism"
    if top == "cluster" and rest == "runner.py":
        return "runner"
    if top in _DIR_LAYERS:
        return top
    if top == "bench":
        return "runner"
    return "other"


class Sampler:
    """Host CPU per module from ``ITIMER_PROF`` samples."""

    INTERVAL_S = 0.001

    def __init__(self, bench_dir: str) -> None:
        self.bench_dir = bench_dir.replace(os.sep, "/").rstrip("/") + "/"
        self.samples: Dict[str, int] = defaultdict(int)
        self._code_module: Dict[object, str] = {}
        self._cpu = 0.0
        self._previous = None

    def _on_sample(self, signum, frame) -> None:
        cache = self._code_module
        module = ""
        while frame is not None:
            code = frame.f_code
            module = cache.get(code)
            if module is None:
                module = cache[code] = module_of(code.co_filename, self.bench_dir)
            if module:
                break
            frame = frame.f_back
        self.samples[module or "other"] += 1

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._on_sample)
        self._cpu = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        self._cpu = time.process_time() - self._cpu
        signal.signal(signal.SIGPROF, self._previous)

    def host_self_s(self) -> Dict[str, float]:
        """Process CPU seconds of the sampled window, split by module in
        proportion to the samples."""
        total = sum(self.samples.values())
        return {
            module: (self._cpu * self.samples.get(module, 0) / total)
            if total else 0.0
            for module in MODULES
        }
