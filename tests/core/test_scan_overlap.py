"""A scan submits every Value Storage's merged batch before it waits, so
the SSDs serve them in parallel virtual time; with one SSD there is
nothing to overlap and the simulated output is pinned byte for byte."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.bench.runner import preload, run_workload
from repro.bench.stores import build_prism
from repro.core.prism import Prism
from repro.sim.vthread import VThread
from repro.workloads.ycsb import WORKLOADS
from tests.conftest import small_prism_config

VALUE = 2000
RUN = 12


def _key(prefix: str, i: int) -> bytes:
    return b"%s%03d" % (prefix.encode(), i)


def _value(key: bytes) -> bytes:
    return key * (VALUE // len(key))


@pytest.fixture(params=["tc", "sync"])
def store(request):
    """Three key groups, each flushed on its own so each lands in one
    Value Storage.  ``a`` even keys and ``a`` odd keys go to different
    devices; the ``m`` keys all share one device."""
    s = Prism(
        small_prism_config(
            num_threads=1,
            pwb_capacity=256 * 1024,
            enable_svc=False,
            enable_metrics=True,
            read_batching=request.param,
        )
    )
    t = VThread(0, s.clock)
    for group in (range(0, 2 * RUN, 2), range(1, 2 * RUN, 2)):
        for i in group:
            s.put(_key("a", i), _value(_key("a", i)), t)
        s.flush()
    for i in range(2 * RUN):
        s.put(_key("m", i), _value(_key("m", i)), t)
    s.flush()
    return s


def _devices(store, keys):
    return {
        store.hsit.read_location(store.index.lookup(k)).vs_id for k in keys
    }


def _timed_scan(store, start: bytes, count: int):
    """Scan from an idle point in virtual time; returns (pairs, latency)."""
    t = VThread(0, store.clock)
    t.now = store.clock.now + 1e-3  # every device has drained
    t0 = t.now
    pairs = store.scan(start, count, t)
    return pairs, t.now - t0


def test_scan_misses_on_two_devices_overlap(store):
    both = [_key("a", i) for i in range(2 * RUN)]
    one = [_key("m", i) for i in range(2 * RUN)]
    assert len(_devices(store, both)) == 2
    assert len(_devices(store, one)) == 1
    pairs_one, lat_one = _timed_scan(store, one[0], len(one))
    pairs_both, lat_both = _timed_scan(store, both[0], len(both))
    assert pairs_one == [(k, _value(k)) for k in one]
    assert pairs_both == [(k, _value(k)) for k in both]
    if store.config.read_batching == "sync":
        # The synchronous-IO strawman blocks per device: serial.
        assert lat_both > 1.5 * lat_one
    else:
        assert lat_both < 1.5 * lat_one, (lat_both, lat_one)


def test_overlapped_wait_is_attributed_once_per_scan(store):
    """One scan over both devices records the read phases once, and
    they add up to the scan's single wait."""
    hist = store.metrics.histogram
    phases = ("combining_wait", "ssd_wait")
    before = {p: (hist(f"phase.read.{p}").count, hist(f"phase.read.{p}").total)
              for p in phases}
    _, latency = _timed_scan(store, _key("a", 0), 2 * RUN)
    recorded = {p: hist(f"phase.read.{p}").count - before[p][0] for p in phases}
    waited = sum(hist(f"phase.read.{p}").total - before[p][1] for p in phases)
    if store.config.read_batching == "sync":
        assert recorded == {"combining_wait": 0, "ssd_wait": 1}
    else:
        assert recorded == {"combining_wait": 1, "ssd_wait": 1}
    assert 0.5 * latency < waited <= latency


# name: (workload, num_ssds, config overrides,
#        sha256 of the run's metrics payload, repr of the final clock)
PINS = {
    "E-1ssd": (
        "E", 1, {},
        "bd78fdb2c07b15a242901d2cd12e81db1480187ac5ce39c164a3862254d1b3fc",
        "0.03996864623661278",
    ),
    "E-1ssd-checksums": (
        "E", 1, {"enable_checksums": True},
        "61ae9bfecf9f897843b8f0c3920bf3c88d3c6ed3f760eb52f57ffc6022521443",
        "0.04009081702764874",
    ),
    "E-1ssd-sync": (
        "E", 1, {"read_batching": "sync"},
        "af07320f575237891d9a86dabdfb609fe9feb5dc7ebd7f099602780b7ad50080",
        "0.040106724584989435",
    ),
    # Point reads only: the scan change must not reach them.
    "C-2ssd": (
        "C", 2, {},
        "c7b61b0c1064b4d859415f420de12ed47a90f0c61131b7ecb4105bb6ac6afd58",
        "0.009892388359294645",
    ),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_no_overlap_runs_are_unchanged(name):
    """Digest of a seeded run where nothing overlaps: 3,000 keys of
    1 KiB preloaded into ``build_prism(num_threads=4, num_ssds=...,
    dataset_bytes=3000 * 1024, expected_keys=6000, **overrides)``,
    then ``run_workload(store, WORKLOADS[w], 800, 3000, 4)`` (default
    seed); the digest is the sha256 of ``json.dumps(result.metrics,
    sort_keys=True)``, next to ``repr(store.clock.now)``.

    Captured with this recipe on commit ``b5a1f79``, when a scan still
    read one Value Storage after another.
    """
    workload, num_ssds, overrides, digest, final_clock = PINS[name]
    store = build_prism(
        num_threads=4,
        num_ssds=num_ssds,
        dataset_bytes=3000 * 1024,
        expected_keys=6000,
        **overrides,
    )
    preload(store, 3000, num_threads=4)
    result = run_workload(store, WORKLOADS[workload], 800, 3000, 4)
    payload = json.dumps(result.metrics, sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == digest
    assert repr(store.clock.now) == final_clock
