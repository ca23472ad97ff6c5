"""Fault injection, retrying IO, degraded mode, and crash exploration.

The subsystem has four layers:

* :mod:`repro.faults.errors` — the typed failure hierarchy under
  :class:`~repro.storage.base.StorageError`;
* :mod:`repro.faults.injector` — a seeded, deterministic
  :class:`FaultInjector` the simulated devices consult;
* :mod:`repro.faults.retry` — :class:`RetryPolicy`/:class:`RetryExecutor`
  for bounded retries with virtual-time backoff and escalation to
  permanent device death;
* :mod:`repro.faults.crash_sweep` — automated crash exploration: one
  driver discovers every named crash point a workload reaches, crashes
  at each one, and checks the durability contract plus the target's own
  audit.  A small target protocol plugs in what differs per system: a
  single store (:class:`~repro.faults.crash_sweep.StoreTarget`, recover then
  :func:`~repro.core.checker.audit`) here, and the cluster, gray and
  rebalance targets in :mod:`repro.cluster.crash_sweep`.

See the "Fault model" section of ``docs/simulation-model.md``.
"""

from repro.faults.errors import (
    DeadlineExceededError,
    DegradedError,
    DeviceDeadError,
    DeviceError,
    FlushError,
    NoHealthyStorageError,
    ReadDegradedError,
    RetryExhaustedError,
    StuckIOError,
    TransientIOError,
    TransientReadError,
    TransientWriteError,
)
from repro.faults.injector import (
    FaultConfig,
    FaultInjector,
    SlowFault,
    slow_store_devices,
)
from repro.faults.retry import RetryExecutor, RetryPolicy

__all__ = [
    "DeadlineExceededError",
    "DegradedError",
    "DeviceDeadError",
    "DeviceError",
    "FaultConfig",
    "FaultInjector",
    "FlushError",
    "NoHealthyStorageError",
    "ReadDegradedError",
    "RetryExecutor",
    "RetryExhaustedError",
    "RetryPolicy",
    "SlowFault",
    "StuckIOError",
    "TransientIOError",
    "TransientReadError",
    "TransientWriteError",
    "slow_store_devices",
]
