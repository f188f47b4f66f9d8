"""Testing utilities: fault injection, the lock-order watchdog, and the
seed the observability tests build their tables with."""

from repro.testing.faults import FAULT_SITES, FaultPlan, FaultSpec
from repro.testing.lockwatch import (
    LockOrderError,
    LockOrderWatchdog,
    WatchedLock,
    watch_registry,
    watch_server,
    watch_session,
)

#: Seed of the batting tables the observability and join-order tests
#: (and ``python -m repro.obs.check``) build.
RECORD_SEED = 2017

__all__ = [
    "FAULT_SITES",
    "FaultPlan",
    "FaultSpec",
    "LockOrderError",
    "LockOrderWatchdog",
    "RECORD_SEED",
    "WatchedLock",
    "watch_registry",
    "watch_server",
    "watch_session",
]
