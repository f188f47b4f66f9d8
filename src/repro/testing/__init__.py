"""Testing utilities: fault injection, the lock-order watchdog, the
seed the observability tests build their tables with, and the seam that
hides NumPy."""

import contextlib
from typing import Iterator

from repro.engine import layout
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


@contextlib.contextmanager
def without_numpy() -> Iterator[None]:
    """Plan and run inside as an install without NumPy would: the row
    interpreter, the reference every columnar path is held to.

    Process-global: it sets ``repro.engine.layout._np`` to ``None`` for
    every thread until the block exits, so it is for tests and offline
    measurements, never for serving.
    """
    saved = layout._np
    layout._np = None
    try:
        yield
    finally:
        layout._np = saved

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
    "without_numpy",
]
