"""The execution axis of the differential and robustness suites.

Each name stands for a path and a set of ``EngineConfig`` /
``SmartIceberg`` keyword arguments:

* ``row`` -- the row-at-a-time interpreter an install without NumPy
  runs (:func:`repro.testing.without_numpy` around planning and
  execution), the reference every other path is held to;
* ``batch`` -- columnar execution cut into batches of
  :data:`SMALL_BATCH` rows, so every operator of a test-sized query
  sees several batches and their boundaries;
* ``columnar`` -- columnar execution at the shipped batch size, where a
  test-sized table is one batch.

Without NumPy ``batch`` and ``columnar`` run the row interpreter too:
it is the only path such an install has.
"""

import contextlib

from repro.testing import without_numpy

SMALL_BATCH = 64

MODES = {
    "row": {},
    "batch": {"batch_size": SMALL_BATCH},
    "columnar": {},
}


def mode_kwargs(mode: str) -> dict:
    """The keyword arguments ``mode`` names (a fresh dict)."""
    return dict(MODES[mode])


def in_mode(mode: str):
    """The path ``mode`` names, for planning and executing inside it."""
    return without_numpy() if mode == "row" else contextlib.nullcontext()
