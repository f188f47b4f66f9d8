"""The execution axis of the differential and robustness suites.

Each name stands for a set of ``EngineConfig`` / ``SmartIceberg``
keyword arguments:

* ``row`` -- row at a time, the reference every other path is held to;
* ``batch`` -- columnar execution cut into batches of
  :data:`SMALL_BATCH` rows, so every operator of a test-sized query
  sees several batches and their boundaries;
* ``columnar`` -- columnar execution at the shipped batch size, where a
  test-sized table is one batch.
"""

SMALL_BATCH = 64

MODES = {
    "row": {"execution_mode": "row"},
    "batch": {"execution_mode": "columnar", "batch_size": SMALL_BATCH},
    "columnar": {"execution_mode": "columnar"},
}


def mode_kwargs(mode: str) -> dict:
    """The keyword arguments ``mode`` names (a fresh dict)."""
    return dict(MODES[mode])
