"""``python -m pytest bench/tests`` from the repository root.

The benchmark measures the program under ``src/``; put it on the path
the way ``bench.run`` does for its workers, so the tests need no
``PYTHONPATH``.
"""

import sys

from bench.catalog import ROOT

_SOURCE = str(ROOT / "src")
if _SOURCE not in sys.path:
    sys.path.insert(0, _SOURCE)
