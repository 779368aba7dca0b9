"""Put the checkout's `src` first on the import path, so a bare `pytest` runs the suite without an install.

The tests that start a Python subprocess (the CLI, the end-to-end determinism gate, the demos) inherit it
through PYTHONPATH. BLAS runs one thread unless the environment asks for more: the suite's matrices are
small, and a second BLAS thread that spins against another busy process slows it several times over. This
runs before anything imports numpy, which reads the setting once, and the subprocesses inherit it.
"""

import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

SRC = str(Path(__file__).resolve().parent.parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
_paths = [path for path in os.environ.get("PYTHONPATH", "").split(os.pathsep) if path]
if SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *_paths])
