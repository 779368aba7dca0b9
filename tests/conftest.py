"""Put the checkout's `src` first on the import path, so a bare `pytest` runs the suite without an install.

The tests that start a Python subprocess (the CLI, the end-to-end determinism gate, the demos) inherit it
through PYTHONPATH.
"""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
_paths = [path for path in os.environ.get("PYTHONPATH", "").split(os.pathsep) if path]
if SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *_paths])
