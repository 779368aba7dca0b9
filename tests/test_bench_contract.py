"""The benchmark's contract with the package: every traced target exists and is measured.

`bench/tracer.py` wraps the functions listed in its TARGETS and reports the
metrics of a target that is gone, or never called on the `run_scenario` path,
as unmeasured (null). These checks read `bench/` and never change it.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
SRC = Path(__file__).resolve().parents[1] / "src"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_is_callable():
    for layer, fname in load_tracer().TARGETS:
        module = importlib.import_module(f"rislink.{layer}")
        assert callable(getattr(module, fname, None)), f"bench traces rislink.{layer}.{fname}, which is gone"


def test_traced_workload_measures_every_layer():
    spec = {"src": str(SRC), "preset": "desk", "scenario": "se_vs_snr", "trace": True,
            "overrides": {"n_ris_list": [16], "snr_db": [-5.0, 10.0], "mc_trials": 1, "seed": 0}}
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-s", str(BENCH / "workload_process.py"), json.dumps(spec)],
                          cwd=BENCH.parent, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1, f"the report must be the only line on stdout, got {lines[:-1]!r}"
    report = json.loads(lines[0])
    assert report["missing"] == []
    unmeasured = sorted(name for name, value in report["layers"].items() if value is None)
    assert unmeasured == [], f"traced metrics read null: {unmeasured}"
