"""A traced benchmark run of each gated workload ends in a result line with every per-layer metric.

Each run goes from a copy of `bench/`, `src/` and `BENCHMARK.json` in a temporary directory, so the
run's `.bench_out/` stays out of the checkout. `--seconds 2` plans one untraced and one traced process.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_bench_run_ends_in_a_complete_result(workload, tmp_path):
    for name in ("bench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
                           "--seconds", "2", "--trace", "1"], cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    null = [m["name"] for m in SPEC["per_layer"] if result["metrics"].get(m["name"], {}).get("value") is None]
    assert null == []
