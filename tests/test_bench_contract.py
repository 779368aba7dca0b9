"""The benchmark's contract with the package: every traced target exists and is measured,
and the gated workloads reproduce their recorded reference seeds.

`bench/tracer.py` wraps the functions listed in its TARGETS and reports the
metrics of a target that is gone, or never called on the `run_scenario` path,
as unmeasured (null). `bench/check.py` checks workload CSVs against
`bench/reference/`. These checks read `bench/` and never change it.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rislink import harness

BENCH = Path(__file__).resolve().parents[1] / "bench"
SRC = Path(__file__).resolve().parents[1] / "src"


def load_bench(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_is_callable():
    for layer, fname in load_bench("tracer").TARGETS:
        module = importlib.import_module(f"rislink.{layer}")
        assert callable(getattr(module, fname, None)), f"bench traces rislink.{layer}.{fname}, which is gone"


# the paths of the gated workloads, at one trial
WORKLOADS = pytest.mark.parametrize("scenario, overrides", [
    ("se_vs_snr", {"n_ris_list": [16], "snr_db": [-5.0, 10.0]}),
    ("plos_vs_se", {"ris_rows": 4, "ris_cols": 4, "snr_db": [-5.0], "plos_grid": [0.1, 1.0]}),
], ids=["desk_snr", "desk_blockage_low"])


def run_workload(scenario: str, overrides: dict, trace: bool) -> dict:
    """Run one workload process and return its report, which must be the only line on stdout."""
    spec = {"src": str(SRC), "preset": "desk", "scenario": scenario, "trace": trace,
            "overrides": {**overrides, "mc_trials": 1, "seed": 0}}
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-s", str(BENCH / "workload_process.py"), json.dumps(spec)],
                          cwd=BENCH.parent, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1, f"the report must be the only line on stdout, got {lines[:-1]!r}"
    return json.loads(lines[0])


@WORKLOADS
def test_traced_workload_measures_every_layer(scenario, overrides):
    report = run_workload(scenario, overrides, trace=True)
    assert report["missing"] == []
    unmeasured = sorted(name for name, value in report["layers"].items() if value is None)
    assert unmeasured == [], f"traced metrics read null: {unmeasured}"


@WORKLOADS
def test_untraced_workload_reports_on_one_line(scenario, overrides):
    report = run_workload(scenario, overrides, trace=False)
    assert "layers" not in report
    assert report["cells"] > 0 and report["csv"].startswith("scenario,")


@pytest.mark.parametrize("name, scenario", [("desk_snr", "se_vs_snr"), ("desk_blockage_low", "plos_vs_se")])
def test_gated_workload_reproduces_reference_seeds(name, scenario):
    # in-process, the CSVs of seeds 0-4 at the recorded overrides on the desk preset must pass bench/check.py
    recorded = json.loads((BENCH / "reference" / f"{name}.json").read_text())
    overrides = {k: tuple(v) if isinstance(v, list) else v for k, v in recorded["overrides"].items()}
    runs = []
    for seed in range(5):
        cfg, geom = harness.parse_config(None, {**overrides, "seed": seed}, preset="desk")
        runs.append((seed, harness.scenario_rows_to_csv(harness.run_scenario(cfg, geom, scenario))))
    verdict = load_bench("check").check_csvs(name, {"scenario": scenario, "overrides": recorded["overrides"]}, runs)
    assert verdict["failed"] == 0, verdict["reasons"]
    assert verdict["unreferenced_seeds"] == []
