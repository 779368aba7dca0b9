"""rislink benchmark: seeded Monte Carlo workloads through the public harness API.

Usage, from the root of a checkout:

    python3 bench/run.py --workload desk_snr --seed 3 --seconds 50 --trace 0

A run starts fresh workload processes (workload_process.py) one after the
other, closed loop; each imports rislink from `src/`, builds its config and
makes one `run_scenario` call. The configs are generated from --seed: the run
uses Monte Carlo seeds 100 * seed + i, i = 0, 1, ...

With --trace 0 a run fits round(0.85 * seconds / process_s) processes: the
second repeats the first seed, whose CSV text must come out byte-identical,
and the others run distinct seeds. Once those two have run, no process starts
past 1.2 * seconds, so that a run on a slow host stays bounded.

cells_per_s and setup_s are corrected for the host's speed. The shared
2-core host the benchmark was tuned on swings between speeds up to 1.9x
apart, each held for a second to minutes, with no CPU time stolen from the
guest, so CPU time swings with wall time. Each process therefore times a
fixed probe of two parts (workload_process.speed_probe: small numpy calls,
and pure Python) right after set-up and again after its run_scenario call.
A probe's slowdown is the mean over its parts of their time over
PROBE_REF_S. cells_per_s is the run's cells over the sum of its run_scenario
times, each divided by the mean slowdown of the probes around it; setup_s is
the median over processes of set-up time divided by the slowdown of the
probe after it. Both read as if the host ran at the speed at which the probe
parts take PROBE_REF_S. The record line keeps the uncorrected figures.
peak_rss_mb is a median over the processes, pga_gain_se a mean over the
distinct seeds.

With --trace 1 a run alternates untraced and traced processes on the first
seed and reports the per-layer metrics of the first traced one, plus the
traced/untraced ratio of speed-corrected run_scenario times.

The last line of standard output is the result as one JSON object; the line
before it records the machine, every process and every failed check.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC_FILE = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".bench_out"

# Workload processes run single-threaded in BLAS, so that a later worker pool
# on this 2-core class of machine is measured without oversubscription.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

SEEDS_PER_RUN = 100  # the run with --seed s uses Monte Carlo seeds 100 * s + i
RUN_LIMIT_S = 170.0
PLAN_SHARE = 0.85  # share of --seconds the planned processes take at process_s each
OVERRUN = 1.2  # no process after the first two starts past OVERRUN * --seconds
# Times of the speed probe's (numpy, Python) parts in the fast phase of a 2-core x86 box.
PROBE_REF_S = (0.012, 0.0125)

# Config overrides per workload, and the nominal wall time of one process on a
# 2-core x86 box in its common, slower phase. Short processes keep the speed
# probes close in time to the run_scenario call between them; many seeds per
# run average out how much work a single seed's channels ask of the optimizer.
WORKLOADS = {
    # CI-scale SNR sweep: many small numpy calls, PGA gradient, eigh and
    # the waterfill bisection dominate; half the PGA runs stop on step one.
    "desk_snr": {
        "preset": "desk",
        "scenario": "se_vs_snr",
        "overrides": {"n_ris_list": [16, 64], "snr_db": [-5.0, 10.0], "mc_trials": 3},
        "process_s": 1.6,
    },
    # Blockage sweep at -5 dB: every PGA run stops after one step, so channel
    # synthesis, substreams and the per-cell redraw in the harness dominate.
    "desk_blockage_low": {
        "preset": "desk",
        "scenario": "plos_vs_se",
        "overrides": {"snr_db": [-5.0], "plos_grid": [0.1, 0.25, 0.5, 0.75, 1.0],
                      "ris_rows": 4, "ris_cols": 4, "mc_trials": 6},
        "process_s": 1.0,
    },
    # Paper shape (N_t=64, N_r=4, K=24): LAPACK eigh dominates at N_ris=64,
    # the gradient at N_ris=256, where PGA runs to its iteration cap. Not in
    # BENCHMARK.json: one trial takes 20-25 s, too few for a steady figure.
    "paper_snr": {
        "preset": "paper",
        "scenario": "se_vs_snr",
        "overrides": {"n_ris_list": [64, 256], "snr_db": [10.0], "mc_trials": 1},
        "process_s": 22.0,
    },
}


def run_seeds(name: str, seed: int, seconds: float) -> list:
    """Monte Carlo seeds of an end-to-end run; the second process repeats the first seed."""
    count = round(PLAN_SHARE * seconds / WORKLOADS[name]["process_s"]) - 1
    seeds = [SEEDS_PER_RUN * seed + i for i in range(min(SEEDS_PER_RUN, max(1, count)))]
    return seeds[:1] + seeds


def child_spec(name: str, mc_seed: int, trace: bool) -> dict:
    workload = WORKLOADS[name]
    spec = {"src": str(SRC), "preset": workload["preset"], "scenario": workload["scenario"],
            "overrides": {**workload["overrides"], "seed": mc_seed}, "trace": trace}
    if trace:
        spec["spans_out"] = str(OUT_DIR / f"spans-{name}-seed{mc_seed}.jsonl")
    return spec


def run_process(spec: dict, timeout: float) -> dict:
    """Run one workload process; returns its report plus wall and set-up times."""
    env = {**os.environ, **BLAS_ENV}
    argv = [sys.executable, "-s", str(BENCH_DIR / "workload_process.py"), json.dumps(spec)]
    base = {"seed": spec["overrides"]["seed"], "trace": spec["trace"]}
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return base | {"error": f"timed out after {timeout:.0f} s",
                       "wall_s": time.perf_counter() - t_spawn}
    wall = time.perf_counter() - t_spawn
    if proc.returncode != 0:
        return base | {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}", "wall_s": wall}
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return base | {"error": f"unreadable report: {proc.stdout[-500:]!r}", "wall_s": wall}
    return base | report | {"wall_s": wall, "setup_s": report["t_ready"] - t_spawn}


def run_end_to_end(name: str, seed: int, seconds: float) -> list:
    start = time.perf_counter()
    reports: list = []
    for mc_seed in run_seeds(name, seed, seconds):
        elapsed = time.perf_counter() - start
        limit = RUN_LIMIT_S if len(reports) < 2 else min(OVERRUN * seconds, RUN_LIMIT_S)
        if reports and elapsed + reports[-1]["wall_s"] > limit:
            break
        reports.append(run_process(child_spec(name, mc_seed, False), RUN_LIMIT_S - elapsed))
        if "error" in reports[-1]:
            break
    return reports


def run_traced(name: str, seed: int, seconds: float) -> list:
    """Untraced and traced processes of the first seed, in pairs, for `seconds`."""
    start = time.perf_counter()
    reports: list = []
    while True:
        for trace in (False, True):
            elapsed = time.perf_counter() - start
            reports.append(run_process(child_spec(name, SEEDS_PER_RUN * seed, trace),
                                       RUN_LIMIT_S - elapsed))
            if "error" in reports[-1]:
                return reports
        elapsed = time.perf_counter() - start
        pair_s = reports[-1]["wall_s"] + reports[-2]["wall_s"]
        if elapsed + pair_s > min(seconds, RUN_LIMIT_S):
            return reports


def metric(value, unit: str) -> dict:
    if value is None or not math.isfinite(value):
        return {"value": None, "unit": unit, "unmeasured": True}
    return {"value": value, "unit": unit}


def slowdown(probe_s: list) -> float:
    """How much slower than PROBE_REF_S one speed probe ran, as a mean over its parts."""
    return statistics.fmean(t / ref for t, ref in zip(probe_s, PROBE_REF_S))


def reference_s(report: dict) -> float:
    """A process's run_scenario time at the host speed at which the probe parts take PROBE_REF_S."""
    return report["run_s"] / statistics.fmean(slowdown(probe) for probe in report["probe_s"])


def reference_setup_s(report: dict) -> float:
    """A process's set-up time at that speed, by the probe that ran right after set-up."""
    return report["setup_s"] / slowdown(report["probe_s"][0])


def end_to_end(reports: list, verdict: dict) -> dict:
    gains = [g for g in {r["seed"]: r["pga_gain_se"] for r in reports}.values() if math.isfinite(g)]
    # A mean over equal-sized seeds is the mean over all their trials; over
    # ten desk_snr runs it spread half as wide as a median over seeds.
    return {
        "cells_per_s": sum(r["cells"] for r in reports) / sum(reference_s(r) for r in reports),
        "setup_s": statistics.median(reference_setup_s(r) for r in reports),
        "peak_rss_mb": statistics.median(r["peak_rss_kib"] / 1024.0 for r in reports),
        "pga_gain_se": statistics.fmean(gains) if gains else None,
        "correct_frac": 1.0 - verdict["failed"] / verdict["attempted"],
    }


def per_layer(reports: list) -> dict:
    traced = [r for r in reports if r["trace"]]
    plain = [r for r in reports if not r["trace"]]
    values = dict(traced[0]["layers"])
    values["trace.overhead_ratio"] = (statistics.median(reference_s(r) for r in traced)
                                      / statistics.median(reference_s(r) for r in plain))
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not (SRC / "rislink" / "__init__.py").is_file() or not SPEC_FILE.is_file():
        print(f"error: no rislink sources under {SRC} or no {SPEC_FILE.name}; "
              "run from the root of a rislink checkout", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_FILE.read_text())
    OUT_DIR.mkdir(exist_ok=True)

    if args.trace:
        reports = run_traced(args.workload, args.seed, args.seconds)
    else:
        reports = run_end_to_end(args.workload, args.seed, args.seconds)
    ok = [r for r in reports if "error" not in r]
    errors = [r for r in reports if "error" in r]
    if not ok or (args.trace and not any(r["trace"] for r in ok)):
        print("error: a workload process failed: " + "; ".join(r["error"] for r in errors),
              file=sys.stderr)
        return 1

    for r in ok:
        r["pga_gain_se"] = check.pga_gain_se(r["csv"])
    workload = WORKLOADS[args.workload]
    verdict = check.check_csvs(args.workload, workload, [(r["seed"], r["csv"]) for r in ok])
    failed_cells = len(check.expected_keys(workload)) * workload["overrides"]["mc_trials"]
    for r in errors:
        verdict["attempted"] += failed_cells
        verdict["failed"] += failed_cells
        verdict["reasons"].append(f"seed {r['seed']}: {r['error']}")

    if args.trace:
        values, names = per_layer(ok), spec["per_layer"]
    else:
        values, names = end_to_end(ok, verdict), spec["end_to_end"]
    metrics = {m["name"]: metric(values.get(m["name"]), m["unit"]) for m in names}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "config": workload,
        "machine": ok[0]["machine"],
        "processes": [{k: r.get(k) for k in ("seed", "trace", "wall_s", "setup_s", "run_s", "probe_s", "cells",
                                              "peak_rss_kib", "pga_gain_se", "error")}
                      for r in reports],
        "unreferenced_seeds": verdict["unreferenced_seeds"],
        "cells_per_s_wall": sum(r["cells"] for r in ok) / sum(r["run_s"] for r in ok),
        "setup_s_wall": statistics.median(r["setup_s"] for r in ok),
        "host_slowdown_median": statistics.median(r["run_s"] / reference_s(r) for r in ok),
        "failed_frac": verdict["failed"] / verdict["attempted"],
        "failures": verdict["reasons"][:50],
    }
    if args.trace:
        traced = next(r for r in ok if r["trace"])
        record["missing_targets"] = traced["missing"]
        record["traced_sites"] = traced["sites"]
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": verdict["failed"] == 0, "attempted": verdict["attempted"],
                      "failed": verdict["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
