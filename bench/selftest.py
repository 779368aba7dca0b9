"""Self-test of the benchmark itself.

Usage, from the root of a checkout:

    python3 bench/selftest.py [--workload NAME ...] [--seed N]

For each workload it checks that
  * an untraced and a traced run report every end-to-end and per-layer metric
    of BENCHMARK.json, each with a number or marked unmeasured, and pass the
    correctness check;
  * a second traced process of the same seed repeats every deterministic
    counter exactly;
  * the self times plus trace.unattributed_frac account for the root span.
It also checks that run.py refuses to run where only BENCHMARK.json and the
benchmark directory exist. Exits 0 when every check passes.
"""

import argparse
import json
import shutil
import subprocess
import sys

import run

DETERMINISTIC = ("pga.iterations", "pga.iters_per_run", "pga.accept_ratio",
                 "pga.first_step_stop_frac", "pga.max_iter_frac",
                 "flops.analytic_gflop", "harness.draws_per_cell")
ACCOUNTING_TOL_S = 1e-6


def shortest_run(name: str, seed: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", name,
                           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=400)
    if proc.returncode != 0:
        raise RuntimeError(f"run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def reported(result: dict, specs: list) -> list:
    """Problems with a result: failed cells, or a metric neither measured nor marked so."""
    problems = []
    if not result["correct"]:
        problems.append(f"correctness check failed ({result['failed']} of {result['attempted']} cells)")
    for spec in specs:
        m = result["metrics"].get(spec["name"])
        if m is None:
            problems.append(f"{spec['name']} missing")
        elif not (isinstance(m["value"], (int, float)) or m.get("unmeasured")):
            problems.append(f"{spec['name']} has no number and is not marked unmeasured")
    return problems


def check_workload(name: str, seed: int, spec: dict) -> list:
    problems = reported(shortest_run(name, seed, 0), spec["end_to_end"])
    result = shortest_run(name, seed, 1)
    problems += reported(result, spec["per_layer"])
    metrics = result["metrics"]

    second = run.run_process(run.child_spec(name, run.SEEDS_PER_RUN * seed, trace=True),
                             run.RUN_LIMIT_S)
    if "error" in second:
        return problems + [f"second traced process failed: {second['error']}"]
    counters = [k for k in metrics if k.endswith(".calls") or k in DETERMINISTIC]
    for key in counters:
        if metrics[key]["value"] != second["layers"].get(key):
            problems.append(f"{key} differs: {metrics[key]['value']} then {second['layers'].get(key)}")

    root = metrics["harness.run_scenario.total_s"]["value"]
    if root is None or metrics["trace.unattributed_frac"]["value"] is None:
        return problems + ["root span unmeasured, so its time cannot be accounted for"]
    # An unmeasured layer has no spans, so it contributes no self time.
    self_sum = sum(m["value"] or 0.0 for k, m in metrics.items() if k.endswith(".self_s"))
    unattributed = metrics["trace.unattributed_frac"]["value"] * root
    if abs(self_sum + unattributed - root) > ACCOUNTING_TOL_S:
        problems.append(f"self times {self_sum} + unattributed {unattributed} != root {root}")
    return problems


def check_bare_directory() -> list:
    """run.py must fail, printing no result, without the rislink sources."""
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.SPEC_FILE, bare / run.SPEC_FILE.name)
    try:
        proc = subprocess.run([sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload",
                               "desk_snr", "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    spec = json.loads(run.SPEC_FILE.read_text())
    run.OUT_DIR.mkdir(exist_ok=True)
    failures = 0
    for problem in check_bare_directory():
        print(f"FAIL {problem}")
        failures += 1
    for name in args.workload or sorted(run.WORKLOADS):
        problems = check_workload(name, args.seed, spec)
        for problem in problems:
            print(f"FAIL {name}: {problem}")
        print(f"{'ok  ' if not problems else 'FAIL'} {name}")
        failures += len(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
