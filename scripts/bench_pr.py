#!/usr/bin/env python3
"""Benchmark a change against its parent commit in alternating pairs and write BENCH_<pr>.json.

Usage, from the root of a rislink checkout:

    python3 scripts/bench_pr.py --pr N --parent HEAD~1 [--seeds 0-9] [--paper-trials 3]

The parent tree is REV, exported with `git archive` into a temporary
directory, which leaves no worktree behind in the repository; the change is
this working tree, uncommitted edits included. For each workload that
BENCHMARK.json gates and each seed, `bench/run.py --workload W --seed S
--seconds T --trace 0` runs once in each tree, T being BENCHMARK.json's
`run_seconds`, the parent first in even pairs and the change first in odd
ones. Both trees run their own bench/ and src/.

The JSON holds each run's last two printed lines (the record line and the
result line) verbatim, then per workload and end-to-end metric of
BENCHMARK.json: both sides' values and medians, the parent's quartiles and
interquartile range, and the pairs the change wins, loses and ties, a win
being a better value by the metric's `better` direction. `claim_holds` is the
rule for claiming a gain: wins in at least nine tenths of the pairs, and a
median better than the parent's by more than the parent's IQR.

`--paper-trials T` adds two rounds, in alternating order, of a T-trial
`paper` run of each scenario (`se_vs_snr`, `plos_vs_se`, `distance_vs_se`)
through the CLI in each tree: its wall time, peak resident memory and the
SHA-256 of its CSV.

The script edits nothing under bench/. A pair of workloads at 50 s per run
takes about 4 * 55 s per seed.
"""

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the workload processes pin BLAS to one thread themselves; the paper runs get the same setting
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
PAPER_SCENARIOS = ("se_vs_snr", "plos_vs_se", "distance_vs_se")
PAPER_CHILD = ("import resource, sys\n"
               "from rislink import cli\n"
               "code = cli.main(sys.argv[1:])\n"
               "print('peak_rss_kib', resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
               "sys.exit(code)\n")


def parse_seeds(text: str) -> list[int]:
    """Distinct seeds from a comma-separated list of integers and inclusive ranges, e.g. "0-9" or "0,3,7919".

    A seed given twice is refused: both its runs would go into the JSON, but the summary would read one of them
    twice as two pairs and never read the other.
    """
    seeds = []
    for part in text.split(","):
        match = re.fullmatch(r"\s*(\d+)\s*(?:-\s*(\d+)\s*)?", part)
        if not match:
            raise argparse.ArgumentTypeError(f"seeds must be nonnegative integers, got {text!r}")
        low, high = int(match[1]), int(match[2] or match[1])
        if high < low:
            raise argparse.ArgumentTypeError(f"seed range {part.strip()!r} runs backwards; write it as {high}-{low}")
        seeds += range(low, high + 1)
    repeated = sorted(seed for seed, count in Counter(seeds).items() if count > 1)
    if repeated:
        raise argparse.ArgumentTypeError(f"seeds must be distinct; {', '.join(map(str, repeated))} given twice "
                                         f"or more in {text!r}")
    return seeds


def export(rev: str, into: Path) -> str:
    """Write the tree of commit `rev` into the directory `into`; returns the full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tempfile.TemporaryFile() as fh:
        fh.write(archive)
        fh.seek(0)
        with tarfile.open(fileobj=fh) as tar:
            tar.extractall(into, filter="data")
    return commit


def bench_run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `bench/run.py` end-to-end run in `tree`: its last two printed lines, verbatim, and the parsed result."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()[-2:]
    if proc.returncode != 0 or len(lines) != 2:
        raise RuntimeError(f"bench/run.py in {tree} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return {"lines": lines, "result": json.loads(lines[1])}


def paper_run(tree: Path, scenario: str, trials: int, out: Path) -> dict:
    """Wall time, peak resident memory and CSV SHA-256 of a `trials`-trial paper `scenario` run in `tree`."""
    argv = [sys.executable, "-c", PAPER_CHILD, "simulate", "--preset", "paper", "--scenario", scenario,
            "--trials", str(trials), "--out", str(out)]
    env = {**os.environ, **BLAS_ENV, "PYTHONPATH": str(tree / "src")}
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"paper run in {tree} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    rss = next(line.split()[1] for line in proc.stdout.splitlines() if line.startswith("peak_rss_kib"))
    return {"wall_s": wall, "peak_rss_mb": int(rss) / 1024.0,
            "csv_sha256": hashlib.sha256(out.read_bytes()).hexdigest()}


def summary(metric: dict, parent: list, change: list) -> dict:
    """Medians, the parent's quartiles and the change's wins, losses and ties over the pairs of one metric."""
    if None in parent or None in change:  # a run reported the metric as unmeasured
        return {"unit": metric["unit"], "parent": parent, "change": change, "unmeasured": True}
    sign = 1.0 if metric["better"] == "higher" else -1.0
    diffs = [sign * (c - p) for p, c in zip(parent, change)]
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    parent_median, change_median = statistics.median(parent), statistics.median(change)
    wins = sum(d > 0 for d in diffs)
    return {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "parent": parent, "change": change,
            "parent_median": parent_median, "change_median": change_median,
            "change_rel": change_median / parent_median - 1.0 if parent_median else None,
            "parent_q1": q1, "parent_q3": q3, "parent_iqr": q3 - q1,
            "wins": wins, "losses": sum(d < 0 for d in diffs), "ties": sum(d == 0 for d in diffs),
            "pairs": len(diffs),
            "claim_holds": wins >= 0.9 * len(diffs) and sign * (change_median - parent_median) > q3 - q1}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="number of the BENCH_<pr>.json to write")
    parser.add_argument("--parent", required=True, help="the parent commit to compare against")
    parser.add_argument("--seeds", type=parse_seeds, default=list(range(10)),
                        help="bench seeds, one pair per workload each (default 0-9)")
    parser.add_argument("--paper-trials", type=int, default=0, help="trials of each paper scenario run; 0 skips")
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("give at least two seeds: the parent's quartiles need more than one run")
    if args.paper_trials < 0:
        parser.error("--paper-trials must be nonnegative")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads, seconds = [w["name"] for w in spec["workloads"]], spec["run_seconds"]
    out_path = ROOT / f"BENCH_{args.pr}.json"
    with tempfile.TemporaryDirectory(prefix="bench_pr_") as tmp:
        parent_tree = Path(tmp) / "parent"
        commit = export(args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        runs = []
        for pair, seed in enumerate(args.seeds):
            for workload in workloads:
                for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
                    print(f"pair {pair} {workload} seed {seed}: {side}", file=sys.stderr, flush=True)
                    run = bench_run(trees[side], workload, seed, seconds)
                    runs.append({"workload": workload, "seed": seed, "side": side, "lines": run["lines"],
                                 "metrics": {name: m["value"] for name, m in run["result"]["metrics"].items()}})
        paper = []
        for round_ in range(2 if args.paper_trials else 0):
            for scenario in PAPER_SCENARIOS:
                for side in ("parent", "change") if round_ == 0 else ("change", "parent"):
                    print(f"paper round {round_} {scenario}: {side}", file=sys.stderr, flush=True)
                    record = paper_run(trees[side], scenario, args.paper_trials,
                                       Path(tmp) / f"paper-{scenario}-{side}-{round_}.csv")
                    paper.append({"scenario": scenario, "side": side, "round": round_, "trials": args.paper_trials,
                                  **record})

    metrics = {}
    for workload in workloads:
        by_side = {side: {r["seed"]: r["metrics"] for r in runs if r["workload"] == workload and r["side"] == side}
                   for side in ("parent", "change")}
        metrics[workload] = {m["name"]: summary(m, [by_side["parent"][s][m["name"]] for s in args.seeds],
                                                [by_side["change"][s][m["name"]] for s in args.seeds])
                             for m in spec["end_to_end"]}
    report = {"pr": args.pr, "parent": commit, "seeds": args.seeds, "seconds": seconds,
              "command": "bench/run.py --workload W --seed S --seconds T --trace 0",
              "runs": runs, "metrics": metrics, "paper": paper}
    out_path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out_path.name}: {len(runs)} runs, {len(paper)} paper runs", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
