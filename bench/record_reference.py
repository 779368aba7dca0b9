"""Record the reference rows that the correctness check compares against.

Usage, from the root of a checkout:

    python3 bench/record_reference.py --workload desk_snr --seeds 0-19,7919 --jobs 2

For each benchmark seed, runs one untraced workload process per Monte Carlo
seed that a run of BENCHMARK.json's run_seconds uses, with the code in `src/`,
and merges each row's mean_se/stderr_se into bench/reference/<workload>.json. A reference
pins the results of the commit it was recorded at, so record only in a change
that redefines the benchmark, never in one that claims a gain.
"""

import argparse
import concurrent.futures
import json
import sys

import check
import run


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def record_seed(name: str, seed: int) -> dict:
    report = run.run_process(run.child_spec(name, seed, trace=False), run.RUN_LIMIT_S)
    if "error" in report:
        raise RuntimeError(f"{name} seed {seed}: {report['error']}")
    verdict = check.check_csvs(name, run.WORKLOADS[name], [(seed, report["csv"])])
    if verdict["failed"]:
        raise RuntimeError(f"{name} seed {seed} fails its own check: {verdict['reasons']}")
    rows, _ = check.parse_rows(report["csv"])
    return {key: [float(rec["mean_se"]), float(rec["stderr_se"])] for key, (_, rec) in rows.items()}


def dump(data: dict) -> str:
    """JSON with one line per seed, so that re-recording a seed is a one-line diff."""
    seeds = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in data["seeds"].items())
    return (f'{{\n "workload": {json.dumps(data["workload"])},\n'
            f' "overrides": {json.dumps(data["overrides"])},\n "seeds": {{\n{seeds}\n }}\n}}\n')


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    parser.add_argument("--seeds", required=True, help="comma-separated seeds or ranges, e.g. 0-19,7919")
    parser.add_argument("--jobs", type=int, default=1, help="workload processes at a time")
    args = parser.parse_args(argv)

    path = check.REFERENCE_DIR / f"{args.workload}.json"
    overrides = run.WORKLOADS[args.workload]["overrides"]
    data = json.loads(path.read_text()) if path.exists() else {}
    if data.get("overrides") != overrides:  # rows recorded for another config are stale
        data = {"workload": args.workload, "overrides": overrides, "seeds": {}}
        check.REFERENCE_DIR.mkdir(exist_ok=True)
        path.write_text(dump(data))
    run_seconds = json.loads(run.SPEC_FILE.read_text())["run_seconds"]
    seeds = [s for seed in parse_seeds(args.seeds)
             for s in dict.fromkeys(run.run_seeds(args.workload, seed, run_seconds))]
    with concurrent.futures.ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
        futures = {seed: pool.submit(record_seed, args.workload, seed) for seed in seeds}
        for seed, future in futures.items():
            data["seeds"][str(seed)] = future.result()
    data["seeds"] = dict(sorted(data["seeds"].items(), key=lambda kv: int(kv[0])))
    path.write_text(dump(data))
    print(f"recorded {len(seeds)} Monte Carlo seeds of {args.workload} in {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
