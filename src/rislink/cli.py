"""Command-line entry points for the Monte Carlo scenarios and complexity table.

Usage:
    rislink simulate --scenario se_vs_snr --preset desk --seed 7 --out results.csv
    rislink complexity --n-ris 4,16,36,64 --out table.csv

Option values starting with '-' (e.g. SNR grids) need the `--opt=value` form.
"""

import argparse
import sys

from .harness import (
    SCENARIOS,
    check_scenario_geometry,
    complexity_rows_to_csv,
    complexity_table,
    parse_config,
    run_scenario,
    scenario_rows_to_csv,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rislink", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value configuration file")
    common.add_argument("--preset", default="paper", choices=("paper", "desk"),
                        help="base parameter profile (default: paper)")
    common.add_argument("--seed", type=int, help="Monte Carlo seed override")
    common.add_argument("--trials", type=int, help="trials per sweep point override")
    common.add_argument("--snr-db", help="comma-separated SNR grid override, e.g. --snr-db=-5,10")
    common.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override any configuration key (repeatable)")

    sim = sub.add_parser("simulate", parents=[common], help="run a Monte Carlo scenario")
    sim.add_argument("--scenario", required=True, choices=sorted(SCENARIOS))
    sim.add_argument("--out", default="results.csv", help="output CSV path")

    comp = sub.add_parser("complexity", parents=[common],
                          help="instrumented iteration/FLOP/runtime table")
    comp.add_argument("--n-ris", default="4,16,36,64",
                      help="comma-separated RIS element counts")
    comp.add_argument("--out", default="table.csv", help="output CSV path")
    return parser


def _configs_from_args(args) -> tuple:
    overrides = {}
    for item in args.set:
        if "=" not in item:
            raise SystemExit(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.trials is not None:
        overrides["mc_trials"] = args.trials
    if args.snr_db is not None:
        overrides["snr_db"] = args.snr_db
    return parse_config(args.config, overrides, preset=args.preset)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg, geom = _configs_from_args(args)
        if args.command == "simulate":
            check_scenario_geometry(geom, args.scenario)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "simulate":
        rows = run_scenario(cfg, geom, args.scenario)
        text = scenario_rows_to_csv(rows)
    else:
        n_ris_list = [int(p) for p in args.n_ris.split(",") if p.strip()]
        trials = cfg.mc_trials if args.trials is not None else 10
        rows = complexity_table(cfg, geom, n_ris_list, trials=trials, snr_db=cfg.snr_db[0])
        text = complexity_rows_to_csv(rows)

    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
