"""Command-line entry points for the Monte Carlo scenarios and complexity table.

Usage:
    rislink simulate --scenario se_vs_snr --preset desk --seed 7 --out results.csv
    rislink complexity --preset desk --n-ris 4,16,36,64 --trials 10 --out table.csv

Both read one config: the preset, the `--config` file, `--set KEY=VALUE`, then
each override flag that is given. A bad value or an unwritable `--out` exits 2
before any trial. Option values starting with '-' (e.g. SNR grids) need the
`--opt=value` form.
"""

import argparse
import os
import sys

from .harness import (
    PRESETS,
    SCENARIOS,
    check_scenario_geometry,
    complexity_rows_to_csv,
    complexity_table,
    parse_config,
    run_scenario,
    scenario_rows_to_csv,
)

# argparse destination -> configuration key of each override flag
_FLAG_KEYS = {"seed": "seed", "trials": "mc_trials", "snr_db": "snr_db", "n_ris": "n_ris_list"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rislink", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value configuration file")
    common.add_argument("--preset", default="paper", choices=sorted(PRESETS),
                        help="base parameter profile (default: paper)")
    common.add_argument("--seed", type=int, help="Monte Carlo seed override")
    common.add_argument("--trials", type=int, help="mc_trials override: trials per sweep point or RIS size")
    common.add_argument("--snr-db", help="comma-separated SNR grid override, e.g. --snr-db=-5,10")
    common.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override any configuration key (repeatable)")

    sim = sub.add_parser("simulate", parents=[common], help="run a Monte Carlo scenario")
    sim.add_argument("--scenario", required=True, choices=sorted(SCENARIOS))
    sim.add_argument("--out", default="results.csv", help="output CSV path")

    comp = sub.add_parser("complexity", parents=[common],
                          help="mean iterations, FLOPs and optimizer wall time of pga trials "
                               "per RIS size, at the first snr_db value")
    comp.add_argument("--n-ris", help="n_ris_list override: comma-separated RIS element counts, "
                                      "one table row each")
    comp.add_argument("--out", default="table.csv", help="output CSV path")
    return parser


def _configs_from_args(args) -> tuple:
    overrides = {}
    for item in args.set:
        if "=" not in item:
            raise ValueError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value
    for dest, key in _FLAG_KEYS.items():
        value = getattr(args, dest, None)  # simulate has no --n-ris
        if value is not None:
            overrides[key] = value
    return parse_config(args.config, overrides, preset=args.preset)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg, geom = _configs_from_args(args)
        out_dir = os.path.dirname(os.path.abspath(args.out))
        if os.path.isdir(args.out) or not (os.path.isdir(out_dir) and os.access(out_dir, os.W_OK)):
            raise OSError(f"cannot write --out {args.out!r}: not a file in an existing, writable directory")
        if args.command == "simulate":
            check_scenario_geometry(geom, args.scenario)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "simulate":
        rows = run_scenario(cfg, geom, args.scenario)
        text = scenario_rows_to_csv(rows)
    else:
        rows = complexity_table(cfg, geom, cfg.n_ris_list, trials=cfg.mc_trials, snr_db=cfg.snr_db[0])
        text = complexity_rows_to_csv(rows)

    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
