"""Command-line entry points for the Monte Carlo scenarios and complexity table.

Usage:
    rislink simulate --scenario se_vs_snr --preset desk --seed 7 --out results.csv
    rislink complexity --preset desk --n-ris 4,16,36,64 --trials 10 --out table.csv

Both read one config: the preset, the `--config` file, `--set KEY=VALUE`, then
each override flag that is given. A bad value, a key set by `--set` or a flag
that the command does not read (`harness.UNREAD_KEYS`; a `--config` file may
set any key), a command-line `snr_db` of more than one value for `complexity`
(which runs at one SNR; a file or preset with several runs at the first), a
geometry with a gain that overflows or that `LinkGains` refuses (a direct
gain of a blockage state it can draw must be finite and positive, the
reflected-path gain finite), an SNR whose power budget is not finite and
positive, or an unwritable `--out` (an existing file judged by its own
mode, a new one by its directory's) exits 2 before any trial; a budget too
small to waterfill any stream exits 2 when a trial meets it, and a
failed write of `--out` (a full disk) after the trials. Each way the error is
one `error:` line, and only the failed write leaves anything in `--out`.
Option values starting with '-' (e.g. SNR grids) need the `--opt=value` form.
"""

import argparse
import os
import sys

from .config import PRESETS, parse_config
from .harness import (
    SCENARIOS,
    UNREAD_KEYS,
    complexity_rows_to_csv,
    complexity_table,
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
    cfg, geom = parse_config(args.config, overrides, preset=args.preset)
    command = args.scenario if args.command == "simulate" else args.command
    for key in overrides:
        if key in UNREAD_KEYS[command]:
            raise ValueError(f"{key} is not read by {command}; drop it from the command line")
    if command == "complexity" and "snr_db" in overrides and len(cfg.snr_db) > 1:
        raise ValueError(f"snr_db must hold one value for complexity, which runs at one SNR, got {cfg.snr_db!r}")
    return cfg, geom


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg, geom = _configs_from_args(args)
        out_dir = os.path.dirname(os.path.abspath(args.out))
        target = args.out if os.path.exists(args.out) else out_dir  # an existing file is judged by its own mode
        if os.path.isdir(args.out) or not (os.path.isdir(out_dir) and os.access(target, os.W_OK)):
            raise OSError(f"cannot write --out {args.out!r}: not a writable file or a new file in a writable directory")
        # both check their sweep's budgets before any trial
        if args.command == "simulate":
            rows = run_scenario(cfg, geom, args.scenario)
            text = scenario_rows_to_csv(rows)
        else:
            rows = complexity_table(cfg, geom, cfg.n_ris_list, trials=cfg.mc_trials, snr_db=cfg.snr_db[0])
            text = complexity_rows_to_csv(rows)
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
