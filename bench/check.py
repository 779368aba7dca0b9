"""Correctness check of the CSV a workload process returns.

A CSV row holds one (sweep point, arm) aggregate of `mc_trials` cells, so a
row that fails counts as `mc_trials` failed cells. A row fails when it is
missing or extra, when a field disagrees with the generated config, when
`mean_se` or `stderr_se` is non-finite, when `pga` falls below
`random_phases` at its sweep point (the optimizer starts from the random arm's
phases and only accepts improving steps), when it differs from the reference
recorded for the seed by more than the tolerance below, or when a second run
of the same seed printed it differently.
"""

import csv
import io
import json
import math
from pathlib import Path

ARMS = ("pga", "random_phases", "no_ris")
COLUMNS = ["scenario", "sweep_name", "sweep_value", "arm", "n_ris", "snr_db",
           "mean_se", "stderr_se", "trials", "seed", "d2"]
SWEEP_NAME = {"se_vs_snr": "snr_db", "plos_vs_se": "p_los"}

# Arithmetic-only rewrites (another eigen-solver, an exact water level) move
# the printed rates by about 1e-10; a changed optimizer decision in one trial
# moves a row mean by 1e-5 or more. The tolerance sits between the two.
REL_TOL = 1e-6
ABS_TOL = 1e-9
PGA_FLOOR_TOL = 1e-9

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _fmt(value) -> str:
    return f"{float(value):.10g}"


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def row_key(arm, n_ris, sweep_value, snr_db) -> str:
    return f"{arm}|{int(n_ris)}|{_fmt(sweep_value)}|{_fmt(snr_db)}"


def expected_keys(workload: dict) -> list:
    """Row keys run_scenario must return for the workload's config, in order."""
    o = workload["overrides"]
    if workload["scenario"] == "se_vs_snr":
        return [row_key(arm, n, snr, snr) for n in o["n_ris_list"] for snr in o["snr_db"]
                for arm in ARMS]
    if workload["scenario"] == "plos_vs_se":
        n_ris = o["ris_rows"] * o["ris_cols"]
        return [row_key(arm, n_ris, p, snr) for snr in o["snr_db"] for p in o["plos_grid"]
                for arm in ARMS]
    raise ValueError(f"no expected rows for scenario {workload['scenario']!r}")


def parse_rows(text: str) -> tuple[dict, list]:
    """Map row key -> (raw line, field dict); second item lists malformed lines."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != COLUMNS:
        return {}, [f"header {header!r}"]
    rows, bad = {}, []
    for line in reader:
        if len(line) != len(COLUMNS):
            bad.append(line)
            continue
        rec = dict(zip(COLUMNS, line))
        try:
            key = row_key(rec["arm"], rec["n_ris"], rec["sweep_value"], rec["snr_db"])
        except ValueError:
            bad.append(line)
            continue
        if key in rows:
            bad.append(line)
        else:
            rows[key] = (",".join(line), rec)
    return rows, bad


def load_references(workload_name: str, workload: dict) -> dict:
    """Recorded rows per Monte Carlo seed: {seed: {row key: [mean_se, stderr_se]}}."""
    path = REFERENCE_DIR / f"{workload_name}.json"
    if not path.exists():
        return {}
    data = json.loads(path.read_text())
    if data.get("overrides") != workload["overrides"]:
        raise ValueError(f"{path} was recorded for the config {data.get('overrides')}, "
                         f"not for {workload['overrides']}")
    return {int(k): v for k, v in data["seeds"].items()}


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= ABS_TOL + REL_TOL * abs(ref)


def check_csvs(workload_name: str, workload: dict, runs: list) -> dict:
    """Check the CSV text of every (Monte Carlo seed, text) run; counts cells."""
    trials = workload["overrides"]["mc_trials"]
    expected = expected_keys(workload)
    expected_set = set(expected)
    references = load_references(workload_name, workload)
    first_lines: dict = {}
    attempted = failed = 0
    reasons: list = []
    for seed, text in runs:
        rows, bad = parse_rows(text)
        failing: set = set()
        reasons += [f"seed {seed}: malformed or duplicate row {line!r}" for line in bad]
        extra = [k for k in rows if k not in expected_set]
        reasons += [f"seed {seed}: extra row {k}" for k in extra]
        attempted += (len(expected) + len(extra) + len(bad)) * trials
        failed += (len(extra) + len(bad)) * trials
        reference = references.get(seed, {})
        first = first_lines.get(seed)
        for key in expected:
            if key not in rows:
                failing.add(key)
                reasons.append(f"seed {seed}: missing row {key}")
                continue
            line, rec = rows[key]
            problem = _row_problem(workload, seed, rec, reference.get(key))
            if problem is None and first is not None and first.get(key) != line:
                problem = "differs from the first run of the same seed"
            if problem is not None:
                failing.add(key)
                reasons.append(f"seed {seed}: {key}: {problem}")
        for key in expected:
            arm, rest = key.split("|", 1)
            if arm == "pga" and key in rows and f"random_phases|{rest}" in rows:
                pga = _float(rows[key][1]["mean_se"])
                rnd = _float(rows[f"random_phases|{rest}"][1]["mean_se"])
                if not pga >= rnd - PGA_FLOOR_TOL:
                    failing.add(key)
                    reasons.append(f"seed {seed}: {key}: pga {pga} below random_phases {rnd}")
        failed += len(failing) * trials
        first_lines.setdefault(seed, {k: v[0] for k, v in rows.items()})
    unreferenced = sorted({seed for seed, _ in runs} - set(references))
    return {"attempted": attempted, "failed": failed, "reasons": reasons,
            "unreferenced_seeds": unreferenced}


def _row_problem(workload: dict, seed: int, rec: dict, ref) -> str | None:
    o = workload["overrides"]
    if rec["scenario"] != workload["scenario"] or rec["sweep_name"] != SWEEP_NAME[workload["scenario"]]:
        return f"scenario fields {rec['scenario']!r}, {rec['sweep_name']!r}"
    if rec["trials"] != str(o["mc_trials"]) or rec["seed"] != str(seed):
        return f"trials/seed fields {rec['trials']!r}, {rec['seed']!r}"
    mean, stderr = _float(rec["mean_se"]), _float(rec["stderr_se"])
    if not (math.isfinite(mean) and math.isfinite(stderr)) or stderr < 0:
        return f"non-finite or negative values {rec['mean_se']!r}, {rec['stderr_se']!r}"
    if ref is not None and not (_close(mean, ref[0]) and _close(stderr, ref[1])):
        return f"({mean}, {stderr}) differs from reference ({ref[0]}, {ref[1]})"
    return None


def pga_gain_se(text: str) -> float:
    """Mean over sweep points of pga minus random_phases mean_se (NaN without any)."""
    rows, _ = parse_rows(text)
    gains = []
    for key, (_, rec) in rows.items():
        arm, rest = key.split("|", 1)
        other = rows.get(f"random_phases|{rest}")
        if arm == "pga" and other is not None:
            gains.append(_float(rec["mean_se"]) - _float(other[1]["mean_se"]))
    return sum(gains) / len(gains) if gains else math.nan
