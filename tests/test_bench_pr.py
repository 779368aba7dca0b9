"""The pure functions of `scripts/bench_pr.py`: the seeds it pairs and the summary it writes of each metric's pairs.

The script is loaded by its path; nothing here runs git or a benchmark.
"""

import argparse
import importlib.util
import re
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pr.py"
SPEC = importlib.util.spec_from_file_location("bench_pr", SCRIPT)
bench_pr = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pr)

HIGHER = {"name": "cells_per_s", "unit": "cells/s", "better": "higher", "bound": 0.25}
LOWER = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
PARENT = [float(v) for v in range(10)]  # inclusive quartiles 2.25 and 6.75, IQR 4.5, median 4.5


@pytest.mark.parametrize("text, seeds", [
    ("0-9", list(range(10))), ("7919", [7919]), ("0,3,7919", [0, 3, 7919]), ("10-12,2,5-5", [10, 11, 12, 2, 5]),
    (" 1, 2 - 3 ", [1, 2, 3])])
def test_parse_seeds_reads_lists_and_ranges(text, seeds):
    assert bench_pr.parse_seeds(text) == seeds


@pytest.mark.parametrize("text, message", [
    ("0,0", "seeds must be distinct; 0 given twice or more in '0,0'"),
    ("0-3,2", "seeds must be distinct; 2 given twice or more in '0-3,2'"),
    ("4,0-4,1-2,4", "seeds must be distinct; 1, 2, 4 given twice or more in '4,0-4,1-2,4'"),
    ("3-1", "seed range '3-1' runs backwards; write it as 1-3"),
    ("0, 9-8", "seed range '9-8' runs backwards; write it as 8-9"),
    ("-1", "seeds must be nonnegative integers, got '-1'"),
    ("0-", "seeds must be nonnegative integers, got '0-'"),
    ("1.5", "seeds must be nonnegative integers, got '1.5'"),
    ("", "seeds must be nonnegative integers, got ''")])
def test_parse_seeds_refuses_repeats_reversed_ranges_and_non_integers(text, message):
    with pytest.raises(argparse.ArgumentTypeError, match=f"^{re.escape(message)}$"):
        bench_pr.parse_seeds(text)


def test_summary_counts_wins_losses_and_ties_by_the_better_direction():
    parent, change = [1.0, 2.0, 3.0, 4.0], [2.0, 2.0, 1.0, 5.0]
    higher, lower = bench_pr.summary(HIGHER, parent, change), bench_pr.summary(LOWER, parent, change)
    assert (higher["wins"], higher["losses"], higher["ties"], higher["pairs"]) == (2, 1, 1, 4)
    assert (lower["wins"], lower["losses"], lower["ties"], lower["pairs"]) == (1, 2, 1, 4)
    assert (higher["parent_median"], higher["change_median"], higher["change_rel"]) == (2.5, 2.0, pytest.approx(-0.2))
    assert (higher["parent_q1"], higher["parent_q3"], higher["parent_iqr"]) == (1.75, 3.25, 1.5)
    assert bench_pr.summary(HIGHER, parent, [None, *change[1:]]) == {
        "unit": "cells/s", "parent": parent, "change": [None, *change[1:]], "unmeasured": True}


@pytest.mark.parametrize("metric, sign", [(HIGHER, 1.0), (LOWER, -1.0)])
def test_summary_claims_a_gain_at_nine_of_ten_wins_beyond_the_parent_iqr(metric, sign):
    def claim(change):
        return bench_pr.summary(metric, [sign * p for p in PARENT], [sign * c for c in change])

    # nine wins by 10 and one loss move the median to 13.5, past 4.5 + IQR
    nine = claim([p + 10.0 for p in PARENT[:9]] + [PARENT[9] - 1.0])
    assert (nine["wins"], nine["losses"], nine["parent_iqr"], nine["claim_holds"]) == (9, 1, 4.5, True)
    eight = claim([p + 10.0 for p in PARENT[:8]] + [p - 1.0 for p in PARENT[8:]])
    assert (eight["wins"], eight["claim_holds"]) == (8, False)
    # ten wins whose median lies exactly one IQR past the parent's do not hold; a hair more does
    edge = claim([p + 4.5 for p in PARENT])
    assert (edge["wins"], edge["change_median"] - sign * 4.5, edge["claim_holds"]) == (10, sign * 4.5, False)
    assert claim([p + 4.5 + 1e-9 for p in PARENT])["claim_holds"]
