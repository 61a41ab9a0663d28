"""The statistics of ``tools/pairs.py``, on values worked out by hand."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
_SPEC = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

# Ten runs 10, 11, ..., 19.  statistics.quantiles(n=4) places the cut
# points at 11 * (1, 2, 3) / 4 = 2.75, 5.5 and 8.25 in the sorted runs:
# q1 = 11.75, median = 14.5, q3 = 17.25, so the interquartile range is 5.5.
PARENT = [float(v) for v in (13, 10, 19, 11, 18, 12, 17, 14, 16, 15)]


def test_quartiles_follow_the_exclusive_method():
    assert pairs.quartiles(PARENT) == (11.75, 14.5, 17.25)
    assert pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_a_gain_must_clear_the_parent_interquartile_range():
    # Every pair lower by 6: won 10 of 10, and 6 > 5.5.
    row = pairs.compare(PARENT, [v - 6 for v in PARENT], "lower")
    assert row["change_median"] == 8.5
    assert row["change_better_pairs"] == 10
    assert row["medians_differ_by_more_than_parent_iqr"]
    assert row["change_vs_parent"] == round(8.5 / 14.5 - 1, 4) == -0.4138
    assert pairs.claim_met(row, 10)
    # Lower by 5 in every pair: still 10 of 10 won, but 5 < 5.5.
    row = pairs.compare(PARENT, [v - 5 for v in PARENT], "lower")
    assert row["change_better_pairs"] == 10
    assert not row["medians_differ_by_more_than_parent_iqr"]
    assert not pairs.claim_met(row, 10)


def test_ties_count_for_neither_side_and_nine_of_ten_is_enough():
    # Lower by 7 but for one tie: the median falls to 8.5, by 6 > 5.5.
    change = [v - 7 for v in PARENT]
    change[0] = PARENT[0]                     # a tie
    row = pairs.compare(PARENT, change, "lower")
    assert row["change_better_pairs"] == 9
    assert pairs.claim_met(row, 10)
    change[1] = PARENT[1] + 1                 # and a lost pair
    row = pairs.compare(PARENT, change, "lower")
    assert row["change_better_pairs"] == 8
    assert not pairs.claim_met(row, 10)


def test_higher_is_better_for_rates():
    row = pairs.compare(PARENT, [v + 6 for v in PARENT], "higher")
    assert row["change_better_pairs"] == 10 and pairs.claim_met(row, 10)
    # A median that moved the wrong way by more than the IQR is no gain.
    row = pairs.compare(PARENT, [v - 6 for v in PARENT], "higher")
    assert row["medians_differ_by_more_than_parent_iqr"]
    assert row["change_better_pairs"] == 0 and not pairs.claim_met(row, 10)


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_the_same_commit_against_itself_meets_no_claim(better):
    # Every pair ties, so none is won and the medians are equal.
    row = pairs.compare(PARENT, list(PARENT), better)
    assert row["change_better_pairs"] == 0
    assert not row["medians_differ_by_more_than_parent_iqr"]
    assert not pairs.claim_met(row, len(PARENT))


def test_the_bound_allows_its_fraction_of_the_parent_median():
    # 25% of 14.5 is 3.625.
    assert pairs.compare(PARENT, [v + 3 for v in PARENT], "lower", 0.25)["within_bound"]
    assert not pairs.compare(PARENT, [v + 4 for v in PARENT], "lower",
                             0.25)["within_bound"]
    assert not pairs.compare(PARENT, [v - 4 for v in PARENT], "higher",
                             0.25)["within_bound"]
    assert "within_bound" not in pairs.compare(PARENT, PARENT, "lower")


def test_runs_must_pair_up():
    with pytest.raises(ValueError):
        pairs.compare(PARENT, PARENT[:-1], "lower")
    with pytest.raises(ValueError):
        pairs.compare([], [], "lower")
