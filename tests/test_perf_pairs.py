"""Tests for benchmarks/perf_pairs.py, the alternating-pairs verdict."""

from __future__ import annotations

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def perf_pairs():
    path = os.path.join(ROOT, "benchmarks", "perf_pairs.py")
    spec = importlib.util.spec_from_file_location("perf_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [1.80, 1.82, 1.78, 1.75, 1.85, 1.79, 1.81, 1.83, 1.77, 1.80]


def test_gain_needs_nine_wins_in_ten_and_a_gap_beyond_the_parent_iqr(perf_pairs):
    change = [value - 0.3 for value in PARENT]
    result = perf_pairs.judge(PARENT, change, "lower", 0.25)
    assert result["verdict"] == "gain"
    assert (result["wins"], result["losses"], result["pairs"]) == (10, 0, 10)
    assert result["parent"][1] == pytest.approx(1.80)
    # Two losses out of ten: not a gain, however large the median gap.
    change[0] = change[1] = 9.0
    result = perf_pairs.judge(PARENT, change, "lower", 0.25)
    assert (result["wins"], result["losses"]) == (8, 2)
    assert result["verdict"] == "-"


def test_no_gain_within_the_parent_spread_or_from_few_pairs(perf_pairs):
    # Wins every pair, but by less than the parent's interquartile range.
    change = [value - 0.001 for value in PARENT]
    assert perf_pairs.judge(PARENT, change, "lower", 0.25)["verdict"] == "-"
    # A large gain over five pairs is still too few pairs to claim.
    assert perf_pairs.judge(PARENT[:5], [1.0] * 5, "lower", 0.25)["verdict"] == "-"


def test_ties_count_for_neither_side(perf_pairs):
    result = perf_pairs.judge(PARENT, list(PARENT), "lower", 0.25)
    assert (result["wins"], result["losses"], result["verdict"]) == (0, 0, "-")


def test_worse_beyond_bound_respects_direction(perf_pairs):
    higher = [value * 1.5 for value in PARENT]
    assert perf_pairs.judge(PARENT, higher, "lower", 0.25)["verdict"] == "worse"
    assert perf_pairs.judge(PARENT, higher, "lower", 0.6)["verdict"] == "-"
    # For a higher-is-better metric the same readings are a gain.
    assert perf_pairs.judge(PARENT, higher, "higher", 0.25)["verdict"] == "gain"


def test_exactly_nine_wins_in_ten_is_a_gain(perf_pairs):
    change = [value - 0.3 for value in PARENT]
    change[3] = PARENT[3] + 0.01
    result = perf_pairs.judge(PARENT, change, "lower", 0.25)
    assert (result["wins"], result["losses"], result["verdict"]) == (9, 1, "gain")
    # Nine tenths of all pairs run, not nine pairs: 17 of 20 is not enough.
    parent, change = PARENT * 2, change * 2
    change[0] = PARENT[0] + 0.01
    result = perf_pairs.judge(parent, change, "lower", 0.25)
    assert (result["wins"], result["verdict"]) == (17, "-")
    change[0] = PARENT[0] - 0.3
    assert perf_pairs.judge(parent, change, "lower", 0.25)["verdict"] == "gain"


def test_spread_wider_than_the_bound_is_unresolved_not_unchanged(perf_pairs):
    # Parent IQR about 0.3 on a median of 1.0: wider than a 10% bound.
    noisy = [0.6, 0.8, 0.85, 0.9, 1.0, 1.0, 1.1, 1.15, 1.2, 1.4]
    same = list(reversed(noisy))
    assert perf_pairs.judge(noisy, same, "lower", 0.1)["verdict"] == "unresolved"
    assert perf_pairs.judge(noisy, same, "lower", 0.5)["verdict"] == "-"
    # Unless every change run reads better than every parent run (five
    # pairs, too few to claim a gain).
    few = noisy[:5]
    assert perf_pairs.judge(few, few[::-1], "lower", 0.1)["verdict"] == "unresolved"
    assert perf_pairs.judge(few, [0.5] * 5, "lower", 0.1)["verdict"] == "-"
    assert perf_pairs.judge(few, [0.5] * 5, "higher", 0.1)["verdict"] == "worse"
    assert perf_pairs.judge(few, [1.5] * 5, "higher", 0.1)["verdict"] == "-"
