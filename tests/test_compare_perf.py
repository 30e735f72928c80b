"""Tests for benchmarks/compare_perf.py, the perf-journal comparison."""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def compare_perf():
    path = os.path.join(ROOT, "benchmarks", "compare_perf.py")
    spec = importlib.util.spec_from_file_location("compare_perf", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _entry(commit, host_us=12.0, iterations=83496):
    return {
        "commit": commit,
        "runs": {
            "serve-chat": {
                "trace0": {"metrics": {
                    "host_us_per_op": _metric(host_us, "us"),
                    "success_fraction": _metric(1.0, "ratio"),
                }},
                "trace1": {"metrics": {
                    "serve.iterations": _metric(iterations, "count"),
                }},
            }
        },
    }


def _run(compare_perf, tmp_path, entries):
    path = tmp_path / "journal.json"
    path.write_text(json.dumps({"entries": entries}))
    return compare_perf.main([str(path)])


def test_equal_deterministic_numbers_pass(compare_perf, tmp_path, capsys):
    assert _run(compare_perf, tmp_path, [_entry("a"), _entry("b")]) == 0
    out = capsys.readouterr().out
    assert "serve.iterations" in out and "MISMATCH" not in out


def test_host_time_beyond_its_bound_is_reported_not_gated(
    compare_perf, tmp_path, capsys
):
    entries = [_entry("a"), _entry("b", host_us=24.0)]
    assert _run(compare_perf, tmp_path, entries) == 0
    row = next(
        line for line in capsys.readouterr().out.splitlines()
        if "host_us_per_op" in line
    )
    assert "+100.0%" in row and "15.0%" in row and "beyond bound" in row


def test_changed_or_missing_deterministic_number_fails(compare_perf, tmp_path):
    assert _run(compare_perf, tmp_path, [_entry("a"), _entry("b", iterations=1)]) == 1
    missing = _entry("b")
    del missing["runs"]["serve-chat"]["trace1"]
    assert _run(compare_perf, tmp_path, [_entry("a"), missing]) == 1


def test_one_entry_is_not_a_comparison(compare_perf, tmp_path):
    assert _run(compare_perf, tmp_path, [_entry("a")]) == 2


def test_only_the_two_newest_entries_count(compare_perf, tmp_path):
    entries = [_entry("old", iterations=1), _entry("a"), _entry("b")]
    assert _run(compare_perf, tmp_path, entries) == 0


def test_newest_entry_is_also_read_against_the_last_anchor(
    compare_perf, tmp_path, capsys
):
    old_anchor = dict(_entry("old"), anchor="first")
    anchor = dict(_entry("anchored", host_us=10.0, iterations=7), anchor="second")
    entries = [old_anchor, anchor, _entry("a"), _entry("b", host_us=15.0)]
    # The anchor's iteration count differs from the newest's: that is read,
    # not gated.
    assert _run(compare_perf, tmp_path, entries) == 0
    out = capsys.readouterr().out
    head, tail = out.split("anchor anchored (second)  ->  newest b, for reading only")
    assert "+25.0%" in head and "+50.0%" in tail
    assert "MISMATCH" not in head and "MISMATCH" in tail


def test_no_anchor_table_without_an_older_anchor(compare_perf, tmp_path, capsys):
    entries = [_entry("a"), dict(_entry("b"), anchor="newest")]
    assert _run(compare_perf, tmp_path, entries) == 0
    assert "for reading only" not in capsys.readouterr().out
