"""Compare the two newest entries of the perfbench journal.

Usage, from the repository root::

    python benchmarks/compare_perf.py BENCH_perfbench.json

Each journal entry holds, per workload and ``--trace`` setting, the last
JSON line of ``perfbench/run.py``.  The script prints one table over the
previous and the newest entry:

* deterministic numbers (:data:`EXACT`) must match exactly — they are pure
  functions of the code and the seed, so any difference is a behaviour
  change;
* host-time and memory metrics (``BENCHMARK.json``'s other end-to-end
  metrics) are printed with their relative change and the bound
  ``BENCHMARK.json`` fixes, for reading only: a shared host is too noisy
  for one pair of runs to decide a regression.

A second table, for reading only, compares the newest entry with the last
re-anchor entry (the newest older entry carrying an ``"anchor"`` field), so
a slow creep that each step keeps within its bound still shows.  Its
deterministic numbers may differ on purpose and are not gated.

Exits 1 if a deterministic number of the two newest entries differs (or is
missing from one of them), 2 if the journal holds fewer than two entries,
and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Metrics that must be bit-identical between entries.  ``obs.export_bytes``
#: is the size of the deterministic trace exports, so it catches export-format
#: drift.  ``api.artifact_bytes`` is left out: stored artifacts carry
#: ``compile_seconds``, whose float repr varies in length from run to run.
EXACT = (
    "success_fraction",
    "roofline_fraction",
    "serve.iterations",
    "obs.spans",
    "obs.export_bytes",
    "partition.profiles",
)


def _metrics(entry: dict, workload: str) -> dict[str, float]:
    """Every metric one entry reports for ``workload``, over both trace runs."""
    merged: dict[str, float] = {}
    for run in entry["runs"].get(workload, {}).values():
        for name, metric in run["metrics"].items():
            merged[name] = metric["value"]
    return merged


def _fmt(value: float | None) -> str:
    if value is None:
        return "-"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return f"{value:.6g}"


def compare(
    previous: dict, newest: dict, benchmark: dict
) -> tuple[list[tuple[str, ...]], int]:
    """Rows of the comparison table and the number of exact-match failures."""
    bounds = {
        metric["name"]: metric
        for metric in benchmark["end_to_end"]
        if metric["name"] not in EXACT
    }
    rows: list[tuple[str, ...]] = []
    mismatches = 0
    for workload in (w["name"] for w in benchmark["workloads"]):
        before, after = _metrics(previous, workload), _metrics(newest, workload)
        for name in EXACT:
            if name not in before and name not in after:
                continue
            old, new = before.get(name), after.get(name)
            same = name in before and name in after and old == new
            mismatches += not same
            rows.append(
                (workload, name, _fmt(old), _fmt(new), "", "exact",
                 "match" if same else "MISMATCH")
            )
        for name, spec in bounds.items():
            old, new = before.get(name), after.get(name)
            if old is None or new is None:
                continue
            change = (new - old) / old if old else 0.0
            worse = -change if spec["better"] == "higher" else change
            rows.append(
                (workload, name, _fmt(old), _fmt(new), f"{change:+.1%}",
                 f"{spec['bound']:.1%}",
                 "beyond bound" if worse > spec["bound"] else "within bound")
            )
    return rows, mismatches


def _print_table(rows: list[tuple[str, ...]], first: str) -> None:
    header = ("workload", "metric", first, "newest", "change", "bound", "check")
    widths = [max(len(row[i]) for row in (header, *rows)) for i in range(len(header))]
    for row in (header, *rows):
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("journal", help="path of the perfbench journal")
    args = parser.parse_args(argv)
    with open(args.journal, encoding="utf-8") as handle:
        journal = json.load(handle)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    entries = journal["entries"]
    if len(entries) < 2:
        print(f"{args.journal}: need two entries to compare, found {len(entries)}")
        return 2
    previous, newest = entries[-2], entries[-1]
    rows, mismatches = compare(previous, newest, benchmark)
    print(f"previous {previous['commit'][:12]}  ->  newest {newest['commit'][:12]}")
    _print_table(rows, "previous")
    anchor = next((e for e in reversed(entries[:-2]) if "anchor" in e), None)
    if anchor is not None:
        print(
            f"\nanchor {anchor['commit'][:12]} ({anchor['anchor']})  ->  "
            f"newest {newest['commit'][:12]}, for reading only"
        )
        _print_table(compare(anchor, newest, benchmark)[0], "anchor")
    if mismatches:
        print(f"{mismatches} deterministic number(s) differ")
        return 1
    print("deterministic numbers match; host-time rows are not gated")
    return 0


if __name__ == "__main__":
    sys.exit(main())
