"""Run alternating parent/change pairs of perfbench and judge the gain.

Usage, from the repository root::

    python benchmarks/perf_pairs.py PARENT CHANGE --workload serve-chat --pairs 10

Both commits are exported with ``git archive`` into one temporary directory,
so the working tree is never touched and both sides run identical benchmark
code from their own checkout.  Each pair runs ``perfbench/run.py --trace 0``
once per side for ``BENCHMARK.json``'s ``run_seconds``, alternating which
side goes first.  For every end-to-end
metric of ``BENCHMARK.json`` the script prints each side's median and
quartiles, the change's wins (ties count for neither side) and a verdict:

* ``gain``: at least ten pairs, the change wins at least nine tenths of
  them, and the medians differ by more than the parent's interquartile
  range;
* ``worse``: the change's median is worse than the parent's by more than
  the metric's ``BENCHMARK.json`` bound;
* ``unresolved``: the parent's interquartile range is wider than that bound,
  and not every change run reads better than every parent run, so the pairs
  cannot tell "unchanged" from a regression within the spread;
* ``-``: none of these, i.e. no worse than the bound.

The last line per workload is a one-line summary for a journal note.  Exits 1
if a run fails or reports a failed output check.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PAIRS = 10


def export(commit: str, dest: str) -> str:
    """Extract ``commit``'s tree under ``dest``; return its short hash."""
    short = subprocess.run(
        ["git", "rev-parse", "--short", commit],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "archive", "--format=tar", commit],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout
    os.makedirs(dest)
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    return short


def run_once(tree: str, workload: str, seed: int, seconds: int) -> dict[str, float]:
    """One ``--trace 0`` run from ``tree``: metric name -> value."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: {workload} exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{tree}: {workload} failed its output checks\n{proc.stderr}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def judge(
    parent: list[float], change: list[float], better: str, bound: float
) -> dict[str, object]:
    """Compare paired readings of one metric (``parent[i]`` with ``change[i]``)."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    gap = sign * (p_median - c_median)  # > 0: the change is better
    # Every change run reads better than every parent run.
    separated = max(sign * c for c in change) < min(sign * p for p in parent)
    if (
        len(parent) >= MIN_PAIRS
        and 10 * wins >= 9 * len(parent)
        and gap > p_q3 - p_q1
    ):
        verdict = "gain"
    elif -gap > bound * abs(p_median):
        verdict = "worse"
    elif p_q3 - p_q1 > bound * abs(p_median) and not separated:
        verdict = "unresolved"
    else:
        verdict = "-"
    return {
        "parent": (p_q1, p_median, p_q3),
        "change": (c_q1, c_median, c_q3),
        "wins": wins,
        "losses": losses,
        "pairs": len(parent),
        "verdict": verdict,
    }


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def report(workload: str, seed: int, runs: dict[str, list[dict]], metrics: list[dict]) -> str:
    """Print one workload's table; return its one-line summary."""
    header = ("metric", "parent q1/med/q3", "change q1/med/q3", "wins", "verdict")
    rows, summary = [], []
    for spec in metrics:
        name = spec["name"]
        parent = [run[name] for run in runs["parent"] if name in run]
        change = [run[name] for run in runs["change"] if name in run]
        if not parent or len(parent) != len(change):
            continue
        result = judge(parent, change, spec["better"], spec["bound"])
        rows.append((
            name,
            "/".join(_fmt(v) for v in result["parent"]),
            "/".join(_fmt(v) for v in result["change"]),
            f"{result['wins']}/{result['pairs']} (lost {result['losses']})",
            result["verdict"],
        ))
        summary.append(
            f"{name} {_fmt(result['parent'][1])}->{_fmt(result['change'][1])} "
            f"[parent IQR {_fmt(result['parent'][2] - result['parent'][0])}, "
            f"wins {result['wins']}/{result['pairs']}, {result['verdict']}]"
        )
    widths = [max(len(row[i]) for row in (header, *rows)) for i in range(len(header))]
    print(f"\n{workload}  seed {seed}")
    for row in (header, *rows):
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    return f"{workload} seed {seed}: " + "; ".join(summary)


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the baseline commit")
    parser.add_argument("change", help="the commit that claims a gain")
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: every workload")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    seconds = benchmark["run_seconds"]
    summaries = []
    with tempfile.TemporaryDirectory(prefix="perf-pairs-") as tmp:
        trees = {}
        for side in ("parent", "change"):
            trees[side] = os.path.join(tmp, side)
            short = export(getattr(args, side), trees[side])
            print(f"{side}: {short}")
        for workload in args.workload or names:
            runs: dict[str, list[dict]] = {"parent": [], "change": []}
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    try:
                        runs[side].append(
                            run_once(trees[side], workload, args.seed, seconds)
                        )
                    except RuntimeError as error:
                        print(error, file=sys.stderr)
                        return 1
                print(f"{workload} pair {pair + 1}/{args.pairs} done", file=sys.stderr)
            summaries.append(report(workload, args.seed, runs, benchmark["end_to_end"]))
    print()
    for line in summaries:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
