"""Command-line front door for declarative sweeps.

Three subcommands, all operating on spec files and the shared journal:

.. code-block:: console

   $ python -m repro.sweep run examples/sweeps/serving_rate_policy.json
   $ python -m repro.sweep list examples/sweeps
   $ python -m repro.sweep report examples/sweeps/serving_rate_policy.json

``run`` executes the spec (appending a ``results/BENCH_<name>.json``
journal entry and a text/JSON result table), ``list`` shows the registered
adapters and any spec files in a directory, and ``report`` re-renders the
rows of a journaled run without re-executing anything.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.errors import ConfigurationError, ElkError
from repro.sweep.adapters import adapter_descriptions
from repro.sweep.journal import journal_path, read_journal
from repro.sweep.runner import DEFAULT_BACKEND, run_sweep
from repro.sweep.spec import SweepSpec

#: Default directory run journals and result tables land in.
DEFAULT_RESULTS_DIR = "results"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweep",
        description="Run, list, and report declarative sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a sweep spec end to end")
    run.add_argument("spec", help="path to a SweepSpec JSON file")
    run.add_argument(
        "--results-dir",
        default=DEFAULT_RESULTS_DIR,
        help="directory for the journal and result tables (default: results)",
    )
    run.add_argument(
        "--backend",
        default=DEFAULT_BACKEND,
        choices=("thread", "process"),
        help="compile_many backend for the prefetch fan-out",
    )
    run.add_argument(
        "--store-dir",
        default=None,
        help="artifact-store directory (default: REPRO_CACHE_DIR or "
        "<results-dir>/compile_cache)",
    )
    run.add_argument(
        "--no-journal",
        action="store_true",
        help="skip the BENCH_* journal append (tables are still written)",
    )
    run.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero when any point recorded an error row",
    )

    lst = sub.add_parser("list", help="show registered adapters and spec files")
    lst.add_argument(
        "specs_dir",
        nargs="?",
        default=None,
        help="directory to scan for *.json sweep specs (optional)",
    )

    report = sub.add_parser("report", help="re-render rows of a journaled run")
    report.add_argument("spec", help="spec file (or bare sweep name) to report on")
    report.add_argument(
        "--results-dir",
        default=DEFAULT_RESULTS_DIR,
        help="directory the journal lives in (default: results)",
    )
    report.add_argument(
        "--run",
        type=int,
        default=-1,
        help="journal run index to render (default: -1, the latest)",
    )
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.eval.reporting import save_results, union_columns
    from repro.sweep.journal import make_store

    spec = SweepSpec.load(args.spec)
    store = make_store(
        args.store_dir or os.path.join(args.results_dir, "compile_cache")
    )
    result = run_sweep(spec, store=store, backend=args.backend)

    title = spec.description or f"sweep {spec.name} ({spec.adapter})"
    columns = list(spec.columns) or union_columns(result.rows)
    table_path = os.path.join(args.results_dir, f"{spec.name}.txt")
    print(save_results(result.rows, table_path, title=title, columns=columns), end="")
    print(
        f"[{len(result.rows)} points, {len(result.errors)} errors, "
        f"{result.wall_seconds:.2f}s wall, backend={result.backend}]"
    )
    if not args.no_journal:
        result.journal(args.results_dir)
    if result.errors:
        for row in result.errors:
            print(f"error: {row.get('error_type')}: {row.get('error')}", file=sys.stderr)
        if args.strict:
            return 1
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    print("registered adapters:")
    for name, description in adapter_descriptions().items():
        print(f"  {name:<14} {description}")
    if args.specs_dir is None:
        return 0
    if not os.path.isdir(args.specs_dir):
        print(f"spec directory {args.specs_dir!r} does not exist", file=sys.stderr)
        return 1
    print(f"\nspecs in {args.specs_dir}:")
    found = False
    for entry in sorted(os.listdir(args.specs_dir)):
        if not entry.endswith(".json"):
            continue
        path = os.path.join(args.specs_dir, entry)
        try:
            spec = SweepSpec.load(path)
        except ElkError as error:
            print(f"  {entry:<32} [invalid: {error}]")
            continue
        found = True
        print(
            f"  {entry:<32} {spec.name} ({spec.adapter}, "
            f"{spec.num_points} points) {spec.description}"
        )
    if not found:
        print("  (none)")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.eval.reporting import format_table, union_columns

    columns: list[str] = []
    if os.path.exists(args.spec):
        spec = SweepSpec.load(args.spec)
        name = spec.name
        columns = list(spec.columns)
    else:
        name = args.spec
    path = journal_path(args.results_dir, name)
    payload = read_journal(path)
    runs = payload["runs"]
    if not runs:
        print(f"journal {path} has no runs", file=sys.stderr)
        return 1
    try:
        run = runs[args.run]
    except IndexError:
        print(
            f"journal {path} has {len(runs)} runs; index {args.run} is out of range",
            file=sys.stderr,
        )
        return 1
    rows = run.get("rows") or []
    print(
        f"# {name} run {run['run_index']} "
        f"(digest {run['config_digest']}, {len(rows)} rows)"
    )
    if rows:
        print(format_table(rows, columns or union_columns(rows)))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "list": _cmd_list, "report": _cmd_report}
    try:
        return handlers[args.command](args)
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
