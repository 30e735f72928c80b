"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-chat --seed 0 --seconds 25 --trace 0

``--trace 0`` is the timed run and reports the end-to-end metrics;
``--trace 1`` is the separate profiled run and reports the per-layer
metrics (see ``spec.py``).  The run prints a steadiness table (median,
quartiles, and sample count of every metric), and as its last line one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

Everything runs serially in this one process, pinned to one CPU.  Scratch
stores and trace exports live under ``.perfbench/`` in the repository root
and are removed at exit; the profiled run leaves its benchmark-side spans
in ``.perfbench/spans/``.  Exits 2 without a result if the ``repro`` sources
are missing, 1 if a workload raises.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import spec  # noqa: E402  (stdlib-only; the repro imports happen in main)

WORKLOAD_NAMES = tuple(w.name for w in spec.WORKLOADS)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny: the same code paths on small inputs, for the self-test",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    # One CPU for the whole run: migrations between the two vCPUs of a small
    # shared host add more noise than anything the workloads do.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    started = time.perf_counter()
    sys.path.insert(0, SRC)
    import harness
    import workloads

    import_s = time.perf_counter() - started

    workdir = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
    os.makedirs(workdir)
    tally = harness.Tally()
    try:
        workload = workloads.WORKLOADS[args.workload](
            args.seed, workloads.SIZES[args.size], workdir, tally
        )
        if args.trace:
            recorder = harness.SpanRecorder()
            samples, shares = workloads.profile(workload, recorder)
            recorder.write(
                os.path.join(
                    ROOT, ".perfbench", "spans", f"{args.workload}-seed{args.seed}.json"
                )
            )
            wanted = spec.PER_LAYER
        else:
            samples = workloads.measure(workload, args.seconds, import_s)
            shares = None
            wanted = spec.END_TO_END
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"trace {args.trace}  ops/repeat {workload.ops}")
    samples.report()
    if shares is not None:
        print("share of repro self time in one timed repeat: " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in shares.items() if share
        ))
    for reason in tally.reasons[:20]:
        print(f"check failed: {reason}", file=sys.stderr)
    measured = samples.metrics()
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {metric.name: measured[metric.name] for metric in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
