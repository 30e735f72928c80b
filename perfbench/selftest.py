"""Self-test of the benchmark, in seconds rather than minutes.

Run from the repository root::

    python3 perfbench/selftest.py

It checks ``BENCHMARK.json`` against the format rules it must follow and
against ``spec.py``, then runs every workload on tiny inputs (``--size
tiny``), timed and profiled, and checks that each run emits exactly the
declared metrics with their units, that idle layers read 0, that simulated values and counts
repeat exactly for a repeated seed, and that a directory holding only
``BENCHMARK.json`` and the benchmark's files makes the benchmark fail
without printing a result.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spec  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest: FAILED: {message}")


def check_benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        doc = json.load(handle)
    check(
        set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        f"BENCHMARK.json keys {sorted(doc)}",
    )
    check(1 <= len(doc["paths"]) <= 16, "1 to 16 paths")
    for path in doc["paths"]:
        check(bool(PATH.match(path)) and ".." not in path.split("/"), f"path {path!r}")
    check(len(doc["command"]) <= 32 and all(len(a) <= 200 for a in doc["command"]),
          "command length")
    check(isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60,
          "run_seconds")
    names = []
    check(2 <= len(doc["workloads"]) <= 8, "2 to 8 workloads")
    for workload in doc["workloads"]:
        check(set(workload) == {"name", "why"}, f"workload keys {workload}")
        check(len(workload["why"]) <= 200 and "\n" not in workload["why"], "why")
        names.append(workload["name"])
    check(1 <= len(doc["end_to_end"]) <= 16, "1 to 16 end-to-end metrics")
    for metric in doc["end_to_end"]:
        check(set(metric) == {"name", "unit", "better", "bound"}, f"keys {metric}")
        check(0 < metric["bound"] <= 0.25, f"bound of {metric['name']}")
    check(1 <= len(doc["per_layer"]) <= 128, "1 to 128 per-layer metrics")
    for metric in doc["per_layer"]:
        check(set(metric) == {"name", "unit", "better"}, f"keys {metric}")
    for metric in doc["end_to_end"] + doc["per_layer"]:
        check(bool(UNIT.match(metric["unit"])), f"unit of {metric['name']}")
        check(metric["better"] in ("lower", "higher"), f"better of {metric['name']}")
        names.append(metric["name"])
    for name in names:
        check(bool(NAME.match(name)), f"name {name!r}")
    check(len(names) == len(set(names)), "names are unique")
    check({"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
          in doc["end_to_end"], "setup_s with the largest bound")
    check(os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024, "size")

    check(doc["workloads"] == [{"name": w.name, "why": w.why} for w in spec.WORKLOADS],
          "workloads match spec.py")
    check(doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in spec.END_TO_END
    ], "end-to-end metrics match spec.py")
    check(doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in spec.PER_LAYER
    ], "per-layer metrics match spec.py")
    return doc


def run(doc: dict, workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        doc["command"] + ["--workload", workload, "--seed", "7", "--seconds", "0.1",
                          "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(doc: dict, workload: str, trace: int) -> dict:
    proc = run(doc, workload, trace)
    check(proc.returncode == 0, f"{workload} --trace {trace} exited "
          f"{proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"result keys {sorted(result)}")
    check(result["correct"] is True and result["failed"] == 0,
          f"{workload} --trace {trace} output checks:\n{proc.stderr}")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, "attempted")
    declared = spec.PER_LAYER if trace else spec.END_TO_END
    check(list(result["metrics"]) == [m.name for m in declared],
          f"{workload} --trace {trace} emits exactly the declared metrics")
    for metric in declared:
        entry = result["metrics"][metric.name]
        check(entry["unit"] == metric.unit, f"unit of {metric.name}")
        value = entry["value"]
        check(isinstance(value, (int, float)), f"{metric.name} is a number")
        if not trace:
            check(value > 0, f"{metric.name} is never 0 (read {value})")
        elif workload not in metric.on:
            check(value == 0, f"{metric.name} on idle {workload} reads {value}")
    return result


def main() -> int:
    doc = check_benchmark_json()
    repeatable = {m.name for m in spec.PER_LAYER if m.base in ("simulated", "count")}
    for workload in (w.name for w in spec.WORKLOADS):
        result_of(doc, workload, 0)
        profiled = result_of(doc, workload, 1)
        again = result_of(doc, workload, 1)
        for name in sorted(repeatable):
            check(profiled["metrics"][name] == again["metrics"][name],
                  f"{workload}: {name} differs between same-seed runs")
        print(f"selftest: {workload} ok")

    bare = os.path.join(ROOT, ".perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        for path in doc["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run(doc, spec.WORKLOADS[0].name, 0, cwd=bare)
        check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
              "without the sources the benchmark must fail without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
