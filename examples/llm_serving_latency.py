#!/usr/bin/env python3
"""LLM serving: compare the designs across models and batch sizes (Fig. 17 style).

Compiles two representative decoder layers of each LLM from the paper's
evaluation (Llama2-13B, Gemma2-27B, OPT-30B, Llama2-70B) for the IPU-POD4-like
system at several batch sizes, evaluates every design with the event-driven
simulator, and prints the per-token latency table plus Elk-Full's speedups.
The grid is a ``compile-grid`` :class:`~repro.sweep.SweepSpec`, the same
path as the Fig. 17 benchmark.

Run with::

    python examples/llm_serving_latency.py
"""

from __future__ import annotations

from collections import defaultdict

from repro.eval import geometric_mean
from repro.sweep import SweepSpec, run_sweep

SPEC = SweepSpec(
    name="llm_serving_latency",
    adapter="compile-grid",
    description="Per-token latency of every design (2 layers, seq 2048)",
    axes={
        "model": ("llama2-13b", "gemma2-27b", "opt-30b", "llama2-70b"),
        "batch_size": (16, 32),
        "policy": ("basic", "static", "elk-dyn", "elk-full", "ideal"),
    },
    fixed={"seq_len": 2048, "num_layers": 2, "max_order_candidates": 12},
    columns=(
        "model", "batch_size", "seq_len", "policy", "latency_ms",
        "hbm_utilization", "noc_utilization", "achieved_tflops",
    ),
)


def main() -> None:
    result = run_sweep(SPEC)
    rows = result.rows
    print(result.table())

    # Summarize Elk-Full against every other design.
    latencies: dict[tuple, dict[str, float]] = defaultdict(dict)
    for row in rows:
        if "latency_ms" in row:
            latencies[(row["model"], row["batch_size"])][row["policy"]] = row["latency_ms"]
    print("\nElk-Full speedups (geometric mean across workloads):")
    for policy in ("basic", "static", "elk-dyn"):
        ratios = [
            values[policy] / values["elk-full"]
            for values in latencies.values()
            if policy in values and "elk-full" in values
        ]
        print(f"  vs {policy:8s}: {geometric_mean(ratios):.2f}x")
    fractions = [
        values["ideal"] / values["elk-full"]
        for values in latencies.values()
        if "ideal" in values and "elk-full" in values
    ]
    print(f"  fraction of the Ideal roofline: {geometric_mean(fractions) * 100:.1f}%")


if __name__ == "__main__":
    main()
