"""Figure 17: per-token serving latency of all designs across models/batches/sequences."""

from _common import BENCH_POINT, FULL, run_figure, summarize_speedups

from repro.compiler import POLICIES
from repro.ir.models import PAPER_LLM_NAMES
from repro.sweep import SweepSpec

SPEC = SweepSpec(
    name="fig17_end_to_end",
    adapter="compile-grid",
    description="Fig. 17: per-token serving latency (4 ICCA chips, 16 TB/s HBM)",
    axes={
        "model": PAPER_LLM_NAMES,
        "seq_len": (2048, 4096) if FULL else (2048,),
        "batch_size": (16, 32, 64) if FULL else (16, 32),
        "policy": POLICIES,
    },
    fixed=BENCH_POINT,
    columns=(
        "model", "batch_size", "seq_len", "policy", "latency_ms",
        "hbm_utilization", "noc_utilization", "achieved_tflops",
    ),
)


def test_fig17_end_to_end_latency(benchmark):
    rows = run_figure(benchmark, SPEC)
    speedups = summarize_speedups(rows)
    print(f"Geomean speedup of Elk-Full: {speedups}")
    # Shape checks against the paper: Elk-Full beats Basic clearly, is at
    # least on par with Static and Elk-Dyn, and stays below the Ideal roofline.
    assert speedups.get("basic", 0) > 1.15
    assert speedups.get("static", 0) > 0.95
    assert speedups.get("elk-dyn", 0) >= 0.99
    assert 0.5 <= speedups.get("ideal", 0) <= 1.001
