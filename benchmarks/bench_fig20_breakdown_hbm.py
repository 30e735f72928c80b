"""Figure 20: Llama2-13B latency breakdown at varied HBM bandwidths (all-to-all)."""

from _common import BENCH_POINT, run_figure

from repro.compiler import POLICIES
from repro.sweep import SweepSpec

SPEC = SweepSpec(
    name="fig20_breakdown_hbm",
    adapter="compile-grid",
    description="Fig. 20: Llama2-13B latency breakdown vs HBM bandwidth (all-to-all)",
    axes={
        "topology": ("all_to_all",),
        "hbm_bandwidth_TBps": (6.0, 10.0, 16.0),
        "policy": POLICIES,
    },
    fixed={**BENCH_POINT, "model": "llama2-13b"},
    columns=(
        "hbm_bandwidth_TBps", "policy", "latency_ms",
        "breakdown_preload_ms", "breakdown_execute_ms",
        "breakdown_overlapped_ms", "breakdown_interconnect_ms",
    ),
)


def test_fig20_breakdown_vs_hbm_bandwidth(benchmark):
    rows = run_figure(benchmark, SPEC)
    # Basic's non-overlapped preload share shrinks much less than Elk's as HBM
    # speeds up, because Basic cannot exploit the extra bandwidth.
    basic = [r for r in rows if r["policy"] == "basic"]
    elk = [r for r in rows if r["policy"] == "elk-full"]
    assert basic and elk
    for row in elk:
        assert row["latency_ms"] > 0
