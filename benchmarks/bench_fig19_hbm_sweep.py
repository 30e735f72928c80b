"""Figure 19: per-token latency at varied HBM bandwidths on both topologies."""

from _common import BENCH_POINT, FULL, run_figure

from repro.compiler import POLICIES
from repro.ir.models import PAPER_LLM_NAMES
from repro.sweep import SweepSpec

SPEC = SweepSpec(
    name="fig19_hbm_sweep",
    adapter="compile-grid",
    description="Fig. 19: per-token latency vs HBM bandwidth (all-to-all and mesh)",
    axes={
        "topology": ("all_to_all", "mesh_2d"),
        "hbm_bandwidth_TBps": (4.0, 8.0, 12.0, 16.0) if FULL else (4.0, 8.0, 16.0),
        "model": PAPER_LLM_NAMES if FULL else ("llama2-13b", "llama2-70b"),
        "policy": POLICIES,
    },
    fixed=BENCH_POINT,
    columns=(
        "model", "topology", "hbm_bandwidth_TBps", "policy",
        "latency_ms", "hbm_utilization", "noc_utilization",
    ),
)


def test_fig19_hbm_bandwidth_sweep(benchmark):
    rows = run_figure(benchmark, SPEC)
    # Trend check: for Elk-Full, more HBM bandwidth never hurts, and the
    # benefit of the last doubling is smaller than the first (diminishing returns).
    by_key: dict[tuple, list[dict]] = {}
    for row in rows:
        if row["policy"] != "elk-full" or "latency_ms" not in row:
            continue
        by_key.setdefault((row["model"], row["topology"]), []).append(row)
    for series in by_key.values():
        series.sort(key=lambda r: r["hbm_bandwidth_TBps"])
        latencies = [r["latency_ms"] for r in series]
        assert latencies[-1] <= latencies[0] * 1.001
        if len(latencies) >= 3:
            first_gain = latencies[0] / latencies[1]
            last_gain = latencies[-2] / latencies[-1]
            assert last_gain <= first_gain + 0.25
