"""Figure 22: Llama2-70B latency at varied interconnect bandwidths."""

from _common import BENCH_POINT, FULL, run_figure

from repro.compiler import POLICIES
from repro.sweep import SweepSpec

SPEC = SweepSpec(
    name="fig22_noc_sweep",
    adapter="compile-grid",
    description="Fig. 22: Llama2-70B latency vs total interconnect bandwidth",
    axes={
        "topology": ("all_to_all", "mesh_2d") if FULL else ("all_to_all",),
        "hbm_bandwidth_TBps": (8.0, 12.0, 16.0) if FULL else (8.0, 16.0),
        "noc_bandwidth_TBps": (24.0, 32.0, 40.0, 48.0) if FULL else (24.0, 32.0, 48.0),
        "policy": POLICIES,
    },
    fixed={**BENCH_POINT, "model": "llama2-70b"},
    columns=(
        "topology", "hbm_bandwidth_TBps", "noc_bandwidth_TBps", "policy",
        "latency_ms", "noc_utilization",
    ),
)


def test_fig22_noc_bandwidth_sweep(benchmark):
    rows = run_figure(benchmark, SPEC)
    # With low HBM bandwidth, raising the NoC bandwidth brings little benefit
    # (HBM is the bottleneck); with high HBM bandwidth the NoC matters more.
    elk = [r for r in rows if r["policy"] == "elk-full" and "latency_ms" in r]
    assert elk
    for row in elk:
        assert row["latency_ms"] > 0
    low_hbm = sorted(
        (r for r in elk if r["hbm_bandwidth_TBps"] == 8.0),
        key=lambda r: r["noc_bandwidth_TBps"],
    )
    if len(low_hbm) >= 2:
        gain = low_hbm[0]["latency_ms"] / low_hbm[-1]["latency_ms"]
        assert gain < 1.6, "NoC scaling should not dominate when HBM is the bottleneck"
