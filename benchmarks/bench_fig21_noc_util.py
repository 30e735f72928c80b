"""Figure 21: interconnect utilization at varied HBM bandwidths, both topologies."""

from _common import BENCH_POINT, run_figure

from repro.compiler import POLICIES
from repro.sweep import SweepSpec

SPEC = SweepSpec(
    name="fig21_noc_util",
    adapter="compile-grid",
    description="Fig. 21: interconnect utilization vs HBM bandwidth (all-to-all vs mesh)",
    axes={
        "topology": ("all_to_all", "mesh_2d"),
        "hbm_bandwidth_TBps": (8.0, 16.0),
        "model": ("llama2-13b", "gemma2-27b"),
        "policy": POLICIES,
    },
    fixed=BENCH_POINT,
    columns=(
        "model", "topology", "hbm_bandwidth_TBps", "policy",
        "noc_utilization", "hbm_utilization", "latency_ms",
    ),
)


def test_fig21_noc_utilization(benchmark):
    rows = run_figure(benchmark, SPEC)
    # Mesh chips run their interconnect hotter than all-to-all chips at the
    # same HBM bandwidth (multi-hop HBM delivery), for the same design.
    paired: dict[tuple, dict[str, float]] = {}
    for row in rows:
        if row["policy"] != "elk-full" or "noc_utilization" not in row:
            continue
        key = (row["model"], row["hbm_bandwidth_TBps"])
        paired.setdefault(key, {})[row["topology"]] = row["noc_utilization"]
    compared = 0
    for utils in paired.values():
        if {"all_to_all", "mesh_2d"} <= set(utils):
            compared += 1
            assert utils["mesh_2d"] >= utils["all_to_all"] - 0.10
    assert compared >= 2
