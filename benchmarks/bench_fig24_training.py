"""Figure 24: achieved TFLOPS for the Llama2-13B training forward pass.

The figure labels its points in GB/s of HBM and available TFLOPS; each
``include`` entry carries those labels next to the design-point keys they
set (``hbm_bandwidth_TBps``, ``matmul_tflops``).
"""

from _common import BENCH_CONFIG, BENCH_POINT, FULL, run_figure

from repro.sweep import SweepSpec
from repro.units import GB, TB

SPEC = SweepSpec(
    name="fig24_training",
    adapter="compile-grid",
    description="Fig. 24: achieved TFLOPS during Llama2-13B training (forward pass)",
    include=tuple(
        {
            "topology": topology,
            "hbm_bandwidth_GBps": hbm_gbps,
            "hbm_bandwidth_TBps": hbm_gbps * GB / TB,
            "noc_bandwidth_TBps": noc_tbps,
            "available_tflops": tflops,
            "matmul_tflops": tflops,
            "policy": policy,
        }
        for topology in (("all_to_all", "mesh_2d") if FULL else ("all_to_all",))
        for hbm_gbps in (300, 400)
        for noc_tbps in (32, 48)
        for tflops in ((500, 1000, 1500) if FULL else (500, 1500))
        for policy in ("static", "elk-full", "ideal")
    ),
    fixed={
        **BENCH_POINT,
        "model": "llama2-13b",
        "phase": "training_forward",
        "batch_size": 4,
        "seq_len": min(BENCH_CONFIG.seq_len, 2048),
    },
    columns=(
        "topology", "hbm_bandwidth_GBps", "noc_bandwidth_TBps",
        "available_tflops", "policy", "achieved_tflops", "latency_ms",
    ),
)


def test_fig24_training_flops(benchmark):
    rows = run_figure(benchmark, SPEC)
    # Training is compute-bound: achieved TFLOPS grows with available TFLOPS
    # even at modest (GB/s-class) HBM bandwidth — the paper's insight 4.
    elk = [r for r in rows if r["policy"] == "elk-full" and "achieved_tflops" in r]
    by_setting: dict[tuple, list[dict]] = {}
    for row in elk:
        key = (row["topology"], row["hbm_bandwidth_GBps"], row["noc_bandwidth_TBps"])
        by_setting.setdefault(key, []).append(row)
    for points in by_setting.values():
        points.sort(key=lambda r: r["available_tflops"])
        assert points[-1]["achieved_tflops"] >= points[0]["achieved_tflops"] * 1.1
