"""Figure 23: per-token latency at varied core counts (plus DiT-XL).

HBM bandwidth scales with the core count (2.7 GB/s per core), so every
point is an explicit ``include`` entry: LLMs re-core each chip of the
4-chip pod, and DiT-XL runs on one chip at batch 8.
"""

from _common import BENCH_POINT, FULL, run_figure

from repro.compiler import POLICIES
from repro.ir.models import PAPER_LLM_NAMES
from repro.sweep import SweepSpec
from repro.units import GB, TB

MODELS = (PAPER_LLM_NAMES if FULL else ("llama2-13b", "llama2-70b")) + ("dit-xl",)
CORE_COUNTS = (736, 1104, 1472) if FULL else (736, 1472)


def _point(model: str, cores: int, policy: str) -> dict:
    dit = model.startswith("dit")
    total_cores = cores if dit else 4 * cores
    point = {
        "model": model,
        "system": "single-chip" if dit else "ipu-pod4",
        "cores_per_chip": cores,
        "total_cores": total_cores,
        "hbm_bandwidth_TBps": 2.7 * GB * total_cores / TB,
        "policy": policy,
    }
    return {**point, "batch_size": 8} if dit else point


SPEC = SweepSpec(
    name="fig23_core_sweep",
    adapter="compile-grid",
    description="Fig. 23: per-token latency vs core count (HBM at 2.7 GB/s per core)",
    include=tuple(
        _point(model, cores, policy)
        for model in MODELS
        for cores in CORE_COUNTS
        for policy in POLICIES
    ),
    fixed=BENCH_POINT,
    columns=(
        "model", "cores_per_chip", "total_cores", "policy",
        "latency_ms", "hbm_utilization", "achieved_tflops",
    ),
)


def test_fig23_core_count_sweep(benchmark):
    rows = run_figure(benchmark, SPEC)
    # Performance scales with the chip: more cores (and proportional HBM)
    # never slows Elk-Full down.
    series: dict[str, list[dict]] = {}
    for row in rows:
        if row["policy"] != "elk-full" or "latency_ms" not in row:
            continue
        series.setdefault(row["model"], []).append(row)
    for model, points in series.items():
        points.sort(key=lambda r: r["total_cores"])
        assert points[-1]["latency_ms"] <= points[0]["latency_ms"] * 1.05, model
