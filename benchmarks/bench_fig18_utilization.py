"""Figure 18: latency breakdown, HBM/NoC utilization, and achieved TFLOPS per design."""

from _common import BENCH_POINT, run_figure

from repro.compiler import POLICIES
from repro.ir.models import PAPER_LLM_NAMES
from repro.sweep import SweepSpec

SPEC = SweepSpec(
    name="fig18_utilization",
    adapter="compile-grid",
    description="Fig. 18: breakdown (a), HBM utilization (b), NoC utilization (c), TFLOPS (d)",
    axes={"model": PAPER_LLM_NAMES, "policy": POLICIES},
    fixed=BENCH_POINT,
    columns=(
        "model", "policy", "latency_ms",
        "breakdown_preload_ms", "breakdown_execute_ms",
        "breakdown_overlapped_ms", "breakdown_interconnect_ms",
        "hbm_utilization", "noc_utilization", "noc_preload_fraction",
        "achieved_tflops",
    ),
)


def test_fig18_utilization(benchmark):
    rows = run_figure(benchmark, SPEC)
    by_model: dict[str, dict[str, dict]] = {}
    for row in rows:
        by_model.setdefault(row["model"], {})[row["policy"]] = row
    for model, policies in by_model.items():
        if not {"basic", "elk-full"} <= set(policies):
            continue
        # Fig. 18b ordering: Elk utilizes HBM better than Basic.
        assert (
            policies["elk-full"]["hbm_utilization"]
            > policies["basic"]["hbm_utilization"]
        ), model
        # Fig. 18d: Elk achieves higher TFLOPS than Basic.
        assert (
            policies["elk-full"]["achieved_tflops"]
            > policies["basic"]["achieved_tflops"]
        ), model
