"""Ablation: Elk's scheduling / allocation / reordering contributions.

This is not a single paper figure but the design-choice ablation DESIGN.md
calls out: it compares (a) no preload-ahead at all, (b) the inductive
scheduler without reordering (Elk-Dyn), and (c) the full design (Elk-Full),
plus the Basic and Static baselines, on one workload.
"""

from _common import BENCH_CONFIG, SESSION, report

from repro.api import CompileRequest
from repro.arch import ipu_pod4
from repro.compiler import WorkloadSpec
from repro.scheduler import InductiveScheduler, MemoryAllocator, SchedulerOptions
from repro.sim import simulate_system


def _rows():
    workload = WorkloadSpec(
        "llama2-13b",
        batch_size=BENCH_CONFIG.batch_size,
        seq_len=BENCH_CONFIG.seq_len,
        num_layers=BENCH_CONFIG.num_layers,
    )
    compiler = SESSION.compiler(CompileRequest(workload, ipu_pod4()))
    rows = []

    # Variant: inductive scheduling with preload-ahead disabled entirely.
    no_ahead_plan = InductiveScheduler(
        compiler.profiles,
        MemoryAllocator(
            compiler.cost_model,
            compiler.chip.per_core_usable_sram,
            compiler.chip.core.link_bandwidth,
        ),
        SchedulerOptions(max_preload_ahead=0, policy_name="no-preload-ahead"),
    ).schedule()
    sim = simulate_system(
        no_ahead_plan,
        compiler.system,
        compiler.frontend.per_chip_graph.total_flops,
        compiler.frontend.full_graph_flops,
        compiler.frontend.interchip_bytes_per_step,
    )
    rows.append(
        {
            "variant": "no-preload-ahead",
            "latency_ms": sim.total_time * 1e3,
            "hbm_utilization": sim.chip_result.hbm_utilization,
        }
    )

    # The registered policies: each artifact already carries its simulation.
    for policy in ("basic", "static", "elk-dyn", "elk-full"):
        request = CompileRequest(workload, compiler.system, policy)
        simulation = SESSION.compile(request).simulation
        rows.append(
            {
                "variant": policy,
                "latency_ms": simulation.total_time * 1e3,
                "hbm_utilization": simulation.hbm_utilization,
            }
        )
    ideal = SESSION.compile(CompileRequest(workload, compiler.system, "ideal"))
    rows.append(
        {
            "variant": "ideal",
            "latency_ms": ideal.latency * 1e3,
            "hbm_utilization": ideal.hbm_utilization,
        }
    )
    return rows


def test_ablation_scheduler_components(benchmark):
    rows = benchmark.pedantic(_rows, rounds=1, iterations=1)
    report("ablation_scheduler", "Ablation: scheduler components", rows)
    latencies = {row["variant"]: row["latency_ms"] for row in rows}
    assert latencies["elk-full"] <= latencies["elk-dyn"] * 1.001
    assert latencies["elk-full"] <= latencies["no-preload-ahead"]
    assert latencies["elk-full"] < latencies["basic"]
    assert latencies["ideal"] <= latencies["elk-full"] * 1.001
