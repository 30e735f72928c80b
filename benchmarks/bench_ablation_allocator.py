"""Ablation: the cost-aware greedy allocator vs naive allocation policies.

Compares the §4.3 greedy against (a) always using the fastest plans with no
shrinking (infeasible allocations rejected) and (b) always using the smallest
plans, across the allocation instances that arise when scheduling one
transformer layer.
"""

from _common import BENCH_CONFIG, SESSION, report

from repro.api import CompileRequest
from repro.arch import ipu_pod4
from repro.compiler import WorkloadSpec
from repro.scheduler.allocation import MemoryAllocator


def _rows():
    workload = WorkloadSpec(
        "llama2-13b",
        batch_size=BENCH_CONFIG.batch_size,
        seq_len=BENCH_CONFIG.seq_len,
        num_layers=1,
    )
    compiler = SESSION.compiler(CompileRequest(workload, ipu_pod4()))
    profiles = compiler.profiles
    allocator = MemoryAllocator(
        compiler.cost_model,
        compiler.chip.per_core_usable_sram,
        compiler.chip.core.link_bandwidth,
    )
    budget = compiler.chip.per_core_usable_sram

    rows = []
    instances = 0
    greedy_objective = 0.0
    smallest_objective = 0.0
    fastest_feasible = 0
    for current_index in range(len(profiles) - 4):
        current = profiles[current_index]
        preloaded = [
            (profiles[j], profiles[j].fastest)
            for j in range(current_index + 1, current_index + 5)
        ]
        allocation = allocator.allocate(current, preloaded)
        if allocation is None:
            continue
        instances += 1
        greedy_objective += (
            allocation.execution_time + allocation.distribution_time_total
        )
        # Naive "all smallest" allocation.
        smallest_objective += current.smallest.time_seconds + sum(
            profile.preload_frontier(option.plan, compiler.cost_model)[-1].overhead_time
            for profile, option in preloaded
        )
        # Naive "all fastest" allocation is often infeasible.
        total = current.fastest.memory_bytes + sum(
            profile.preload_frontier(option.plan, compiler.cost_model)[0].memory_bytes
            for profile, option in preloaded
        )
        if total <= budget:
            fastest_feasible += 1

    rows.append(
        {
            "instances": instances,
            "greedy_total_ms": greedy_objective * 1e3,
            "all_smallest_total_ms": smallest_objective * 1e3,
            "all_fastest_feasible_fraction": fastest_feasible / max(1, instances),
        }
    )
    return rows


def test_ablation_allocator(benchmark):
    rows = benchmark.pedantic(_rows, rounds=1, iterations=1)
    report("ablation_allocator", "Ablation: cost-aware allocation vs naive policies", rows)
    row = rows[0]
    assert row["instances"] > 0
    # The greedy never does worse than blindly taking the smallest plans.
    assert row["greedy_total_ms"] <= row["all_smallest_total_ms"] * 1.001
