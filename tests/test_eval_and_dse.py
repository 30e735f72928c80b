"""Tests for the evaluation harness, traces, reporting, and design-space rows."""

import os
from dataclasses import asdict

import pytest

from repro.compiler import WorkloadSpec
from repro.dse import DesignPoint, bottleneck, diminishing_returns
from repro.eval import (
    ExperimentConfig,
    cost_model_accuracy,
    evaluate_artifact,
    execution_space_profile,
    format_table,
    geometric_mean,
    hbm_demand_trace,
    intercore_demand_trace,
    make_request,
    make_session,
    memory_occupancy_trace,
    save_results,
)
from repro.eval import experiments
from repro.partition.pareto import frontier_from_plans
from repro.sweep import SweepSpec, run_sweep
from repro.units import TB

FAST_CONFIG = ExperimentConfig(
    num_layers=1,
    batch_size=4,
    seq_len=256,
    max_order_candidates=4,
)
FAST_POLICIES = ("basic", "elk-full", "ideal")


def _policy_rows(workload, system):
    session = make_session(FAST_CONFIG)
    return [
        evaluate_artifact(session.compile(make_request(workload, system, policy, FAST_CONFIG)))
        for policy in FAST_POLICIES
    ]


def test_compare_policies_produces_rows(small_system):
    workload = WorkloadSpec("tiny-llm", batch_size=4, seq_len=256, num_layers=1)
    rows = _policy_rows(workload, small_system)
    assert {row["policy"] for row in rows} == set(FAST_POLICIES)
    for row in rows:
        assert row.get("latency_ms", 0) > 0 or "error" in row


def test_policy_rows_keep_ideal_fastest(small_system):
    workload = WorkloadSpec("tiny-llm", batch_size=4, seq_len=256, num_layers=1)
    rows = {r["policy"]: r for r in _policy_rows(workload, small_system)}
    assert rows["ideal"]["latency_ms"] <= rows["elk-full"]["latency_ms"] * 1.001
    assert rows["elk-full"]["latency_ms"] <= rows["basic"]["latency_ms"] * 1.05


def test_execution_space_rows_equal_the_unbounded_frontier(monkeypatch):
    """Fig. 5's execution floor skips costing but changes no row."""
    def fig5_rows():
        return execution_space_profile(
            models=("tiny-llm",), config=FAST_CONFIG, session=make_session(FAST_CONFIG)
        )

    bounded = fig5_rows()
    bounds_passed = []

    def unbounded(plans, memory_of, time_of, lower_bounds=()):
        bounds_passed.append(len(lower_bounds))
        return frontier_from_plans(plans, memory_of, time_of)

    monkeypatch.setattr(experiments, "frontier_from_plans", unbounded)
    assert len(bounded) > 4 and fig5_rows() == bounded
    assert bounds_passed == [1] * 4


def test_traces_from_timeline(tiny_elk_result):
    timeline = tiny_elk_result.timeline
    hbm = hbm_demand_trace(timeline)
    intercore = intercore_demand_trace(timeline)
    total = intercore_demand_trace(timeline, include_preload=True)
    occupancy = memory_occupancy_trace(timeline)
    assert hbm.mean >= 0 and hbm.peak >= hbm.mean
    assert total.mean >= intercore.mean
    assert occupancy.peak <= tiny_elk_result.plan.sram_budget_bytes
    assert len(hbm.times) == len(hbm.values)


_ACCURACY_PROBE = """
from repro.eval import cost_model_accuracy
print(repr(cost_model_accuracy(samples_per_op=40, seed=3)))
"""


def test_cost_model_accuracy_rows():
    """The fitted model's rows are accurate and do not follow PYTHONHASHSEED."""
    import subprocess
    import sys

    import repro

    rows = cost_model_accuracy(samples_per_op=40, seed=3)
    assert any(row["target"] == "inter_core_transfer" for row in rows)
    for row in rows:
        assert row["r_squared"] > 0.5

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    outputs = set()
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", _ACCURACY_PROBE],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.add(done.stdout)
    assert outputs == {repr(rows) + "\n"}, outputs


def test_format_table_and_save(tmp_path):
    rows = [
        {"model": "tiny", "latency_ms": 1.23456, "policy": "elk-full"},
        {"model": "tiny", "latency_ms": 2.0, "policy": "basic"},
    ]
    table = format_table(rows)
    assert "latency_ms" in table and "elk-full" in table
    path = os.path.join(tmp_path, "out", "table.txt")
    text = save_results(rows, path, title="demo")
    assert os.path.exists(path)
    assert os.path.exists(os.path.join(tmp_path, "out", "table.json"))
    assert "demo" in text


def test_geometric_mean():
    assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
    assert geometric_mean([]) == 0.0


def test_design_space_explorer_points():
    point = DesignPoint(hbm_bandwidth=8 * TB)
    system = point.build_system()
    assert system.total_hbm_bandwidth == pytest.approx(8 * TB)
    scaled = DesignPoint(hbm_bandwidth=8 * TB, cores_per_chip=368, matmul_tflops=500)
    system = scaled.build_system()
    assert system.chip.num_cores == 368
    assert system.total_matmul_flops == pytest.approx(500e12, rel=0.01)


def test_design_space_sweep_diminishing_returns():
    spec = SweepSpec(
        name="dse_tiny",
        adapter="compile-grid",
        axes={"hbm_bandwidth_TBps": (1.0, 4.0, 16.0, 64.0)},
        fixed={**asdict(FAST_CONFIG), "model": "tiny-llm", "seq_len": 512},
    )
    rows = [row for row in run_sweep(spec).rows if "error" not in row]
    assert len(rows) == spec.num_points
    latencies = [row["latency_ms"] for row in rows]
    assert latencies[0] >= latencies[-1]
    assert diminishing_returns(rows)
    assert all(bottleneck(row) in ("hbm", "interconnect", "compute") for row in rows)
