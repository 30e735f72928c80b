"""Tests for the analytic, measured (device profile), and fitted cost models."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.arch import ipu_pod4
from repro.cost import (
    AnalyticCostModel,
    DeviceProfile,
    ExecutionCost,
    FittedCostModel,
    MeasuredCostModel,
    TileWorkload,
    roofline_estimate,
)
from repro.errors import PartitionError
from repro.ir import FP16, TensorSpec, make_matmul, make_softmax
from repro.ir.models import build_model
from repro.partition import enumerate_execute_plans, enumerate_preload_plans


@pytest.fixture(scope="module")
def matmul_op():
    x = TensorSpec("x", (32, 2048), FP16, "activation")
    w = TensorSpec("w", (2048, 2048), FP16, "weight")
    return make_matmul("mm", x, w)


def test_execution_cost_monotone_in_work(small_chip, small_cost_model, matmul_op):
    plans = enumerate_execute_plans(matmul_op, small_chip)
    costs = [small_cost_model.execution_cost(matmul_op, p) for p in plans]
    assert all(c.total_time > 0 for c in costs)
    assert all(c.total_time + 1e-12 >= max(c.compute_time, c.sram_time) for c in costs)


def test_exchange_increases_execution_time(small_chip, small_cost_model, matmul_op):
    plans = enumerate_execute_plans(matmul_op, small_chip)
    with_exchange = [p for p in plans if p.exchange_bytes_per_core > 0]
    without = [p for p in plans if p.exchange_bytes_per_core == 0]
    assert with_exchange and without
    cost_with = min(
        small_cost_model.execution_cost(matmul_op, p).exchange_time for p in with_exchange
        if p.exchange_bytes_per_core > 10_000
    )
    assert cost_with > 0


def test_hbm_roofline_time_scaling(small_cost_model):
    assert small_cost_model.hbm_load_time(0) == 0.0
    one_mb = small_cost_model.hbm_load_time(10**6)
    ten_mb = small_cost_model.hbm_load_time(10**7)
    assert ten_mb > one_mb
    assert ten_mb < 10.5 * one_mb  # latency amortizes


def test_preload_time_accounts_for_broadcast_amplification(small_chip, small_cost_model, matmul_op):
    plans = enumerate_execute_plans(matmul_op, small_chip)
    shared = next(
        p for p in plans if any(o.group_size > 1 and o.from_hbm for o in p.operands)
    )
    preloads = enumerate_preload_plans(shared)
    max_broadcast, min_broadcast = preloads[0], preloads[-1]
    assert small_cost_model.preload_noc_time(max_broadcast) >= small_cost_model.preload_noc_time(
        min_broadcast
    )
    assert small_cost_model.distribution_time(min_broadcast) >= small_cost_model.distribution_time(
        max_broadcast
    )


def test_device_profile_noise_is_deterministic(small_chip):
    profile_a = DeviceProfile(small_chip.core, noise=0.1)
    profile_b = DeviceProfile(small_chip.core, noise=0.1)
    workload = TileWorkload("matmul", (16, 64), reduction=512)
    assert profile_a.execution_time(workload) == profile_b.execution_time(workload)
    assert profile_a.transfer_time(100_000) == profile_b.transfer_time(100_000)


def test_device_profile_noise_bounded(small_chip):
    noiseless = DeviceProfile(small_chip.core, noise=0.0)
    noisy = DeviceProfile(small_chip.core, noise=0.1)
    workload = TileWorkload("matmul", (16, 64), reduction=512)
    base = noiseless.execution_time(workload)
    measured = noisy.execution_time(workload)
    assert abs(measured - base) / base <= 0.1 + 1e-9


def test_measured_model_close_to_analytic(small_chip, matmul_op):
    analytic = AnalyticCostModel(small_chip)
    measured = MeasuredCostModel(small_chip, DeviceProfile(small_chip.core, noise=0.05))
    plan = enumerate_execute_plans(matmul_op, small_chip)[0]
    a = analytic.execution_cost(matmul_op, plan).total_time
    m = measured.execution_cost(matmul_op, plan).total_time
    assert m == pytest.approx(a, rel=0.5)


def test_fitted_cost_model_accuracy(small_chip):
    fitted = FittedCostModel(small_chip, samples_per_op=150, seed=3)
    reports = fitted.accuracy_reports(samples_per_op=60, seed=11)
    assert {r.name for r in reports} >= {"matmul", "elementwise", "inter_core_transfer"}
    for report in reports:
        # The paper's Fig. 12 shows tight predicted-vs-measured agreement.
        assert report.r_squared > 0.7, f"{report.name} fit too loose"
        assert report.mean_absolute_percentage_error < 40.0


def test_fitted_model_usable_as_cost_model(small_chip, matmul_op):
    fitted = FittedCostModel(small_chip, samples_per_op=100, seed=5)
    plan = enumerate_execute_plans(matmul_op, small_chip)[0]
    cost = fitted.execution_cost(matmul_op, plan)
    assert cost.total_time > 0
    softmax = make_softmax("sm", TensorSpec("s", (64, 64), FP16))
    soft_plan = enumerate_execute_plans(softmax, small_chip)[0]
    assert fitted.execution_cost(softmax, soft_plan).total_time > 0


def test_roofline_identifies_bandwidth_bound_decode():
    system = ipu_pod4()
    decode = build_model("llama2-13b", batch_size=32, seq_len=2048, num_layers=1)
    estimate = roofline_estimate(decode, system)
    assert estimate.hbm_bound
    assert estimate.total_time > 0
    prefill = build_model(
        "llama2-13b", batch_size=8, seq_len=2048, num_layers=1, phase="prefill"
    )
    prefill_estimate = roofline_estimate(prefill, system)
    assert not prefill_estimate.hbm_bound


COST_MODELS = {
    "analytic": AnalyticCostModel,
    "measured": MeasuredCostModel,
    "fitted": lambda chip: FittedCostModel(chip, samples_per_op=100, seed=5),
}


@pytest.fixture(scope="module")
def cost_models(small_chip):
    return {name: make(small_chip) for name, make in COST_MODELS.items()}


def _reference_cost(model, op, plan) -> ExecutionCost:
    """The three models' ``execution_cost`` bodies, each written out in full."""
    exchange_bytes = plan.exchange_bytes_per_core
    sram = plan.sram_traffic_bytes / model.core.sram_bandwidth
    workload = TileWorkload(
        op_type=op.op_type,
        shape=plan.tile_shape if len(plan.tile_shape) >= 2 else (1,) + plan.tile_shape,
        reduction=max(1, op.reduction_dim // plan.reduction_split),
        dtype=op.output.dtype,
    )
    if isinstance(model, MeasuredCostModel):
        compute = model.profile.execution_time(workload) * plan.tiles_per_core
        exchange = (
            model.profile.transfer_time(exchange_bytes, hops=max(1, round(model._hops)))
            if exchange_bytes
            else 0.0
        )
    elif isinstance(model, FittedCostModel):
        compute = model.predict_tile_time(workload) * plan.tiles_per_core
        exchange = (
            model.predict_transfer_time(exchange_bytes) * model._hops if exchange_bytes else 0.0
        )
    else:
        peak = model.core.flops_for(op.is_matmul_like)
        if op.is_matmul_like:
            per_core_reduction = max(1, op.reduction_dim // plan.reduction_split)
            efficiency = model._matmul_efficiency(plan.tile_shape, per_core_reduction)
        else:
            efficiency = 0.85
        compute = plan.flops_per_core / (peak * max(efficiency, 1e-3))
        compute += plan.tiles_per_core * model._kernel_launch_seconds
        exchange = 0.0
        if exchange_bytes > 0:
            phases = sum(
                max(1, round(1.0 / o.resident_fraction) - 1)
                for o in plan.operands
                if o.exchange_bytes > 0 and o.resident_fraction > 0
            )
            exchange = exchange_bytes * model._hops / model.core.link_bandwidth
            exchange += phases * model.core.link_latency
    contended_sram = sram + exchange_bytes / model.core.sram_bandwidth
    total = max(compute, contended_sram, exchange)
    return ExecutionCost(compute, sram, exchange, total, exchange_bytes)


@pytest.mark.parametrize("name", sorted(COST_MODELS))
@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["matmul", "batch_matmul", "norm", "add", "softmax"]),
    rows=st.integers(1, 256),
    cols=st.integers(1, 4096),
    depth=st.integers(1, 4096),
    batch=st.integers(1, 16),
)
@example("matmul", 32, 2048, 2048, 1)
def test_execution_floor_bounds_the_unchanged_cost_per_split_group(
    cost_models, small_chip, make_operator, name, kind, rows, cols, depth, batch
):
    """Every model's cost equals its written-out body, and its floor is at most
    the total and equal across a ``(factors, reduction_split)`` group."""
    model = cost_models[name]
    op = make_operator(kind, rows, cols, depth, batch)
    try:
        plans = enumerate_execute_plans(op, small_chip)
    except PartitionError:
        return
    floors = {}
    for plan in plans:
        cost = model.execution_cost(op, plan)
        assert repr(cost) == repr(_reference_cost(model, op, plan))
        floor = model.execution_floor(op, plan)
        assert floor <= cost.total_time
        assert floors.setdefault((plan.factors, plan.reduction_split), floor) == floor
