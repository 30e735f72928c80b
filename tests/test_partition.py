"""Tests for partition plans, enumeration, and preload-state derivation."""

from dataclasses import replace
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.arch import ALL_TO_ALL, MESH_2D, ipu_mk2_chip, scaled_chip
from repro.errors import PartitionError
from repro.ir import FP16, TensorSpec, make_matmul, make_softmax
from repro.partition import (
    EnumerationLimits,
    ExecutePlan,
    OperandShard,
    build_preload_plan,
    enumerate_execute_plans,
    enumerate_preload_plans,
)
from repro.partition.enumerate import (
    _factor_vectors,
    _reduction_splits,
    _replication_levels,
    _split_candidates,
)
from repro.units import ceil_div


def _qkv_like_op():
    # Sized so one chip's share fits a 32-core scaled chip (8 MB of weights).
    x = TensorSpec("x", (32, 2048), FP16, "activation")
    w = TensorSpec("w", (2048, 2048), FP16, "weight")
    return make_matmul("qkv", x, w)


def test_operand_shard_accounting():
    shard = OperandShard("w", "weight", strip_bytes=1000, group_size=4,
                         resident_fraction=0.5, from_hbm=True)
    assert shard.resident_bytes == 500
    assert shard.exchange_bytes == 500
    assert shard.unique_bytes == 250
    with pytest.raises(PartitionError):
        OperandShard("w", "weight", 1000, 4, 0.1, True)  # below 1/group


def test_enumeration_produces_hardware_compatible_plans(small_chip):
    op = _qkv_like_op()
    plans = enumerate_execute_plans(op, small_chip)
    assert plans
    for plan in plans:
        assert plan.num_tiles <= small_chip.num_cores * plan.tiles_per_core
        assert plan.exec_space_bytes <= small_chip.per_core_usable_sram
        assert plan.cores_used <= small_chip.num_cores
        assert plan.flops_per_core > 0


def test_enumeration_covers_memory_time_tradeoff(small_chip):
    op = _qkv_like_op()
    plans = enumerate_execute_plans(op, small_chip)
    footprints = {p.exec_space_bytes for p in plans}
    exchanges = {p.exchange_bytes_per_core for p in plans}
    assert len(footprints) > 3, "expected a range of execution-space sizes"
    assert len(exchanges) > 1, "expected varying inter-core exchange volumes"


def test_reduction_split_speeds_up_decode_matmuls():
    # On a many-core chip, decode-shaped matmuls (tiny M, huge K) benefit from
    # splitting the contracted dimension: the fastest split plan beats the
    # fastest plan that only partitions the output space.
    from repro.cost import AnalyticCostModel

    chip = ipu_mk2_chip()
    cost_model = AnalyticCostModel(chip)
    x = TensorSpec("x", (32, 5120), FP16, "activation")
    w = TensorSpec("w", (5120, 5120), FP16, "weight")
    op = make_matmul("qkv-large", x, w)
    plans = enumerate_execute_plans(op, chip)
    split = [p for p in plans if p.reduction_split > 1]
    unsplit = [p for p in plans if p.reduction_split == 1]
    assert split and unsplit
    fastest_split = min(cost_model.execution_cost(op, p).total_time for p in split)
    fastest_unsplit = min(cost_model.execution_cost(op, p).total_time for p in unsplit)
    assert fastest_split < fastest_unsplit


def test_mesh_limits_partitioned_dimensions():
    mesh_chip = scaled_chip(num_cores=64, topology="mesh_2d")
    op = _qkv_like_op()
    plans = enumerate_execute_plans(op, mesh_chip)
    for plan in plans:
        split_dims = sum(1 for f in plan.factors if f > 1)
        split_dims += 1 if plan.reduction_split > 1 else 0
        assert split_dims <= 2
    # The mesh clamps only the partitioned dimensions; every other limit holds.
    assert len(plans) > 5
    assert enumerate_execute_plans(op, mesh_chip, EnumerationLimits(max_plans=5)) == plans[:5]
    # Only the unsplit output space may use fewer cores than the utilisation floor.
    full_chip = {1, mesh_chip.num_cores}
    assert {prod(p.factors) for p in plans} - full_chip
    utilized = enumerate_execute_plans(op, mesh_chip, EnumerationLimits(min_core_utilization=1.0))
    assert {prod(p.factors) for p in utilized} == full_chip


def test_vector_op_enumeration(small_chip):
    op = make_softmax("sm", TensorSpec("s", (32, 8, 1, 256), FP16))
    plans = enumerate_execute_plans(op, small_chip)
    assert plans
    assert all(p.exchange_bytes_per_core == 0 for p in plans)
    assert all(p.hbm_bytes_total == 0 for p in plans)


def test_infeasible_operator_raises():
    tiny_chip = scaled_chip(num_cores=2)
    x = TensorSpec("x", (8192, 8192), FP16, "activation")
    w = TensorSpec("w", (8192, 8192), FP16, "weight")
    op = make_matmul("huge", x, w)
    with pytest.raises(PartitionError):
        enumerate_execute_plans(op, tiny_chip, EnumerationLimits(max_plans=32))


def test_preload_plan_fractions(small_chip):
    op = _qkv_like_op()
    plans = enumerate_execute_plans(op, small_chip)
    shared = next(p for p in plans if any(o.group_size > 1 and o.from_hbm for o in p.operands))
    preloads = enumerate_preload_plans(shared)
    assert preloads
    # Ordered from largest preload space (MaxPreload) to smallest (MinPreload).
    spaces = [p.preload_space_bytes for p in preloads]
    assert spaces == sorted(spaces, reverse=True)
    max_plan, min_plan = preloads[0], preloads[-1]
    assert max_plan.distribution_bytes_per_core <= min_plan.distribution_bytes_per_core
    assert min_plan.preload_space_bytes <= max_plan.preload_space_bytes
    # Memory + distribution conservation: what is not delivered at preload
    # must be fetched at distribution time.
    for plan in preloads:
        assert (
            plan.preload_space_bytes + plan.distribution_bytes_per_core
            == max_plan.preload_space_bytes + max_plan.distribution_bytes_per_core
        )


def test_preload_plan_clamps_fraction(small_chip):
    op = _qkv_like_op()
    plan = enumerate_execute_plans(op, small_chip)[0]
    over = build_preload_plan(plan, 5.0)
    under = build_preload_plan(plan, 0.0)
    assert over.preload_space_bytes >= under.preload_space_bytes
    assert under.preload_space_bytes >= 0


def test_execute_plan_validation():
    shard = OperandShard("w", "weight", 100, 2, 0.5, True)
    with pytest.raises(PartitionError):
        ExecutePlan(
            op_name="bad",
            factors=(2, 2),
            num_tiles=5,  # != prod(factors) * reduction_split
            cores_used=4,
            tiles_per_core=1,
            tile_shape=(2, 2),
            operands=(shard,),
            output_tile_bytes=16,
            partial_reduce_bytes=0,
            flops_per_core=10,
            hbm_bytes_total=100,
        )


def test_full_ipu_chip_enumeration_plan_counts():
    chip = ipu_mk2_chip()
    op = _qkv_like_op()
    plans = enumerate_execute_plans(op, chip)
    # The paper reports tens to hundreds of plans per operator (Table 2, P).
    assert 10 <= len(plans) <= 256


# --------------------------------------------------------------------------- #
# Reference: the per-candidate enumeration loop, written out.
# --------------------------------------------------------------------------- #
def _reference_matmul_shards(op, factors, reduction_split, rep_a, rep_b):
    lhs, rhs = op.inputs[0], op.inputs[1]
    itemsize = op.output.dtype.itemsize
    k = ceil_div(op.reduction_dim, reduction_split)
    if op.op_type == "matmul":
        p_m, p_n = factors
        m, n = op.iteration_space
        batch, p_b = 1, 1
    else:
        p_b, p_m, p_n = factors
        batch, m, n = op.iteration_space
    tile_batch = ceil_div(batch, p_b)
    tile_m = ceil_div(m, p_m)
    tile_n = ceil_div(n, p_n)
    lhs_strip = tile_batch * tile_m * k * itemsize
    rhs_strip = tile_batch * k * tile_n * itemsize
    out_tile = tile_batch * tile_m * tile_n * itemsize
    partial_reduce = out_tile if reduction_split > 1 else 0
    flops_per_core = 2 * tile_batch * tile_m * tile_n * k

    def clamp(fraction, group):
        return min(1.0, max(fraction, 1.0 / group))

    shards = [
        OperandShard(lhs.name, lhs.kind, lhs_strip, p_n, clamp(rep_a, p_n), lhs.loads_from_hbm),
        OperandShard(rhs.name, rhs.kind, rhs_strip, p_m, clamp(rep_b, p_m), rhs.loads_from_hbm),
    ]
    return shards, out_tile, partial_reduce, flops_per_core


def _reference_vector_shards(op, factors):
    num_tiles = prod(factors)
    itemsize = op.output.dtype.itemsize
    out_tile = ceil_div(op.output.num_elements, num_tiles) * itemsize
    flops_per_core = ceil_div(op.flops, num_tiles)
    shards = []
    for operand in op.inputs:
        if operand.num_elements >= op.output.num_elements // 2:
            strip, group = ceil_div(operand.size_bytes, num_tiles), 1
        else:
            strip, group = operand.size_bytes, num_tiles
        shards.append(
            OperandShard(operand.name, operand.kind, strip, group, 1.0, operand.loads_from_hbm)
        )
    return shards, out_tile, flops_per_core


def _reference_plans(op, chip, limits):
    """Build every candidate's plan, then keep it if it fits; stop at the cap."""
    if chip.interconnect.is_mesh:
        limits = EnumerationLimits(
            limits.max_plans,
            limits.max_factor_candidates,
            limits.min_core_utilization,
            min(limits.max_partition_dims, 2),
        )
    extents, num_cores = op.iteration_space, chip.num_cores
    if op.is_matmul_like:
        reduction_candidates = _reduction_splits(op.reduction_dim, num_cores)
    else:
        reduction_candidates = [1]
    plans = []
    for factors in _factor_vectors(extents, num_cores, limits):
        for reduction_split in reduction_candidates:
            num_tiles = prod(factors) * reduction_split
            if num_tiles > num_cores:
                continue
            split_dims = sum(1 for f in factors if f > 1) + (1 if reduction_split > 1 else 0)
            if split_dims > limits.max_partition_dims:
                continue
            tiles_per_core = ceil_div(num_tiles, num_cores)
            if op.is_matmul_like:
                if op.op_type == "matmul":
                    p_groups = (factors[1], factors[0])
                else:
                    p_groups = (factors[2], factors[1])
                combos = [
                    (a, b)
                    for a in _replication_levels(p_groups[0])
                    for b in _replication_levels(p_groups[1])
                ]
            else:
                combos = [(1.0, 1.0)]
            for rep_a, rep_b in combos:
                if op.is_matmul_like:
                    shards, out_tile, partial_reduce, flops = _reference_matmul_shards(
                        op, factors, reduction_split, rep_a, rep_b
                    )
                else:
                    shards, out_tile, flops = _reference_vector_shards(op, factors)
                    partial_reduce = 0
                plan = ExecutePlan(
                    op_name=op.name,
                    factors=factors,
                    num_tiles=num_tiles,
                    cores_used=min(num_tiles, num_cores),
                    tiles_per_core=tiles_per_core,
                    tile_shape=tuple(ceil_div(e, f) for e, f in zip(extents, factors)),
                    operands=tuple(shards),
                    output_tile_bytes=out_tile * tiles_per_core,
                    partial_reduce_bytes=partial_reduce,
                    flops_per_core=flops * tiles_per_core,
                    hbm_bytes_total=op.hbm_load_bytes,
                    reduction_split=reduction_split,
                )
                if plan.exec_space_bytes <= chip.per_core_usable_sram:
                    plans.append(plan)
                if len(plans) >= limits.max_plans:
                    break
            if len(plans) >= limits.max_plans:
                break
        if len(plans) >= limits.max_plans:
            break
    if not plans:
        raise PartitionError(f"{op.name}: no plan fits")
    return plans


def _chip(num_cores, topology, sram_kib):
    chip = scaled_chip(num_cores=num_cores, topology=topology)
    return replace(chip, core=replace(chip.core, sram_bytes=sram_kib * 1024))


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["matmul", "batch_matmul", "norm", "add", "softmax"]),
    rows=st.integers(1, 256),
    cols=st.integers(1, 4096),
    depth=st.integers(1, 4096),
    batch=st.integers(1, 64),
    num_cores=st.integers(16, 1472),
    topology=st.sampled_from([ALL_TO_ALL, MESH_2D]),
    sram_kib=st.integers(9, 624),
    limits=st.builds(
        EnumerationLimits,
        max_plans=st.integers(1, 300),
        max_factor_candidates=st.integers(1, 12),
        min_core_utilization=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
        max_partition_dims=st.integers(1, 8),
    ),
)
# On 64 cores with 184 KiB of SRAM (176 KiB usable), the group (factors
# (4, 8), reduction split 2) has 12 replication combos that the SRAM filter
# rejects and keeps as rrrrrKrrKrrK; the 14th plan is its first kept one, so
# max_plans=14 stops the enumeration inside its combo loop with two fitting
# combos to go.
@example("matmul", 64, 1024, 4096, 1, 64, ALL_TO_ALL, 184, EnumerationLimits(max_plans=14))
# Uncapped, the same operator's groups reject combos between kept ones
# (rrrKrKrK for factors (2, 8), reduction split 4), and three of its plans
# need exactly the usable SRAM.
@example("matmul", 64, 1024, 4096, 1, 64, ALL_TO_ALL, 184, EnumerationLimits())
def test_enumeration_equals_the_per_candidate_reference(
    make_operator, kind, rows, cols, depth, batch, num_cores, topology, sram_kib, limits
):
    """Deriving per group and filtering before construction changes no plan,
    no plan order and no cap."""
    op = make_operator(kind, rows, cols, depth, batch)
    chip = _chip(num_cores, topology, sram_kib)
    try:
        expected = _reference_plans(op, chip, limits)
    except PartitionError:
        with pytest.raises(PartitionError):
            enumerate_execute_plans(op, chip, limits)
        return
    assert enumerate_execute_plans(op, chip, limits) == expected


def _reference_split_candidates(extent, num_cores, limit):
    """The divisor scan that tests the cap after every step."""
    candidates = {1}
    value = 2
    while value <= min(extent, num_cores):
        candidates.add(value)
        value *= 2
    for divisor in range(2, min(extent, num_cores) + 1):
        if extent % divisor == 0:
            candidates.add(divisor)
        if len(candidates) >= 4 * limit:
            break
    if extent <= num_cores:
        candidates.add(extent)
    ordered = sorted(candidates)
    if len(ordered) > limit:
        step = len(ordered) / limit
        ordered = sorted({ordered[int(i * step)] for i in range(limit)} | {ordered[-1], 1})
    return ordered


@pytest.mark.parametrize("limit", range(1, 13))
def test_split_candidates_equal_the_stepwise_scan(limit):
    """Testing the cap only before the scan and after an added divisor keeps
    every candidate, also when the powers of two already meet the cap."""
    extents = [*range(1, 400), 720, 1024, 2048, 2880, 4096, 5120, 11008, 32000]
    for num_cores in (1, 2, 3, 5, 16, 32, 64, 96, 1472):
        for extent in extents:
            assert _split_candidates(extent, num_cores, limit) == _reference_split_candidates(
                extent, num_cores, limit
            ), (extent, num_cores)
