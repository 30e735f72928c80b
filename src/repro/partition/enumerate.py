"""Enumeration of single-operator partition plans.

Elk integrates existing compiler techniques to enumerate the partition plans
of one operator (§4.3 / §5): each plan is a list of integer split factors over
the operator's iteration space plus, per shared operand, a compute-shift
replication level (how much of the shared strip stays resident per core).
The enumeration is hardware-aware: it rejects plans that use more cores than
available, overflow per-core SRAM, or partition more dimensions than a mesh
network can map (§5, dimension-aligned mapping).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Sequence

from repro.arch.chip import ChipConfig
from repro.errors import PartitionError
from repro.ir.operators import Operator
from repro.partition.plan import ExecutePlan, OperandShard
from repro.units import ceil_div


@dataclass(frozen=True)
class EnumerationLimits:
    """Bounds on the plan-enumeration search space.

    Attributes:
        max_plans: Hard cap on the number of execute plans returned per operator.
        max_factor_candidates: Cap on candidate split values per dimension.
        min_core_utilization: Reject plans using fewer than this fraction of
            the chip's cores (tiny plans waste the chip and blow up the search).
        max_partition_dims: Maximum number of dimensions that may be split
            (2 for a 2-D mesh so each split maps to a mesh axis; unlimited for
            all-to-all).
    """

    max_plans: int = 256
    max_factor_candidates: int = 12
    min_core_utilization: float = 0.25
    max_partition_dims: int = 8


def _split_candidates(extent: int, num_cores: int, limit: int) -> list[int]:
    """Candidate split counts for one iteration-space dimension."""
    candidates: set[int] = {1}
    value = 2
    while value <= min(extent, num_cores):
        candidates.add(value)
        value *= 2
    # Exact divisors give perfectly balanced tiles; include a few.
    for divisor in range(2, min(extent, num_cores) + 1):
        if extent % divisor == 0:
            candidates.add(divisor)
        if len(candidates) >= 4 * limit:
            break
    if extent <= num_cores:
        candidates.add(extent)
    ordered = sorted(candidates)
    if len(ordered) > limit:
        # Keep a spread: always keep 1 and the extremes, subsample the middle.
        step = len(ordered) / limit
        ordered = sorted({ordered[int(i * step)] for i in range(limit)} | {ordered[-1], 1})
    return ordered


def _factor_vectors(
    extents: Sequence[int], num_cores: int, limits: EnumerationLimits
) -> list[tuple[int, ...]]:
    """Enumerate per-dimension split-factor vectors within the core budget."""
    per_dim = [
        _split_candidates(extent, num_cores, limits.max_factor_candidates)
        for extent in extents
    ]
    min_tiles = max(1, int(num_cores * limits.min_core_utilization))
    results: list[tuple[int, ...]] = []

    def recurse(dim: int, chosen: tuple[int, ...], product: int) -> None:
        if product > num_cores:
            return
        if dim == len(per_dim):
            split_dims = sum(1 for f in chosen if f > 1)
            if split_dims > limits.max_partition_dims:
                return
            if product >= min_tiles or product == prod(
                min(e, 1) for e in extents
            ):
                results.append(chosen)
            return
        for factor in per_dim[dim]:
            if product * factor > num_cores:
                break
            recurse(dim + 1, chosen + (factor,), product * factor)

    recurse(0, (), 1)
    if not results:
        # Fall back to the trivial single-tile plan so every operator has a plan.
        results.append(tuple(1 for _ in extents))
    return results


def _reduction_splits(reduction_dim: int, num_cores: int, cap: int = 64) -> list[int]:
    """Candidate split counts of the contracted dimension (powers of two)."""
    splits = [1]
    value = 2
    while value <= min(reduction_dim, num_cores, cap):
        splits.append(value)
        value *= 2
    return splits


def _replication_levels(group_size: int, max_levels: int = 4) -> list[float]:
    """Resident-fraction candidates for a shared operand (powers of two)."""
    if group_size <= 1:
        return [1.0]
    levels: list[float] = []
    value = 1.0
    floor = 1.0 / group_size
    while value > floor and len(levels) < max_levels - 1:
        levels.append(value)
        value /= 2.0
    levels.append(floor)
    return levels


def _matmul_shards(
    op: Operator,
    factors: tuple[int, ...],
    reduction_split: int,
    rep_a: float,
    rep_b: float,
) -> tuple[list[OperandShard], int, int, int]:
    """Shards, output-tile bytes, partial-reduce bytes, and per-core FLOPs.

    ``factors`` split the output iteration space; ``reduction_split`` splits
    the contracted dimension, so each core holds only a ``1/reduction_split``
    slice of both operand strips and produces a partial output tile that is
    reduced across the ``reduction_split`` cores sharing the same output tile.
    """
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

    def clamp(fraction: float, group: int) -> float:
        return min(1.0, max(fraction, 1.0 / group))

    shards = [
        OperandShard(
            tensor_name=lhs.name,
            kind=lhs.kind,
            strip_bytes=lhs_strip,
            group_size=p_n,
            resident_fraction=clamp(rep_a, p_n),
            from_hbm=lhs.loads_from_hbm,
        ),
        OperandShard(
            tensor_name=rhs.name,
            kind=rhs.kind,
            strip_bytes=rhs_strip,
            group_size=p_m,
            resident_fraction=clamp(rep_b, p_m),
            from_hbm=rhs.loads_from_hbm,
        ),
    ]
    return shards, out_tile, partial_reduce, flops_per_core


def _vector_shards(
    op: Operator, factors: tuple[int, ...]
) -> tuple[list[OperandShard], int, int]:
    """Operand shards, output-tile bytes, and per-core FLOPs for vector operators."""
    num_tiles = prod(factors)
    itemsize = op.output.dtype.itemsize
    out_elements = ceil_div(op.output.num_elements, num_tiles)
    out_tile = out_elements * itemsize
    flops_per_core = ceil_div(op.flops, num_tiles)
    shards: list[OperandShard] = []
    for operand in op.inputs:
        if operand.num_elements >= op.output.num_elements // 2:
            # Same-shaped operand: partitioned alongside the output, no sharing.
            strip = ceil_div(operand.size_bytes, num_tiles)
            group = 1
        else:
            # Small shared operand (e.g. a norm scale vector): every core needs it.
            strip = operand.size_bytes
            group = num_tiles
        shards.append(
            OperandShard(
                tensor_name=operand.name,
                kind=operand.kind,
                strip_bytes=strip,
                group_size=group,
                resident_fraction=1.0,
                from_hbm=operand.loads_from_hbm,
            )
        )
    return shards, out_tile, flops_per_core


def enumerate_execute_plans(
    op: Operator,
    chip: ChipConfig,
    limits: EnumerationLimits | None = None,
) -> list[ExecutePlan]:
    """Enumerate hardware-compatible execute-state plans for one operator.

    Args:
        op: The operator to partition.
        chip: Target chip (core count, SRAM budget, topology).
        limits: Optional enumeration bounds.

    Returns:
        A non-empty list of :class:`ExecutePlan`, filtered to plans whose
        execution space fits the per-core SRAM.

    Raises:
        PartitionError: If not a single plan fits the per-core SRAM.
    """
    limits = limits or EnumerationLimits()
    if chip.interconnect.is_mesh:
        limits = EnumerationLimits(
            max_plans=limits.max_plans,
            max_factor_candidates=limits.max_factor_candidates,
            min_core_utilization=limits.min_core_utilization,
            max_partition_dims=min(limits.max_partition_dims, 2),
        )
    extents = op.iteration_space
    num_cores = chip.num_cores
    sram_budget = chip.per_core_usable_sram

    if op.is_matmul_like:
        reduction_candidates = _reduction_splits(op.reduction_dim, num_cores)
    else:
        reduction_candidates = [1]

    hbm_bytes = op.hbm_load_bytes
    plans: list[ExecutePlan] = []
    for factors in _factor_vectors(extents, num_cores, limits):
        spatial_tiles = prod(factors)
        for reduction_split in reduction_candidates:
            num_tiles = spatial_tiles * reduction_split
            if num_tiles > num_cores:
                continue
            split_dims = sum(1 for f in factors if f > 1) + (1 if reduction_split > 1 else 0)
            if split_dims > limits.max_partition_dims:
                continue
            cores_used = min(num_tiles, num_cores)
            tiles_per_core = ceil_div(num_tiles, num_cores)

            if op.is_matmul_like:
                if op.op_type == "matmul":
                    p_groups = (factors[1], factors[0])
                else:
                    p_groups = (factors[2], factors[1])
                rep_candidates_a = _replication_levels(p_groups[0])
                rep_candidates_b = _replication_levels(p_groups[1])
                combos = [(a, b) for a in rep_candidates_a for b in rep_candidates_b]
            else:
                combos = [(1.0, 1.0)]

            for rep_a, rep_b in combos:
                if op.is_matmul_like:
                    shards, out_tile, partial_reduce, flops = _matmul_shards(
                        op, factors, reduction_split, rep_a, rep_b
                    )
                else:
                    shards, out_tile, flops = _vector_shards(op, factors)
                    partial_reduce = 0
                plan = ExecutePlan(
                    op_name=op.name,
                    factors=factors,
                    num_tiles=num_tiles,
                    cores_used=cores_used,
                    tiles_per_core=tiles_per_core,
                    tile_shape=tuple(
                        ceil_div(extent, factor) for extent, factor in zip(extents, factors)
                    ),
                    operands=tuple(shards),
                    output_tile_bytes=out_tile * tiles_per_core,
                    partial_reduce_bytes=partial_reduce,
                    flops_per_core=flops * tiles_per_core,
                    hbm_bytes_total=hbm_bytes,
                    reduction_split=reduction_split,
                )
                if plan.exec_space_bytes <= sram_budget:
                    plans.append(plan)
                if len(plans) >= limits.max_plans:
                    break
            if len(plans) >= limits.max_plans:
                break
        if len(plans) >= limits.max_plans:
            break

    if not plans:
        raise PartitionError(
            f"operator {op.name!r} ({op.op_type}, out={op.output.shape}) has no "
            f"partition plan fitting {sram_budget} bytes of per-core SRAM on "
            f"{num_cores} cores"
        )
    return plans
