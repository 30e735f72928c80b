"""Enumeration of single-operator partition plans.

Elk integrates existing compiler techniques to enumerate the partition plans
of one operator (§4.3 / §5): each plan is a list of integer split factors over
the operator's iteration space plus, per shared operand, a compute-shift
replication level (how much of the shared strip stays resident per core).
The enumeration is hardware-aware: it rejects plans that use more cores than
available, overflow per-core SRAM, or partition more dimensions than a mesh
network can map (§5, dimension-aligned mapping).

Everything a plan holds except its replication levels is fixed by its split
factors and reduction split, so it is derived once per such group; the group's
plans share its frozen operand shards, and a plan is built only once its
execution space is known to fit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import prod
from typing import Sequence

from repro.arch.chip import ChipConfig
from repro.errors import PartitionError
from repro.ir.operators import Operator
from repro.ir.tensor import TensorSpec
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
    divisors = (d for d in range(2, min(extent, num_cores) + 1) if extent % d == 0)
    while len(candidates) < 4 * limit and (divisor := next(divisors, None)):
        candidates.add(divisor)
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


def _shard_levels(
    operand: TensorSpec, strip_bytes: int, group_size: int, levels: list[float]
) -> list[tuple[OperandShard, int]]:
    """One shard of ``operand`` per replication level, with its resident bytes."""
    shards = [
        OperandShard(
            operand.name, operand.kind, strip_bytes, group_size, level, operand.loads_from_hbm
        )
        for level in levels
    ]
    return [(shard, shard.resident_bytes) for shard in shards]


def enumerate_execute_plans(
    op: Operator,
    chip: ChipConfig,
    limits: EnumerationLimits | None = None,
) -> list[ExecutePlan]:
    """Enumerate hardware-compatible execute-state plans for one operator.

    Each quantity is derived at the loop level where it can change: the
    operator's fields once, the tile shape and sharing groups once per factor
    vector, and the strips, output tile, partial-reduce bytes and FLOPs once
    per ``(factors, reduction_split)`` group.  A group builds each lhs and rhs
    shard once per replication level; the shards are frozen, so the group's
    plans share them.  A replication combination's execution space is summed
    from its shards' resident bytes, and its :class:`ExecutePlan` is built only
    if it fits the per-core SRAM.

    Args:
        op: The operator to partition.
        chip: Target chip (core count, SRAM budget, topology).
        limits: Optional enumeration bounds.

    Returns:
        A non-empty list of at most ``limits.max_plans`` :class:`ExecutePlan`
        (the first ``max_plans`` in enumeration order), filtered to plans whose
        execution space fits the per-core SRAM.

    Raises:
        PartitionError: If not a single plan fits the per-core SRAM.
    """
    limits = limits or EnumerationLimits()
    if chip.interconnect.is_mesh:
        limits = replace(limits, max_partition_dims=min(limits.max_partition_dims, 2))
    extents = op.iteration_space
    num_cores = chip.num_cores
    sram_budget = chip.per_core_usable_sram
    max_plans = limits.max_plans

    matmul_like = op.is_matmul_like
    itemsize = op.output.dtype.itemsize
    if matmul_like:
        lhs, rhs = op.inputs[0], op.inputs[1]
        reduction_dim = op.reduction_dim
        reduction_candidates = _reduction_splits(reduction_dim, num_cores)
    else:
        out_elements = op.output.num_elements
        op_flops = op.flops
        # A same-shaped operand is partitioned alongside the output; a small
        # shared one (e.g. a norm scale vector) is needed whole by every core.
        vector_operands = [
            (operand, operand.size_bytes, operand.num_elements < out_elements // 2)
            for operand in op.inputs
        ]
        reduction_candidates = [1]

    hbm_bytes = op.hbm_load_bytes
    plans: list[ExecutePlan] = []
    for factors in _factor_vectors(extents, num_cores, limits):
        spatial_tiles = prod(factors)
        spatial_dims = sum(1 for f in factors if f > 1)
        tile_shape = tuple(ceil_div(extent, factor) for extent, factor in zip(extents, factors))
        if matmul_like:
            # Over the (batch..., m, n) output space, the lhs strip of a tile
            # spans its rows and is shared by the p_n cores of a row; the rhs
            # strip spans its columns and is shared by the p_m cores of a column.
            p_m, p_n = factors[-2], factors[-1]
            *batch, tile_m, tile_n = tile_shape
            tile_elements = prod(tile_shape)
            lhs_elements, rhs_elements = prod(batch) * tile_m, prod(batch) * tile_n
            levels_a, levels_b = _replication_levels(p_n), _replication_levels(p_m)
        else:
            shards = tuple(
                OperandShard(
                    tensor_name=operand.name,
                    kind=operand.kind,
                    strip_bytes=size if shared else ceil_div(size, spatial_tiles),
                    group_size=spatial_tiles if shared else 1,
                    resident_fraction=1.0,
                    from_hbm=operand.loads_from_hbm,
                )
                for operand, size, shared in vector_operands
            )
            combos = [(shards, sum(s.resident_bytes for s in shards))]
            out_tile = ceil_div(out_elements, spatial_tiles) * itemsize
            flops = ceil_div(op_flops, spatial_tiles)
            partial_reduce = 0
        for reduction_split in reduction_candidates:
            num_tiles = spatial_tiles * reduction_split
            if num_tiles > num_cores:
                continue
            if spatial_dims + (1 if reduction_split > 1 else 0) > limits.max_partition_dims:
                continue
            cores_used = min(num_tiles, num_cores)
            tiles_per_core = ceil_div(num_tiles, num_cores)
            if matmul_like:
                # Each core holds a 1/reduction_split slice of both strips and
                # produces a partial output tile reduced across those cores.
                k = ceil_div(reduction_dim, reduction_split)
                out_tile = tile_elements * itemsize
                partial_reduce = out_tile if reduction_split > 1 else 0
                flops = 2 * tile_elements * k
                lhs_shards = _shard_levels(lhs, lhs_elements * k * itemsize, p_n, levels_a)
                rhs_shards = _shard_levels(rhs, rhs_elements * k * itemsize, p_m, levels_b)
                combos = [((a, b), ra + rb) for a, ra in lhs_shards for b, rb in rhs_shards]

            output_tile_bytes = out_tile * tiles_per_core
            fixed_bytes = output_tile_bytes + partial_reduce
            for operands, resident in combos:
                # The plan's ``exec_space_bytes``, checked before it is built.
                if resident + fixed_bytes <= sram_budget:
                    plans.append(
                        ExecutePlan(
                            op_name=op.name,
                            factors=factors,
                            num_tiles=num_tiles,
                            cores_used=cores_used,
                            tiles_per_core=tiles_per_core,
                            tile_shape=tile_shape,
                            operands=operands,
                            output_tile_bytes=output_tile_bytes,
                            partial_reduce_bytes=partial_reduce,
                            flops_per_core=flops * tiles_per_core,
                            hbm_bytes_total=hbm_bytes,
                            reduction_split=reduction_split,
                        )
                    )
                if len(plans) >= max_plans:
                    break
            if len(plans) >= max_plans:
                break
        if len(plans) >= max_plans:
            break

    if not plans:
        raise PartitionError(
            f"operator {op.name!r} ({op.op_type}, out={op.output.shape}) has no "
            f"partition plan fitting {sram_budget} bytes of per-core SRAM on "
            f"{num_cores} cores"
        )
    return plans
