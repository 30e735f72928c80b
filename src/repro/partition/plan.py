"""Partition-plan data structures.

Elk consumes *single-operator partition plans* produced by existing ICCA-chip
compiler techniques (§5): each plan slices the operator's iteration space into
per-core tiles and decides how much of each shared operand stays resident in a
core during execution (the compute-shift replication level).  Two plan flavours
exist, mirroring §4.3 of the paper:

* :class:`ExecutePlan` — the *execute-state* plan of an operator: the partition
  factors, the per-core execution-space footprint, and the inter-core exchange
  volume incurred while computing (Tradeoff 1, Fig. 11).
* :class:`PreloadPlan` — a *preload-state* plan derived from an execute-state
  plan: how much of the shared HBM data is broadcast to each core at preload
  time versus fetched from peers in the data-distribution phase at execution
  start (Tradeoffs 2/3, Fig. 11).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod

from repro.errors import PartitionError


@dataclass(frozen=True)
class OperandShard:
    """Per-core view of one operand under a partition plan.

    Attributes:
        tensor_name: Name of the operand tensor.
        kind: Tensor kind (``weight`` / ``kv_cache`` / ``activation`` / ``input``).
        strip_bytes: Bytes of this operand one core consumes over the whole
            execution of its tile(s) (the "strip" of Fig. 3).
        group_size: Number of cores that consume the *same* strip (sharing group).
        resident_fraction: Fraction of the strip resident in the core's SRAM
            during execution (1 = fully replicated, ``1/group_size`` = only the
            core's unique share, compute-shift style).
        from_hbm: Whether this operand originates in HBM (weights / KV cache)
            and therefore participates in preload-state planning.
    """

    tensor_name: str
    kind: str
    strip_bytes: int
    group_size: int
    resident_fraction: float
    from_hbm: bool

    def __post_init__(self) -> None:
        if self.strip_bytes < 0 or self.group_size < 1:
            raise PartitionError(
                f"operand {self.tensor_name!r}: invalid strip/group "
                f"({self.strip_bytes}, {self.group_size})"
            )
        min_fraction = 1.0 / self.group_size
        if not (min_fraction - 1e-9 <= self.resident_fraction <= 1.0 + 1e-9):
            raise PartitionError(
                f"operand {self.tensor_name!r}: resident fraction "
                f"{self.resident_fraction} outside [{min_fraction}, 1]"
            )

    @property
    def resident_bytes(self) -> int:
        """Bytes of this operand resident per core during execution."""
        return int(round(self.strip_bytes * self.resident_fraction))

    @property
    def exchange_bytes(self) -> int:
        """Bytes of this operand fetched from peer cores during execution."""
        return max(0, self.strip_bytes - self.resident_bytes)

    @property
    def unique_bytes(self) -> int:
        """The core's unique (non-replicated) share of the strip."""
        return int(round(self.strip_bytes / self.group_size))


@dataclass(frozen=True)
class ExecutePlan:
    """An execute-state partition plan of one operator.

    Attributes:
        op_name: Operator this plan belongs to.
        factors: Split count per iteration-space dimension (the paper's
            ``<90, 9>``-style integer list).
        num_tiles: Total number of tiles (``prod(factors)``).
        cores_used: Number of cores that receive at least one tile.
        tiles_per_core: Tiles each used core executes (ceil).
        tile_shape: Shape of one tile of the output iteration space.
        operands: Per-core operand shards (inputs).
        output_tile_bytes: Bytes of the per-core output tile(s).
        partial_reduce_bytes: Extra bytes of partial results exchanged after
            execution when the reduction dimension is split across cores.
        flops_per_core: FLOPs one core performs.
        hbm_bytes_total: Unique bytes this operator loads from HBM (whole op).
    """

    op_name: str
    factors: tuple[int, ...]
    num_tiles: int
    cores_used: int
    tiles_per_core: int
    tile_shape: tuple[int, ...]
    operands: tuple[OperandShard, ...]
    output_tile_bytes: int
    partial_reduce_bytes: int
    flops_per_core: int
    hbm_bytes_total: int
    reduction_split: int = 1

    def __post_init__(self) -> None:
        if self.reduction_split < 1:
            raise PartitionError(f"{self.op_name}: reduction_split must be >= 1")
        if self.num_tiles != prod(self.factors) * self.reduction_split:
            raise PartitionError(
                f"{self.op_name}: num_tiles {self.num_tiles} != "
                f"prod{self.factors} * {self.reduction_split}"
            )
        if self.cores_used <= 0 or self.tiles_per_core <= 0:
            raise PartitionError(f"{self.op_name}: plan uses no cores")

    # ------------------------------------------------------------------ memory
    # The plan is frozen, so the two footprints the scheduler reads most are
    # computed once per plan.
    @cached_property
    def exec_space_bytes(self) -> int:
        """Per-core SRAM needed while this operator executes (execution space)."""
        resident = sum(o.resident_bytes for o in self.operands)
        return resident + self.output_tile_bytes + self.partial_reduce_bytes

    @cached_property
    def exchange_bytes_per_core(self) -> int:
        """Bytes fetched from peer cores per core during execution."""
        return sum(o.exchange_bytes for o in self.operands) + self.partial_reduce_bytes

    @property
    def sram_traffic_bytes(self) -> int:
        """Bytes the compute pipeline streams from local SRAM per core."""
        return (
            sum(o.strip_bytes for o in self.operands)
            + self.output_tile_bytes
            + self.partial_reduce_bytes
        )

    # --------------------------------------------------------------- preloading
    @property
    def hbm_unique_bytes_per_core(self) -> int:
        """Per-core unique share of HBM-sourced operands (the MinPreload floor)."""
        return sum(o.unique_bytes for o in self.operands if o.from_hbm)

    def describe(self) -> dict[str, object]:
        """Compact dictionary used in traces and debug dumps."""
        return {
            "op": self.op_name,
            "factors": list(self.factors),
            "reduction_split": self.reduction_split,
            "tiles": self.num_tiles,
            "cores": self.cores_used,
            "exec_space_bytes": self.exec_space_bytes,
            "exchange_bytes_per_core": self.exchange_bytes_per_core,
            "flops_per_core": self.flops_per_core,
        }


@dataclass(frozen=True)
class PreloadPlan:
    """A preload-state plan for a *preloaded* (not yet executing) operator.

    The plan broadcasts ``broadcast_fraction`` of each shared HBM operand strip
    to every consumer core at preload time; the remaining resident bytes are
    fetched from peer cores during the data-distribution phase right before
    execution starts (§4.3, Fig. 3 b/c).

    Attributes:
        op_name: Operator this plan belongs to.
        execute_plan: The execute-state plan this preload plan targets.
        broadcast_fraction: Fraction (``1/group`` ... ``resident_fraction``) of
            each shared HBM strip delivered at preload time.
        preload_space_bytes: Per-core SRAM occupied between preload and execution.
        distribution_bytes_per_core: Bytes fetched from peers at distribution time.
        preload_noc_bytes_per_core: Bytes delivered to each core over the
            interconnect during preload (HBM-controller→core traffic).
        hbm_bytes_total: Unique bytes read from HBM (independent of broadcast).
    """

    op_name: str
    execute_plan: ExecutePlan
    broadcast_fraction: float
    preload_space_bytes: int
    distribution_bytes_per_core: int
    preload_noc_bytes_per_core: int
    hbm_bytes_total: int

    def __post_init__(self) -> None:
        if not (0.0 <= self.broadcast_fraction <= 1.0 + 1e-9):
            raise PartitionError(
                f"{self.op_name}: broadcast fraction {self.broadcast_fraction} invalid"
            )
        if self.preload_space_bytes < 0 or self.distribution_bytes_per_core < 0:
            raise PartitionError(f"{self.op_name}: negative preload accounting")

    def describe(self) -> dict[str, object]:
        """Compact dictionary used in traces and debug dumps."""
        return {
            "op": self.op_name,
            "broadcast_fraction": self.broadcast_fraction,
            "preload_space_bytes": self.preload_space_bytes,
            "distribution_bytes_per_core": self.distribution_bytes_per_core,
            "hbm_bytes_total": self.hbm_bytes_total,
        }


def build_preload_plan(execute_plan: ExecutePlan, broadcast_fraction: float) -> PreloadPlan:
    """Derive a preload-state plan from an execute-state plan.

    Args:
        execute_plan: The already-selected execute-state plan.
        broadcast_fraction: Target fraction of each shared HBM strip delivered
            at preload time.  It is clamped per operand to
            ``[1/group_size, resident_fraction]`` — a core must at least receive
            its unique share, and never receives more than the execute-state
            plan keeps resident.

    Returns:
        The derived :class:`PreloadPlan`.
    """
    broadcast_fraction = min(1.0, max(0.0, broadcast_fraction))
    preload_space = 0
    distribution = 0
    noc_per_core = 0
    for operand in execute_plan.operands:
        if not operand.from_hbm:
            continue
        low = 1.0 / operand.group_size
        high = operand.resident_fraction
        fraction = min(max(broadcast_fraction, low), high)
        delivered = int(round(operand.strip_bytes * fraction))
        resident = operand.resident_bytes
        preload_space += delivered
        distribution += max(0, resident - delivered)
        noc_per_core += delivered
    return PreloadPlan(
        op_name=execute_plan.op_name,
        execute_plan=execute_plan,
        broadcast_fraction=broadcast_fraction,
        preload_space_bytes=preload_space,
        distribution_bytes_per_core=distribution,
        preload_noc_bytes_per_core=noc_per_core,
        hbm_bytes_total=execute_plan.hbm_bytes_total,
    )


def enumerate_preload_plans(execute_plan: ExecutePlan) -> list[PreloadPlan]:
    """Enumerate the Pareto-relevant preload-state plans of an execute plan.

    Broadcast fractions follow the paper's chunked-broadcast scheme: split a
    shared piece into 1, 2, 4, ... chunks, so fractions are ``1/2**k`` down to
    the largest sharing group's unique share, plus the execute-state resident
    fraction itself (MaxPreload).
    """
    hbm_operands = [o for o in execute_plan.operands if o.from_hbm]
    if not hbm_operands:
        return [build_preload_plan(execute_plan, 0.0)]
    max_group = max(o.group_size for o in hbm_operands)
    max_fraction = max(o.resident_fraction for o in hbm_operands)
    fractions: set[float] = {max_fraction}
    level = 1.0
    while level >= 1.0 / max_group:
        fractions.add(min(level, max_fraction))
        level /= 2.0
    fractions.add(1.0 / max_group)
    plans = [build_preload_plan(execute_plan, f) for f in sorted(fractions, reverse=True)]
    # De-duplicate plans that clamp to identical footprints.
    unique: dict[tuple[int, int], PreloadPlan] = {}
    for plan in plans:
        key = (plan.preload_space_bytes, plan.distribution_bytes_per_core)
        unique.setdefault(key, plan)
    return sorted(unique.values(), key=lambda p: -p.preload_space_bytes)
