"""Cost models used by the Elk scheduler and allocator.

The scheduler needs four time estimates (§4.2-§4.3):

1. per-core execution time of an operator under an execute-state plan
   (compute + local SRAM streaming + inter-core exchange during execution);
2. the data-distribution time that transforms a preloaded operator from its
   preload-state to its execute-state plan;
3. the interconnect delivery time of a preload (HBM-controller→core traffic);
4. the HBM load time of an operator (roofline over the chip's HBM bandwidth).

:class:`AnalyticCostModel` derives all four from the architecture description.
:class:`MeasuredCostModel` uses the synthetic :class:`~repro.cost.device_profile.DeviceProfile`
(analytic + measurement noise) and represents "running it on the device";
:class:`~repro.cost.fitted.FittedCostModel` is the paper's linear-tree model
trained against those measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from repro.arch.chip import ChipConfig
from repro.cost.device_profile import DeviceProfile, TileWorkload
from repro.errors import CostModelError
from repro.ir.operators import Operator
from repro.partition.plan import ExecutePlan, PreloadPlan


@dataclass(frozen=True)
class ExecutionCost:
    """Breakdown of one operator's per-core execution time under a plan.

    Attributes:
        compute_time: Time the compute pipeline needs for the core's tiles.
        sram_time: Time to stream the tiles' data through the local SRAM port.
        exchange_time: Time spent fetching shared data from peer cores during
            execution (serializes with compute on IPU-like chips, §2.3).
        total_time: End-to-end per-core execution time estimate.
        exchange_bytes: Inter-core bytes fetched per core during execution.
        intercore_bandwidth_demand: Exchange bytes divided by execution time —
            the per-core inter-core bandwidth demand plotted in Fig. 7.
    """

    compute_time: float
    sram_time: float
    exchange_time: float
    total_time: float
    exchange_bytes: int

    @property
    def intercore_bandwidth_demand(self) -> float:
        if self.total_time <= 0:
            return 0.0
        return self.exchange_bytes / self.total_time


class CostModel(Protocol):
    """Interface the scheduler uses to estimate plan costs; no time it returns is negative."""

    def execution_cost(self, op: Operator, plan: ExecutePlan) -> ExecutionCost:
        """Per-core execution cost of ``op`` under ``plan``."""
        ...

    def distribution_time(self, plan: PreloadPlan) -> float:
        """Data-distribution time from preload-state to execute-state; never negative."""
        ...

    def preload_noc_time(self, plan: PreloadPlan) -> float:
        """Interconnect time to deliver a preload to the cores; never negative."""
        ...

    def hbm_load_time(self, hbm_bytes: int) -> float:
        """Time to read ``hbm_bytes`` from this chip's HBM."""
        ...

    def preload_time(self, plan: PreloadPlan) -> float:
        """Total preload duration (max of HBM and interconnect delivery)."""
        ...


class AnalyticCostModel:
    """Architecture-derived cost model (the compiler's planning estimates).

    Args:
        chip: Target chip configuration.
        kernel_overhead_cycles: Fixed per-tile kernel launch overhead.  It is
            converted to seconds once, at construction: the model never
            reassigns it, and a later reassignment would not take effect.
    """

    def __init__(self, chip: ChipConfig, kernel_overhead_cycles: float = 1500.0) -> None:
        self.chip = chip
        self.core = chip.core
        self.kernel_overhead_cycles = kernel_overhead_cycles
        self._kernel_launch_seconds = chip.core.cycles_to_seconds(kernel_overhead_cycles)
        self._hops = chip.interconnect.average_hops(chip.num_cores)

    # ------------------------------------------------------------------ helpers
    def _matmul_efficiency(self, tile_shape: tuple[int, ...], reduction: int) -> float:
        if len(tile_shape) < 2:
            return 0.5
        # Each dimension's efficiency is extent / (extent + native tile extent).
        m, n = tile_shape[-2], tile_shape[-1]
        return m / (m + 4.0) * (n / (n + 16.0)) * (reduction / (reduction + 64.0))

    def _exchange_time(self, plan: ExecutePlan) -> float:
        volume = plan.exchange_bytes_per_core
        if volume <= 0:
            return 0.0
        phases = 0
        for operand in plan.operands:
            if operand.exchange_bytes > 0 and operand.resident_fraction > 0:
                phases += max(1, round(1.0 / operand.resident_fraction) - 1)
        serial = volume * self._hops / self.core.link_bandwidth
        return serial + phases * self.core.link_latency

    # -------------------------------------------------------------- cost model
    def execution_cost(self, op: Operator, plan: ExecutePlan) -> ExecutionCost:
        """Per-core execution cost of ``op`` under ``plan``.

        Inter-core exchange is pipelined with compute (compute-shift style
        execution, [T10]), but the served remote reads still occupy the local
        SRAM port — the memory-access contention of §2.3 ③ — so the exchange
        volume is charged to the SRAM streaming term and the final time is the
        maximum of the compute, SRAM, and link-transfer phases.
        """
        is_matmul = op.is_matmul_like
        peak = self.core.flops_for(is_matmul)
        if is_matmul:
            per_core_reduction = max(1, op.reduction_dim // plan.reduction_split)
            efficiency = self._matmul_efficiency(plan.tile_shape, per_core_reduction)
        else:
            efficiency = 0.85
        compute = plan.flops_per_core / (peak * max(efficiency, 1e-3))
        compute += plan.tiles_per_core * self._kernel_launch_seconds
        sram = plan.sram_traffic_bytes / self.core.sram_bandwidth
        exchange = self._exchange_time(plan)
        contended_sram = sram + plan.exchange_bytes_per_core / self.core.sram_bandwidth
        total = max(compute, contended_sram, exchange)
        return ExecutionCost(
            compute_time=compute,
            sram_time=sram,
            exchange_time=exchange,
            total_time=total,
            exchange_bytes=plan.exchange_bytes_per_core,
        )

    def distribution_time(self, plan: PreloadPlan) -> float:
        """Data-distribution time from preload-state to execute-state."""
        volume = plan.distribution_bytes_per_core
        if volume <= 0:
            return 0.0
        return volume * self._hops / self.core.link_bandwidth + self.core.link_latency

    def preload_noc_time(self, plan: PreloadPlan) -> float:
        """Interconnect time to deliver a preload into every consumer core.

        Three resources bound the delivery: each consumer core's inbound port,
        the HBM controllers' aggregate outbound rate (broadcast duplicates are
        re-sent by the controllers, §2.1), and the chip's aggregate
        interconnect bandwidth.
        """
        per_core = plan.preload_noc_bytes_per_core
        if per_core <= 0:
            return 0.0
        inbound = per_core * self._hops / self.core.link_bandwidth
        total_delivered = per_core * plan.execute_plan.cores_used
        controller_out = (
            total_delivered / self.chip.hbm_bandwidth if self.chip.hbm_bandwidth > 0 else 0.0
        )
        noc_aggregate = (
            total_delivered / self.chip.interconnect_bandwidth
            if self.chip.interconnect_bandwidth > 0
            else 0.0
        )
        return max(inbound, controller_out, noc_aggregate) + self.core.link_latency

    def hbm_load_time(self, hbm_bytes: int) -> float:
        """Roofline time to read ``hbm_bytes`` from this chip's HBM."""
        if hbm_bytes < 0:
            raise CostModelError("HBM bytes must be non-negative")
        if hbm_bytes == 0:
            return 0.0
        return hbm_bytes / self.chip.hbm_bandwidth + self.chip.hbm.access_latency

    def preload_time(self, plan: PreloadPlan) -> float:
        """Total preload duration: max of the HBM roofline and NoC delivery."""
        return max(self.hbm_load_time(plan.hbm_bytes_total), self.preload_noc_time(plan))


class MeasuredCostModel(AnalyticCostModel):
    """Cost model backed by the synthetic device profile ("measurements").

    The emulator uses this model so that the compiler (planning with
    :class:`AnalyticCostModel` or :class:`~repro.cost.fitted.FittedCostModel`)
    is evaluated against timings it did not plan with, mirroring the paper's
    compiler-vs-hardware split.
    """

    def __init__(self, chip: ChipConfig, profile: DeviceProfile | None = None) -> None:
        super().__init__(chip)
        self.profile = profile or DeviceProfile(chip.core)

    def execution_cost(self, op: Operator, plan: ExecutePlan) -> ExecutionCost:
        workload = TileWorkload(
            op_type=op.op_type,
            shape=plan.tile_shape if len(plan.tile_shape) >= 2 else (1,) + plan.tile_shape,
            reduction=max(1, op.reduction_dim // plan.reduction_split),
            dtype=op.output.dtype,
        )
        per_tile = self.profile.execution_time(workload)
        compute = per_tile * plan.tiles_per_core
        sram = plan.sram_traffic_bytes / self.core.sram_bandwidth
        exchange = (
            self.profile.transfer_time(
                plan.exchange_bytes_per_core, hops=max(1, round(self._hops))
            )
            if plan.exchange_bytes_per_core
            else 0.0
        )
        contended_sram = sram + plan.exchange_bytes_per_core / self.core.sram_bandwidth
        total = max(compute, contended_sram, exchange)
        return ExecutionCost(
            compute_time=compute,
            sram_time=sram,
            exchange_time=exchange,
            total_time=total,
            exchange_bytes=plan.exchange_bytes_per_core,
        )

    def distribution_time(self, plan: PreloadPlan) -> float:
        return self.profile.transfer_time(
            plan.distribution_bytes_per_core, hops=max(1, round(self._hops))
        )

    def preload_noc_time(self, plan: PreloadPlan) -> float:
        per_core = plan.preload_noc_bytes_per_core
        if per_core <= 0:
            return 0.0
        inbound = self.profile.transfer_time(per_core, hops=max(1, round(self._hops)))
        total_delivered = per_core * plan.execute_plan.cores_used
        controller_out = (
            total_delivered / self.chip.hbm_bandwidth if self.chip.hbm_bandwidth > 0 else 0.0
        )
        return max(inbound, controller_out)
