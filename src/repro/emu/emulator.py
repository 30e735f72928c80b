"""Emulation framework (the IPU-POD4 hardware emulator substitute).

The paper evaluates Elk by executing compiled plans on a real IPU-POD4, with
one core per chip acting as an HBM controller that broadcasts "HBM data" and
delays each broadcast by latencies obtained from a DRAM simulator (§5).  The
compiler never sees those measured times — it plans with its fitted cost
model — so the evaluation measures plans against timings they were not tuned
to.

This module reproduces that structure without the hardware: per-core kernel
and transfer times come from the noisy :class:`~repro.cost.device_profile.DeviceProfile`
(the "device"), HBM latencies come from the bank/row-aware
:class:`~repro.dram.hbm_sim.HBMSimulator`, and the compiled plan is replayed
with the same synchronization rules the device program enforces (§4.5).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.arch.chip import SystemConfig
from repro.cost.device_profile import DeviceProfile
from repro.cost.model import MeasuredCostModel
from repro.dram.hbm_sim import HBMSimulator, TensorPlacer
from repro.dram.timing import HBM3E_TIMING, HBMTimingParams
from repro.errors import SimulationError
from repro.ir.graph import OperatorGraph
from repro.scheduler.plan import ExecutionPlan, OperatorSchedule
from repro.scheduler.timeline import TimelineEvaluator, TimelineResult


@dataclass
class EmulationResult:
    """Emulated ("measured") metrics of one plan on one system.

    Attributes:
        timeline: Replayed timeline with emulated per-operator timings.
        interchip_time: Added inter-chip all-reduce time.
        total_time: End-to-end latency including inter-chip time.
        achieved_tflops: Full-model FLOPs / total_time.
    """

    timeline: TimelineResult
    interchip_time: float
    total_time: float
    achieved_tflops: float

    def breakdown(self) -> dict[str, float]:
        """Fig. 18a-style latency categories of the emulated run."""
        return self.timeline.breakdown()


class EmulationFramework:
    """Replays compiled plans with device-profile timings and DRAM latencies.

    Args:
        system: The emulated multi-chip system.
        noise: Measurement-noise amplitude of the synthetic device.
        hbm_timing: HBM device timing parameters.
    """

    def __init__(
        self,
        system: SystemConfig,
        noise: float = 0.08,
        hbm_timing: HBMTimingParams = HBM3E_TIMING,
    ) -> None:
        self.system = system
        self.chip = system.chip
        self.device = DeviceProfile(self.chip.core, noise=noise)
        self.cost_model = MeasuredCostModel(self.chip, self.device)
        # Scale the per-stack rate so the emulated aggregate matches the chip.
        per_stack = self.chip.hbm_bandwidth / self.chip.hbm.num_modules
        self.hbm = HBMSimulator(
            replace(hbm_timing, peak_bandwidth=per_stack),
            num_stacks=self.chip.hbm.num_modules,
        )

    # ------------------------------------------------------------------ retime
    def _retime_schedule(
        self, schedule: OperatorSchedule, graph: OperatorGraph, placer: TensorPlacer
    ) -> OperatorSchedule:
        op = graph.operator(schedule.op_name)
        cost = self.cost_model.execution_cost(op, schedule.execute_plan)
        distribution = self.cost_model.distribution_time(schedule.preload_plan)
        noc = self.cost_model.preload_noc_time(schedule.preload_plan)

        hbm_latency = 0.0
        for tensor in op.inputs:
            if not tensor.loads_from_hbm or tensor.size_bytes == 0:
                continue
            placement = placer.place(f"{op.name}:{tensor.name}", tensor.size_bytes)
            hbm_latency += self.hbm.load_tensor(placement).latency

        return replace(
            schedule,
            execution_time=cost.total_time,
            exchange_bytes=cost.exchange_bytes,
            distribution_time=distribution,
            preload_noc_time=noc,
            hbm_time=hbm_latency,
        )

    # ----------------------------------------------------------------- emulate
    def emulate(self, plan: ExecutionPlan, graph: OperatorGraph) -> TimelineResult:
        """Replay one per-chip plan with emulated timings."""
        plan.validate_against(graph)
        placer = TensorPlacer(self.chip.hbm.total_capacity)
        schedules = [self._retime_schedule(s, graph, placer) for s in plan.schedules]
        emulated_plan = ExecutionPlan(
            model_name=plan.model_name,
            policy=plan.policy,
            schedules=schedules,
            preload_order=plan.preload_order,
            sram_budget_bytes=plan.sram_budget_bytes,
            metadata={**plan.metadata, "emulated": True},
        )
        evaluator = TimelineEvaluator(self.chip, total_flops=graph.total_flops)
        return evaluator.evaluate(emulated_plan)

    def emulate_system(
        self,
        plan: ExecutionPlan,
        graph: OperatorGraph,
        full_model_flops: int,
        interchip_bytes_per_step: int,
    ) -> EmulationResult:
        """Replay a per-chip plan across the model-parallel system."""
        timeline = self.emulate(plan, graph)
        interchip = self.system.interchip_time(interchip_bytes_per_step)
        total = timeline.total_time + interchip
        if total <= 0:
            raise SimulationError("emulated latency must be positive")
        return EmulationResult(
            timeline=timeline,
            interchip_time=interchip,
            total_time=total,
            achieved_tflops=full_model_flops / total / 1e12,
        )
