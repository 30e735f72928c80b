"""Multi-chip simulation.

Under the model parallelism the paper uses (§5), every chip executes the same
per-chip plan on its shard of the model and the chips synchronize on small
activation all-reduces over the inter-chip links.  The multi-chip simulator
therefore runs the single-chip simulation once and adds the inter-chip
reduction time, tracking in-flight inter-chip transfers against the system's
aggregate inter-chip bandwidth cap.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.chip import SystemConfig
from repro.scheduler.plan import ExecutionPlan
from repro.sim.chip_sim import ChipSimulator, SimulationResult


@dataclass
class SystemSimulationResult:
    """Simulation result for a full multi-chip system.

    Attributes:
        chip_result: Per-chip simulation result.
        interchip_time: Added all-reduce time over the inter-chip links.
        total_time: End-to-end per-step latency.
        achieved_tflops: System-wide achieved TFLOP/s (full-model FLOPs).
    """

    chip_result: SimulationResult
    interchip_time: float
    total_time: float
    achieved_tflops: float

    def breakdown(self) -> dict[str, float]:
        """Latency categories, with the inter-chip time folded into execute."""
        categories = dict(self.chip_result.breakdown())
        categories["execute"] += self.interchip_time
        return categories


def simulate_system(
    plan: ExecutionPlan,
    system: SystemConfig,
    per_chip_flops: int,
    full_model_flops: int,
    interchip_bytes_per_step: int,
) -> SystemSimulationResult:
    """Simulate a per-chip plan on every chip of a model-parallel system.

    Args:
        plan: The per-chip execution plan (identical across chips).
        system: The multi-chip system.
        per_chip_flops: FLOPs of the per-chip graph.
        full_model_flops: FLOPs of the whole model step.
        interchip_bytes_per_step: Bytes all-reduced across chips per step.

    Returns:
        The :class:`SystemSimulationResult`.
    """
    chip_result = ChipSimulator(system.chip, total_flops=per_chip_flops).simulate(plan)
    interchip = system.interchip_time(interchip_bytes_per_step)
    total = chip_result.total_time + interchip
    return SystemSimulationResult(
        chip_result=chip_result,
        interchip_time=interchip,
        total_time=total,
        achieved_tflops=full_model_flops / total / 1e12 if total > 0 else 0.0,
    )
