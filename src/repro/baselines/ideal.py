"""The ``Ideal`` roofline design (§6.1).

Ideal is not a compiler: it is the theoretical best case where preload and
execution each have a private interconnect (no contention) and the whole
on-chip memory (no space contention), every operator uses the minimum preload
space, and the data-distribution phase takes zero time.  Its latency is the
maximum of the total HBM streaming time and the sum of the fastest per-core
execution times, plus the unavoidable fill time of the first preload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.arch.chip import ChipConfig
from repro.cost.model import CostModel
from repro.scheduler.profiles import OperatorProfile


@dataclass(frozen=True)
class IdealResult:
    """Roofline latency and utilizations of the Ideal design.

    Attributes:
        total_time: Ideal end-to-end latency.
        hbm_time: Total HBM streaming time of the model's unique bytes.
        execute_time: Sum of the fastest per-operator execution times.
        fill_time: First operator's preload (cannot be hidden).
        hbm_utilization: HBM busy fraction under the ideal schedule.
        achieved_flops: Model FLOPs / total_time.
        hbm_bound: Whether HBM streaming dominates execution.
    """

    total_time: float
    hbm_time: float
    execute_time: float
    fill_time: float
    hbm_utilization: float
    achieved_flops: float
    hbm_bound: bool

    def breakdown(self) -> dict[str, float]:
        """Fig. 18a-style categories for the ideal schedule."""
        overlapped = min(self.hbm_time, self.execute_time)
        return {
            "preload": max(0.0, self.hbm_time - overlapped) + self.fill_time,
            "execute": max(0.0, self.execute_time - overlapped),
            "overlapped": overlapped,
            "interconnect": 0.0,
        }


class IdealRoofline:
    """Computes the Ideal roofline for a per-chip graph.

    Args:
        profiles: Per-operator planning profiles (their fastest options).
        chip: Target chip.
        cost_model: Cost model (for HBM roofline times).
        total_flops: Per-chip graph FLOPs.
    """

    def __init__(
        self,
        profiles: Sequence[OperatorProfile],
        chip: ChipConfig,
        cost_model: CostModel,
        total_flops: int = 0,
    ) -> None:
        self.profiles = list(profiles)
        self.chip = chip
        self.cost_model = cost_model
        self.total_flops = total_flops

    def estimate(self) -> IdealResult:
        """Compute the Ideal latency for the profiled operators."""
        hbm_bytes = sum(p.hbm_bytes for p in self.profiles)
        hbm_time = (
            hbm_bytes / self.chip.hbm_bandwidth if self.chip.hbm_bandwidth > 0 else 0.0
        )
        execute_time = sum(p.fastest.cost.total_time for p in self.profiles)
        fill_bytes = next((p.hbm_bytes for p in self.profiles if p.hbm_bytes), 0)
        fill_time = (
            fill_bytes / self.chip.hbm_bandwidth if self.chip.hbm_bandwidth > 0 else 0.0
        )
        total = max(hbm_time, execute_time) + fill_time
        return IdealResult(
            total_time=total,
            hbm_time=hbm_time,
            execute_time=execute_time,
            fill_time=fill_time,
            hbm_utilization=min(1.0, hbm_time / total) if total > 0 else 0.0,
            achieved_flops=self.total_flops / total if total > 0 else 0.0,
            hbm_bound=hbm_time >= execute_time,
        )

