"""Time-series traces derived from a replayed timeline (Figs. 6-8).

The paper motivates Elk with three traces: the HBM bandwidth *demand* over
time for different preload-space sizes (Fig. 6), the per-core inter-core
bandwidth demand under MinPreload vs MaxPreload (Fig. 7), and the total
per-core interconnect bandwidth demand including HBM-to-core delivery
(Fig. 8).  These are derived from an evaluated plan: each operator's execution
window contributes its exchange traffic, and the preload of each operator
contributes HBM and delivery traffic over its preload window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.scheduler.timeline import TimelineResult


@dataclass
class BandwidthTrace:
    """A sampled bandwidth-demand trace.

    Attributes:
        label: Trace label (e.g. ``"preload=256KB"`` or ``"MaxPreload"``).
        times: Sample timestamps (seconds).
        values: Demand at each timestamp (bytes/s).
    """

    label: str
    times: np.ndarray
    values: np.ndarray

    @property
    def peak(self) -> float:
        """Peak demand."""
        return float(self.values.max()) if self.values.size else 0.0

    @property
    def mean(self) -> float:
        """Mean demand."""
        return float(self.values.mean()) if self.values.size else 0.0

    @property
    def coefficient_of_variation(self) -> float:
        """Std/mean of the demand — the "fluctuation" the paper discusses."""
        if self.values.size == 0 or self.mean == 0:
            return 0.0
        return float(self.values.std() / self.mean)


def _accumulate(
    times: np.ndarray, values: np.ndarray, start: float, end: float, rate: float
) -> None:
    if end <= start or rate <= 0:
        return
    mask = (times >= start) & (times < end)
    values[mask] += rate


def hbm_demand_trace(
    timeline: TimelineResult, label: str = "", num_samples: int = 200
) -> BandwidthTrace:
    """HBM bandwidth demand over time (Fig. 6).

    The demand during an operator's execution window is the HBM bandwidth
    needed to finish preloading the operators overlapped with that window in
    time, i.e. their HBM bytes spread over the window.
    """
    plan = timeline.plan
    total = timeline.total_time
    times = np.linspace(0.0, total, num_samples, endpoint=False)
    values = np.zeros(num_samples)
    for timing in timeline.timings:
        schedule = plan.schedules[timing.index]
        start, end = timing.preload_start, timing.preload_end
        if end > start and schedule.hbm_bytes > 0:
            _accumulate(times, values, start, end, schedule.hbm_bytes / (end - start))
    return BandwidthTrace(label=label or plan.policy, times=times, values=values)


def intercore_demand_trace(
    timeline: TimelineResult,
    label: str = "",
    num_samples: int = 200,
    include_preload: bool = False,
) -> BandwidthTrace:
    """Per-core interconnect bandwidth demand over time (Fig. 7 / Fig. 8).

    Args:
        timeline: Evaluated plan.
        label: Trace label.
        num_samples: Number of samples.
        include_preload: If true, HBM-controller-to-core delivery traffic is
            added (Fig. 8's total demand); otherwise only execution-time
            inter-core sharing and distribution traffic is counted (Fig. 7).
    """
    plan = timeline.plan
    total = timeline.total_time
    times = np.linspace(0.0, total, num_samples, endpoint=False)
    values = np.zeros(num_samples)
    for timing in timeline.timings:
        schedule = plan.schedules[timing.index]
        start, end = timing.window
        per_core_bytes = (
            schedule.exchange_bytes + schedule.preload_plan.distribution_bytes_per_core
        )
        if end > start and per_core_bytes > 0:
            _accumulate(times, values, start, end, per_core_bytes / (end - start))
        if include_preload:
            p_start, p_end = timing.preload_start, timing.preload_end
            per_core_delivery = schedule.preload_plan.preload_noc_bytes_per_core
            if p_end > p_start and per_core_delivery > 0:
                _accumulate(
                    times, values, p_start, p_end, per_core_delivery / (p_end - p_start)
                )
    return BandwidthTrace(label=label or plan.policy, times=times, values=values)


def memory_occupancy_trace(
    timeline: TimelineResult, label: str = "", num_samples: int = 200
) -> BandwidthTrace:
    """Per-core SRAM occupancy over time (execution + preload spaces), bytes."""
    plan = timeline.plan
    total = timeline.total_time
    times = np.linspace(0.0, total, num_samples, endpoint=False)
    values = np.zeros(num_samples)
    for timing in timeline.timings:
        schedule = plan.schedules[timing.index]
        # Preload space is occupied from preload start until execution
        # starts: from then on the preloaded data is the execution space.
        _accumulate(
            times,
            values,
            timing.preload_start,
            timing.exec_start,
            float(schedule.preload_space_bytes),
        )
        # Execution space is occupied during the execution window.
        start, end = timing.window
        _accumulate(times, values, start, end, float(schedule.exec_space_bytes))
    return BandwidthTrace(label=label or plan.policy, times=times, values=values)
