"""Shared-resource model for the event-driven ICCA chip simulator.

The simulator is a *fluid* (flow-level) discrete-event simulation: every job
demands a number of bytes (or FLOPs) from one or more resources, concurrent
jobs share each resource's capacity max-min fairly, and events fire when a job
finishes its demand on its bottleneck resource.  This captures the three
contentions of Fig. 2 — on-chip memory capacity, interconnect bandwidth, and
SRAM port bandwidth — without simulating every packet.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError


@dataclass
class Resource:
    """A capacity-limited resource (bytes/s or FLOP/s).

    Attributes:
        name: Resource name (``"hbm"``, ``"noc"``, ``"core_ports"``, ...).
        capacity: Total service rate of the resource.
        busy_time: Accumulated time the resource served at least one job.
        served: Total demand served so far.
    """

    name: str
    capacity: float
    busy_time: float = 0.0
    served: float = 0.0

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise SimulationError(f"resource {self.name!r} needs positive capacity")

    def utilization(self, makespan: float) -> float:
        """Average utilization of the resource over ``makespan`` seconds."""
        if makespan <= 0:
            return 0.0
        return min(1.0, self.served / (self.capacity * makespan))

