"""Single-engine serving: the result type and a one-engine fleet front end.

A run replays a seeded arrival trace through one continuously-batched
engine: arrivals join the FCFS wait queue, each finished iteration advances
its batch by one output unit, and the batcher re-forms the batch at
iteration boundaries.  Iteration latencies come from
:class:`~repro.serve.batching.StepLatencyModel`, i.e. from execution plans
compiled once per bucket through a shared :class:`repro.api.Session`.

The event loop itself lives in one place,
:class:`repro.cluster.ClusterSimulator`; :class:`ServingSimulator` runs it
with a single round-robin engine and no fleet features.  Given a seeded
trace every run is deterministic, so serving metrics are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.serve.batching import BatchBuckets, StepLatencyModel
from repro.serve.metrics import (
    RequestRecord,
    ServingMetrics,
    SLOSpec,
    compute_metrics,
)
from repro.serve.workload import ArrivalTrace

if TYPE_CHECKING:
    from repro.obs.trace import Tracer


@dataclass(frozen=True)
class ServingResult:
    """Outcome of one serving simulation.

    Attributes:
        trace_name: Name of the simulated trace.
        policy: Compiler policy the step plans were compiled with.
        records: One :class:`RequestRecord` per completed request, in
            completion order.
        busy_time: Total time the engine spent executing iterations.
        num_iterations: Iterations executed.
        compiled_shapes: The bucketed (model, phase, batch, context) shapes
            the run compiled (via the shared session).
        slo: Default SLO for :meth:`metrics` (from the scenario, if any).
    """

    trace_name: str
    policy: str
    records: tuple[RequestRecord, ...]
    busy_time: float
    num_iterations: int
    compiled_shapes: tuple[tuple, ...] = ()
    slo: SLOSpec | None = field(default=None, compare=False)

    @property
    def makespan(self) -> float:
        """First arrival → last completion (0 for empty runs)."""
        if not self.records:
            return 0.0
        start = min(record.arrival_time for record in self.records)
        return max(record.completion_time for record in self.records) - start

    def metrics(self, slo: SLOSpec | None = None) -> ServingMetrics:
        """Aggregate metrics, under ``slo`` (default: the run's own SLO)."""
        return compute_metrics(
            self.records, busy_time=self.busy_time, slo=slo or self.slo
        )


class ServingSimulator:
    """One continuously-batched serving engine: a one-engine fleet.

    Args:
        latency_model: Bucketed step latencies (carries the shared session,
            target system, and compiler policy).
        buckets: Shape grid for the batcher (defaults to the latency model's,
            so admission caps and compiled shapes always agree).
        tracer: Optional :class:`repro.obs.Tracer` receiving the engine's
            iteration spans and request lifecycle events.
    """

    def __init__(
        self,
        latency_model: StepLatencyModel,
        buckets: BatchBuckets | None = None,
        tracer: "Tracer | None" = None,
    ) -> None:
        self.latency_model = latency_model
        self.buckets = buckets or latency_model.buckets
        self.tracer = tracer

    def run(self, trace: ArrivalTrace, slo: SLOSpec | None = None) -> ServingResult:
        """Serve every request of ``trace``; return the completed-run result.

        The result is a :class:`~repro.cluster.ClusterResult` (a
        :class:`ServingResult`) of the one-engine fleet.
        """
        # repro.cluster builds on repro.serve, so import it at call time.
        from repro.cluster.simulator import ClusterSimulator

        return ClusterSimulator(
            self.latency_model,
            num_engines=1,
            router="round-robin",
            buckets=self.buckets,
            tracer=self.tracer,
        ).run(trace, slo=slo)
