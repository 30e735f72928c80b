"""The request-level serving simulator: a heapq discrete-event engine.

The engine interleaves two event kinds on one time-ordered heap — request
arrivals (from the trace) and iteration completions (from the continuous
batcher) — and advances a single serving engine through them:

1. An arriving request joins the FCFS wait queue; if the engine is idle it
   starts an iteration immediately.
2. When an iteration completes, every request in its batch advances one
   output unit, finished requests leave, and the batcher forms the next
   batch from the running and newly admitted requests (continuous batching:
   composition changes at iteration boundaries only).
3. Iteration latencies come from :class:`~repro.serve.batching.StepLatencyModel`,
   i.e. from execution plans compiled once per bucket through a shared
   :class:`repro.api.Session` and timed by the event-driven chip/multichip
   simulator.

Given a seeded trace the whole run is deterministic: heap ties are broken by
an insertion sequence number and every scheduling decision is a pure function
of arrival order, so serving metrics are bit-reproducible.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import SimulationInvariantError
from repro.serve.batching import (
    Batch,
    BatchBuckets,
    StepLatencyModel,
    make_states,
)
from repro.serve.engine import EngineCore
from repro.serve.metrics import (
    RequestRecord,
    ServingMetrics,
    SLOSpec,
    compute_metrics,
)
from repro.serve.workload import ArrivalTrace

if TYPE_CHECKING:
    from repro.obs.trace import Tracer

_ARRIVAL = 0
_STEP_DONE = 1


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
    """Discrete-event simulation of one continuously-batched serving engine.

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
        """Serve every request of ``trace``; return the completed-run result."""
        engine = EngineCore(self.latency_model, self.buckets, tracer=self.tracer)
        sequence = itertools.count()
        heap: list[tuple[float, int, int, object]] = []
        for state in make_states(trace):
            heapq.heappush(
                heap, (state.spec.arrival_time, next(sequence), _ARRIVAL, state)
            )

        records: list[RequestRecord] = []

        def start_iteration(now: float) -> None:
            started = engine.start_iteration(now)
            if started is not None:
                batch, latency = started
                heapq.heappush(
                    heap, (now + latency, next(sequence), _STEP_DONE, batch)
                )

        while heap:
            now, _, kind, payload = heapq.heappop(heap)
            if kind == _ARRIVAL:
                engine.enqueue(payload)
                # Drain every arrival with this exact timestamp before
                # scheduling, so simultaneous requests (offline batches,
                # burst heads) can share the iteration they trigger.
                while heap and heap[0][0] == now and heap[0][2] == _ARRIVAL:
                    engine.enqueue(heapq.heappop(heap)[3])
                if not engine.busy:
                    start_iteration(now)
                continue
            if not isinstance(payload, Batch):
                raise SimulationInvariantError(f"bad step-done payload {payload!r}")
            for state in engine.complete_iteration(payload, now):
                records.append(
                    RequestRecord(
                        spec=state.spec,
                        arrival_time=state.spec.arrival_time,
                        started_time=state.started_time,
                        first_token_time=state.first_token_time,
                        completion_time=state.completion_time,
                    )
                )
            start_iteration(now)

        if engine.has_work():
            raise SimulationInvariantError("simulation ended with unfinished requests")
        return ServingResult(
            trace_name=trace.name,
            policy=self.latency_model.policy,
            records=tuple(records),
            busy_time=engine.busy_time,
            num_iterations=engine.iterations,
            compiled_shapes=tuple(self.latency_model.compiled_shapes()),
            slo=slo,
        )


def simulate_serving(
    trace: ArrivalTrace,
    latency_model: StepLatencyModel,
    *,
    slo: SLOSpec | None = None,
) -> ServingResult:
    """One-call convenience: run ``trace`` on a fresh engine."""
    return ServingSimulator(latency_model).run(trace, slo=slo)
