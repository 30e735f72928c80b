"""One serving engine's run state inside the discrete-event loop.

:class:`EngineCore` bundles what it means to *be* a continuously-batched
engine inside a discrete-event loop: a :class:`ContinuousBatcher`, the shared
:class:`StepLatencyModel` its iterations are timed by, the busy/credit
accounting of one engine, and its fleet lifecycle (role, warm-up, drain,
crash, straggler window).  The fleet simulator in :mod:`repro.cluster` —
the only event loop — drives one core per engine on one heap and hands the
live cores to routers; a single-engine run is a one-engine fleet
(:func:`~repro.serve.scenarios.simulate_scenario`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.serve.batching import (
    PHASE_BOTH,
    PHASE_DECODE,
    PHASE_PREFILL,
    Batch,
    BatchBuckets,
    ContinuousBatcher,
    RequestState,
    StepLatencyModel,
)

if TYPE_CHECKING:
    from repro.obs.trace import Tracer

#: Engine roles within a fleet.
ROLE_COLOCATED = "colocated"
ROLE_PREFILL = "prefill"
ROLE_DECODE = "decode"

_ROLE_PHASES = {
    ROLE_COLOCATED: PHASE_BOTH,
    ROLE_PREFILL: PHASE_PREFILL,
    ROLE_DECODE: PHASE_DECODE,
}


class EngineCore:
    """The mutable run state of one continuously-batched serving engine.

    Routers read live cores through the
    :class:`~repro.cluster.router.EngineView` shape (``engine_id``,
    ``queue_depth``, ``running``, ``in_flight_tokens``, ``load``).  Each
    reads the batcher's counters, so a load read costs the same at any
    queue depth.

    Args:
        latency_model: Bucketed step latencies (typically shared across a
            fleet, so bucket plans compile once fleet-wide).
        buckets: Shape grid for this engine's batcher (defaults to the
            latency model's, so admission caps and compiled shapes agree).
        engine_id: Stable identifier within a fleet (0 for solo engines).
        role: ``"colocated"``, ``"prefill"``, or ``"decode"`` — selects the
            batcher's phase.
        added_time: When the engine joined the fleet.
        ready_time: When it finishes warming and may take traffic.
        tracer: Optional :class:`repro.obs.Tracer` receiving one
            ``iteration`` span per executed iteration on the
            ``engine/<id>`` track, plus the batcher's request lifecycle
            events.

    Attributes:
        busy: Whether an iteration is in flight.
        busy_time: Total time spent executing iterations.
        iterations: Iterations executed.
        completed: Requests finished on this engine.
        draining: Whether the autoscaler is draining the engine away.
        removed_time: When it left the fleet, drained or crashed (``None``
            while it serves).
        crashed: Whether a fault crashed it.
        slow_until / slow_factor: A straggler window: iterations *started*
            before ``slow_until`` stretch by ``slow_factor``; the stretched
            time is real wall-clock the engine spends busy, so
            ``busy_time`` scales with it.
    """

    def __init__(
        self,
        latency_model: StepLatencyModel,
        buckets: BatchBuckets | None = None,
        *,
        engine_id: int = 0,
        role: str = ROLE_COLOCATED,
        added_time: float = 0.0,
        ready_time: float = 0.0,
        tracer: "Tracer | None" = None,
    ) -> None:
        self.engine_id = engine_id
        self.latency_model = latency_model
        self.batcher = ContinuousBatcher(
            buckets or latency_model.buckets, phase=_ROLE_PHASES[role]
        )
        self.tracer = tracer
        self.batcher.tracer = tracer
        self.batcher.engine_id = engine_id
        self.role = role
        self.added_time = added_time
        self.ready_time = ready_time
        self.busy = False
        self.busy_time = 0.0
        self.iterations = 0
        self.completed = 0
        self.draining = False
        self.removed_time: float | None = None
        self.crashed = False
        self.slow_until = 0.0
        self.slow_factor = 1.0

    # ---------------------------------------------------------- load signals
    @property
    def queue_depth(self) -> int:
        """Requests queued but not yet admitted."""
        return self.batcher.waiting

    @property
    def running(self) -> int:
        """Requests admitted and unfinished."""
        return self.batcher.running

    @property
    def load(self) -> int:
        """Requests the engine currently owns (queued plus running)."""
        return self.batcher.waiting + self.batcher.running

    @property
    def in_flight_tokens(self) -> int:
        """Output units still owed to this engine's requests."""
        return self.batcher.in_flight_tokens()

    # ------------------------------------------------------------- operations
    def start_iteration(self, now: float) -> tuple[Batch, float] | None:
        """Form and charge the next iteration; ``None`` if nothing runnable.

        On success the engine is busy until the caller delivers the
        returned ``(batch, latency)`` back through
        :meth:`complete_iteration` at ``now + latency``.  Inside a
        straggler window the latency stretches by ``slow_factor``; an
        iteration already in flight when the window opens keeps its
        original latency.
        """
        batch = self.batcher.form_batch(now)
        if batch is None:
            return None
        latency = self.batcher.batch_latency(batch, self.latency_model)
        if latency <= 0:
            raise ConfigurationError(
                f"non-positive step latency for batch {batch.group}"
            )
        if now < self.slow_until:
            latency *= self.slow_factor
        self.iterations += 1
        self.busy_time += latency
        self.busy = True
        if self.tracer is not None:
            tenant, model, kind = batch.group
            self.tracer.add_span(
                "iteration",
                now,
                now + latency,
                category="engine",
                track=f"engine/{self.engine_id}",
                model=model,
                kind=kind,
                tenant=tenant,
                batch_size=len(batch),
                prefills=len(batch.prefills),
            )
        return batch, latency

    def complete_iteration(self, batch: Batch, now: float) -> list[RequestState]:
        """Apply one finished iteration; return the released requests.

        Finished requests count toward :attr:`completed`; on a prefill
        engine the result may also contain unfinished hand-offs (see
        :meth:`ContinuousBatcher.complete_step`).
        """
        self.busy = False
        released = self.batcher.complete_step(batch, now)
        if released:  # most iterations release nothing
            self.completed += sum(1 for state in released if state.finished)
        return released
