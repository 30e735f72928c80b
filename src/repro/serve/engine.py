"""One serving engine's run state inside the discrete-event loop.

:class:`EngineCore` bundles what it means to *be* a continuously-batched
engine inside a discrete-event loop: a :class:`ContinuousBatcher`, the shared
:class:`StepLatencyModel` its iterations are timed by, and the busy/credit
accounting of one engine.  The fleet simulator in :mod:`repro.cluster` —
the only event loop — drives one core per engine on one heap; a
single-engine run (:class:`~repro.serve.simulator.ServingSimulator`) is a
one-engine fleet.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.serve.batching import (
    PHASE_BOTH,
    Batch,
    BatchBuckets,
    ContinuousBatcher,
    RequestState,
    StepLatencyModel,
)

if TYPE_CHECKING:
    from repro.obs.trace import Tracer


class EngineCore:
    """The mutable run state of one continuously-batched serving engine.

    Args:
        latency_model: Bucketed step latencies (typically shared across a
            fleet, so bucket plans compile once fleet-wide).
        buckets: Shape grid for this engine's batcher (defaults to the
            latency model's, so admission caps and compiled shapes agree).
        engine_id: Stable identifier within a fleet (0 for solo engines).
        phase: ``"both"`` (colocated), ``"prefill"``, or ``"decode"`` —
            forwarded to the batcher.
        tracer: Optional :class:`repro.obs.Tracer` receiving one
            ``iteration`` span per executed iteration on the
            ``engine/<id>`` track, plus the batcher's request lifecycle
            events.

    Attributes:
        busy: Whether an iteration is in flight.
        busy_time: Total time spent executing iterations.
        iterations: Iterations executed.
        completed: Requests finished on this engine.
        latency_scale: Multiplier on every iteration's latency (1.0 =
            healthy).  Fault injection raises it to model a straggling
            engine; the stretched time is real wall-clock the engine spends
            busy, so ``busy_time`` scales with it.
    """

    def __init__(
        self,
        latency_model: StepLatencyModel,
        buckets: BatchBuckets | None = None,
        *,
        engine_id: int = 0,
        phase: str = PHASE_BOTH,
        tracer: "Tracer | None" = None,
    ) -> None:
        self.engine_id = engine_id
        self.latency_model = latency_model
        self.batcher = ContinuousBatcher(buckets or latency_model.buckets, phase=phase)
        self.tracer = tracer
        self.batcher.tracer = tracer
        self.batcher.engine_id = engine_id
        self.busy = False
        self.busy_time = 0.0
        self.iterations = 0
        self.completed = 0
        self.latency_scale = 1.0

    # ---------------------------------------------------------- load signals
    @property
    def phase(self) -> str:
        """The engine's phase (``"both"``, ``"prefill"``, or ``"decode"``)."""
        return self.batcher.phase

    @property
    def queue_depth(self) -> int:
        """Requests queued but not yet admitted."""
        return self.batcher.waiting

    @property
    def running(self) -> int:
        """Requests admitted and unfinished."""
        return self.batcher.running

    def has_work(self) -> bool:
        """Whether any request is waiting or running."""
        return self.batcher.has_work()

    def in_flight_tokens(self) -> int:
        """Output units still owed to this engine's requests."""
        return self.batcher.in_flight_tokens()

    # ------------------------------------------------------------- operations
    def enqueue(self, state: RequestState, now: float | None = None) -> None:
        """Hand one request to this engine's wait queue.

        ``now`` stamps the queue-phase span when tracing (see
        :meth:`ContinuousBatcher.enqueue`).
        """
        self.batcher.enqueue(state, now)

    def start_iteration(self, now: float) -> tuple[Batch, float] | None:
        """Form and charge the next iteration; ``None`` if nothing runnable.

        On success the engine is busy until the caller delivers the
        returned ``(batch, latency)`` back through
        :meth:`complete_iteration` at ``now + latency``.
        """
        batch = self.batcher.form_batch(now)
        if batch is None:
            return None
        latency = self.batcher.batch_latency(batch, self.latency_model)
        if latency <= 0:
            raise ConfigurationError(
                f"non-positive step latency for batch {batch.group}"
            )
        if self.latency_scale < 1.0:
            raise ConfigurationError("latency_scale must be >= 1.0")
        latency *= self.latency_scale
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
