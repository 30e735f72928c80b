"""One serving engine's run state inside the discrete-event loop.

:class:`EngineCore` bundles what it means to *be* a continuously-batched
engine inside a discrete-event loop: a :class:`ContinuousBatcher`, the busy
accounting of one engine, and its fleet lifecycle (role, warm-up, drain,
crash, straggler window).  The fleet simulator in :mod:`repro.cluster` —
the only event loop — starts and completes every core's iterations on one
heap, timing them with the shared :class:`StepLatencyModel`, and hands the
live cores to routers; a single-engine run is a one-engine fleet
(:func:`~repro.serve.scenarios.simulate_scenario`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.serve.batching import (
    PHASE_BOTH,
    PHASE_DECODE,
    PHASE_PREFILL,
    BatchBuckets,
    ContinuousBatcher,
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
        buckets: Shape grid for this engine's batcher (the fleet passes its
            latency model's, so admission caps and compiled shapes agree).
        engine_id: Stable identifier within a fleet (0 for solo engines).
        role: ``"colocated"``, ``"prefill"``, or ``"decode"`` — selects the
            batcher's phase.
        added_time: When the engine joined the fleet.
        ready_time: When it finishes warming and may take traffic.
        tracer: Optional :class:`repro.obs.Tracer` receiving the
            batcher's request lifecycle events (the fleet loop adds one
            ``iteration`` span per executed iteration on :attr:`track`).

    Attributes:
        track: The engine's trace track, ``engine/<id>``.
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
        buckets: BatchBuckets,
        *,
        engine_id: int = 0,
        role: str = ROLE_COLOCATED,
        added_time: float = 0.0,
        ready_time: float = 0.0,
        tracer: "Tracer | None" = None,
    ) -> None:
        self.engine_id = engine_id
        self.batcher = ContinuousBatcher(buckets, phase=_ROLE_PHASES[role])
        self.track = f"engine/{engine_id}"
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
