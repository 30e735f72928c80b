"""The fleet-scale serving simulator: N engines, one trace, one session.

:class:`ClusterSimulator` dispatches one :class:`ArrivalTrace` across a
fleet of :class:`~repro.serve.batching.EngineCore` engines that all share one
:class:`~repro.serve.batching.StepLatencyModel` — and therefore one compile
:class:`~repro.api.Session` — so every bucketed step plan compiles exactly
once fleet-wide no matter how many engines serve it.  Its heapq event loop
is the repo's only one.  Its settings are one frozen :class:`FleetConfig`;
single-engine serving is
``ClusterSimulator(latency, FleetConfig(num_engines=1, router="round-robin"))``.

Each :meth:`ClusterSimulator.run` call builds a private run object that
owns the heap, the engines, and the run's records and counters.  Every heap
entry is ``(time, seq, handler, payload)``; the loop pops entries in time
order (ties in push order) and calls the entry's handler:

* **arrival** — every arrival with the same timestamp is drained at once,
  passed through admission control (per-tenant token buckets) and optional
  load shedding, then routed to an engine;
* **step done** — one engine's iteration completes; finished requests are
  recorded, prefill hand-offs are forwarded to the decode pool, and the
  engine starts its next iteration;
* **engine ready** — a scaled-up engine finishes warming (compiling /
  loading its bucket plans), and queued requests rebalance onto the grown
  fleet;
* **hand-off** — a prefilled request reaches the decode pool (after the
  configured hand-off delay) and is routed like a fresh arrival;
* **fault** — an injected :class:`~repro.cluster.faults.FaultEvent` fires:
  an engine crash (queued requests re-route immediately; admitted and
  in-flight requests lose their progress and retry with backoff under the
  :class:`~repro.cluster.faults.RetryPolicy`, or are recorded as *failed*
  when the budget is gone), a slowdown window (subsequent iterations of the
  straggler stretch by the fault's factor), a transient compile failure
  (armed on the shared latency model, which serves the closest
  already-compiled bucket plan on the next cache miss), or artifact-store
  corruption (a cache entry is truncated on disk, exercising the store's
  evict-and-recompile path);
* **retry** — a request whose work a crash destroyed returns from its
  backoff delay and is routed like a fresh arrival.

The autoscaler is evaluated after every event except hand-offs (which move
work within the fleet) and stale completions of crashed engines — a crashed
engine is capacity pressure like any other, so the fleet replaces it
subject to cooldown.  Request accounting always balances:
``completed + rejected + failed == arrivals``, with shed and failed
requests recorded, never silently dropped.  Everything remains a pure
function of the seeded trace, the fault schedule, and the configuration,
so cluster metrics — including :class:`AvailabilityMetrics` — are
bit-reproducible (give each run a fresh :class:`StepLatencyModel` when the
schedule injects compile failures, since fallbacks depend on what has
compiled so far).
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable

from repro.cluster.autoscaler import (
    SCALE_ADD,
    SCALE_CRASH,
    SCALE_DRAIN,
    SCALE_REMOVE,
    Autoscaler,
    AutoscalerConfig,
    ScaleEvent,
)
from repro.cluster.faults import (
    FAULT_COMPILE_FAILURE,
    FAULT_ENGINE_CRASH,
    FAULT_ENGINE_SLOWDOWN,
    AvailabilityMetrics,
    DegradationPolicy,
    FaultEvent,
    FaultSchedule,
    RetryPolicy,
)
from repro.cluster.router import get_router
from repro.cluster.tenancy import AdmissionController, TenantSpec, as_tenant_map
from repro.errors import ConfigurationError, SimulationInvariantError
from repro.serve.batching import (
    ROLE_COLOCATED,
    ROLE_DECODE,
    ROLE_PREFILL,
    Batch,
    EngineCore,
    RequestState,
    StepLatencyModel,
    make_states,
)
from repro.serve.metrics import RequestRecord, ServingMetrics, SLOSpec, compute_metrics
from repro.serve.workload import ArrivalTrace, RequestSpec

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import Tracer


@dataclass(frozen=True)
class DisaggregationConfig:
    """Prefill/decode disaggregation: dedicated pools and a hand-off queue.

    Attributes:
        prefill_engines: Engines in the prefill pool (serve prefill passes
            only, then hand requests off).
        decode_engines: Engines in the decode pool (serve decode steps and
            diffusion work).
        handoff_delay: Seconds a prefilled request spends in the hand-off
            queue (KV-cache transfer cost) before the decode pool may
            route it.
    """

    prefill_engines: int = 1
    decode_engines: int = 1
    handoff_delay: float = 0.0

    def __post_init__(self) -> None:
        if self.prefill_engines < 1 or self.decode_engines < 1:
            raise ConfigurationError(
                "disaggregation needs at least one engine in each pool"
            )
        if self.handoff_delay < 0:
            raise ConfigurationError("handoff_delay must be >= 0")


@dataclass(frozen=True)
class EngineRecord:
    """Lifecycle and utilization summary of one fleet engine.

    Attributes:
        engine_id: Stable identifier within the fleet.
        role: ``"colocated"``, ``"prefill"``, or ``"decode"``.
        busy_time: Total time spent executing iterations.
        num_iterations: Iterations executed.
        requests_completed: Requests that finished on this engine.
        added_time: When the engine joined the fleet.
        ready_time: When it finished warming and could take traffic.
        removed_time: When it was drained away (``None`` if it survived).
        utilization: ``busy_time`` over the engine's ready lifespan.
    """

    engine_id: int
    role: str
    busy_time: float
    num_iterations: int
    requests_completed: int
    added_time: float
    ready_time: float
    removed_time: float | None
    utilization: float


@dataclass(frozen=True)
class ClusterResult:
    """Outcome of one serving simulation, on one engine or a fleet.

    Besides the completed requests, it tells the cluster-level story: which
    router ran, what each engine did, when the autoscaler acted, what
    admission control (or load shedding) rejected, what faults destroyed,
    and how the fleet recovered.  Accounting always balances:
    ``completed + rejected + failed == num_arrivals``.

    Attributes:
        trace_name: Name of the simulated trace.
        policy: Compiler policy the step plans were compiled with.
        records: One :class:`RequestRecord` per completed request, in
            completion order.
        busy_time: Total time the fleet's engines spent executing
            iterations.
        num_iterations: Iterations executed fleet-wide.
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
    router: str = ""
    engines: tuple[EngineRecord, ...] = ()
    scale_events: tuple[ScaleEvent, ...] = ()
    rejected: tuple[RequestSpec, ...] = ()
    failed: tuple[RequestSpec, ...] = ()
    num_arrivals: int = 0
    availability: AvailabilityMetrics = field(default_factory=AvailabilityMetrics)
    tenants: tuple[TenantSpec, ...] = field(default=(), compare=False)
    store_hits: int = 0

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

    @property
    def fleet_size(self) -> int:
        """Engines that ever served in the run."""
        return len(self.engines)

    def engine_utilization(self) -> dict[int, float]:
        """``{engine_id: utilization}`` across the fleet."""
        return {record.engine_id: record.utilization for record in self.engines}

    def rejections_by_tenant(self) -> dict[str, int]:
        """Rejected-request counts per tenant (empty when nothing rejected)."""
        counts: dict[str, int] = {}
        for spec in self.rejected:
            counts[spec.tenant] = counts.get(spec.tenant, 0) + 1
        return counts

    def accounting(self) -> dict[str, int]:
        """Where every arrival ended up: completed, rejected, or failed."""
        return {
            "arrivals": self.num_arrivals,
            "completed": len(self.records),
            "rejected": len(self.rejected),
            "failed": len(self.failed),
        }

    @property
    def accounting_balanced(self) -> bool:
        """Whether no request was silently dropped (the chaos invariant)."""
        return (
            len(self.records) + len(self.rejected) + len(self.failed)
            == self.num_arrivals
        )

    def counters(self) -> dict[str, int]:
        """Cache/retry counters for reporting tables.

        ``store_hits`` (bucket plans this run resolved from the on-disk
        artifact store), ``fallback_serves`` (cache misses served from the
        closest compiled plan after an injected compile failure),
        ``retries`` (crash-lost requests granted another attempt), and
        ``requeues`` (re-dispatches through the router: crash/drain
        re-routes plus retry returns).
        """
        return {
            "store_hits": self.store_hits,
            "fallback_serves": self.availability.compile_fallbacks,
            "retries": self.availability.num_retries,
            "requeues": self.availability.num_redispatches,
        }

    def register_into(
        self, registry: "MetricsRegistry", prefix: str = "cluster"
    ) -> None:
        """Register this run's metric families into one registry.

        Adds the run-level serving summary (``<prefix>.serving.*``), the
        availability counters (``<prefix>.availability.*``), and the cache/
        retry counters (``<prefix>.counters.*``) as sources, so one
        ``registry.snapshot()`` covers the whole run.
        """
        registry.register_source(f"{prefix}.serving", self.metrics().summary)
        registry.register_source(f"{prefix}.availability", self.availability.summary)
        registry.register_source(f"{prefix}.counters", self.counters)

    def tenant_metrics(self) -> dict[str, ServingMetrics]:
        """Per-tenant :class:`ServingMetrics`, under each tenant's own SLO.

        Tenants without a dedicated SLO are judged against the run-level
        one.  Busy time is not attributable per tenant (tenants share
        engines over time), so per-tenant utilization reads 0.
        """
        slos = {spec.name: spec.slo for spec in self.tenants}
        by_tenant: dict[str, list[RequestRecord]] = {}
        for record in self.records:
            by_tenant.setdefault(record.spec.tenant, []).append(record)
        return {
            tenant: compute_metrics(records, slo=slos.get(tenant) or self.slo)
            for tenant, records in sorted(by_tenant.items())
        }


@dataclass(frozen=True)
class FleetConfig:
    """Every setting of a simulated fleet, validated once at construction.

    Attributes:
        num_engines: Initial fleet size (colocated mode; ignored when
            ``disaggregation`` is given).
        router: Registered router-policy name.
        autoscaler: Enables autoscaling of a colocated fleet (``None`` = a
            fixed fleet; incompatible with ``disaggregation``).
        tenants: Per-tenant admission quotas and SLOs (any iterable or
            mapping of :class:`TenantSpec`, stored as a tuple).
        disaggregation: Split the fleet into dedicated prefill and decode
            pools with a hand-off queue (``None`` = colocated).
        faults: Fault schedule to inject during the run (``None`` = the
            happy path).  Crashes never remove the last engine able to
            serve a role — such events are skipped.
        retry_policy: Retry/backoff semantics for work a crash destroyed
            (``None`` = :class:`RetryPolicy`'s defaults).
        degradation: Graceful-degradation policy shedding arrivals by
            tenant priority under overload (``None`` = never shed).
    """

    num_engines: int = 2
    router: str = "least-loaded"
    autoscaler: AutoscalerConfig | None = None
    tenants: tuple[TenantSpec, ...] = ()
    disaggregation: DisaggregationConfig | None = None
    faults: FaultSchedule | None = None
    retry_policy: RetryPolicy | None = None
    degradation: DegradationPolicy | None = None

    def __post_init__(self) -> None:
        if self.num_engines < 1:
            raise ConfigurationError("num_engines must be >= 1")
        if self.autoscaler is not None and self.disaggregation is not None:
            raise ConfigurationError(
                "autoscaling disaggregated pools is not supported; pick one"
            )
        if not isinstance(self.router, str):
            raise ConfigurationError(
                f"router must be a registered name, got {self.router!r}"
            )
        get_router(self.router)  # an unknown name raises ConfigurationError
        for name, kind in (
            ("faults", FaultSchedule),
            ("retry_policy", RetryPolicy),
            ("degradation", DegradationPolicy),
        ):
            value = getattr(self, name)
            if value is not None and not isinstance(value, kind):
                raise ConfigurationError(
                    f"{name} must be a {kind.__name__} or None, got {value!r}"
                )
        object.__setattr__(
            self, "tenants", tuple(as_tenant_map(self.tenants).values())
        )


class ClusterSimulator:
    """Discrete-event simulation of a router-fronted fleet of engines.

    Args:
        latency_model: Bucketed step latencies, shared by every engine in
            the fleet (this is what makes bucket plans compile once
            fleet-wide through the underlying session); its shape grid is
            the engines'.
        fleet: The fleet's settings.
        prewarm: Compile the reachable bucket grid for every (model, kind)
            group in the trace before serving, via one
            :meth:`Session.compile_many` fan-out.
        tracer: Optional :class:`repro.obs.Tracer` placing scale, crash,
            shed, fault, and retry instants on the ``cluster`` track of the
            same timeline the engines' iteration spans and the requests'
            lifecycle phases render on.
    """

    def __init__(
        self,
        latency_model: StepLatencyModel,
        fleet: FleetConfig = FleetConfig(),
        *,
        prewarm: bool = False,
        tracer: "Tracer | None" = None,
    ) -> None:
        self.latency_model = latency_model
        self.fleet = fleet
        self.router = get_router(fleet.router)
        self.prewarm = prewarm
        self.tracer = tracer

    # ----------------------------------------------------------------- running
    def run(self, trace: ArrivalTrace, slo: SLOSpec | None = None) -> ClusterResult:
        """Serve every admitted request of ``trace``; return the fleet result."""
        if self.prewarm:
            groups = sorted(
                {(spec.model.lower(), spec.kind) for spec in trace.requests}
            )
            self.latency_model.prewarm(groups)
        return _FleetRun(self, trace, slo).run()


class _FleetRun:
    """The mutable state and event handlers of one :meth:`ClusterSimulator.run`.

    Heap entries are ``(time, seq, handler, payload)``: ``seq`` is the push
    order, so simultaneous events run first-pushed first, and the handler
    is one of the ``_on_*`` methods below, called as ``handler(now,
    payload)``.  Every handler except :meth:`_on_fault` advances
    :attr:`end_time`: faults alone don't extend the makespan, so a crash
    injected after the last completion destroys nothing and stretches no
    utilization or goodput denominator.

    :attr:`waiting` counts the fleet's queued (unadmitted) requests, which
    only active engines hold, so the autoscaler needs no sum.  It moves in
    four places: :meth:`_dispatch`, admission in :meth:`_kick`, and the
    ``drain_waiting`` calls in :meth:`_requeue` and :meth:`_on_engine_ready`.
    :meth:`_autoscale` leaves out the queues of :attr:`warming` engines
    (added before their ``ready_time``) while they warm.

    When a step completes *steady* (:class:`EngineCore`: same members,
    nothing waiting, nobody finishing), :meth:`_on_step_done` runs the next
    step in place while it would be the next event to pop.  That is
    bit-identical to a heap round trip: each such step makes one counted
    latency lookup and adds the same iteration span (:meth:`_start`, shared
    with :meth:`_kick`), takes its heap sequence number *before*
    :meth:`_autoscale` runs with the engine busy, and is pushed whenever it
    ends no earlier than the heap's first event, so ties go to the heap.
    """

    def __init__(
        self, sim: ClusterSimulator, trace: ArrivalTrace, slo: SLOSpec | None
    ) -> None:
        fleet = sim.fleet
        self.trace = trace
        self.slo = slo
        self.tracer = sim.tracer
        self.iteration_attrs: dict[tuple, dict] = {}
        self.span_batch: Batch | None = None  # the batch span_attrs is for
        self.span_attrs: dict = {}
        self.latency_model = model = sim.latency_model
        # Settings the handlers read per event, bound once.
        self.router = sim.router
        self.disaggregation = fleet.disaggregation
        self.degradation = fleet.degradation
        self.retry_policy = fleet.retry_policy or RetryPolicy()
        self.tenants = fleet.tenants
        self.admission = AdmissionController(fleet.tenants)
        self.autoscaler = (
            Autoscaler(fleet.autoscaler) if fleet.autoscaler is not None else None
        )
        # Engine ids are list positions: engines join in id order and stay.
        # ``active`` is the in-fleet, non-draining subset, in the same order.
        self.engines: list[EngineCore] = []
        self.active: list[EngineCore] = []
        self.waiting = 0
        self.warming: list[EngineCore] = []
        self.heap: list[tuple[float, int, Callable, object]] = []
        self.sequence = itertools.count()
        self.records: list[RequestRecord] = []
        self.rejected: list[RequestSpec] = []
        self.failed: list[RequestSpec] = []
        self.scale_events: list[ScaleEvent] = []
        self.end_time = 0.0
        # Fault and recovery counters, keyed by AvailabilityMetrics' fields.
        self.counts: Counter[str] = Counter()
        # Per applied crash: (crash time, ids of retried requests still
        # owed a completion or failure).  When a set empties, the crash is
        # recovered and its recovery time is recorded.
        self.crash_watches: list[tuple[float, set[int]]] = []
        self.recovery_times: list[float] = []
        self.budget_left = self.retry_policy.retry_budget  # None = unbounded
        self.fallback_base = model.stats.get("fallbacks", 0)
        self.store_base = model.session.stats.store_hits

        # Seed the initial fleet, ready at t=0 (prewarmed before traffic).
        if fleet.disaggregation is not None:
            for _ in range(fleet.disaggregation.prefill_engines):
                self._add_engine(ROLE_PREFILL, 0.0, 0.0)
            for _ in range(fleet.disaggregation.decode_engines):
                self._add_engine(ROLE_DECODE, 0.0, 0.0)
        else:
            for _ in range(fleet.num_engines):
                self._add_engine(ROLE_COLOCATED, 0.0, 0.0)
        for state in make_states(trace):
            self._push(state.spec.arrival_time, self._on_arrival, state)
        for fault in fleet.faults or ():
            self._push(fault.time, self._on_fault, fault)

    def run(self) -> ClusterResult:
        """Handle events until the heap drains; check accounting; report."""
        heap = self.heap
        while heap:
            now, _, handler, payload = heapq.heappop(heap)
            handler(now, payload)
        if any(engine.has_work() for engine in self.engines):
            raise SimulationInvariantError(
                "cluster simulation ended with unfinished requests"
            )
        records, rejected, failed = self.records, self.rejected, self.failed
        arrivals = len(self.trace.requests)
        if len(records) + len(rejected) + len(failed) != arrivals:
            raise SimulationInvariantError(
                "request accounting does not balance: "
                f"{len(records)} completed + {len(rejected)} rejected + "
                f"{len(failed)} failed != {arrivals} arrivals"
            )
        # Injected compile failures that never fired (no cache miss came)
        # must not leak into a later run on the same latency model.
        self.latency_model.disarm_compile_failures()
        return self._result()

    # ------------------------------------------------------------- handlers
    def _on_arrival(self, now: float, state: RequestState) -> None:
        self.end_time = now
        # Drain every arrival with this exact timestamp before kicking
        # engines, so simultaneous requests (offline batches, burst heads)
        # can share the iterations they trigger.
        arrivals = [state]
        heap = self.heap
        while heap and heap[0][0] == now and heap[0][2] == self._on_arrival:
            arrivals.append(heapq.heappop(heap)[3])
        avg_queue = 0.0
        if self.degradation is not None:
            ready = [e for e in self.active if e.ready_time <= now]
            avg_queue = sum(e.waiting for e in ready) / max(1, len(ready))
        self._route((s for s in arrivals if self._admit(s, now, avg_queue)), now)
        self._autoscale(now)

    def _on_step_done(self, now: float, payload: tuple) -> None:
        self.end_time = now
        engine, batch = payload
        if engine.crashed:
            # Stale completion: the crash destroyed this iteration's work
            # and already re-dispatched (or failed) its requests.
            return
        heap = self.heap
        while engine.advance(batch):  # steady steps run in place
            end = self._start(engine, batch, now)
            seq = next(self.sequence)
            self._autoscale(now)
            if heap and end >= heap[0][0]:
                heapq.heappush(heap, (end, seq, self._on_step_done, payload))
                return
            self.end_time = now = end
        engine.busy = False
        for state in engine.complete_step(batch, now):
            if state.finished:
                engine.completed += 1
                self._record(state, now)
            else:
                # Prefill finished: hand off to the decode pool.
                delay = self.disaggregation.handoff_delay
                self._push(now + delay, self._on_handoff, state)
        self._kick(engine, now)
        self._autoscale(now)

    def _on_engine_ready(self, now: float, engine: EngineCore) -> None:
        self.end_time = now
        # Queued requests are not yet admitted into any batch, so the front
        # door rebalances them across the grown fleet in FCFS order —
        # without this, a backlog that triggered the scale-up would stay
        # pinned to the engines it queued on and the new engine would idle.
        pending: list[RequestState] = []
        for other in self.active:
            if other.ready_time <= now:
                pending.extend(other.drain_waiting())
        self.waiting -= len(pending)
        pending.sort(key=lambda s: (s.spec.arrival_time, s.spec.request_id))
        self._route(pending, now, {engine.engine_id: engine})
        self._autoscale(now)

    def _on_handoff(self, now: float, state: RequestState) -> None:
        # Hand-offs move work within the fleet: no autoscale.
        self.end_time = now
        self._kick(self._dispatch(state, now), now)

    def _on_fault(self, now: float, fault: FaultEvent) -> None:
        if fault.kind == FAULT_ENGINE_CRASH:
            self._crash(fault, now)
        elif fault.kind == FAULT_ENGINE_SLOWDOWN:
            pool = self.active
            if pool:
                victim = pool[fault.target % len(pool)]
                victim.slow_until = max(victim.slow_until, now + fault.duration)
                victim.slow_factor = fault.factor
                self.counts["num_slowdowns"] += 1
                self._instant(
                    "fault-slowdown",
                    now,
                    engine=victim.engine_id,
                    factor=fault.factor,
                    duration=fault.duration,
                )
        elif fault.kind == FAULT_COMPILE_FAILURE:
            self.latency_model.inject_compile_failures(fault.count)
            self.counts["num_compile_faults"] += fault.count
            self._instant("fault-compile-failure", now, count=fault.count)
        else:  # FAULT_STORE_CORRUPTION
            store = self.latency_model.session.store
            if store is not None and store.corrupt_entry(fault.target):
                self.counts["num_store_corruptions"] += 1
            self._instant("fault-store-corruption", now, target=fault.target)
        self._autoscale(now)

    def _on_retry(self, now: float, state: RequestState) -> None:
        # A crash-lost request returns from its backoff delay and is routed
        # like a fresh arrival (with its progress reset).
        self.end_time = now
        self.counts["num_redispatches"] += 1
        self._kick(self._dispatch(state, now), now)
        self._autoscale(now)

    # -------------------------------------------------------------- helpers
    def _push(self, time: float, handler: Callable, payload: object) -> None:
        heapq.heappush(self.heap, (time, next(self.sequence), handler, payload))

    def _instant(self, name: str, now: float, **attrs) -> None:
        """Place one instant on the tracer's ``cluster`` track."""
        if self.tracer is not None:
            self.tracer.instant(
                name, sim_time=now, category="cluster", track="cluster", **attrs
            )

    def _note_scale(
        self, now: float, action: str, engine: EngineCore, reason: str
    ) -> None:
        event = ScaleEvent(
            time=now,
            action=action,
            engine_id=engine.engine_id,
            fleet_size=len(self.active),
            reason=reason,
        )
        self.scale_events.append(event)
        self._instant(
            f"scale-{action}",
            now,
            engine=event.engine_id,
            fleet_size=event.fleet_size,
            reason=reason,
        )

    def _add_engine(self, role: str, added: float, ready: float) -> EngineCore:
        engine = EngineCore(
            self.latency_model.buckets,
            engine_id=len(self.engines),
            role=role,
            added_time=added,
            ready_time=ready,
            tracer=self.tracer,
        )
        self.engines.append(engine)
        self.active.append(engine)
        return engine

    def _kick(self, engine: EngineCore, now: float) -> None:
        """Start the engine's next iteration, or finalize a drain."""
        if engine.busy or engine.removed_time is not None or engine.ready_time > now:
            return
        waiting = engine.waiting
        batch = engine.form_batch(now)
        self.waiting -= waiting - engine.waiting  # admitted this iteration
        if batch is None:
            if engine.draining and not engine.has_work():
                engine.removed_time = now
                self._note_scale(now, SCALE_REMOVE, engine, "drained empty")
            return
        end = self._start(engine, batch, now)
        # The hot path: push inline rather than through _push.
        entry = (end, next(self.sequence), self._on_step_done, (engine, batch))
        heapq.heappush(self.heap, entry)

    def _start(self, engine: EngineCore, batch: Batch, now: float) -> float:
        """Start ``batch``'s iteration on ``engine`` at ``now``; return its end."""
        latency = engine.batch_latency(batch, self.latency_model)
        if latency <= 0:
            raise ConfigurationError(
                f"non-positive step latency for batch {batch.group}"
            )
        if now < engine.slow_until:
            latency *= engine.slow_factor
        engine.iterations += 1
        engine.busy_time += latency
        engine.busy = True
        end = now + latency  # one float: this span's end, the next one's start
        tracer = self.tracer
        if tracer is not None:
            if batch is not self.span_batch:
                # One attrs dict per (group, size, prefills), shared by every
                # iteration span with those attributes (the exporters copy
                # it); a batch run again in place keeps its shape.
                shape = (batch.group, len(batch.requests), len(batch.prefills))
                attrs = self.iteration_attrs.get(shape)
                if attrs is None:
                    (tenant, model, kind), size, prefills = shape
                    attrs = self.iteration_attrs[shape] = dict(
                        model=model, kind=kind, tenant=tenant, batch_size=size, prefills=prefills
                    )
                self.span_batch, self.span_attrs = batch, attrs
            tracer.add_span("iteration", now, end, "engine", engine.track, self.span_attrs)
        return end

    def _dispatch(self, state: RequestState, now: float) -> EngineCore:
        """Route one request to an engine's wait queue (no kick)."""
        if self.disaggregation is None:
            role = ROLE_COLOCATED
        elif state.prefill_pending:
            role = ROLE_PREFILL
        else:
            role = ROLE_DECODE
        candidates = [
            e for e in self.active if e.role == role and e.ready_time <= now
        ]
        if not candidates:
            # Every engine of the pool is still warming — e.g. a crash took
            # the pool's last ready engine while a scaled-up replacement
            # warms (the crash guard counts warming engines as replicas).
            # Park the request on the earliest-ready active engine; it
            # starts once that engine is ready.
            pool = [e for e in self.active if e.role == role]
            if not pool:
                raise ConfigurationError(
                    f"no active engine can serve role {role!r}"
                )
            chosen = min(pool, key=lambda e: (e.ready_time, e.engine_id))
        else:
            choice = self.router.choose(state, candidates, now)
            chosen = next((e for e in candidates if e.engine_id == choice), None)
            if chosen is None:
                raise ConfigurationError(
                    f"router {self.router.name!r} chose engine {choice}, "
                    f"not one of {[e.engine_id for e in candidates]}"
                )
        chosen.enqueue(state, now)
        self.waiting += 1
        return chosen

    def _route(
        self,
        states: Iterable[RequestState],
        now: float,
        touched: dict[int, EngineCore] | None = None,
        *,
        kick: bool = True,
    ) -> dict[int, EngineCore]:
        """Dispatch ``states`` in order, then kick every touched engine once.

        ``touched`` pre-seeds engines to kick first; ``kick=False`` leaves
        the kicks to the caller.  Returns the touched engines.
        """
        touched = {} if touched is None else touched
        for state in states:
            engine = self._dispatch(state, now)
            touched[engine.engine_id] = engine
        if kick:
            for engine in touched.values():
                self._kick(engine, now)
        return touched

    def _requeue(
        self, engine: EngineCore, now: float, *, kick: bool = True
    ) -> dict[int, EngineCore]:
        """Re-route a drained or crashed engine's queued requests.

        The one requeue path scale-down drains and crashes share: states
        keep their original arrival times (queue-wait metrics charge from
        first arrival, with no double-counting) and are routed exactly like
        fresh arrivals.
        """
        waiting = engine.drain_waiting()
        self.waiting -= len(waiting)
        self.counts["num_redispatches"] += len(waiting)
        return self._route(waiting, now, kick=kick)

    def _admit(self, state: RequestState, now: float, avg_queue: float) -> bool:
        """Admission control, then load shedding; record the rejected."""
        spec = state.spec
        if not self.admission.admit(spec.tenant, now):
            self.rejected.append(spec)
            return False
        degradation = self.degradation
        if degradation is not None and degradation.should_shed(
            spec.tenant, avg_queue
        ):
            # Graceful degradation: shed at the front door by tenant
            # priority before queues collapse SLOs fleet-wide.  Shed
            # arrivals count as rejections.
            self.rejected.append(spec)
            self.counts["num_shed"] += 1
            self._instant("shed", now, request=spec.request_id, tenant=spec.tenant)
            return False
        return True

    def _slo_for(self, record: RequestRecord) -> SLOSpec | None:
        return self.admission.slo_for(record.spec.tenant) or self.slo

    def _record(self, state: RequestState, now: float) -> None:
        record = RequestRecord(
            spec=state.spec,
            arrival_time=state.spec.arrival_time,
            started_time=state.started_time,
            first_token_time=state.first_token_time,
            completion_time=state.completion_time,
        )
        self.records.append(record)
        self._resolved(state, now)
        if self.autoscaler is not None:
            slo = self._slo_for(record)
            self.autoscaler.observe(slo.met_by(record) if slo is not None else True)

    def _fail(self, state: RequestState, now: float) -> None:
        """Record a request as failed (retry budget exhausted)."""
        self.failed.append(state.spec)
        self._resolved(state, now)
        if self.autoscaler is not None:
            self.autoscaler.observe(False)  # a failure always misses its SLO

    def _resolved(self, state: RequestState, now: float) -> None:
        """Settle crash-recovery watches when a lost request resolves."""
        request_id = state.spec.request_id
        for crash_time, pending in self.crash_watches:
            if request_id in pending:
                pending.discard(request_id)
                if not pending:
                    self.recovery_times.append(now - crash_time)

    def _crash(self, fault: FaultEvent, now: float) -> None:
        pool = self.active
        # Never kill the last engine able to serve a role — the fleet (like
        # a real one behind a health-checked load balancer) keeps a minimum
        # of one replica per role.
        eligible = [
            engine
            for engine in pool
            if sum(1 for other in pool if other.role == engine.role) > 1
        ]
        if not eligible:
            return
        victim = eligible[fault.target % len(eligible)]
        victim.crashed = True
        victim.removed_time = now
        self.active.remove(victim)
        self.counts["num_crashes"] += 1
        self._note_scale(now, SCALE_CRASH, victim, "injected fault")
        # Queued requests lost no work: re-route them immediately, no retry
        # attempt consumed.
        touched = self._requeue(victim, now, kick=False)
        # Admitted and in-flight requests lost their progress: retry from
        # scratch after a backoff, or fail when out of budget.
        policy = self.retry_policy
        watch: set[int] = set()
        for state in victim.drain_running():
            out_of_budget = self.budget_left is not None and self.budget_left <= 0
            if state.retries + 1 >= policy.max_attempts or out_of_budget:
                self._fail(state, now)
                continue
            state.retries += 1
            self.counts["num_retries"] += 1
            if self.budget_left is not None:
                self.budget_left -= 1
            delay = policy.backoff_delay(state.retries, state.spec.request_id)
            self._push(now + delay, self._on_retry, state)
            self._instant(
                "retry",
                now,
                request=state.spec.request_id,
                attempt=state.retries,
                backoff=delay,
            )
            watch.add(state.spec.request_id)
        if watch:
            self.crash_watches.append((now, watch))
        else:
            self.recovery_times.append(0.0)  # nothing (left) to re-serve
        for engine in touched.values():
            self._kick(engine, now)

    def _autoscale(self, now: float) -> None:
        autoscaler = self.autoscaler
        if autoscaler is None:
            return
        active = self.active
        total_waiting = self.waiting
        if self.warming:  # queues parked on warming engines send no signal
            self.warming = [e for e in self.warming if e.ready_time > now]
            total_waiting -= sum(e.waiting for e in self.warming)
        decision = autoscaler.decide(now, len(active), total_waiting)
        if decision is None:
            return
        reason = (
            f"avg_queue={total_waiting / max(1, len(active)):.3g}, "
            f"attainment={autoscaler.attainment:.3g}"
        )
        if decision == "up":
            warmup = autoscaler.config.warmup_delay
            engine = self._add_engine(ROLE_COLOCATED, now, now + warmup)
            if engine.ready_time > now:
                self.warming.append(engine)
            self._push(engine.ready_time, self._on_engine_ready, engine)
            self._note_scale(now, SCALE_ADD, engine, reason)
            return
        # Scale down: drain the least-loaded *ready* engine, keeping at least
        # one ready engine taking traffic.
        ready = [engine for engine in active if engine.ready_time <= now]
        if len(ready) < 2:
            return
        victim = min(ready, key=lambda e: (e.load, -e.engine_id))
        victim.draining = True
        active.remove(victim)
        self._note_scale(now, SCALE_DRAIN, victim, reason)
        # Queued (unadmitted) requests re-route to the surviving fleet
        # through the same requeue path a crash uses; admitted ones finish
        # where they run.
        self._requeue(victim, now)
        self._kick(victim, now)  # finalizes immediately if already empty

    # --------------------------------------------------------------- result
    def _result(self) -> ClusterResult:
        model, end_time = self.latency_model, self.end_time
        records, failed = self.records, self.failed
        met_under_faults = 0
        for record in records:
            slo = self._slo_for(record)
            if slo is None or slo.met_by(record):
                met_under_faults += 1
        accepted = len(records) + len(failed)
        availability = AvailabilityMetrics(
            **self.counts,
            num_failed=len(failed),
            compile_fallbacks=model.stats.get("fallbacks", 0) - self.fallback_base,
            recovery_times=tuple(self.recovery_times),
            goodput_under_faults_rps=(
                met_under_faults / end_time if end_time > 0 else 0.0
            ),
            goodput_under_faults_fraction=(
                met_under_faults / accepted if accepted else 1.0
            ),
        )
        engine_records = []
        for engine in self.engines:
            lifespan = (
                engine.removed_time if engine.removed_time is not None else end_time
            ) - engine.ready_time
            engine_records.append(
                EngineRecord(
                    engine_id=engine.engine_id,
                    role=engine.role,
                    busy_time=engine.busy_time,
                    num_iterations=engine.iterations,
                    requests_completed=engine.completed,
                    added_time=engine.added_time,
                    ready_time=engine.ready_time,
                    removed_time=engine.removed_time,
                    utilization=(
                        min(1.0, engine.busy_time / lifespan) if lifespan > 0 else 0.0
                    ),
                )
            )
        return ClusterResult(
            trace_name=self.trace.name,
            policy=model.policy,
            records=tuple(records),
            busy_time=sum(record.busy_time for record in engine_records),
            num_iterations=sum(r.num_iterations for r in engine_records),
            compiled_shapes=tuple(model.compiled_shapes()),
            slo=self.slo,
            router=self.router.name,
            engines=tuple(engine_records),
            scale_events=tuple(self.scale_events),
            rejected=tuple(self.rejected),
            failed=tuple(failed),
            num_arrivals=len(self.trace.requests),
            availability=availability,
            tenants=self.tenants,
            store_hits=model.session.stats.store_hits - self.store_base,
        )
