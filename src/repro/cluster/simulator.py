"""The fleet-scale serving simulator: N engines, one trace, one session.

:class:`ClusterSimulator` dispatches one :class:`ArrivalTrace` across a
fleet of :class:`~repro.serve.engine.EngineCore` engines that all share one
:class:`~repro.serve.batching.StepLatencyModel` — and therefore one compile
:class:`~repro.api.Session` — so every bucketed step plan compiles exactly
once fleet-wide no matter how many engines serve it.  Its heapq event loop
is the repo's only one: :class:`~repro.serve.simulator.ServingSimulator`
runs it with one round-robin engine.  Event kinds:

* **arrival** — admission control (per-tenant token buckets), then the
  router picks an engine;
* **step done** — one engine's iteration completes; finished requests are
  recorded, prefill hand-offs are forwarded to the decode pool, and the
  engine starts its next iteration;
* **engine ready** — a scaled-up engine finishes warming (compiling /
  loading its bucket plans) and starts taking traffic;
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

The autoscaler is evaluated after every arrival batch, step completion, and
fault — a crashed engine is capacity pressure like any other, so the fleet
replaces it subject to cooldown.  Request accounting always balances:
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
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

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
    FaultSchedule,
    RetryPolicy,
)
from repro.cluster.router import RouterPolicy, get_router
from repro.cluster.tenancy import AdmissionController, TenantSpec, as_tenant_map
from repro.errors import ConfigurationError, SimulationInvariantError
from repro.serve.batching import (
    PHASE_BOTH,
    PHASE_DECODE,
    PHASE_PREFILL,
    BatchBuckets,
    RequestState,
    StepLatencyModel,
    make_states,
)
from repro.serve.engine import EngineCore
from repro.serve.metrics import RequestRecord, ServingMetrics, SLOSpec, compute_metrics
from repro.serve.simulator import ServingResult
from repro.serve.workload import DIFFUSION, ArrivalTrace, RequestSpec

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import Tracer

_ARRIVAL = 0
_STEP_DONE = 1
_ENGINE_READY = 2
_HANDOFF = 3
_FAULT = 4
_RETRY = 5

#: Engine roles within a fleet.
ROLE_COLOCATED = "colocated"
ROLE_PREFILL = "prefill"
ROLE_DECODE = "decode"

_ROLE_PHASES = {
    ROLE_COLOCATED: PHASE_BOTH,
    ROLE_PREFILL: PHASE_PREFILL,
    ROLE_DECODE: PHASE_DECODE,
}


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
class ClusterResult(ServingResult):
    """Outcome of one fleet-scale serving simulation.

    Extends :class:`~repro.serve.simulator.ServingResult` (whose
    ``busy_time`` / ``num_iterations`` aggregate the whole fleet) with the
    cluster-level story: which router ran, what each engine did, when the
    autoscaler acted, what admission control (or load shedding) rejected,
    what faults destroyed, and how the fleet recovered.  Accounting always
    balances: ``completed + rejected + failed == num_arrivals``.
    """

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
    def fleet_size(self) -> int:
        """Engines that ever served in the run."""
        return len(self.engines)

    @property
    def peak_fleet_size(self) -> int:
        """Largest simultaneously active fleet the autoscaler reached."""
        if not self.scale_events:
            return len(self.engines)
        return max(
            len([e for e in self.engines if e.removed_time is None]),
            max(event.fleet_size for event in self.scale_events),
        )

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

        The four numbers that previously lived only in debug prints:
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
        self.metrics().register_into(registry, f"{prefix}.serving")
        self.availability.register_into(registry, f"{prefix}.availability")
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


@dataclass(eq=False)
class _Engine:
    """Fleet-internal engine bookkeeping (core + lifecycle).

    Routers receive these live objects; the load signals below are the
    :class:`~repro.cluster.router.EngineView` shape, read on demand.
    """

    core: EngineCore
    role: str
    added_time: float
    ready_time: float
    draining: bool = False
    removed_time: float | None = None
    crashed: bool = False
    slow_until: float = 0.0
    slow_factor: float = 1.0

    @property
    def active(self) -> bool:
        return not self.draining and self.removed_time is None

    @property
    def engine_id(self) -> int:
        return self.core.engine_id

    @property
    def queue_depth(self) -> int:
        return self.core.queue_depth

    @property
    def running(self) -> int:
        return self.core.running

    @property
    def in_flight_tokens(self) -> int:
        return self.core.in_flight_tokens()

    @property
    def load(self) -> int:
        return self.core.queue_depth + self.core.running


class ClusterSimulator:
    """Discrete-event simulation of a router-fronted fleet of engines.

    Args:
        latency_model: Bucketed step latencies, shared by every engine in
            the fleet (this is what makes bucket plans compile once
            fleet-wide through the underlying session).
        num_engines: Initial fleet size (colocated mode; ignored when
            ``disaggregation`` is given).
        router: Registered router name or a :class:`RouterPolicy` instance.
        buckets: Shape grid for the engines (defaults to the latency
            model's).
        autoscaler: Enables autoscaling of a colocated fleet
            (incompatible with ``disaggregation``).
        tenants: Per-tenant admission quotas and SLOs.
        disaggregation: Split the fleet into dedicated prefill and decode
            pools with a hand-off queue.
        prewarm: Compile the reachable bucket grid for every (model, kind)
            group in the trace before serving, via one
            :meth:`Session.compile_many` fan-out.
        faults: Fault schedule to inject during the run (``None`` = the
            happy path).  Crashes never remove the last engine able to
            serve a role — such events are skipped.
        retry_policy: Retry/backoff semantics for work a crash destroyed
            (defaults to :class:`RetryPolicy`'s defaults).
        degradation: Graceful-degradation policy shedding arrivals by
            tenant priority under overload (``None`` = never shed).
        tracer: Optional :class:`repro.obs.Tracer` placing scale, crash,
            shed, fault, and retry instants on the ``cluster`` track of the
            same timeline the engines' iteration spans and the requests'
            lifecycle phases render on.
    """

    def __init__(
        self,
        latency_model: StepLatencyModel,
        *,
        num_engines: int = 2,
        router: str | RouterPolicy = "least-loaded",
        buckets: BatchBuckets | None = None,
        autoscaler: AutoscalerConfig | None = None,
        tenants=None,
        disaggregation: DisaggregationConfig | None = None,
        prewarm: bool = False,
        faults: FaultSchedule | None = None,
        retry_policy: RetryPolicy | None = None,
        degradation: DegradationPolicy | None = None,
        tracer: "Tracer | None" = None,
    ) -> None:
        if num_engines < 1:
            raise ConfigurationError("num_engines must be >= 1")
        if autoscaler is not None and disaggregation is not None:
            raise ConfigurationError(
                "autoscaling disaggregated pools is not supported; pick one"
            )
        self.latency_model = latency_model
        self.buckets = buckets or latency_model.buckets
        self.num_engines = num_engines
        self.router = get_router(router) if isinstance(router, str) else router
        if not isinstance(self.router, RouterPolicy):
            raise ConfigurationError(
                f"router must be a name or RouterPolicy, got {self.router!r}"
            )
        self.autoscaler_config = autoscaler
        self.tenants = as_tenant_map(tenants)
        self.disaggregation = disaggregation
        self.prewarm = prewarm
        if faults is not None and not isinstance(faults, FaultSchedule):
            raise ConfigurationError(
                f"faults must be a FaultSchedule or None, got {faults!r}"
            )
        self.faults = faults
        if retry_policy is not None and not isinstance(retry_policy, RetryPolicy):
            raise ConfigurationError(
                f"retry_policy must be a RetryPolicy or None, got {retry_policy!r}"
            )
        self.retry_policy = retry_policy or RetryPolicy()
        if degradation is not None and not isinstance(degradation, DegradationPolicy):
            raise ConfigurationError(
                f"degradation must be a DegradationPolicy or None, "
                f"got {degradation!r}"
            )
        self.degradation = degradation
        self.tracer = tracer

    # ----------------------------------------------------------------- running
    def run(self, trace: ArrivalTrace, slo: SLOSpec | None = None) -> ClusterResult:
        """Serve every admitted request of ``trace``; return the fleet result."""
        if self.prewarm:
            groups = sorted(
                {(spec.model.lower(), spec.kind) for spec in trace.requests}
            )
            self.latency_model.prewarm(groups)

        # Engine ids are list positions: engines join in id order and stay.
        engines: list[_Engine] = []
        sequence = itertools.count()
        heap: list[tuple[float, int, int, object]] = []
        admission = AdmissionController(self.tenants)
        autoscaler = (
            Autoscaler(self.autoscaler_config)
            if self.autoscaler_config is not None
            else None
        )
        records: list[RequestRecord] = []
        rejected: list[RequestSpec] = []
        failed: list[RequestSpec] = []
        scale_events: list[ScaleEvent] = []
        end_time = 0.0
        policy = self.retry_policy
        avail = {
            "crashes": 0,
            "slowdowns": 0,
            "compile_faults": 0,
            "store_corruptions": 0,
            "retries": 0,
            "redispatches": 0,
            "shed": 0,
        }
        # Per applied crash: (crash time, ids of retried requests still
        # owed a completion or failure).  When a set empties, the crash is
        # recovered and its recovery time is recorded.
        crash_watches: list[tuple[float, set[int]]] = []
        recovery_times: list[float] = []
        budget_left = policy.retry_budget  # None = unbounded
        fallback_base = self.latency_model.stats.get("fallbacks", 0)
        store_base = self.latency_model.session.stats.store_hits
        tracer = self.tracer

        def add_engine(role: str, added: float, ready: float) -> _Engine:
            engine = _Engine(
                core=EngineCore(
                    self.latency_model,
                    self.buckets,
                    engine_id=len(engines),
                    phase=_ROLE_PHASES[role],
                    tracer=tracer,
                ),
                role=role,
                added_time=added,
                ready_time=ready,
            )
            engines.append(engine)
            return engine

        def note_scale(event: ScaleEvent) -> None:
            scale_events.append(event)
            if tracer is not None:
                tracer.instant(
                    f"scale-{event.action}",
                    sim_time=event.time,
                    category="cluster",
                    track="cluster",
                    engine=event.engine_id,
                    fleet_size=event.fleet_size,
                    reason=event.reason,
                )

        # Seed the initial fleet, ready at t=0 (prewarmed before traffic).
        if self.disaggregation is not None:
            for _ in range(self.disaggregation.prefill_engines):
                add_engine(ROLE_PREFILL, 0.0, 0.0)
            for _ in range(self.disaggregation.decode_engines):
                add_engine(ROLE_DECODE, 0.0, 0.0)
        else:
            for _ in range(self.num_engines):
                add_engine(ROLE_COLOCATED, 0.0, 0.0)

        for state in make_states(trace):
            heapq.heappush(
                heap, (state.spec.arrival_time, next(sequence), _ARRIVAL, state)
            )
        for fault in self.faults or ():
            heapq.heappush(heap, (fault.time, next(sequence), _FAULT, fault))

        def active_fleet() -> list[_Engine]:
            return [e for e in engines if e.active]

        def role_for(state: RequestState) -> str:
            if self.disaggregation is None:
                return ROLE_COLOCATED
            if state.spec.kind != DIFFUSION and state.prefill_pending:
                return ROLE_PREFILL
            return ROLE_DECODE

        def kick(engine: _Engine, now: float) -> None:
            """Start the engine's next iteration, or finalize a drain."""
            core = engine.core
            if core.busy or engine.removed_time is not None or engine.ready_time > now:
                return
            # A straggler window stretches every iteration *started* inside
            # it; an iteration already in flight when the fault fires
            # finishes at its original latency.
            core.latency_scale = engine.slow_factor if now < engine.slow_until else 1.0
            started = core.start_iteration(now)
            if started is not None:
                batch, latency = started
                heapq.heappush(
                    heap, (now + latency, next(sequence), _STEP_DONE, (engine, batch))
                )
            elif engine.draining and not core.has_work():
                engine.removed_time = now
                note_scale(
                    ScaleEvent(
                        time=now,
                        action=SCALE_REMOVE,
                        engine_id=engine.engine_id,
                        fleet_size=len(active_fleet()),
                        reason="drained empty",
                    )
                )

        def dispatch(state: RequestState, now: float) -> _Engine:
            """Route one request to an engine's wait queue (no kick)."""
            role_needed = role_for(state)
            candidates = [
                e
                for e in engines
                if e.role == role_needed and e.ready_time <= now and e.active
            ]
            if not candidates:
                # Every engine of the pool is still warming: park the
                # request on the earliest-ready active engine.  It cannot
                # happen with a ready initial fleet and drain-guarded
                # scale-downs, but stay deterministic if it does.
                pool = [e for e in active_fleet() if e.role == role_needed]
                if not pool:
                    raise ConfigurationError(
                        f"no active engine can serve role {role_needed!r}"
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
            chosen.core.enqueue(state, now)
            return chosen

        def redispatch(
            states: list[RequestState], now: float
        ) -> dict[int, _Engine]:
            """Re-route requests off a drained or crashed engine.

            The one requeue path both scale-down drains and crashes use:
            states keep their original arrival times (queue-wait metrics
            charge from first arrival, with no double-counting) and are
            routed exactly like fresh arrivals.  Returns the touched
            engines for the caller to kick.
            """
            touched: dict[int, _Engine] = {}
            for state in states:
                engine = dispatch(state, now)
                touched[engine.engine_id] = engine
                avail["redispatches"] += 1
            return touched

        def note_resolved(state: RequestState, now: float) -> None:
            """Settle crash-recovery watches when a lost request resolves."""
            request_id = state.spec.request_id
            for crash_time, pending in crash_watches:
                if request_id in pending:
                    pending.discard(request_id)
                    if not pending:
                        recovery_times.append(now - crash_time)

        def fail_request(state: RequestState, now: float) -> None:
            """Record a request as failed (retry budget exhausted)."""
            failed.append(state.spec)
            note_resolved(state, now)
            if autoscaler is not None:
                autoscaler.observe(False)  # a failure always misses its SLO

        def apply_crash(fault, now: float) -> None:
            nonlocal budget_left
            pool = active_fleet()
            # Never kill the last engine able to serve a role — the fleet
            # (like a real one behind a health-checked load balancer) keeps
            # a minimum of one replica per role.
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
            avail["crashes"] += 1
            note_scale(
                ScaleEvent(
                    time=now,
                    action=SCALE_CRASH,
                    engine_id=victim.engine_id,
                    fleet_size=len(active_fleet()),
                    reason="injected fault",
                )
            )
            # Queued requests lost no work: re-route them immediately, no
            # retry attempt consumed.
            touched = redispatch(victim.core.batcher.drain_waiting(), now)
            # Admitted and in-flight requests lost their progress: retry
            # from scratch after a backoff, or fail when out of budget.
            watch: set[int] = set()
            for state in victim.core.batcher.drain_running():
                out_of_budget = budget_left is not None and budget_left <= 0
                if state.retries + 1 >= policy.max_attempts or out_of_budget:
                    fail_request(state, now)
                    continue
                state.retries += 1
                avail["retries"] += 1
                if budget_left is not None:
                    budget_left -= 1
                delay = policy.backoff_delay(state.retries, state.spec.request_id)
                heapq.heappush(
                    heap, (now + delay, next(sequence), _RETRY, state)
                )
                if tracer is not None:
                    tracer.instant(
                        "retry",
                        sim_time=now,
                        category="cluster",
                        track="cluster",
                        request=state.spec.request_id,
                        attempt=state.retries,
                        backoff=delay,
                    )
                watch.add(state.spec.request_id)
            if watch:
                crash_watches.append((now, watch))
            else:
                recovery_times.append(0.0)  # nothing (left) to re-serve
            for engine in touched.values():
                kick(engine, now)

        def apply_slowdown(fault, now: float) -> None:
            pool = active_fleet()
            if not pool:
                return
            victim = pool[fault.target % len(pool)]
            victim.slow_until = max(victim.slow_until, now + fault.duration)
            victim.slow_factor = fault.factor
            avail["slowdowns"] += 1
            if tracer is not None:
                tracer.instant(
                    "fault-slowdown",
                    sim_time=now,
                    category="cluster",
                    track="cluster",
                    engine=victim.engine_id,
                    factor=fault.factor,
                    duration=fault.duration,
                )

        def apply_corruption(fault) -> None:
            store = self.latency_model.session.store
            if store is not None and store.corrupt_entry(fault.target):
                avail["store_corruptions"] += 1

        def autoscale(now: float) -> None:
            active = active_fleet()
            total_waiting = sum(
                engine.core.queue_depth
                for engine in active
                if engine.ready_time <= now
            )
            decision = autoscaler.decide(now, len(active), total_waiting)
            if decision is None:
                return
            config = self.autoscaler_config
            reason = (
                f"avg_queue={total_waiting / max(1, len(active)):.3g}, "
                f"attainment={autoscaler.attainment:.3g}"
            )
            if decision == "up":
                engine = add_engine(
                    ROLE_COLOCATED, now, now + config.warmup_delay
                )
                heapq.heappush(
                    heap, (engine.ready_time, next(sequence), _ENGINE_READY, engine)
                )
                note_scale(
                    ScaleEvent(
                        time=now,
                        action=SCALE_ADD,
                        engine_id=engine.engine_id,
                        fleet_size=len(active_fleet()),
                        reason=reason,
                    )
                )
                return
            # Scale down: drain the least-loaded *ready* engine, keeping at
            # least one ready engine taking traffic.
            ready = [engine for engine in active if engine.ready_time <= now]
            if len(ready) < 2:
                return
            victim = min(
                ready,
                key=lambda e: (
                    e.core.queue_depth + e.core.running,
                    -e.engine_id,
                ),
            )
            victim.draining = True
            note_scale(
                ScaleEvent(
                    time=now,
                    action=SCALE_DRAIN,
                    engine_id=victim.engine_id,
                    fleet_size=len(active_fleet()),
                    reason=reason,
                )
            )
            # Queued (unadmitted) requests re-route to the surviving fleet
            # through the same requeue path a crash uses; admitted ones
            # finish where they run.
            for engine in redispatch(victim.core.batcher.drain_waiting(), now).values():
                kick(engine, now)
            kick(victim, now)  # finalizes immediately if already empty

        def slo_for_record(record: RequestRecord) -> SLOSpec | None:
            return admission.slo_for(record.spec.tenant) or slo

        while heap:
            now, _, kind, payload = heapq.heappop(heap)
            if kind != _FAULT:
                # Faults alone don't extend the makespan: a crash injected
                # after the last completion destroys nothing and should not
                # stretch utilization or goodput denominators.  The heap
                # pops in time order, so the latest such event wins.
                end_time = now
            if kind == _STEP_DONE:  # the common event first
                engine, batch = payload
                if engine.crashed:
                    # Stale completion: the crash destroyed this iteration's
                    # work and already re-dispatched (or failed) its
                    # requests.
                    continue
                for state in engine.core.complete_iteration(batch, now):
                    if state.finished:
                        record = RequestRecord(
                            spec=state.spec,
                            arrival_time=state.spec.arrival_time,
                            started_time=state.started_time,
                            first_token_time=state.first_token_time,
                            completion_time=state.completion_time,
                        )
                        records.append(record)
                        note_resolved(state, now)
                        if autoscaler is not None:
                            record_slo = slo_for_record(record)
                            autoscaler.observe(
                                record_slo.met_by(record)
                                if record_slo is not None
                                else True
                            )
                    else:
                        # Prefill finished: hand off to the decode pool.
                        delay = self.disaggregation.handoff_delay
                        heapq.heappush(
                            heap, (now + delay, next(sequence), _HANDOFF, state)
                        )
                kick(engine, now)
            elif kind == _ARRIVAL:
                # Drain every arrival with this exact timestamp before
                # kicking engines, so simultaneous requests (offline
                # batches, burst heads) can share the iterations they
                # trigger.
                batch_states = [payload]
                while heap and heap[0][0] == now and heap[0][2] == _ARRIVAL:
                    batch_states.append(heapq.heappop(heap)[3])
                if self.degradation is not None:
                    ready_now = [
                        e for e in active_fleet() if e.ready_time <= now
                    ]
                    avg_queue = sum(
                        e.core.queue_depth for e in ready_now
                    ) / max(1, len(ready_now))
                else:
                    avg_queue = 0.0
                touched: dict[int, _Engine] = {}
                for state in batch_states:
                    if not isinstance(state, RequestState):
                        raise SimulationInvariantError(f"bad arrival {state!r}")
                    if not admission.admit(state.spec.tenant, now):
                        rejected.append(state.spec)
                        continue
                    if self.degradation is not None and self.degradation.should_shed(
                        state.spec.tenant, avg_queue
                    ):
                        # Graceful degradation: shed at the front door by
                        # tenant priority before queues collapse SLOs
                        # fleet-wide.  Shed arrivals count as rejections.
                        rejected.append(state.spec)
                        avail["shed"] += 1
                        if tracer is not None:
                            tracer.instant(
                                "shed",
                                sim_time=now,
                                category="cluster",
                                track="cluster",
                                request=state.spec.request_id,
                                tenant=state.spec.tenant,
                            )
                        continue
                    engine = dispatch(state, now)
                    touched[engine.engine_id] = engine
                for engine in touched.values():
                    kick(engine, now)
            elif kind == _ENGINE_READY:
                # A scaled-up engine just warmed.  Queued requests are not
                # yet admitted into any batch, so the front door rebalances
                # them across the grown fleet in FCFS order — without this,
                # a backlog that triggered the scale-up would stay pinned
                # to the engines it queued on and the new engine would idle.
                pending: list[RequestState] = []
                for other in engines:
                    if other.active and other.ready_time <= now:
                        pending.extend(other.core.batcher.drain_waiting())
                pending.sort(key=lambda s: (s.spec.arrival_time, s.spec.request_id))
                touched = {payload.engine_id: payload}
                for state in pending:
                    chosen = dispatch(state, now)
                    touched[chosen.engine_id] = chosen
                for engine in touched.values():
                    kick(engine, now)
            elif kind == _FAULT:
                fault = payload
                if fault.kind == FAULT_ENGINE_CRASH:
                    apply_crash(fault, now)
                elif fault.kind == FAULT_ENGINE_SLOWDOWN:
                    apply_slowdown(fault, now)
                elif fault.kind == FAULT_COMPILE_FAILURE:
                    self.latency_model.inject_compile_failures(fault.count)
                    avail["compile_faults"] += fault.count
                    if tracer is not None:
                        tracer.instant(
                            "fault-compile-failure",
                            sim_time=now,
                            category="cluster",
                            track="cluster",
                            count=fault.count,
                        )
                else:  # FAULT_STORE_CORRUPTION
                    apply_corruption(fault)
                    if tracer is not None:
                        tracer.instant(
                            "fault-store-corruption",
                            sim_time=now,
                            category="cluster",
                            track="cluster",
                            target=fault.target,
                        )
            elif kind == _RETRY:
                # A crash-lost request returns from its backoff delay and
                # is routed like a fresh arrival (with its progress reset).
                avail["redispatches"] += 1
                kick(dispatch(payload, now), now)
            elif kind == _HANDOFF:
                kick(dispatch(payload, now), now)
                continue  # hand-offs move work within the fleet: no autoscale
            else:
                raise SimulationInvariantError(f"unknown cluster event kind {kind!r}")
            if autoscaler is not None:
                autoscale(now)

        if any(engine.core.has_work() for engine in engines):
            raise SimulationInvariantError(
                "cluster simulation ended with unfinished requests"
            )
        if len(records) + len(rejected) + len(failed) != len(trace.requests):
            raise SimulationInvariantError(
                "request accounting does not balance: "
                f"{len(records)} completed + {len(rejected)} rejected + "
                f"{len(failed)} failed != {len(trace.requests)} arrivals"
            )

        # Injected compile failures that never fired (no cache miss came)
        # must not leak into a later run on the same latency model.
        self.latency_model.disarm_compile_failures()
        met_under_faults = 0
        for record in records:
            record_slo = admission.slo_for(record.spec.tenant) or slo
            if record_slo is None or record_slo.met_by(record):
                met_under_faults += 1
        accepted = len(records) + len(failed)
        availability = AvailabilityMetrics(
            num_crashes=avail["crashes"],
            num_slowdowns=avail["slowdowns"],
            num_compile_faults=avail["compile_faults"],
            num_store_corruptions=avail["store_corruptions"],
            num_retries=avail["retries"],
            num_redispatches=avail["redispatches"],
            num_failed=len(failed),
            num_shed=avail["shed"],
            compile_fallbacks=(
                self.latency_model.stats.get("fallbacks", 0) - fallback_base
            ),
            recovery_times=tuple(recovery_times),
            goodput_under_faults_rps=(
                met_under_faults / end_time if end_time > 0 else 0.0
            ),
            goodput_under_faults_fraction=(
                met_under_faults / accepted if accepted else 1.0
            ),
        )

        engine_records = []
        for engine in engines:
            lifespan = (
                engine.removed_time if engine.removed_time is not None else end_time
            ) - engine.ready_time
            engine_records.append(
                EngineRecord(
                    engine_id=engine.engine_id,
                    role=engine.role,
                    busy_time=engine.core.busy_time,
                    num_iterations=engine.core.iterations,
                    requests_completed=engine.core.completed,
                    added_time=engine.added_time,
                    ready_time=engine.ready_time,
                    removed_time=engine.removed_time,
                    utilization=(
                        min(1.0, engine.core.busy_time / lifespan)
                        if lifespan > 0
                        else 0.0
                    ),
                )
            )

        return ClusterResult(
            trace_name=trace.name,
            policy=self.latency_model.policy,
            records=tuple(records),
            busy_time=sum(record.busy_time for record in engine_records),
            num_iterations=sum(r.num_iterations for r in engine_records),
            compiled_shapes=tuple(self.latency_model.compiled_shapes()),
            slo=slo,
            router=self.router.name,
            engines=tuple(engine_records),
            scale_events=tuple(scale_events),
            rejected=tuple(rejected),
            failed=tuple(failed),
            num_arrivals=len(trace.requests),
            availability=availability,
            tenants=tuple(self.tenants.values()),
            store_hits=(
                self.latency_model.session.stats.store_hits - store_base
            ),
        )

