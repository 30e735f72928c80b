"""Continuous batching: batch-size buckets, compiled step latencies, admission.

A serving engine cannot compile a fresh execution plan for every batch
composition it encounters — production systems compile a small set of
*bucketed* shapes ahead of time and run each iteration on the smallest
bucket that fits.  :class:`BatchBuckets` defines those shapes (batch sizes
and context lengths), :class:`StepLatencyModel` compiles one plan per
(model, phase, bucket) through a shared :class:`repro.api.Session` — so a
rate × policy sweep never recompiles a duplicate (workload, policy, bucket)
request — and reads the per-step latency off the simulation persisted on
each compiled artifact.

:class:`EngineCore` is one serving engine: FCFS admission into a bounded
running set, iteration-boundary scheduling (requests join and leave between
steps, never mid-step), and least-recently-served rotation between
``(tenant, model, kind)`` groups so mixed traffic (e.g. an LLM and a DiT
sharing an engine, or two tenants sharing a model) cannot starve any side.
It also carries the engine's load counters, busy accounting and fleet
lifecycle (warm-up, drain, crash, straggler window).  An engine can run as
one half of a disaggregated fleet: a ``role="prefill"`` engine releases LLM
requests to a hand-off queue the moment their prefill completes, and a
``role="decode"`` engine accepts only requests whose prefill already ran
elsewhere.
"""

from __future__ import annotations

import bisect
import itertools
import threading
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from repro.obs.trace import Tracer

from repro.api.service import CompileRequest, Session
from repro.arch.chip import SystemConfig
from repro.compiler.frontend import WorkloadSpec
from repro.errors import ConfigurationError
from repro.ir.models.registry import DIT_CONFIGS
from repro.serve.workload import DIFFUSION, RequestSpec

#: Engine roles within a fleet: a colocated engine runs both phases with
#: chunked prefill; a disaggregated fleet splits them across dedicated pools.
ROLE_COLOCATED = "colocated"
ROLE_PREFILL = "prefill"
ROLE_DECODE = "decode"
ENGINE_ROLES = (ROLE_COLOCATED, ROLE_PREFILL, ROLE_DECODE)


@dataclass(frozen=True)
class BatchBuckets:
    """The compiled shape grid of a serving engine.

    Attributes:
        batch_sizes: Allowed batch sizes, ascending; a batch of ``n`` runs on
            the smallest bucket ``>= n``.  The largest bucket is also the
            admission cap per model group.
        context_buckets: Allowed context (KV / prompt) lengths, ascending;
            a context of ``c`` tokens compiles at the smallest bucket
            ``>= c`` (the largest bucket if ``c`` exceeds them all).
        prefill_attention_budget: Cap on ``batch_bucket * prompt_bucket**2``
            per prefill pass — the attention-score footprint that dominates
            prefill SRAM.  Larger admissions prefill in chunks (chunked
            prefill), which also keeps every compiled shape within the
            target chip's memory.  The default is sized for the scaled
            test/CI chips; raise it for paper-scale systems.
    """

    batch_sizes: tuple[int, ...] = (1, 2, 4, 8)
    context_buckets: tuple[int, ...] = (256, 512, 1024, 2048)
    prefill_attention_budget: int = 8 * 256 * 256

    def __post_init__(self) -> None:
        for name, values in (
            ("batch_sizes", self.batch_sizes),
            ("context_buckets", self.context_buckets),
        ):
            if not values or any(v < 1 for v in values) or list(values) != sorted(set(values)):
                raise ConfigurationError(
                    f"{name} must be non-empty, positive, strictly ascending"
                )
        if self.prefill_attention_budget < self.context_buckets[0] ** 2:
            raise ConfigurationError(
                "prefill_attention_budget must hold at least one "
                "smallest-bucket prompt"
            )

    @property
    def max_batch(self) -> int:
        """The largest batch bucket (the admission cap)."""
        return self.batch_sizes[-1]

    @cached_property
    def _batch_index(self) -> tuple[int, ...]:
        """``batch_bucket(n)`` at index ``n``, for ``n`` up to ``max_batch``."""
        sizes = self.batch_sizes
        return (0,) + tuple(
            sizes[bisect.bisect_left(sizes, n)] for n in range(1, sizes[-1] + 1)
        )

    def batch_bucket(self, n: int) -> int:
        """Smallest batch bucket holding ``n`` requests."""
        if n < 1:
            raise ConfigurationError("batch size must be >= 1")
        index = self._batch_index
        return index[n] if n < len(index) else self.batch_sizes[-1]

    @cached_property
    def _context_index(self) -> tuple[int, ...]:
        """``context_bucket`` at each ``bisect_left`` position (clamped)."""
        return self.context_buckets + self.context_buckets[-1:]

    def context_bucket(self, tokens: int) -> int:
        """Smallest context bucket holding ``tokens`` (clamped to the largest)."""
        # All buckets are >= 1, so tokens < 1 maps to the first.
        return self._context_index[bisect.bisect_left(self.context_buckets, tokens)]


class StepLatencyModel:
    """Per-step latencies of bucketed execution plans, compiled once each.

    Every distinct (model, phase, batch bucket, context bucket) compiles
    exactly once through the shared session — concurrent engines or a
    rate-sweep over the same session all hit the same cached plans — and the
    latency is the simulated time persisted on the artifact, so fresh,
    store-resolved, and process-backend artifacts agree (plan-less
    ``ideal`` artifacts use the analytic latency).  Lookups of an
    already-compiled shape read the published latencies without the lock;
    only a miss (or a publish) takes it.

    Attributes:
        session: The shared compilation service.
        system: Target system every plan is compiled for.
        policy: Registered compiler policy to plan with.
        buckets: The compiled shape grid.
        num_layers: Layer-count override for the compiled workloads (scaled
            serving studies, matching the rest of the evaluation harness).
        tracer: Optional :class:`repro.obs.Tracer` receiving
            ``compile-fault`` / ``compile-fallback`` instants (compile-stage
            spans come from the shared session's own tracer).
    """

    def __init__(
        self,
        session: Session,
        system: SystemConfig,
        policy: str = "elk-full",
        *,
        buckets: BatchBuckets | None = None,
        num_layers: int | None = 1,
        tracer: "Tracer | None" = None,
    ) -> None:
        self.session = session
        self.system = system
        self.policy = policy.lower()
        self.buckets = buckets or BatchBuckets()
        self.num_layers = num_layers
        self.tracer = tracer
        self._lock = threading.Lock()
        # Guarded by the lock.  Hits bypass it: each is one next() on an
        # itertools.count, atomic under the GIL, and ``stats`` reads the
        # counter with one more next() under the lock, net of earlier reads.
        self._counts = {"compiles": 0, "compile_faults": 0, "fallbacks": 0}
        self._hits = itertools.count()
        self._hit_reads = 0
        self._latencies: dict[tuple, float] = {}
        self._armed_failures = 0

    # ------------------------------------------------------------- public API
    @property
    def stats(self) -> dict[str, int]:
        """``{"compiles", "hits", "compile_faults", "fallbacks"}`` counters.

        They count this model's own latency cache (the session keeps its
        own compile-level counters).  ``compile_faults`` counts injected
        transient failures that fired; ``fallbacks`` counts lookups served
        from the closest already-compiled bucket plan because of one.
        """
        with self._lock:
            hits = next(self._hits) - self._hit_reads
            self._hit_reads += 1
            return dict(self._counts, hits=hits)

    def decode_latency(self, model: str, batch_size: int, context_tokens: int) -> float:
        """Latency of one decode step at the bucketed batch and KV length."""
        buckets = self.buckets  # the hot lookup: bucket both inline
        index = buckets._batch_index
        return self._step_latency(
            model,
            "decode",
            index[batch_size]
            if 0 < batch_size < len(index)
            else buckets.batch_bucket(batch_size),
            buckets._context_index[
                bisect.bisect_left(buckets.context_buckets, context_tokens)
            ],
        )

    def prefill_latency(self, model: str, batch_size: int, prompt_tokens: int) -> float:
        """Latency of one bucketed prefill pass over the admitted prompts."""
        return self._step_latency(
            model,
            "prefill",
            self.buckets.batch_bucket(batch_size),
            self.buckets.context_bucket(prompt_tokens),
        )

    def diffusion_latency(self, model: str, batch_size: int) -> float:
        """Latency of one denoising step at the bucketed image batch."""
        return self._step_latency(
            model, "diffusion", self.buckets.batch_bucket(batch_size), 0
        )

    def compiled_shapes(self) -> list[tuple]:
        """The (model, phase, batch bucket, context bucket) shapes compiled."""
        with self._lock:
            return sorted(self._latencies)

    def inject_compile_failures(self, count: int = 1) -> None:
        """Arm ``count`` transient compile failures (fault injection).

        Each of the next ``count`` latency lookups that *miss* the cache
        fails transiently instead of compiling: the lookup is served from
        the closest already-compiled bucket plan of the same (model, phase)
        — the degraded-but-correct plan a production engine would fall back
        to — and the requested shape stays uncompiled so the next request
        for it retries the compile.  A miss with nothing compiled to fall
        back to retries the compile inline (the fault is transient by
        definition).  Cache hits are unaffected: only fresh compiles can
        fail.
        """
        if count < 1:
            raise ConfigurationError("inject_compile_failures needs count >= 1")
        with self._lock:
            self._armed_failures += count

    def disarm_compile_failures(self) -> int:
        """Drop any armed-but-unfired compile failures; return how many.

        Chaos runs call this when they finish so faults injected for one
        run never leak into a later run sharing the same latency model.
        """
        with self._lock:
            leftover, self._armed_failures = self._armed_failures, 0
            return leftover

    def prewarm(self, groups: Iterable[tuple[str, str]]) -> int:
        """Compile every bucketed shape of ``groups`` up front; return the count.

        ``groups`` are (model, kind) pairs (kind ``"llm"`` or
        ``"diffusion"``).  Every decode and diffusion bucket, and every
        prefill bucket within ``prefill_attention_budget`` (the shapes a
        multi-request pass can use; one over-budget prompt stays lazy), is
        fanned out through :meth:`Session.compile_many` in one batch, with
        the session's worker count and backend —
        deduplicated against everything the shared session (and its
        on-disk store, if any) already holds — then the per-step latencies
        are resolved into this model's cache.  A fleet that prewarms before
        taking traffic compiles each bucket plan exactly once no matter how
        many engines share the session.
        """
        shapes: list[tuple[str, str, int, int]] = []
        for model, kind in groups:
            if kind == DIFFUSION:
                shapes.extend(
                    (model, "diffusion", batch, 0)
                    for batch in self.buckets.batch_sizes
                )
            else:
                budget = self.buckets.prefill_attention_budget
                shapes.extend(
                    (model, phase, batch, context)
                    for phase in ("prefill", "decode")
                    for batch in self.buckets.batch_sizes
                    for context in self.buckets.context_buckets
                    if phase == "decode" or batch * context**2 <= budget
                )
        requests = [
            CompileRequest(self._workload(*shape), self.system, self.policy)
            for shape in shapes
        ]
        self.session.compile_many(requests)
        for shape in shapes:
            self._step_latency(*shape)
        return len(shapes)

    # --------------------------------------------------------------- internal
    def _step_latency(
        self, model: str, phase: str, batch_bucket: int, context_bucket: int
    ) -> float:
        # Published latencies never change, so a hit needs no lock.  A miss
        # follows the same lock-around-publish discipline as Session:
        # concurrent engines sharing this model (the docstring's promise) may
        # race to the same key, and only the first publisher's latency and
        # "compiles" count may land — losers record hits, never duplicate
        # entries.  The winner is decided by key presence, not object
        # identity: racing threads can receive the SAME float object from the
        # session's cached artifact.  Keys hold the lowercased model, which
        # the engines' groups already carry, so a hit needs no lower().
        cached = self._latencies.get((model, phase, batch_bucket, context_bucket))
        if cached is not None:
            next(self._hits)
            return cached
        key = (model.lower(), phase, batch_bucket, context_bucket)
        with self._lock:
            cached = self._latencies.get(key)
            if cached is not None:
                next(self._hits)
                return cached
            if self._armed_failures > 0:
                self._armed_failures -= 1
                self._counts["compile_faults"] += 1
                if self.tracer is not None:
                    self.tracer.instant(
                        "compile-fault",
                        category="compile",
                        track="compile",
                        model=key[0],
                        phase=phase,
                    )
                fallback = self._closest_compiled_locked(key)
                if fallback is not None:
                    # Serve the degraded plan WITHOUT caching it under this
                    # key: the failure is transient, so the next request at
                    # this shape retries the real compile.
                    self._counts["fallbacks"] += 1
                    if self.tracer is not None:
                        self.tracer.instant(
                            "compile-fallback",
                            category="compile",
                            track="compile",
                            model=key[0],
                            phase=phase,
                        )
                    return fallback
                # Nothing compiled to degrade to — retry the compile inline.
        workload = self._workload(model, phase, batch_bucket, context_bucket)
        artifact = self.session.compile(
            CompileRequest(workload, self.system, self.policy)
        )
        simulation = artifact.simulation
        latency = artifact.latency if simulation is None else simulation.total_time
        with self._lock:
            winner = self._latencies.get(key)
            if winner is None:
                self._latencies[key] = latency
                self._counts["compiles"] += 1
                return latency
            next(self._hits)
            return winner

    def _closest_compiled_locked(self, key: tuple) -> float | None:
        """The latency of the nearest compiled shape of the same (model, phase).

        "Nearest" minimizes the (batch, context) bucket distance with a
        deterministic tie-break on the shape itself; returns ``None`` when
        nothing of that (model, phase) has compiled yet.  Caller holds the
        lock.
        """
        model, phase, batch_bucket, context_bucket = key
        candidates = [
            shape
            for shape in self._latencies
            if shape[0] == model and shape[1] == phase
        ]
        if not candidates:
            return None
        best = min(
            candidates,
            key=lambda shape: (
                abs(shape[2] - batch_bucket) + abs(shape[3] - context_bucket),
                shape,
            ),
        )
        return self._latencies[best]

    def _workload(
        self, model: str, phase: str, batch_bucket: int, context_bucket: int
    ) -> WorkloadSpec:
        if phase == "diffusion":
            if model.lower() not in DIT_CONFIGS:
                raise ConfigurationError(
                    f"{model!r} is not a registered diffusion model"
                )
            # The frontend builds DiT graphs regardless of phase; "decode" is
            # the neutral phase label it accepts.
            return WorkloadSpec(
                model,
                batch_size=batch_bucket,
                phase="decode",
                num_layers=self.num_layers,
            )
        return WorkloadSpec(
            model,
            batch_size=batch_bucket,
            seq_len=context_bucket,
            phase=phase,
            num_layers=self.num_layers,
        )


@dataclass
class RequestState:
    """Mutable serving progress of one request.

    Attributes:
        spec: The request.
        started_time: Start of the first iteration the request was scheduled
            into (``None`` until then; admission alone does not set it).
        first_token_time: End of the iteration that produced its first output.
        completion_time: End of the iteration that finished it.
        steps_done: Output units produced so far (tokens / denoise steps).
        retries: Times this request's work was lost (engine crash) and
            re-executed from scratch.  The first attempt is not a retry.
    """

    spec: RequestSpec
    started_time: float | None = None
    first_token_time: float | None = None
    completion_time: float | None = None
    steps_done: int = 0
    retries: int = 0

    def reset_progress(self) -> None:
        """Forget all serving progress (the engine holding it crashed).

        Arrival time and retry count survive — queue-wait metrics keep
        charging from the original arrival, and the retry budget is the
        request's for life — but generated tokens, start, and first-token
        times do not: the work is gone and must be redone.  An LLM request
        becomes prefill-pending again, so a disaggregated fleet routes it
        back through the prefill pool.
        """
        self.started_time = None
        self.first_token_time = None
        self.completion_time = None
        self.steps_done = 0

    @property
    def group(self) -> tuple[str, str, str]:
        """Batching group: requests batch only within the same
        (tenant, model, kind) — tenants never share an iteration, which is
        what makes per-tenant admission control and SLO attribution exact."""
        return (self.spec.tenant, self.spec.model.lower(), self.spec.kind)

    @property
    def prefill_pending(self) -> bool:
        """Whether the request still needs its prefill pass (LLMs only)."""
        return self.spec.kind != DIFFUSION and self.steps_done == 0

    @property
    def context_tokens(self) -> int:
        """Current KV length (prompt plus generated tokens)."""
        return self.spec.prefill_tokens + self.steps_done

    @property
    def finished(self) -> bool:
        return self.completion_time is not None


@dataclass
class Batch:
    """One iteration's worth of work: same-group requests stepping together.

    Attributes:
        group: The (tenant, model, kind) group the batch was formed from.
        requests: The running requests scheduled this iteration.
        prefills: The subset doing their prefill pass this iteration.
        decoding: How many LLM requests are past their prefill (0 for
            diffusion); they share one decode step.
        longest: The longest KV length among them (prompt plus generated
            tokens), which that step compiles at.

    :meth:`EngineCore.form_batch` fills ``prefills``, ``decoding``
    and ``longest`` in its one pass over the members.
    """

    group: tuple[str, str, str]
    requests: list[RequestState]
    prefills: list[RequestState]
    decoding: int
    longest: int


class EngineCore:
    """One continuously-batched serving engine: its queues and its lifecycle.

    Requests wait FCFS; at every iteration boundary the engine admits
    waiting requests into their group's running set (bounded by the largest
    batch bucket per group) and schedules the least-recently-served group
    that has runnable work.  All decisions are deterministic functions of
    the arrival order, so a seeded trace always serves identically.  The
    fleet simulator in :mod:`repro.cluster` — the only event loop — starts
    and completes every engine's iterations, timing them with the shared
    :class:`StepLatencyModel`, and hands the live engines to routers, which
    read them in the :class:`~repro.cluster.router.EngineView` shape; a
    single-engine run is a one-engine fleet.

    Args:
        buckets: The compiled shape grid admission is bounded by (the fleet
            passes its latency model's, so admission caps and compiled
            shapes agree).
        engine_id: Stable identifier within a fleet (0 for solo engines).
        role: ``"colocated"`` (both phases with chunked prefill, the
            default), ``"prefill"`` (dedicated prefill pool: LLM requests
            are released for hand-off the moment their prefill pass
            completes), or ``"decode"`` (dedicated decode pool: only accepts
            requests whose prefill already ran, plus diffusion work, which
            has no prefill).
        added_time: When the engine joined the fleet.
        ready_time: When it finishes warming and may take traffic.
        tracer: Optional :class:`repro.obs.Tracer` receiving request
            lifecycle events: per-request ``queued`` →
            ``prefill``/``decode``/``denoise`` phase spans keyed by (request
            id, retry attempt, phase), plus ``admitted`` / ``done`` /
            ``handoff`` instants.  Phases of an attempt abandoned by an
            engine crash are simply never closed, so the exported trace
            shows only work that really ran.  The fleet loop adds one
            ``iteration`` span per executed iteration on :attr:`track`.

    Attributes:
        waiting: Requests queued but not yet admitted.
        running: Requests admitted and unfinished.
        in_flight_tokens: Output units still owed to waiting and admitted
            requests — the work behind the heads the other two count.
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

    The three load counters are updated by every operation that moves a
    request (:meth:`enqueue`, admission, :meth:`complete_step`,
    :meth:`advance` and the two drains), so a load read costs the same at
    any queue depth.

    A finished step goes through :meth:`complete_step` and then
    :meth:`form_batch`, or through :meth:`advance` when it leaves its batch
    *steady*: a colocated or decode engine with nothing waiting, whose only
    running requests are the batch's, all decoding (an LLM group without
    prefills), none reaching ``output_units`` in this step.  Then nobody is
    released or admitted and the same members run again, so :meth:`advance`
    moves each member's ``steps_done``, the iteration count and ``longest``
    by one in place, and takes the tracer sequence numbers of form_batch's
    no-op decode begins.
    """

    def __init__(
        self,
        buckets: BatchBuckets | None = None,
        *,
        engine_id: int = 0,
        role: str = ROLE_COLOCATED,
        added_time: float = 0.0,
        ready_time: float = 0.0,
        tracer: "Tracer | None" = None,
    ) -> None:
        if role not in ENGINE_ROLES:
            raise ConfigurationError(
                f"unknown engine role {role!r}; expected one of {ENGINE_ROLES}"
            )
        self.buckets = buckets or BatchBuckets()
        self.engine_id = engine_id
        self.role = role
        self.added_time = added_time
        self.ready_time = ready_time
        self.tracer = tracer
        self.track = f"engine/{engine_id}"
        # Per-group FCFS wait queues: requests only compete for admission
        # slots within their own group, and per-group queues keep each
        # iteration's admission work proportional to what is admitted
        # instead of the total queue depth.
        self._waiting: dict[tuple[str, str, str], deque[RequestState]] = {}
        self._running: dict[tuple[str, str, str], list[RequestState]] = {}
        self._last_served: dict[tuple[str, str, str], int] = {}
        self._first_seen: dict[tuple[str, str, str], int] = {}
        self._iteration = 0
        self.waiting = 0
        self.running = 0
        self.in_flight_tokens = 0
        self.busy = False
        self.busy_time = 0.0
        self.iterations = 0
        self.completed = 0
        self.draining = False
        self.removed_time: float | None = None
        self.crashed = False
        self.slow_until = 0.0
        self.slow_factor = 1.0

    # ------------------------------------------------------------------ state
    @property
    def load(self) -> int:
        """Requests the engine currently owns (queued plus running)."""
        return self.waiting + self.running

    def has_work(self) -> bool:
        """Whether any request is waiting or running."""
        return self.waiting > 0 or self.running > 0

    # ------------------------------------------------------------- operations
    def enqueue(self, state: RequestState, now: float | None = None) -> None:
        """Add an arrived request to its group's FCFS wait queue.

        ``now`` stamps the queue-phase span when tracing (defaults to the
        request's arrival time, which is correct for fresh arrivals but not
        for crash requeues or disaggregation hand-offs).
        """
        if self.role == ROLE_PREFILL and state.spec.kind == DIFFUSION:
            raise ConfigurationError(
                "diffusion requests have no prefill pass; route them to a "
                "decode (or colocated) engine"
            )
        if self.role == ROLE_DECODE and state.prefill_pending:
            raise ConfigurationError(
                "a decode-pool engine only accepts requests whose prefill "
                "already ran; route fresh LLM requests to a prefill engine"
            )
        group = state.group
        self._first_seen.setdefault(group, len(self._first_seen))
        self._waiting.setdefault(group, deque()).append(state)
        self.waiting += 1
        self.in_flight_tokens += state.spec.output_units - state.steps_done
        if self.tracer is not None:
            rid = state.spec.request_id
            self.tracer.begin(
                (rid, state.retries, "queued"),
                "queued",
                sim_time=now if now is not None else state.spec.arrival_time,
                category="request",
                track=f"req/{rid}",
                tenant=state.spec.tenant,
            )

    def drain_waiting(self) -> list[RequestState]:
        """Remove and return every not-yet-admitted request.

        Used when an engine drains for scale-down: admitted requests finish
        where they run, but queued ones are re-routed to the surviving
        fleet.  Order is deterministic (group first-seen order, FCFS within
        each group).
        """
        drained: list[RequestState] = []
        for queue in self._waiting.values():
            drained.extend(queue)
            queue.clear()
        self.waiting -= len(drained)
        self.in_flight_tokens -= sum(s.spec.output_units - s.steps_done for s in drained)
        return drained

    def drain_running(self) -> list[RequestState]:
        """Remove and return every admitted, unfinished request — crash path.

        Unlike :meth:`drain_waiting` (a graceful drain, where admitted work
        finishes in place), this models an engine *crash*: admitted and
        in-flight requests lose all progress.  Each returned state has had
        :meth:`RequestState.reset_progress` applied, so the caller can
        re-dispatch it through the router as if freshly arrived (modulo its
        retry count).  Order is deterministic (group first-seen order,
        admission order within each group).
        """
        drained: list[RequestState] = []
        for members in self._running.values():
            drained.extend(members)
            members.clear()
        self.running -= len(drained)
        for state in drained:
            self.in_flight_tokens -= state.spec.output_units - state.steps_done
            state.reset_progress()
        return drained

    def form_batch(self, now: float) -> Batch | None:
        """Admit waiting requests and pick the next iteration's batch.

        Returns ``None`` when nothing is runnable.  Admission is FCFS into
        each request's group until the group holds ``max_batch`` requests;
        the scheduled group is the one served least recently (fresh groups
        tie-break in first-arrival order), so no group starves under mixed
        traffic.
        """
        if self.waiting:
            self._admit(now)
        running = self._running
        if len(running) == 1:  # one group: nothing to rotate between
            [chosen] = running
        else:
            chosen = min(
                (key for key, members in running.items() if members),
                key=lambda key: (
                    self._last_served.get(key, -1),
                    self._first_seen[key],
                ),
                default=None,
            )
        members = running.get(chosen)
        if not members:
            return None
        self._iteration += 1
        self._last_served[chosen] = self._iteration
        members = list(members)
        llm = chosen[2] != DIFFUSION
        tracer = self.tracer
        prefills = []
        decoding = longest = 0
        for state in members:
            # "Started" means first *scheduled* iteration, not admission:
            # a request admitted while another group holds the engine has
            # not started, and its per-step metrics must exclude that wait.
            if state.started_time is None:
                state.started_time = now
            steps = state.steps_done
            if not llm:
                phase = "denoise"
            elif steps:
                phase = "decode"
                decoding += 1
                context = state.spec.prefill_tokens + steps
                if context > longest:
                    longest = context
            else:  # prefill_pending
                phase = "prefill"
                prefills.append(state)
            if tracer is not None:
                # First-publisher-wins begin: the span opens at the first
                # iteration that actually runs this phase and later calls
                # are no-ops, so one begin call per scheduled member covers
                # prefill, decode (including post-hand-off decode on a
                # disaggregated fleet), and denoise alike.
                key = (state.spec.request_id, state.retries, phase)
                if not tracer.skip_open(key):
                    tracer.begin(
                        key,
                        phase,
                        sim_time=now,
                        category="request",
                        track=f"req/{key[0]}",
                        engine=self.engine_id,
                    )
        return Batch(chosen, members, prefills, decoding, longest)

    def advance(self, batch: Batch) -> bool:
        """:meth:`complete_step` and :meth:`form_batch` in one, for a steady
        ``batch`` (see the class docstring); False, changing nothing, if not."""
        requests = batch.requests
        size = len(requests)
        if self.waiting or self.running != size or batch.decoding != size:
            return False
        if self.role == ROLE_PREFILL:
            return False
        for state in requests:
            if state.steps_done + 1 >= state.spec.output_units:
                return False
        for state in requests:
            state.steps_done += 1
        self.in_flight_tokens -= size
        self._iteration += 1
        self._last_served[batch.group] = self._iteration
        batch.longest += 1
        tracer = self.tracer
        if tracer is not None:
            for _ in requests:
                tracer.take()  # form_batch's no-op decode begin
        return True

    def _admit(self, now: float) -> None:
        """FCFS admission from each group's wait queue into its running set."""
        tracer = self.tracer
        max_batch = self.buckets.max_batch
        for key, queue in self._waiting.items():
            group = self._running.setdefault(key, [])
            while queue and len(group) < max_batch:
                state = queue.popleft()
                group.append(state)
                self.waiting -= 1
                self.running += 1
                if tracer is not None:
                    rid = state.spec.request_id
                    tracer.end((rid, state.retries, "queued"), now)
                    tracer.instant(
                        "admitted",
                        sim_time=now,
                        category="request",
                        track=f"req/{rid}",
                        engine=self.engine_id,
                    )

    def complete_step(self, batch: Batch, now: float) -> list[RequestState]:
        """Apply one finished iteration; return the requests it released.

        Every request in the batch produced one output unit (the prefill
        pass also yields the first token).  Released requests leave their
        running set immediately, freeing admission slots for the next
        iteration.  On a colocated or decode engine every
        released request is finished; a prefill engine additionally
        releases unfinished requests whose prefill pass just completed —
        check :attr:`RequestState.finished` to tell hand-offs apart.
        """
        released = []
        tracer = self.tracer
        llm = batch.group[2] != DIFFUSION
        handoff = self.role == ROLE_PREFILL  # every step ends the prefill
        self.in_flight_tokens -= len(batch.requests)
        for state in batch.requests:
            prefilled = llm and state.steps_done == 0
            state.steps_done += 1
            if prefilled:
                state.first_token_time = now
            done = state.steps_done >= state.spec.output_units
            if done:
                state.completion_time = now
                if state.first_token_time is None:
                    state.first_token_time = now
                released.append(state)
            elif handoff:
                released.append(state)  # prefill done: hand off to decode
                self.in_flight_tokens -= state.spec.output_units - state.steps_done
            if tracer is not None and (prefilled or done or handoff):
                rid = state.spec.request_id
                if prefilled:
                    tracer.end((rid, state.retries, "prefill"), now)
                if done:
                    # Only one of these is open; end() ignores the other.
                    tracer.end((rid, state.retries, "decode"), now)
                    tracer.end((rid, state.retries, "denoise"), now)
                    tracer.instant(
                        "done",
                        sim_time=now,
                        category="request",
                        track=f"req/{rid}",
                        engine=self.engine_id,
                    )
                elif handoff:
                    tracer.instant(
                        "handoff",
                        sim_time=now,
                        category="request",
                        track=f"req/{rid}",
                        engine=self.engine_id,
                    )
        if released:
            self.running -= len(released)
            leaving = {id(state) for state in released}
            self._running[batch.group] = [
                s for s in self._running[batch.group] if id(s) not in leaving
            ]
        return released

    def batch_latency(self, batch: Batch, latency_model: StepLatencyModel) -> float:
        """Iteration latency of ``batch`` under ``latency_model``.

        Diffusion groups run one denoising step for the whole batch.  LLM
        groups run a chunked iteration: bucketed prefill passes over the
        newly admitted prompts (split so no pass exceeds the bucket grid's
        prefill token budget) plus one bucketed decode step over the
        requests already generating; the decode context compiles at the
        bucketed maximum KV length in the batch.
        """
        _tenant, model, kind = batch.group
        if kind == DIFFUSION:
            return latency_model.diffusion_latency(model, len(batch.requests))
        latency = 0.0
        for chunk in self._prefill_chunks(batch.prefills) if batch.prefills else ():
            latency += latency_model.prefill_latency(
                model,
                len(chunk),
                max(state.spec.prefill_tokens for state in chunk),
            )
        if batch.decoding:
            latency += latency_model.decode_latency(
                model, batch.decoding, batch.longest
            )
        return latency

    def _prefill_chunks(
        self, prefills: list[RequestState]
    ) -> list[list[RequestState]]:
        """Split admitted prompts into passes within the prefill token budget.

        Greedy in admission order: a request joins the current chunk unless
        the chunk's bucketed token footprint would exceed the budget, in
        which case a new pass starts.  A single oversized prompt still gets
        its own pass (nothing smaller exists to run it as).
        """
        budget = self.buckets.prefill_attention_budget
        chunks: list[list[RequestState]] = []
        current: list[RequestState] = []
        longest = 0
        for state in prefills:
            prompt = state.spec.prefill_tokens
            footprint = (
                self.buckets.batch_bucket(len(current) + 1)
                * self.buckets.context_bucket(max(longest, prompt)) ** 2
            )
            if current and footprint > budget:
                chunks.append(current)
                current, longest = [], 0
            current.append(state)
            longest = max(longest, prompt)
        if current:
            chunks.append(current)
        return chunks


def make_states(specs: Iterable[RequestSpec]) -> list[RequestState]:
    """Fresh mutable states for a trace's request specs."""
    return [RequestState(spec=spec) for spec in specs]
