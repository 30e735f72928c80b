"""The compilation service layer: requests, sessions, batched compilation.

Sweep-shaped workloads dominate this repo: every figure compiles the same
few (workload, system) pairs under many policies, and every policy consumes
the same frontend result and per-operator profiles.  A :class:`Session` turns
that sharing into an explicit service: it memoizes frontend results, operator
profiles (with their allocator's answers), cost models, and whole compile
results keyed by (workload, system, policy, options), and
:meth:`Session.compile_many` fans a batch of :class:`CompileRequest`\\ s
across a thread pool (shared caches) or a process pool (true parallelism for
the GIL-bound compile path).

Cache keys are *structural* (:func:`frozen_key`): equal configurations freeze
to identical nested tuples of primitives, which also makes them stable
across processes — a session given a ``store`` therefore extends its result
cache to a content-addressed on-disk
:class:`~repro.api.store.ArtifactStore`, so sweeps, benchmarks, and CI skip
recompiles across *runs*, not just within one.

>>> session = Session(store="~/.cache/repro/artifacts")
>>> artifact = session.compile("llama2-13b", ipu_pod4(), policy="elk-full")
>>> sweep = session.compile_many(
...     [CompileRequest("llama2-13b", ipu_pod4(), policy=p) for p in POLICIES],
...     backend="process",
... )
"""

from __future__ import annotations

import dataclasses
import pickle
import threading
import time
from concurrent.futures import (
    BrokenExecutor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import TimeoutError as PoolTimeout
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Hashable, Sequence

from repro.api.artifacts import CompileArtifact, save_artifacts
from repro.api.store import ArtifactStore, artifact_digest

if TYPE_CHECKING:
    from repro.obs.trace import Tracer
from repro.arch.chip import ChipConfig, SystemConfig
from repro.baselines.static import StaticOptions
from repro.codegen.generator import generate_device_program
from repro.compiler.frontend import (
    FrontendResult,
    WorkloadSpec,
    build_frontend_result,
)
from repro.compiler.pipeline import ModelCompiler
from repro.cost.model import AnalyticCostModel, CostModel
from repro.errors import CompileFailedError, ConfigurationError
from repro.obs.trace import maybe_span
from repro.partition.enumerate import EnumerationLimits
from repro.scheduler.allocation import MemoryAllocator
from repro.scheduler.elk import ElkOptions
from repro.scheduler.profiles import OperatorProfile, build_operator_profiles


def frozen_key(obj: object) -> Hashable:
    """Canonical hashable key for (possibly nested, mutable) config objects.

    Keys are *structural* — built purely from field names and primitive
    values, with sets and dict items canonically ordered — so two equal
    configurations built independently (even in different processes) always
    freeze identically.  That property is what lets a frozen key address the
    on-disk :class:`~repro.api.store.ArtifactStore`.  Objects this function
    does not understand are rejected rather than falling back to ``repr``:
    a default ``repr`` embeds the object's memory address, which silently
    misses the cache within a process and can never be stable across
    processes.  The sweep harness and journal tooling hash configurations
    with it too, so "equal configs" means one thing across the whole repo.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (type(obj).__qualname__,) + tuple(
            (f.name, frozen_key(getattr(obj, f.name))) for f in dataclasses.fields(obj)
        )
    if isinstance(obj, dict):
        # Sort by the frozen pair's repr: deterministic even for mixed-type
        # keys, which Python's default comparison would refuse to order.
        return tuple(
            sorted(
                ((frozen_key(key), frozen_key(value)) for key, value in obj.items()),
                key=repr,
            )
        )
    if isinstance(obj, (list, tuple)):
        return tuple(frozen_key(value) for value in obj)
    if isinstance(obj, (set, frozenset)):
        return ("set",) + tuple(sorted((frozen_key(value) for value in obj), key=repr))
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise ConfigurationError(
        f"cannot build a stable cache key from {type(obj).__qualname__!r} "
        f"({obj!r}); use dataclasses, dicts, sequences, sets, or primitives"
    )


#: Dispatch backends understood by :meth:`Session.compile_many`.
BACKENDS = ("thread", "process")


def _check_backend(backend: str) -> str:
    backend = backend.lower()
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown compile backend {backend!r}; expected one of {BACKENDS}"
        )
    return backend


def _compile_in_subprocess(
    payload: tuple,
) -> tuple[dict[str, object], dict[str, int]]:
    """Process-pool worker: compile one request in a fresh child session.

    Runs at module level so it pickles by reference.  The child session gets
    the parent's option defaults (so result keys — and store digests — match
    the parent's exactly) and, when the parent has a store, its own handle on
    the same store directory, persisting the artifact where the parent and
    any sibling worker can see it.  The in-memory policy output cannot cross
    the process boundary, so the serialized artifact dict ships back instead,
    alongside the child's stats for the parent's accounting.
    """
    request, elk_options, static_options, cost_model_factory, store_root = payload
    session = Session(
        elk_options=elk_options,
        static_options=static_options,
        cost_model_factory=cost_model_factory,
        store=store_root,
    )
    artifact = session.compile(request)
    return artifact.to_dict(), session.stats.snapshot()


def _as_workload(workload: WorkloadSpec | str) -> WorkloadSpec:
    if isinstance(workload, str):
        return WorkloadSpec(model=workload)
    if isinstance(workload, WorkloadSpec):
        return workload
    raise ConfigurationError(
        f"workload must be a WorkloadSpec or model name, got {workload!r}"
    )


@dataclass(frozen=True)
class CompileRequest:
    """One unit of work for a :class:`Session`.

    Attributes:
        workload: Model + serving configuration (a model name is promoted to
            a default :class:`~repro.compiler.frontend.WorkloadSpec`).
        system: Target multi-chip system.
        policy: Registered compiler policy name.
        elk_options: Per-request Elk knobs (``None`` uses the session's).
        static_options: Per-request Static knobs (``None`` uses the session's).
    """

    workload: WorkloadSpec | str
    system: SystemConfig
    policy: str = "elk-full"
    elk_options: ElkOptions | None = None
    static_options: StaticOptions | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "workload", _as_workload(self.workload))
        if not isinstance(self.system, SystemConfig):
            raise ConfigurationError(f"system {self.system!r} is not a SystemConfig")
        if not isinstance(self.policy, str):
            raise ConfigurationError(f"policy {self.policy!r} is not a policy name")
        object.__setattr__(self, "policy", self.policy.lower())

    @property
    def workload_spec(self) -> WorkloadSpec:
        """The workload as a :class:`WorkloadSpec` (always, post-init)."""
        return self.workload


def _as_request(
    method: str,
    request: CompileRequest | WorkloadSpec | str,
    system: SystemConfig | None,
    policy: str,
    options: dict[str, object],
) -> CompileRequest:
    """``request`` itself, or a :class:`CompileRequest` built from the triple."""
    if isinstance(request, CompileRequest):
        return request
    if system is None:
        raise ConfigurationError(
            f"Session.{method} needs a CompileRequest or (workload, system)"
        )
    return CompileRequest(request, system, policy, **options)


@dataclass
class SessionStats:
    """Cache-effectiveness counters of one :class:`Session`.

    ``*_builds`` and ``compiles`` count real work; ``*_hits`` count cache
    reuse (``result_hits`` from the in-memory result cache, ``store_hits``
    from the on-disk artifact store).  ``store_puts`` counts artifacts this
    session persisted.
    """

    frontend_builds: int = 0
    frontend_hits: int = 0
    profile_builds: int = 0
    profile_hits: int = 0
    compiles: int = 0
    result_hits: int = 0
    store_hits: int = 0
    store_puts: int = 0

    def snapshot(self) -> dict[str, int]:
        """Plain-dict copy for logging."""
        return dataclasses.asdict(self)


class Session:
    """A caching compilation service over the registry-backed pipeline.

    All caches are keyed structurally (by the *values* of the workload,
    system, and option objects), so two equal configurations built
    independently share entries.  The session is thread-safe;
    :meth:`compile_many` relies on that to fan a batch across workers while
    sharing the per-(workload, system) frontend and profile caches.

    Caches grow for the session's lifetime: every compile result (with its
    plan and timeline), frontend result, and profile list (with its
    allocator memo) stays pinned so later requests can hit them.  Serving
    sessions keep a memo nothing asks again (about 2,584 entries, 1.09 MB
    after serve-chat's 10 bucket compiles): releasing it needs a lifecycle
    signal the session does not have, and adding one would be a new knob.
    For very large sweeps, call :meth:`clear` between unrelated phases —
    after :meth:`save`\\ ing any artifacts worth keeping — to return the memory.

    With a ``store``, the session also consults a content-addressed on-disk
    cache between its in-memory dict and a real compile: results land on
    disk as they are compiled and later sessions — including other
    *processes* — resolve equal requests from the store instead of
    recompiling.  Store-resolved artifacts carry metrics, the simulated
    plan latency, stats, and timings but no in-memory plan/frontend
    references (they were deserialized, not compiled).

    Args:
        elk_options: Default Elk knobs for requests that bring none.
        static_options: Default Static knobs.
        cost_model_factory: Builds the cost model for each distinct chip
            (defaults to :class:`~repro.cost.model.AnalyticCostModel`).
        max_workers: Default worker count of :meth:`compile_many`.
        store: Persistent artifact store — an :class:`ArtifactStore`, a
            directory path, or ``None`` (in-memory caching only).
        backend: Default :meth:`compile_many` backend, ``"thread"`` or
            ``"process"``.
        compile_timeout: Seconds to wait for any single process-backend
            compile before treating the worker as hung (``None`` = wait
            forever).  A timed-out request is retried on a fresh pool like
            a worker death.
        compile_retries: Extra attempts granted to a process-backend
            request whose worker died or timed out before a
            :class:`~repro.errors.CompileFailedError` naming the request
            is raised (0 = fail on the first transient error).
        tracer: Optional :class:`repro.obs.Tracer` receiving compile-stage
            and store round-trip spans.  Mutable (``session.tracer = ...``),
            so a long-lived session can be traced per run.  Spans cover the
            serial compile path; ``compile_many`` worker pools emit no spans
            (process children) or interleave nondeterministically (threads).
    """

    def __init__(
        self,
        elk_options: ElkOptions | None = None,
        static_options: StaticOptions | None = None,
        cost_model_factory: Callable[[ChipConfig], CostModel] = AnalyticCostModel,
        max_workers: int | None = None,
        store: ArtifactStore | str | None = None,
        backend: str = "thread",
        compile_timeout: float | None = None,
        compile_retries: int = 1,
        tracer: "Tracer | None" = None,
    ) -> None:
        self.elk_options = elk_options or ElkOptions()
        self.static_options = static_options or StaticOptions()
        self.cost_model_factory = cost_model_factory
        self.max_workers = max_workers
        if isinstance(store, str):
            store = ArtifactStore(store)
        self.store = store
        self.backend = _check_backend(backend)
        if compile_timeout is not None and compile_timeout <= 0:
            raise ConfigurationError("compile_timeout must be positive (or None)")
        if compile_retries < 0:
            raise ConfigurationError("compile_retries must be >= 0")
        self.compile_timeout = compile_timeout
        self.compile_retries = compile_retries
        self.tracer = tracer
        self.stats = SessionStats()
        self._lock = threading.Lock()
        self._frontends: dict[Hashable, FrontendResult] = {}
        self._profiles: dict[Hashable, tuple[list[OperatorProfile], MemoryAllocator]] = {}
        self._cost_models: dict[Hashable, CostModel] = {}
        self._results: dict[Hashable, CompileArtifact] = {}

    # -------------------------------------------------------------- requests
    def _effective_elk(self, request: CompileRequest) -> ElkOptions:
        return request.elk_options or self.elk_options

    def _effective_static(self, request: CompileRequest) -> StaticOptions:
        return request.static_options or self.static_options

    def _result_key(self, request: CompileRequest) -> Hashable:
        return (
            frozen_key(request.workload_spec),
            frozen_key(request.system),
            request.policy,
            frozen_key(self._effective_elk(request)),
            frozen_key(self._effective_static(request)),
        )

    def _profile_key(
        self, workload: WorkloadSpec, system: SystemConfig, limits: EnumerationLimits
    ) -> Hashable:
        return (frozen_key(workload), frozen_key(system), frozen_key(limits))

    # ------------------------------------------------------- shared artifacts
    def cost_model(self, chip: ChipConfig) -> CostModel:
        """The (cached) cost model of ``chip``."""
        key = frozen_key(chip)
        with self._lock:
            cached = self._cost_models.get(key)
        if cached is not None:
            return cached
        built = self.cost_model_factory(chip)
        with self._lock:
            return self._cost_models.setdefault(key, built)

    def frontend(
        self, workload: WorkloadSpec | str, system: SystemConfig
    ) -> FrontendResult:
        """The (cached) frontend result of a workload on a system."""
        workload = _as_workload(workload)
        key = (frozen_key(workload), frozen_key(system))
        with self._lock:
            cached = self._frontends.get(key)
            if cached is not None:
                self.stats.frontend_hits += 1
                return cached
        with maybe_span(
            self.tracer,
            "frontend",
            category="compile",
            model=workload.model_name,
            system=system.name,
        ):
            built = build_frontend_result(workload, system)
        with self._lock:
            winner = self._frontends.setdefault(key, built)
            if winner is built:
                self.stats.frontend_builds += 1
        return winner

    def profiles(
        self,
        workload: WorkloadSpec | str,
        system: SystemConfig,
        enumeration: EnumerationLimits | None = None,
    ) -> list[OperatorProfile]:
        """The (cached) per-operator planning profiles of a workload."""
        return self._planning(workload, system, enumeration)[0]

    def _planning(
        self,
        workload: WorkloadSpec | str,
        system: SystemConfig,
        enumeration: EnumerationLimits | None,
    ) -> tuple[list[OperatorProfile], MemoryAllocator]:
        """The (cached) profiles and the allocator whose memo lives with them."""
        workload = _as_workload(workload)
        limits = enumeration or self.elk_options.enumeration
        key = self._profile_key(workload, system, limits)
        with self._lock:
            cached = self._profiles.get(key)
            if cached is not None:
                self.stats.profile_hits += 1
                return cached
        frontend = self.frontend(workload, system)
        chip = system.chip
        with maybe_span(
            self.tracer,
            "partition-enumeration",
            category="compile",
            model=workload.model_name,
        ) as attrs:
            profiles = build_operator_profiles(
                frontend.per_chip_graph, chip, self.cost_model(chip), limits
            )
            attrs["num_profiles"] = len(profiles)
        allocator = MemoryAllocator(
            self.cost_model(chip), chip.per_core_usable_sram, chip.core.link_bandwidth
        )
        built = (profiles, allocator)
        with self._lock:
            winner = self._profiles.setdefault(key, built)
            if winner is built:
                self.stats.profile_builds += 1
        return winner

    # ---------------------------------------------------------------- compile
    def compiler(self, request: CompileRequest) -> ModelCompiler:
        """A :class:`ModelCompiler` holding this session's cached inputs.

        The frontend result, the operator profiles (with the allocator whose
        memo every policy compiled from them shares) and the cost model come
        from :meth:`frontend`, :meth:`profiles` and :meth:`cost_model`; the
        session is the only place that builds them.
        """
        elk = self._effective_elk(request)
        workload = request.workload_spec
        profiles, allocator = self._planning(workload, request.system, elk.enumeration)
        return ModelCompiler(
            workload,
            request.system,
            cost_model=self.cost_model(request.system.chip),
            elk_options=elk,
            static_options=self._effective_static(request),
            frontend=self.frontend(workload, request.system),
            profiles=profiles,
            allocator=allocator,
            tracer=self.tracer,
        )

    def _lookup(self, key: Hashable) -> CompileArtifact | None:
        """Resolve ``key`` from the in-memory cache, then the store.

        Store hits are pinned into the in-memory cache so repeated requests
        within this session stop touching the disk.
        """
        with self._lock:
            cached = self._results.get(key)
            if cached is not None:
                self.stats.result_hits += 1
                return cached
        if self.store is None:
            return None
        with maybe_span(
            self.tracer, "store.get", category="store", track="store"
        ) as attrs:
            stored = self.store.get(artifact_digest(key))
            attrs["hit"] = stored is not None
        if stored is None:
            return None
        with self._lock:
            winner = self._results.setdefault(key, stored)
            if winner is stored:
                self.stats.store_hits += 1
            else:
                self.stats.result_hits += 1
        return winner

    def cached(
        self,
        request: CompileRequest | WorkloadSpec | str,
        system: SystemConfig | None = None,
        policy: str = "elk-full",
        **options,
    ) -> CompileArtifact | None:
        """Resolve a request from the caches *without* compiling.

        Returns the artifact if the in-memory cache or the on-disk store
        already holds it, ``None`` otherwise.  This is the peek fleet-level
        tooling uses to assert "every bucket plan this fleet served was
        compiled exactly once" — the lookup counts as a cache hit in
        :attr:`stats` but never triggers work.
        """
        request = _as_request("cached", request, system, policy, options)
        return self._lookup(self._result_key(request))

    def compile(
        self,
        request: CompileRequest | WorkloadSpec | str,
        system: SystemConfig | None = None,
        policy: str = "elk-full",
        **options,
    ) -> CompileArtifact:
        """Compile one request, reusing every cached artifact that applies.

        Accepts either a prepared :class:`CompileRequest` or the
        ``(workload, system, policy)`` triple directly.  Resolution order:
        the in-memory result cache, then the on-disk store (if any), then a
        real compile — whose artifact is persisted to the store for future
        sessions and processes.

        With a tracer attached, a real compile also lowers its plan through
        :func:`generate_device_program` and discards the program, so the
        trace shows what lowering costs; the same-seed trace bytes and the
        perf journal's span count include that ``codegen`` span.  The pass
        only reads the plan, so traced and untraced compiles return equal
        artifacts.
        """
        request = _as_request("compile", request, system, policy, options)
        key = self._result_key(request)
        cached = self._lookup(key)
        if cached is not None:
            return cached
        tracer = self.tracer
        with maybe_span(
            tracer,
            "session.compile",
            category="compile",
            model=request.workload_spec.model_name,
            policy=request.policy,
        ):
            started = time.perf_counter()
            compiler = self.compiler(request)
            output = compiler.compile(request.policy)
            elapsed = time.perf_counter() - started
            if tracer is not None and output.plan is not None:
                generate_device_program(output.plan, tracer)
        artifact = CompileArtifact.from_output(
            output, compiler, request.policy, compile_seconds=elapsed
        )
        with self._lock:
            winner = self._results.setdefault(key, artifact)
            fresh = winner is artifact
            if fresh:
                self.stats.compiles += 1
        if fresh and self.store is not None:
            with maybe_span(tracer, "store.put", category="store", track="store"):
                self.store.put(artifact_digest(key), artifact)
            with self._lock:
                self.stats.store_puts += 1
        return winner

    def compile_many(
        self,
        requests: Sequence[CompileRequest],
        max_workers: int | None = None,
        backend: str | None = None,
    ) -> list[CompileArtifact]:
        """Compile a batch of requests through the shared caches.

        Duplicate requests are compiled once and anything already resolvable
        from the in-memory cache or the store is never dispatched, so a
        multi-policy sweep does the minimum work; results come back in
        request order and match sequential :meth:`compile` calls exactly.

        Backends (``backend`` overrides the session default):

        * ``"thread"`` — the frontend / profile caches are warmed once per
          distinct (workload, system, enumeration) and distinct requests run
          on a thread pool.  The compile path is GIL-bound pure Python, so
          threads share caches but do not parallelize the scheduling work.
        * ``"process"`` — distinct requests compile in child processes (one
          fresh session each, sharing the parent's option defaults and
          store), which *does* parallelize the GIL-bound compile path.  The
          artifacts ship back serialized, so — like store hits — they carry
          their simulation but no in-memory plan/frontend references;
          requires a picklable ``cost_model_factory``.
        """
        backend = _check_backend(backend) if backend is not None else self.backend
        requests = list(requests)
        for request in requests:
            if not isinstance(request, CompileRequest):
                raise ConfigurationError(
                    f"compile_many expects CompileRequests, got {request!r}"
                )
        keys: list[Hashable] = []
        compiled: dict[Hashable, CompileArtifact] = {}
        pending: dict[Hashable, CompileRequest] = {}
        for request in requests:
            key = self._result_key(request)
            keys.append(key)
            if key in compiled or key in pending:
                continue
            cached = self._lookup(key)
            if cached is not None:
                compiled[key] = cached
            else:
                pending[key] = request
        workers = max_workers if max_workers is not None else self.max_workers
        if workers is None:
            workers = min(4, len(pending)) or 1
        if backend == "process" and pending:
            compiled.update(self._compile_in_processes(pending, workers))
        elif pending:
            warmed: set[Hashable] = set()
            for request in pending.values():
                elk = self._effective_elk(request)
                profile_key = self._profile_key(
                    request.workload_spec, request.system, elk.enumeration
                )
                if profile_key not in warmed:
                    warmed.add(profile_key)
                    self.profiles(
                        request.workload_spec, request.system, elk.enumeration
                    )
            if workers <= 1 or len(pending) <= 1:
                compiled.update(
                    (key, self.compile(request)) for key, request in pending.items()
                )
            else:
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    compiled.update(
                        zip(pending, pool.map(self.compile, pending.values()))
                    )
        return [compiled[key] for key in keys]

    def _compile_in_processes(
        self, pending: dict[Hashable, CompileRequest], workers: int
    ) -> dict[Hashable, CompileArtifact]:
        """Fan ``pending`` across a process pool; merge results and stats.

        Worker death (``BrokenProcessPool``) and per-request timeouts are
        *transient* failures: the poisoned executor is replaced and the
        affected requests retry on the fresh pool, up to
        ``compile_retries`` extra attempts each, after which a
        :class:`~repro.errors.CompileFailedError` naming the offending
        request is raised — never a raw ``concurrent.futures`` traceback.
        Real compile errors raised *inside* a healthy worker (e.g. a
        :class:`ConfigurationError`) propagate unchanged and unretried.
        """
        try:
            pickle.dumps(self.cost_model_factory)
        except Exception as error:
            raise ConfigurationError(
                "compile_many(backend='process') needs a picklable "
                "cost_model_factory (module-level class or function); "
                f"cannot ship {self.cost_model_factory!r} to workers"
            ) from error
        store_root = self.store.root if self.store is not None else None

        def payload_for(request: CompileRequest) -> tuple:
            return (
                request,
                self.elk_options,
                self.static_options,
                self.cost_model_factory,
                store_root,
            )

        compiled: dict[Hashable, CompileArtifact] = {}
        remaining = dict(pending)
        attempts = dict.fromkeys(pending, 0)
        pool = ProcessPoolExecutor(max_workers=max(1, workers))
        try:
            while remaining:
                futures = {
                    key: pool.submit(_compile_in_subprocess, payload_for(request))
                    for key, request in remaining.items()
                }
                retry: dict[Hashable, CompileRequest] = {}
                for key, future in futures.items():
                    request = remaining[key]
                    try:
                        data, child_stats = future.result(
                            timeout=self.compile_timeout
                        )
                    except (BrokenExecutor, PoolTimeout, TimeoutError) as error:
                        attempts[key] += 1
                        if attempts[key] > self.compile_retries:
                            workload = request.workload_spec
                            raise CompileFailedError(
                                f"process-backend compile of "
                                f"{workload.model!r} (policy "
                                f"{request.policy!r}) failed after "
                                f"{attempts[key]} attempt(s): "
                                f"{type(error).__name__}: {error or 'worker died'}",
                                request=request,
                            ) from error
                        retry[key] = request
                        continue
                    artifact = CompileArtifact.from_dict(data)
                    with self._lock:
                        winner = self._results.setdefault(key, artifact)
                        if winner is artifact:
                            # Attribute the child's work to this session: a
                            # real compile (persisted by the child when a
                            # store is wired) or the child's own store hit.
                            if child_stats.get("store_hits"):
                                self.stats.store_hits += 1
                            else:
                                self.stats.compiles += 1
                                self.stats.store_puts += child_stats.get(
                                    "store_puts", 0
                                )
                    compiled[key] = winner
                if retry:
                    # A dead (or hung) worker poisons the whole executor;
                    # survivors' futures fail alongside the culprit's.
                    # Replace the pool and retry everything unresolved.
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = ProcessPoolExecutor(max_workers=max(1, workers))
                remaining = retry
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        return compiled

    # ------------------------------------------------------------ persistence
    def artifacts(self) -> list[CompileArtifact]:
        """Every compile artifact currently cached, in insertion order."""
        with self._lock:
            return list(self._results.values())

    def save(self, path: str) -> str:
        """Persist every cached artifact to ``path`` (JSON batch file)."""
        return save_artifacts(self.artifacts(), path)

    def clear(self) -> None:
        """Drop every cache and reset the counters."""
        with self._lock:
            self._frontends.clear()
            self._profiles.clear()
            self._cost_models.clear()
            self._results.clear()
            self.stats = SessionStats()
