"""Seeded fault injection and the recovery vocabulary of a resilient fleet.

A production fleet is defined by how it behaves under failure, so this
module gives the cluster simulator a *deterministic* failure model, mirroring
how :mod:`repro.serve.workload` models traffic:

* :class:`FaultEvent` — one typed fault at one simulation time: an engine
  crash (in-flight and queued work is lost and must be re-dispatched), an
  engine slowdown (a straggler: every iteration stretches by a latency
  multiplier over a window), a transient compile failure (the next bucket
  compile raises and the engine must fall back to an already-compiled plan),
  or artifact-store corruption (an on-disk cache entry is truncated, forcing
  the evict-and-recompile path).
* :class:`FaultSchedule` — an ordered sequence of fault events with JSON
  save/replay (:func:`save_fault_schedule` / :func:`replay_fault_schedule`)
  and a seeded Poisson generator (:func:`random_faults`), so a chaos study
  captured once re-runs bit-for-bit.
* :class:`RetryPolicy` — what happens to work a crash destroyed: bounded
  attempts, exponential backoff with *deterministic* jitter (keyed by
  request id and attempt, never by wall clock), and an optional fleet-wide
  retry budget.
* :class:`DegradationPolicy` — graceful degradation under sustained overload
  or a shrinking fleet: arrivals are shed by tenant priority (lowest first,
  escalating with overload depth) before SLO attainment collapses fleet-wide.
* :class:`AvailabilityMetrics` — the under-faults story a
  :class:`~repro.cluster.simulator.ClusterResult` reports: crashes, retries,
  re-dispatches, failed/shed requests, per-crash recovery time, and goodput
  under faults.

Everything is a pure function of the schedule, the seed, and the
configuration: two runs with the same inputs produce identical metrics.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import asdict, dataclass
from typing import Mapping

from repro.errors import ConfigurationError
from repro.jsonfile import check_schema, read_json, write_json

#: Bumped whenever the serialized fault-schedule layout changes incompatibly.
FAULT_SCHEMA_VERSION = 1

#: Fault kinds understood by the cluster simulator.
FAULT_ENGINE_CRASH = "engine-crash"
FAULT_ENGINE_SLOWDOWN = "engine-slowdown"
FAULT_COMPILE_FAILURE = "compile-failure"
FAULT_STORE_CORRUPTION = "store-corruption"
FAULT_KINDS = (
    FAULT_ENGINE_CRASH,
    FAULT_ENGINE_SLOWDOWN,
    FAULT_COMPILE_FAILURE,
    FAULT_STORE_CORRUPTION,
)


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault at one simulation time.

    Attributes:
        time: Simulation time the fault fires, seconds from the trace start.
        kind: One of :data:`FAULT_KINDS`.
        target: Deterministic victim selector.  For engine faults it indexes
            the eligible engines (sorted by id) modulo their count at fault
            time; for store corruption it indexes the store's entries.  The
            indirection is what keeps a schedule replayable against fleets
            whose engine ids differ run to run (autoscaling).
        duration: Slowdown window length, seconds (slowdown faults only).
        factor: Iteration-latency multiplier while slowed (slowdown only).
        count: Consecutive bucket compiles to fail (compile-failure only).
    """

    time: float
    kind: str
    target: int = 0
    duration: float = 0.0
    factor: float = 1.0
    count: int = 1

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ConfigurationError("fault time must be non-negative")
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.target < 0:
            raise ConfigurationError("fault target must be non-negative")
        if self.kind == FAULT_ENGINE_SLOWDOWN:
            if self.duration <= 0:
                raise ConfigurationError("a slowdown needs a positive duration")
            if self.factor <= 1.0:
                raise ConfigurationError(
                    "a slowdown factor must exceed 1.0 (it stretches latency)"
                )
        if self.count < 1:
            raise ConfigurationError("count must be >= 1")


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered sequence of fault events, the unit a chaos run consumes.

    Attributes:
        name: Human-readable label (generator or scenario name).
        events: Events in non-decreasing time order.
    """

    name: str
    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        times = [event.time for event in self.events]
        if any(b < a for a, b in zip(times, times[1:])):
            raise ConfigurationError("fault events must be in time order")

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def by_kind(self) -> dict[str, int]:
        """``{kind: count}`` over the schedule (for reports)."""
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    # ---------------------------------------------------------- serialization
    def to_dict(self) -> dict[str, object]:
        """Serializable dictionary for JSON replay files."""
        return {
            "schema_version": FAULT_SCHEMA_VERSION,
            "name": self.name,
            "events": [asdict(event) for event in self.events],
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "FaultSchedule":
        """Rebuild a schedule from :meth:`to_dict` output."""
        check_schema(data, FAULT_SCHEMA_VERSION, "fault schedule")
        try:
            events = tuple(FaultEvent(**entry) for entry in data.get("events", []))
            return cls(name=str(data.get("name", "replay")), events=events)
        except TypeError as error:
            raise ConfigurationError(f"corrupt fault record: {error}") from None


def save_fault_schedule(schedule: FaultSchedule, path: str) -> str:
    """Persist a schedule as a JSON replay file; return the path written."""
    return write_json(path, schedule.to_dict(), indent=2, sort_keys=True)


def replay_fault_schedule(path: str) -> FaultSchedule:
    """Load a schedule saved by :func:`save_fault_schedule`.

    Missing files, malformed JSON, and structurally wrong documents all raise
    :class:`ConfigurationError`, mirroring :func:`~repro.serve.workload.replay_trace`.
    """
    data = read_json(path, "fault schedule")
    if not isinstance(data, dict) or "events" not in data:
        raise ConfigurationError(f"{path} is not a fault-schedule file")
    return FaultSchedule.from_dict(data)


def random_faults(
    duration: float,
    *,
    crash_rate: float = 0.0,
    slowdown_rate: float = 0.0,
    compile_failure_rate: float = 0.0,
    store_corruption_rate: float = 0.0,
    slowdown_duration: float = 0.05,
    slowdown_factor: float = 4.0,
    seed: int = 0,
    name: str = "random-faults",
) -> FaultSchedule:
    """Seeded Poisson fault arrivals over ``duration`` seconds.

    Each fault family is an independent Poisson process at its own rate
    (faults/second); targets are drawn uniformly so a replayed schedule
    picks the same victims.  Identical arguments always produce identical
    schedules — the chaos counterpart of :func:`~repro.serve.workload.poisson_trace`.
    """
    if duration <= 0:
        raise ConfigurationError("duration must be positive")
    rates = {
        FAULT_ENGINE_CRASH: crash_rate,
        FAULT_ENGINE_SLOWDOWN: slowdown_rate,
        FAULT_COMPILE_FAILURE: compile_failure_rate,
        FAULT_STORE_CORRUPTION: store_corruption_rate,
    }
    if any(rate < 0 for rate in rates.values()):
        raise ConfigurationError("fault rates must be non-negative")
    rng = random.Random(seed)
    events: list[FaultEvent] = []
    for kind, rate in rates.items():  # insertion order: deterministic
        if rate <= 0:
            continue
        clock = 0.0
        while True:
            clock += rng.expovariate(rate)
            if clock >= duration:
                break
            extra = (
                dict(duration=slowdown_duration, factor=slowdown_factor)
                if kind == FAULT_ENGINE_SLOWDOWN
                else {}
            )
            events.append(
                FaultEvent(
                    time=clock, kind=kind, target=rng.randrange(1 << 16), **extra
                )
            )
    events.sort(key=lambda event: (event.time, FAULT_KINDS.index(event.kind)))
    return FaultSchedule(name=name, events=tuple(events))


# --------------------------------------------------------------------------- #
# Recovery semantics.
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff for work a crash destroyed.

    Attributes:
        max_attempts: Execution attempts per request (1 = no retries; the
            first attempt counts).  A request whose work is lost with no
            attempts left is recorded as *failed*, never silently dropped.
        base_backoff: Delay before the first retry, seconds.
        backoff_multiplier: Growth factor per subsequent retry.
        max_backoff: Ceiling on any single backoff delay, seconds.
        jitter: Fractional jitter added to each delay (0 disables).  Jitter
            is *deterministic* — derived from the request id and attempt
            number, never from wall clock or global RNG state — so chaos
            runs stay bit-reproducible.
        retry_budget: Optional fleet-wide cap on total retries across a run;
            once spent, further lost work fails immediately.  This is the
            overload valve: a crash storm cannot multiply traffic without
            bound.
    """

    max_attempts: int = 3
    base_backoff: float = 0.01
    backoff_multiplier: float = 2.0
    max_backoff: float = 1.0
    jitter: float = 0.1
    retry_budget: int | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.base_backoff < 0 or self.max_backoff < self.base_backoff:
            raise ConfigurationError(
                "need 0 <= base_backoff <= max_backoff"
            )
        if self.backoff_multiplier < 1.0:
            raise ConfigurationError("backoff_multiplier must be >= 1.0")
        if not (0.0 <= self.jitter <= 1.0):
            raise ConfigurationError("jitter must be in [0, 1]")
        if self.retry_budget is not None and self.retry_budget < 0:
            raise ConfigurationError("retry_budget must be >= 0 (or None)")

    def backoff_delay(self, attempt: int, request_id: int) -> float:
        """Delay before retry number ``attempt`` (1-based) of ``request_id``.

        Exponential in the attempt, capped at ``max_backoff``, with
        deterministic jitter keyed on (request id, attempt) via CRC32 — the
        same request retries after the same delay in every run, but two
        requests crashed together do not thunder back in lockstep.
        """
        if attempt < 1:
            raise ConfigurationError("attempt must be >= 1")
        delay = min(
            self.max_backoff,
            self.base_backoff * self.backoff_multiplier ** (attempt - 1),
        )
        if self.jitter > 0:
            digest = zlib.crc32(f"{request_id}:{attempt}".encode("utf-8"))
            delay *= 1.0 + self.jitter * (digest % 1000) / 999.0
        return delay


@dataclass(frozen=True)
class DegradationPolicy:
    """Graceful degradation: shed arrivals by tenant priority under overload.

    When the fleet's average queue depth per ready engine crosses
    ``queue_depth_per_engine``, the front door starts rejecting arrivals
    from the lowest-priority tenants; each further multiple of the
    threshold escalates the cutoff one priority level, so deepening
    overload sheds progressively more important traffic while the highest
    priorities keep their SLOs.  Shedding a shrinking fleet's excess load
    early is what keeps goodput from collapsing for everyone at once.

    Attributes:
        queue_depth_per_engine: Average waiting requests per ready engine at
            which shedding begins.
        priorities: ``(tenant, priority)`` pairs; higher priority sheds
            later.  Tenants not listed get ``default_priority``.
        default_priority: Priority of unlisted tenants.
    """

    queue_depth_per_engine: float = 8.0
    priorities: tuple[tuple[str, int], ...] = ()
    default_priority: int = 1

    def __post_init__(self) -> None:
        if self.queue_depth_per_engine <= 0:
            raise ConfigurationError("queue_depth_per_engine must be positive")
        seen = set()
        for entry in self.priorities:
            tenant, priority = entry
            if not tenant or not isinstance(tenant, str):
                raise ConfigurationError("tenant names must be non-empty strings")
            if tenant in seen:
                raise ConfigurationError(f"duplicate tenant priority {tenant!r}")
            seen.add(tenant)

    @classmethod
    def from_mapping(
        cls, priorities: Mapping[str, int], **kwargs
    ) -> "DegradationPolicy":
        """Build from a ``{tenant: priority}`` mapping (sorted for determinism)."""
        return cls(priorities=tuple(sorted(priorities.items())), **kwargs)

    def priority_of(self, tenant: str) -> int:
        """The shedding priority of ``tenant``."""
        for name, priority in self.priorities:
            if name == tenant:
                return priority
        return self.default_priority

    def overload_level(self, avg_queue_depth: float) -> int:
        """How many threshold multiples deep the overload is (0 = healthy)."""
        if avg_queue_depth < self.queue_depth_per_engine:
            return 0
        return int(avg_queue_depth // self.queue_depth_per_engine)

    def should_shed(self, tenant: str, avg_queue_depth: float) -> bool:
        """Whether an arrival from ``tenant`` is shed at this queue depth."""
        return self.priority_of(tenant) < self.overload_level(avg_queue_depth)


@dataclass(frozen=True)
class AvailabilityMetrics:
    """The under-faults story of one cluster run.

    Request accounting always balances: every arrival is completed,
    rejected (admission quota or load shedding), or failed (retries
    exhausted) — nothing is silently dropped.

    Attributes:
        num_crashes: Engine crashes injected (and actually applied).
        num_slowdowns: Slowdown windows injected.
        num_compile_faults: Transient compile failures injected.
        num_store_corruptions: Artifact-store entries corrupted.
        num_retries: Lost-work re-executions scheduled (with backoff).
        num_redispatches: Requests re-routed to a surviving engine for any
            reason (crash or drain), including queued requests whose work
            was never started.
        num_failed: Requests that exhausted their retry budget and were
            recorded as failed.
        num_shed: Arrivals rejected by the degradation policy (a subset of
            the run's rejected requests).
        compile_fallbacks: Iterations that ran on the closest
            already-compiled bucket plan because a mid-run compile failed.
        recovery_times: Per applied crash, seconds until every request that
            lost work on the crashed engine had completed or failed (0.0
            for crashes that destroyed no work).
        goodput_under_faults_rps: SLO-meeting completions per second of the
            faulted run's makespan.
        goodput_under_faults_fraction: SLO-meeting completions over all
            requests the fleet *accepted* (completed + failed) — failures
            count against goodput, rejections do not.
    """

    num_crashes: int = 0
    num_slowdowns: int = 0
    num_compile_faults: int = 0
    num_store_corruptions: int = 0
    num_retries: int = 0
    num_redispatches: int = 0
    num_failed: int = 0
    num_shed: int = 0
    compile_fallbacks: int = 0
    recovery_times: tuple[float, ...] = ()
    goodput_under_faults_rps: float = 0.0
    goodput_under_faults_fraction: float = 1.0

    @property
    def mean_recovery_time(self) -> float:
        """Average seconds to re-serve a crash's lost work (0 if no crashes)."""
        if not self.recovery_times:
            return 0.0
        return sum(self.recovery_times) / len(self.recovery_times)

    @property
    def max_recovery_time(self) -> float:
        """Worst-case recovery time across the run's crashes."""
        return max(self.recovery_times, default=0.0)

    def summary(self) -> dict[str, float | int]:
        """Flat dictionary for result tables (times in milliseconds)."""
        return {
            "crashes": self.num_crashes,
            "slowdowns": self.num_slowdowns,
            "compile_faults": self.num_compile_faults,
            "store_corruptions": self.num_store_corruptions,
            "retries": self.num_retries,
            "redispatches": self.num_redispatches,
            "failed": self.num_failed,
            "shed": self.num_shed,
            "compile_fallbacks": self.compile_fallbacks,
            "recovery_mean_ms": self.mean_recovery_time * 1e3,
            "recovery_max_ms": self.max_recovery_time * 1e3,
            "goodput_under_faults_rps": self.goodput_under_faults_rps,
            "goodput_under_faults_fraction": self.goodput_under_faults_fraction,
        }


__all__ = [
    "FAULT_SCHEMA_VERSION",
    "FAULT_ENGINE_CRASH",
    "FAULT_ENGINE_SLOWDOWN",
    "FAULT_COMPILE_FAILURE",
    "FAULT_STORE_CORRUPTION",
    "FAULT_KINDS",
    "AvailabilityMetrics",
    "DegradationPolicy",
    "FaultEvent",
    "FaultSchedule",
    "RetryPolicy",
    "random_faults",
    "replay_fault_schedule",
    "save_fault_schedule",
]
