"""Request-level workloads: request specs and seeded arrival traces.

The compiler and simulators below this layer reason about one *model step*
(a decode token, a denoising step).  Serving studies reason about *requests*:
a prompt arrives at some wall-clock time, is prefilled, decodes some number
of tokens, and leaves.  This module defines the request vocabulary
(:class:`RequestSpec`), the sampling spec that turns a random source into
concrete requests (:class:`RequestShape`), and a set of seeded arrival-trace
generators — Poisson, bursty on/off, diurnal, offline batch — plus JSON
replay, so a trace captured once (or exported from a production system) can
be re-simulated bit-for-bit.

Every generator is driven by a private :class:`random.Random` seeded by the
caller, so identical arguments always produce identical traces.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass
from typing import Sequence

from repro.errors import ConfigurationError
from repro.jsonfile import check_schema, read_json, write_json

#: Bumped whenever the serialized trace layout changes incompatibly.
TRACE_SCHEMA_VERSION = 1

#: Request kinds understood by the serving stack.
LLM = "llm"
DIFFUSION = "diffusion"

#: Tenant requests belong to unless a trace says otherwise.
DEFAULT_TENANT = "default"


@dataclass(frozen=True)
class RequestSpec:
    """One serving request.

    Attributes:
        request_id: Unique id within a trace (assigned in arrival order).
        arrival_time: Wall-clock arrival, seconds from the trace start.
        model: Registered model name (e.g. ``"tiny-llm"``, ``"tiny-dit"``).
        prefill_tokens: Prompt length in tokens (LLM requests; 0 for
            diffusion).
        decode_tokens: Output tokens to generate, including the first token
            produced by the prefill (LLM requests; 0 for diffusion).
        denoise_steps: Denoising steps to run (diffusion requests; 0 for
            LLMs).
        tenant: The tenant (customer / traffic class) the request belongs
            to.  Tenants never share a batch, can carry their own SLOs and
            admission quotas, and are the sticky key session-affinity
            routing hashes on.
        kind: ``"llm"`` or ``"diffusion"`` (derived, not a field).
        output_units: Units of output work: decode tokens (LLM) or denoise
            steps (derived, not a field).
    """

    request_id: int
    arrival_time: float
    model: str
    prefill_tokens: int = 0
    decode_tokens: int = 0
    denoise_steps: int = 0
    tenant: str = DEFAULT_TENANT

    def __post_init__(self) -> None:
        if self.arrival_time < 0:
            raise ConfigurationError("arrival_time must be non-negative")
        if not self.tenant or not isinstance(self.tenant, str):
            raise ConfigurationError("tenant must be a non-empty string")
        if self.denoise_steps < 0:
            raise ConfigurationError("denoise_steps must be non-negative")
        if self.denoise_steps > 0:
            if self.prefill_tokens or self.decode_tokens:
                raise ConfigurationError(
                    "a diffusion request takes denoise_steps only, "
                    "not prefill/decode tokens"
                )
        elif self.prefill_tokens < 1 or self.decode_tokens < 1:
            raise ConfigurationError(
                "an LLM request needs prefill_tokens >= 1 and "
                "decode_tokens >= 1"
            )
        # Derived once per spec, since the event loop reads both every step.
        diffusion = self.denoise_steps > 0
        object.__setattr__(self, "kind", DIFFUSION if diffusion else LLM)
        units = self.denoise_steps if diffusion else self.decode_tokens
        object.__setattr__(self, "output_units", units)


@dataclass(frozen=True)
class RequestShape:
    """Sampling spec for the *content* of requests (lengths, model).

    Attributes:
        model: Registered model name the sampled requests target.
        prefill_tokens: Inclusive ``(lo, hi)`` range of prompt lengths.
        decode_tokens: Inclusive ``(lo, hi)`` range of output lengths.
        denoise_steps: Fixed denoising step count; a positive value makes
            this a diffusion shape and the token ranges are ignored.
        tenant: Tenant label stamped onto every sampled request, so a
            weighted shape mixture doubles as a multi-tenant traffic mix.
    """

    model: str = "tiny-llm"
    prefill_tokens: tuple[int, int] = (64, 256)
    decode_tokens: tuple[int, int] = (16, 128)
    denoise_steps: int = 0
    tenant: str = DEFAULT_TENANT

    def __post_init__(self) -> None:
        # A negative step count is not "an LLM shape": it would pass the
        # token-range validation below, then sample RequestSpecs whose kind
        # is silently misread downstream.  Reject it outright.
        if self.denoise_steps < 0:
            raise ConfigurationError("denoise_steps must be non-negative")
        for name, (lo, hi) in (
            ("prefill_tokens", self.prefill_tokens),
            ("decode_tokens", self.decode_tokens),
        ):
            if self.denoise_steps == 0 and not (1 <= lo <= hi):
                raise ConfigurationError(f"{name} range must satisfy 1 <= lo <= hi")

    def sample(self, rng: random.Random, request_id: int, arrival_time: float) -> RequestSpec:
        """Draw one concrete request at ``arrival_time``."""
        if self.denoise_steps > 0:
            return RequestSpec(
                request_id,
                arrival_time,
                self.model,
                denoise_steps=self.denoise_steps,
                tenant=self.tenant,
            )
        return RequestSpec(
            request_id,
            arrival_time,
            self.model,
            prefill_tokens=rng.randint(*self.prefill_tokens),
            decode_tokens=rng.randint(*self.decode_tokens),
            tenant=self.tenant,
        )


@dataclass(frozen=True)
class ArrivalTrace:
    """An ordered sequence of requests, the unit the serving simulator runs.

    Attributes:
        name: Human-readable label (generator or scenario name).
        requests: Requests in non-decreasing arrival order.
    """

    name: str
    requests: tuple[RequestSpec, ...] = ()

    def __post_init__(self) -> None:
        arrivals = [request.arrival_time for request in self.requests]
        if any(b < a for a, b in zip(arrivals, arrivals[1:])):
            raise ConfigurationError("trace requests must be in arrival order")

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self):
        return iter(self.requests)

    @property
    def duration(self) -> float:
        """Arrival span of the trace (0 for empty traces)."""
        if not self.requests:
            return 0.0
        return self.requests[-1].arrival_time - self.requests[0].arrival_time

    # ---------------------------------------------------------- serialization
    def to_dict(self) -> dict[str, object]:
        """Serializable dictionary for JSON replay files."""
        return {
            "schema_version": TRACE_SCHEMA_VERSION,
            "name": self.name,
            "requests": [asdict(request) for request in self.requests],
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "ArrivalTrace":
        """Rebuild a trace from :meth:`to_dict` output."""
        check_schema(data, TRACE_SCHEMA_VERSION, "trace")
        try:
            requests = tuple(
                RequestSpec(**entry) for entry in data.get("requests", [])
            )
            return cls(name=str(data.get("name", "replay")), requests=requests)
        except TypeError as error:
            raise ConfigurationError(f"corrupt trace record: {error}") from None


def save_trace(trace: ArrivalTrace, path: str) -> str:
    """Persist a trace as a JSON replay file; return the path written."""
    return write_json(path, trace.to_dict(), indent=2, sort_keys=True)


def replay_trace(path: str) -> ArrivalTrace:
    """Load a trace saved by :func:`save_trace` (or exported externally).

    Missing and unreadable files, malformed JSON, and structurally wrong
    documents all raise :class:`ConfigurationError` — replay callers get one
    exception type for "this trace cannot be served", mirroring how the
    artifact store treats corrupt cache entries.
    """
    data = read_json(path, "trace file")
    if not isinstance(data, dict) or "requests" not in data:
        raise ConfigurationError(f"{path} is not an arrival-trace file")
    return ArrivalTrace.from_dict(data)


# --------------------------------------------------------------------------- #
# Generators.  Each one seeds its own random.Random, so identical arguments
# reproduce identical traces regardless of global interpreter state.
# --------------------------------------------------------------------------- #
def _shapes_and_weights(
    shapes: RequestShape | Sequence[RequestShape],
    weights: Sequence[float] | None,
) -> tuple[list[RequestShape], list[float]]:
    if isinstance(shapes, RequestShape):
        shapes = [shapes]
    shapes = list(shapes)
    if not shapes:
        raise ConfigurationError("at least one RequestShape is required")
    if weights is None:
        weights = [1.0] * len(shapes)
    weights = list(weights)
    if len(weights) != len(shapes) or any(w <= 0 for w in weights):
        raise ConfigurationError("weights must be positive, one per shape")
    return shapes, weights


def _materialize(
    name: str,
    arrivals: Sequence[float],
    shapes: RequestShape | Sequence[RequestShape],
    weights: Sequence[float] | None,
    rng: random.Random,
) -> ArrivalTrace:
    shapes, weights = _shapes_and_weights(shapes, weights)
    requests = []
    for request_id, arrival in enumerate(arrivals):
        shape = rng.choices(shapes, weights=weights, k=1)[0]
        requests.append(shape.sample(rng, request_id, arrival))
    return ArrivalTrace(name=name, requests=tuple(requests))


def poisson_trace(
    rate: float,
    num_requests: int,
    *,
    seed: int = 0,
    shapes: RequestShape | Sequence[RequestShape] = RequestShape(),
    weights: Sequence[float] | None = None,
    name: str = "poisson",
) -> ArrivalTrace:
    """Poisson arrivals: exponential inter-arrival times at ``rate`` req/s."""
    if rate <= 0:
        raise ConfigurationError("rate must be positive")
    if num_requests < 0:
        raise ConfigurationError("num_requests must be non-negative")
    rng = random.Random(seed)
    clock = 0.0
    arrivals = []
    for _ in range(num_requests):
        clock += rng.expovariate(rate)
        arrivals.append(clock)
    return _materialize(name, arrivals, shapes, weights, rng)


def bursty_trace(
    burst_rate: float,
    num_requests: int,
    *,
    burst_duration: float = 0.05,
    idle_duration: float = 0.2,
    seed: int = 0,
    shapes: RequestShape | Sequence[RequestShape] = RequestShape(),
    weights: Sequence[float] | None = None,
    name: str = "bursty",
) -> ArrivalTrace:
    """On/off arrivals: Poisson bursts at ``burst_rate`` separated by idle gaps.

    The process alternates a ``burst_duration``-long on-phase (Poisson at
    ``burst_rate``) with an ``idle_duration``-long off-phase with no arrivals,
    modelling thundering-herd traffic.
    """
    if burst_rate <= 0 or burst_duration <= 0 or idle_duration < 0:
        raise ConfigurationError(
            "burst_rate and burst_duration must be positive, idle_duration >= 0"
        )
    if num_requests < 0:
        raise ConfigurationError("num_requests must be non-negative")
    rng = random.Random(seed)
    arrivals: list[float] = []
    window_start = 0.0
    clock = 0.0
    while len(arrivals) < num_requests:
        clock += rng.expovariate(burst_rate)
        while clock > window_start + burst_duration:
            # Jump over the idle gap and continue the burst in the next window.
            clock += idle_duration
            window_start += burst_duration + idle_duration
        arrivals.append(clock)
    return _materialize(name, arrivals, shapes, weights, rng)


def diurnal_trace(
    peak_rate: float,
    num_requests: int,
    *,
    period: float = 2.0,
    floor_fraction: float = 0.2,
    seed: int = 0,
    shapes: RequestShape | Sequence[RequestShape] = RequestShape(),
    weights: Sequence[float] | None = None,
    name: str = "diurnal",
) -> ArrivalTrace:
    """Sinusoidal day/night arrivals via thinning of a Poisson process.

    The instantaneous rate swings between ``floor_fraction * peak_rate`` and
    ``peak_rate`` with the given ``period`` (seconds; a compressed "day").
    Arrivals are drawn from a homogeneous Poisson process at ``peak_rate``
    and thinned to the instantaneous rate, the standard exact method for
    inhomogeneous Poisson processes.
    """
    if peak_rate <= 0 or period <= 0 or not (0 < floor_fraction <= 1):
        raise ConfigurationError(
            "peak_rate and period must be positive, 0 < floor_fraction <= 1"
        )
    if num_requests < 0:
        raise ConfigurationError("num_requests must be non-negative")
    rng = random.Random(seed)
    arrivals: list[float] = []
    clock = 0.0
    mid = (1 + floor_fraction) / 2
    swing = (1 - floor_fraction) / 2
    while len(arrivals) < num_requests:
        clock += rng.expovariate(peak_rate)
        fraction = mid + swing * math.sin(2 * math.pi * clock / period)
        if rng.random() <= fraction:
            arrivals.append(clock)
    return _materialize(name, arrivals, shapes, weights, rng)


def batch_trace(
    num_requests: int,
    *,
    seed: int = 0,
    shapes: RequestShape | Sequence[RequestShape] = RequestShape(),
    weights: Sequence[float] | None = None,
    name: str = "offline-batch",
) -> ArrivalTrace:
    """Offline batch: every request is available at time zero."""
    if num_requests < 0:
        raise ConfigurationError("num_requests must be non-negative")
    rng = random.Random(seed)
    return _materialize(name, [0.0] * num_requests, shapes, weights, rng)


#: Generator callables by name, for tooling and scenario descriptions.
TRACE_GENERATORS = {
    "poisson": poisson_trace,
    "bursty": bursty_trace,
    "diurnal": diurnal_trace,
    "batch": batch_trace,
    "replay": replay_trace,
}
