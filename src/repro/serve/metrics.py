"""Serving metrics: TTFT/TPOT, latency percentiles, throughput, goodput.

A serving run produces one :class:`RequestRecord` per completed request; this
module reduces them to the headline numbers serving papers report:

* **TTFT** — time to first token, from arrival to the end of the iteration
  that completed the request's prefill (diffusion requests emit their only
  "token" at completion).
* **TPOT** — time per output token over the decode phase (per denoise step
  for diffusion requests, measured from when the request first got scheduled
  so queueing does not pollute the per-step time).
* **Latency percentiles** — p50/p95/p99 of end-to-end request latency.
* **Throughput** — completed requests and output tokens per second.
* **Goodput under SLO** — the rate (and fraction) of requests meeting every
  component of a :class:`SLOSpec`, the quantity capacity planning actually
  optimizes.

Everything here is pure arithmetic on the records, so metrics of a seeded
simulation are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import ConfigurationError
from repro.serve.workload import DIFFUSION, RequestSpec


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) with linear interpolation.

    Empty input returns 0.0 so empty traces report cleanly; a single value is
    every percentile of itself.
    """
    if not 0 <= q <= 100:
        raise ConfigurationError("percentile q must be in [0, 100]")
    ordered = sorted(values)
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return float(ordered[0])
    position = (len(ordered) - 1) * q / 100.0
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    weight = position - lower
    return float(ordered[lower] * (1.0 - weight) + ordered[upper] * weight)


@dataclass(frozen=True)
class SLOSpec:
    """A service-level objective over per-request latency metrics.

    Components left ``None`` are not enforced.

    Attributes:
        ttft: Maximum time to first token, seconds.
        tpot: Maximum time per output token, seconds.
        e2e: Maximum end-to-end request latency, seconds.
    """

    ttft: float | None = None
    tpot: float | None = None
    e2e: float | None = None

    def met_by(self, record: "RequestRecord") -> bool:
        """Whether ``record`` meets every enforced component."""
        if self.ttft is not None and record.ttft > self.ttft:
            return False
        if self.tpot is not None and record.tpot > self.tpot:
            return False
        if self.e2e is not None and record.e2e > self.e2e:
            return False
        return True


@dataclass(frozen=True)
class RequestRecord:
    """Lifecycle timestamps of one completed request.

    Attributes:
        spec: The request served.
        arrival_time: When the request arrived.
        started_time: When it was first scheduled into an iteration.
        first_token_time: End of the iteration that produced its first output.
        completion_time: End of the iteration that finished it.
    """

    spec: RequestSpec
    arrival_time: float
    started_time: float
    first_token_time: float
    completion_time: float

    @property
    def ttft(self) -> float:
        """Time to first token (arrival → first output), seconds."""
        return self.first_token_time - self.arrival_time

    @property
    def e2e(self) -> float:
        """End-to-end latency (arrival → completion), seconds."""
        return self.completion_time - self.arrival_time

    @property
    def queue_delay(self) -> float:
        """Time spent waiting before the first scheduled iteration."""
        return self.started_time - self.arrival_time

    @property
    def tpot(self) -> float:
        """Time per output token over the generation phase, seconds.

        LLM requests: decode time after the first token divided by the
        remaining tokens (0 for single-token outputs).  Diffusion requests:
        service time divided by denoise steps.
        """
        spec = self.spec
        if spec.kind == DIFFUSION:
            return (self.completion_time - self.started_time) / spec.denoise_steps
        if spec.decode_tokens <= 1:
            return 0.0
        return (self.completion_time - self.first_token_time) / (
            spec.decode_tokens - 1
        )


@dataclass(frozen=True)
class ServingMetrics:
    """Aggregate metrics of one serving run.

    Attributes:
        num_requests: Completed requests.
        output_tokens: Total output units produced (tokens / denoise steps).
        makespan: Wall-clock span of the run (first arrival → last
            completion), seconds.
        throughput_rps: Completed requests per second of makespan.
        throughput_tokens_per_s: Output units per second of makespan.
        utilization: Fraction of the makespan the engine was executing.
        ttft_mean / ttft_p50 / ttft_p95 / ttft_p99: TTFT statistics, seconds.
        tpot_mean / tpot_p50 / tpot_p95 / tpot_p99: TPOT statistics, seconds.
        e2e_p50 / e2e_p95 / e2e_p99: End-to-end latency percentiles, seconds.
        queue_p50 / queue_p95: Queue-wait percentiles (admission → first
            scheduled iteration), seconds — the number router and autoscaler
            studies move without touching per-step latency.
        slo: The SLO goodput was evaluated against (``None`` if none given).
        goodput_rps: SLO-meeting requests per second of makespan.
        goodput_fraction: Fraction of requests meeting the SLO (1.0 when no
            SLO was given).
    """

    num_requests: int
    output_tokens: int
    makespan: float
    throughput_rps: float
    throughput_tokens_per_s: float
    utilization: float
    ttft_mean: float
    ttft_p50: float
    ttft_p95: float
    ttft_p99: float
    tpot_mean: float
    tpot_p50: float
    tpot_p95: float
    tpot_p99: float
    e2e_p50: float
    e2e_p95: float
    e2e_p99: float
    queue_p50: float = 0.0
    queue_p95: float = 0.0
    slo: SLOSpec | None = field(default=None, compare=False)
    goodput_rps: float = 0.0
    goodput_fraction: float = 1.0

    def summary(self) -> dict[str, float | int]:
        """Flat dictionary for result tables (times in milliseconds)."""
        return {
            "requests": self.num_requests,
            "throughput_rps": self.throughput_rps,
            "tokens_per_s": self.throughput_tokens_per_s,
            "goodput_rps": self.goodput_rps,
            "goodput_fraction": self.goodput_fraction,
            "queue_p50_ms": self.queue_p50 * 1e3,
            "queue_p95_ms": self.queue_p95 * 1e3,
            "ttft_p50_ms": self.ttft_p50 * 1e3,
            "ttft_p95_ms": self.ttft_p95 * 1e3,
            "ttft_p99_ms": self.ttft_p99 * 1e3,
            "tpot_p50_ms": self.tpot_p50 * 1e3,
            "tpot_p95_ms": self.tpot_p95 * 1e3,
            "tpot_p99_ms": self.tpot_p99 * 1e3,
            "e2e_p50_ms": self.e2e_p50 * 1e3,
            "e2e_p95_ms": self.e2e_p95 * 1e3,
            "e2e_p99_ms": self.e2e_p99 * 1e3,
            "utilization": self.utilization,
        }


def compute_metrics(
    records: Sequence[RequestRecord],
    *,
    busy_time: float = 0.0,
    slo: SLOSpec | None = None,
) -> ServingMetrics:
    """Reduce request records to :class:`ServingMetrics`.

    Args:
        records: Completed-request records (empty is fine: all-zero metrics).
        busy_time: Total time the engine spent executing iterations.
        slo: Optional SLO for the goodput metrics.
    """
    records = list(records)
    if not records:
        return ServingMetrics(
            num_requests=0, output_tokens=0, makespan=0.0,
            throughput_rps=0.0, throughput_tokens_per_s=0.0, utilization=0.0,
            ttft_mean=0.0, ttft_p50=0.0, ttft_p95=0.0, ttft_p99=0.0,
            tpot_mean=0.0, tpot_p50=0.0, tpot_p95=0.0, tpot_p99=0.0,
            e2e_p50=0.0, e2e_p95=0.0, e2e_p99=0.0,
            slo=slo, goodput_rps=0.0,
            goodput_fraction=1.0 if slo is None else 0.0,
        )
    start = min(record.arrival_time for record in records)
    end = max(record.completion_time for record in records)
    makespan = end - start
    ttfts = [record.ttft for record in records]
    tpots = [record.tpot for record in records]
    e2es = [record.e2e for record in records]
    queues = [record.queue_delay for record in records]
    tokens = sum(record.spec.output_units for record in records)
    per_second = (lambda count: count / makespan) if makespan > 0 else (lambda _: 0.0)
    if slo is None:
        met = len(records)
        goodput_fraction = 1.0
    else:
        met = sum(1 for record in records if slo.met_by(record))
        goodput_fraction = met / len(records)
    return ServingMetrics(
        num_requests=len(records),
        output_tokens=tokens,
        makespan=makespan,
        throughput_rps=per_second(len(records)),
        throughput_tokens_per_s=per_second(tokens),
        utilization=min(1.0, busy_time / makespan) if makespan > 0 else 0.0,
        ttft_mean=sum(ttfts) / len(ttfts),
        ttft_p50=percentile(ttfts, 50), ttft_p95=percentile(ttfts, 95),
        ttft_p99=percentile(ttfts, 99),
        tpot_mean=sum(tpots) / len(tpots),
        tpot_p50=percentile(tpots, 50), tpot_p95=percentile(tpots, 95),
        tpot_p99=percentile(tpots, 99),
        e2e_p50=percentile(e2es, 50), e2e_p95=percentile(e2es, 95),
        e2e_p99=percentile(e2es, 99),
        queue_p50=percentile(queues, 50), queue_p95=percentile(queues, 95),
        slo=slo,
        goodput_rps=per_second(met) if slo is not None else per_second(len(records)),
        goodput_fraction=goodput_fraction,
    )
