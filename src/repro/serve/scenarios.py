"""Named serving scenarios, registered like compiler policies.

A scenario bundles what a serving study needs besides the hardware: the
request mix (:class:`~repro.serve.workload.RequestShape`), the arrival
process, the shape grid the engines compile, the SLO goodput is judged
against, and the fleet it runs on (one
:class:`~repro.cluster.simulator.FleetConfig`: size, router, autoscaler,
tenants, disaggregation, faults, retries, degradation — all off or minimal
by default).  Scenarios register by name in a
:class:`repro.registry.Registry`, so studies, benchmarks, and tooling can
enumerate and extend them without touching the simulator:

>>> @register_scenario("my-workload")
... class MyWorkload(ServingScenario):
...     description = "my traffic mix"
...     slo = SLOSpec(ttft=0.2)
...     def trace(self, num_requests=64, seed=0, rate_scale=1.0):
...         return poisson_trace(50.0 * rate_scale, num_requests, seed=seed)
>>> simulate_scenario("my-workload", num_requests=16)

The built-ins here cover the paper-adjacent serving studies: interactive
chat (latency-bound Poisson traffic), bursty chat (on/off herds), offline
batch (throughput-bound, everything at t=0), diffusion serving (DiT
denoising), and mixed LLM + DiT traffic on one engine.  The fleet studies
(``cluster-*``) live in :mod:`repro.cluster.scenarios`.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, ClassVar

from repro.api.service import Session
from repro.arch.chip import SystemConfig
from repro.registry import Registry
from repro.scheduler.elk import ElkOptions
from repro.scheduler.preload_order import OrderSearchConfig
from repro.serve.batching import BatchBuckets
from repro.serve.metrics import SLOSpec
from repro.serve.workload import (
    ArrivalTrace,
    RequestShape,
    batch_trace,
    bursty_trace,
    diurnal_trace,
    poisson_trace,
)

if TYPE_CHECKING:
    from repro.cluster.simulator import ClusterResult, FleetConfig
    from repro.obs.trace import Tracer


class ServingScenario(abc.ABC):
    """One named serving study: a request mix, arrival process, SLO, fleet.

    Subclasses are registered with :func:`register_scenario` and instantiated
    fresh per use, so they may keep state on ``self``.  The ``fleet``
    configures :func:`repro.cluster.simulate_cluster_scenario`;
    :func:`simulate_scenario` ignores it and runs one engine.

    Attributes:
        name: Registry name, filled in by :func:`register_scenario`.
        description: One-line summary for tooling and reports.
        slo: The SLO goodput is evaluated against.
        buckets: Shape grid the engines compile for this scenario.
        fleet: The fleet's settings; ``None`` (kept here because
            :mod:`repro.cluster` imports this module) means the default
            :class:`~repro.cluster.simulator.FleetConfig`.
    """

    name: ClassVar[str] = ""
    description: ClassVar[str] = ""
    slo: ClassVar[SLOSpec] = SLOSpec()
    buckets: ClassVar[BatchBuckets] = BatchBuckets(
        batch_sizes=(1, 2, 4, 8), context_buckets=(256, 512)
    )
    fleet: ClassVar[FleetConfig | None] = None

    @abc.abstractmethod
    def trace(
        self, num_requests: int = 64, seed: int = 0, rate_scale: float = 1.0
    ) -> ArrivalTrace:
        """Generate this scenario's seeded arrival trace.

        Args:
            num_requests: Requests in the trace.
            seed: Seed for arrivals and request lengths (same seed, same
                trace, bit for bit).
            rate_scale: Multiplier on the scenario's nominal arrival rate
                (the load knob rate sweeps turn).
        """


_SCENARIOS: Registry[ServingScenario] = Registry("scenario", ServingScenario)

register_scenario = _SCENARIOS.register
unregister_scenario = _SCENARIOS.unregister
get_scenario = _SCENARIOS.get
available_scenarios = _SCENARIOS.available
scenario_descriptions = _SCENARIOS.descriptions


# --------------------------------------------------------------------------- #
# Built-in scenarios.  Tiny models by default so a study runs in seconds;
# the request mixes and SLOs carry the character of each workload class.
# --------------------------------------------------------------------------- #
_CHAT_SHAPE = RequestShape(
    model="tiny-llm", prefill_tokens=(64, 256), decode_tokens=(8, 48)
)
_DIT_SHAPE = RequestShape(model="tiny-dit", denoise_steps=8)


@register_scenario("interactive-chat")
class InteractiveChat(ServingScenario):
    description = "latency-bound chat traffic: Poisson arrivals, tight TTFT SLO"
    # SLOs sit a few multiples above the unloaded latencies of the default
    # tiny-model/scaled-chip study, so the rate sweep shows goodput roll off.
    slo = SLOSpec(ttft=3e-3, tpot=5e-4)
    nominal_rate = 150.0

    def trace(self, num_requests=64, seed=0, rate_scale=1.0):
        return poisson_trace(
            self.nominal_rate * rate_scale,
            num_requests,
            seed=seed,
            shapes=_CHAT_SHAPE,
            name=f"{self.name}@x{rate_scale:g}",
        )


@register_scenario("bursty-chat")
class BurstyChat(ServingScenario):
    description = "on/off thundering-herd chat traffic against the same SLO"
    slo = SLOSpec(ttft=3e-3, tpot=5e-4)
    nominal_rate = 250.0

    def trace(self, num_requests=64, seed=0, rate_scale=1.0):
        return bursty_trace(
            self.nominal_rate * rate_scale,
            num_requests,
            burst_duration=0.2,
            idle_duration=0.6,
            seed=seed,
            shapes=_CHAT_SHAPE,
            name=f"{self.name}@x{rate_scale:g}",
        )


@register_scenario("offline-batch")
class OfflineBatch(ServingScenario):
    description = "throughput-bound batch inference: all requests at t=0"
    slo = SLOSpec()  # no latency SLO; goodput == throughput
    nominal_rate = 0.0

    def trace(self, num_requests=64, seed=0, rate_scale=1.0):
        return batch_trace(
            num_requests,
            seed=seed,
            shapes=RequestShape(
                model="tiny-llm", prefill_tokens=(128, 512), decode_tokens=(32, 128)
            ),
            name=self.name,
        )


@register_scenario("diffusion-serving")
class DiffusionServing(ServingScenario):
    description = "DiT image generation: Poisson arrivals of denoising jobs"
    slo = SLOSpec(e2e=5e-3)
    nominal_rate = 150.0
    buckets = BatchBuckets(batch_sizes=(1, 2, 4), context_buckets=(256,))

    def trace(self, num_requests=64, seed=0, rate_scale=1.0):
        return poisson_trace(
            self.nominal_rate * rate_scale,
            num_requests,
            seed=seed,
            shapes=_DIT_SHAPE,
            name=f"{self.name}@x{rate_scale:g}",
        )


@register_scenario("mixed-traffic")
class MixedTraffic(ServingScenario):
    description = "chat LLM and DiT denoising sharing one engine, diurnal load"
    slo = SLOSpec(ttft=5e-3, e2e=20e-3)
    nominal_rate = 120.0

    def trace(self, num_requests=64, seed=0, rate_scale=1.0):
        return diurnal_trace(
            self.nominal_rate * rate_scale,
            num_requests,
            period=2.0,
            seed=seed,
            shapes=(_CHAT_SHAPE, _DIT_SHAPE),
            weights=(3.0, 1.0),
            name=f"{self.name}@x{rate_scale:g}",
        )


# --------------------------------------------------------------------------- #
# One-call driver.
# --------------------------------------------------------------------------- #
def make_serving_session(**session_kwargs) -> Session:
    """A compile session with search bounds sized for serving studies.

    Step-plan quality barely moves past a handful of preload-order
    candidates on the scaled systems, so the default bounds keep bucket
    compilation fast; pass explicit ``elk_options`` to override.
    """
    session_kwargs.setdefault(
        "elk_options",
        ElkOptions(
            max_preload_ahead=8,
            order_search=OrderSearchConfig(max_candidates=8),
        ),
    )
    return Session(**session_kwargs)


def simulate_scenario(
    scenario: str | ServingScenario,
    *,
    system: SystemConfig | None = None,
    policy: str = "elk-full",
    num_requests: int = 64,
    seed: int = 0,
    rate_scale: float = 1.0,
    session: Session | None = None,
    num_layers: int | None = 1,
    prewarm: bool = False,
    tracer: "Tracer | None" = None,
) -> ClusterResult:
    """Run one registered scenario end to end on a single engine.

    This is :func:`repro.cluster.simulate_cluster_scenario` with the fleet
    pinned to one round-robin engine and every fleet feature (autoscaler,
    tenants, disaggregation, faults, retries, degradation) off — whatever
    the scenario's own ``fleet`` says.

    Args:
        scenario: Registered scenario name or an instance.
        system: Target system (default: the 32-core scaled single-chip
            system, matching the test/CI scale).
        policy: Compiler policy the step plans are compiled with.
        num_requests: Trace length.
        seed: Trace seed (same seed, same metrics, bit for bit).
        rate_scale: Load multiplier on the scenario's nominal arrival rate.
        session: Shared compile session; pass one to reuse compiled step
            plans across scenarios, policies, and rate points.
        num_layers: Layer-count override for the compiled step workloads.
        prewarm: Compile the trace's reachable bucket grid
            (:meth:`StepLatencyModel.prewarm`) up front through one
            :meth:`Session.compile_many` fan-out (the session's backend)
            before any request is served, instead of compiling buckets
            lazily as traffic first touches them.
        tracer: Optional :class:`repro.obs.Tracer` observing the run across
            every layer: compile-stage and store spans (wired onto the
            session for the duration of the run), engine iteration spans,
            and request lifecycle events.
    """
    # repro.cluster builds on this module, so import it at call time.
    from repro.cluster.scenarios import simulate_cluster_scenario
    from repro.cluster.simulator import FleetConfig

    one_engine = FleetConfig(num_engines=1, router="round-robin")
    return simulate_cluster_scenario(
        scenario,
        system=system,
        policy=policy,
        num_requests=num_requests,
        seed=seed,
        rate_scale=rate_scale,
        session=session,
        num_layers=num_layers,
        prewarm=prewarm,
        tracer=tracer,
        **vars(one_engine),  # every field, so none of the scenario's stays
    )
