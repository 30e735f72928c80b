"""Named fleet-scale scenarios and the one scenario driver.

Every :class:`~repro.serve.scenarios.ServingScenario` may carry one
:class:`~repro.cluster.simulator.FleetConfig` (initial size, router policy,
optional autoscaler, tenant quotas, prefill/decode disaggregation, faults,
retries, degradation) as its ``fleet``; the fleet studies below set theirs
and register in the *same* registry as the single-engine scenarios, so
tooling that enumerates :func:`~repro.serve.scenarios.available_scenarios`
sees both families.  :func:`simulate_cluster_scenario` is the one scenario
driver (:func:`~repro.serve.scenarios.simulate_scenario` calls it with a
pinned one-engine fleet) and accepts per-call overrides of any
:class:`~repro.cluster.simulator.FleetConfig` field for sweeps (fleet size,
router, disaggregation on/off, faults, ...).

Built-ins:

* ``cluster-chat-fleet`` — the mixed LLM+DiT diurnal trace on a 4-engine
  least-loaded fleet (the headline "does a fleet beat one engine" study);
* ``cluster-multi-tenant`` — three tenants with distinct quotas and SLOs
  under session-affinity routing;
* ``cluster-autoscale`` — bursty chat against a 1..4-engine autoscaled
  fleet;
* ``cluster-disaggregated`` — chat on dedicated prefill/decode pools with
  a hand-off queue, for comparison against the colocated baseline;
* ``cluster-chaos-crashes`` — a crash-heavy chat fleet (three engine
  crashes, a straggler window, transient compile faults) recovering under
  retry/backoff while the autoscaler replaces lost capacity;
* ``cluster-chaos-degraded`` — an overloaded two-tier tenant mix losing an
  engine and straggling, with graceful degradation shedding batch traffic
  before the interactive tier's SLOs collapse.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

from repro.arch.chip import SystemConfig
from repro.arch.presets import scaled_system
from repro.cluster.autoscaler import AutoscalerConfig
from repro.cluster.faults import (
    FAULT_COMPILE_FAILURE,
    FAULT_ENGINE_CRASH,
    FAULT_ENGINE_SLOWDOWN,
    DegradationPolicy,
    FaultEvent,
    FaultSchedule,
    RetryPolicy,
)
from repro.cluster.simulator import (
    ClusterResult,
    ClusterSimulator,
    DisaggregationConfig,
    FleetConfig,
)
from repro.cluster.tenancy import TenantSpec
from repro.serve.batching import StepLatencyModel
from repro.serve.metrics import SLOSpec
from repro.serve.scenarios import (
    BurstyChat,
    InteractiveChat,
    MixedTraffic,
    ServingScenario,
    get_scenario,
    make_serving_session,
    register_scenario,
)
from repro.serve.workload import RequestShape, poisson_trace
from repro.api.service import Session

if TYPE_CHECKING:
    from repro.obs.trace import Tracer


# --------------------------------------------------------------------------- #
# Built-in fleet scenarios.
# --------------------------------------------------------------------------- #
@register_scenario("cluster-chat-fleet")
class ClusterChatFleet(MixedTraffic):
    description = "mixed LLM+DiT diurnal traffic on a 4-engine least-loaded fleet"
    nominal_rate = 480.0  # 4x the single-engine mixed-traffic load
    fleet = FleetConfig(num_engines=4)


@register_scenario("cluster-multi-tenant")
class ClusterMultiTenant(ServingScenario):
    description = (
        "three tenants with distinct quotas and SLOs, session-affinity routing"
    )
    slo = SLOSpec(ttft=5e-3)
    nominal_rate = 300.0
    fleet = FleetConfig(
        num_engines=3,
        router="session-affinity",
        tenants=(
            TenantSpec("enterprise", slo=SLOSpec(ttft=3e-3)),
            TenantSpec("standard", quota_rps=200.0, burst=16),
            TenantSpec("batch", quota_rps=40.0, burst=4, slo=SLOSpec()),
        ),
    )

    def trace(self, num_requests=64, seed=0, rate_scale=1.0):
        shapes = tuple(
            RequestShape(
                model="tiny-llm",
                prefill_tokens=(64, 256),
                decode_tokens=(8, 48),
                tenant=tenant,
            )
            for tenant in ("enterprise", "standard", "batch")
        )
        return poisson_trace(
            self.nominal_rate * rate_scale,
            num_requests,
            seed=seed,
            shapes=shapes,
            weights=(2.0, 3.0, 1.0),
            name=f"{self.name}@x{rate_scale:g}",
        )


@register_scenario("cluster-autoscale")
class ClusterAutoscale(BurstyChat):
    description = "bursty chat against a 1..4-engine autoscaled fleet"
    nominal_rate = 500.0
    fleet = FleetConfig(
        num_engines=1,
        autoscaler=AutoscalerConfig(
            min_engines=1,
            max_engines=4,
            scale_up_queue_depth=4.0,
            scale_down_queue_depth=0.5,
            cooldown=0.1,
            warmup_delay=0.05,
        ),
    )


@register_scenario("cluster-disaggregated")
class ClusterDisaggregated(InteractiveChat):
    description = "chat on dedicated prefill/decode pools with a hand-off queue"
    nominal_rate = 300.0
    fleet = FleetConfig(
        disaggregation=DisaggregationConfig(
            prefill_engines=1, decode_engines=2, handoff_delay=0.0
        )
    )


@register_scenario("cluster-chaos-crashes")
class ClusterChaosCrashes(InteractiveChat):
    description = (
        "crash-heavy chat fleet: three engine crashes, a straggler window, "
        "and transient compile faults, recovering under retry/backoff while "
        "the autoscaler replaces lost capacity"
    )
    slo = SLOSpec(ttft=5e-3, e2e=30e-3)
    nominal_rate = 400.0
    fleet = FleetConfig(
        num_engines=4,
        autoscaler=AutoscalerConfig(
            min_engines=2,
            max_engines=6,
            scale_up_queue_depth=3.0,
            scale_down_queue_depth=0.25,
            cooldown=0.05,
            warmup_delay=0.02,
        ),
        # Deterministic schedule (not a seeded generator) so the acceptance
        # invariant — at least one applied engine crash — holds at every
        # trace length and seed.  Times sit inside the serving window of the
        # default 64-request trace.
        faults=FaultSchedule(
            "chaos-crashes",
            (
                FaultEvent(0.015, FAULT_ENGINE_CRASH, target=1),
                FaultEvent(
                    0.030, FAULT_ENGINE_SLOWDOWN, target=0, duration=0.04, factor=4.0
                ),
                FaultEvent(0.045, FAULT_COMPILE_FAILURE, count=2),
                FaultEvent(0.060, FAULT_ENGINE_CRASH, target=2),
                FaultEvent(0.090, FAULT_ENGINE_CRASH, target=0),
            ),
        ),
        retry_policy=RetryPolicy(
            max_attempts=3, base_backoff=0.005, max_backoff=0.05, jitter=0.1
        ),
    )


@register_scenario("cluster-chaos-degraded")
class ClusterChaosDegraded(ServingScenario):
    description = (
        "overloaded two-tier tenant mix losing an engine and straggling; "
        "graceful degradation sheds batch traffic before interactive SLOs "
        "collapse"
    )
    slo = SLOSpec(ttft=5e-3)
    nominal_rate = 700.0
    fleet = FleetConfig(
        tenants=(
            TenantSpec("interactive", slo=SLOSpec(ttft=3e-3)),
            TenantSpec("batch", slo=SLOSpec()),
        ),
        degradation=DegradationPolicy(
            queue_depth_per_engine=4.0,
            priorities=(("batch", 0), ("interactive", 2)),
        ),
        faults=FaultSchedule(
            "chaos-degraded",
            (
                FaultEvent(
                    0.010, FAULT_ENGINE_SLOWDOWN, target=0, duration=0.08, factor=6.0
                ),
                FaultEvent(0.020, FAULT_ENGINE_CRASH, target=1),
                FaultEvent(
                    0.035, FAULT_ENGINE_SLOWDOWN, target=0, duration=0.05, factor=3.0
                ),
            ),
        ),
        retry_policy=RetryPolicy(max_attempts=2, base_backoff=0.004),
    )

    def trace(self, num_requests=64, seed=0, rate_scale=1.0):
        shapes = tuple(
            RequestShape(
                model="tiny-llm",
                prefill_tokens=(64, 256),
                decode_tokens=(8, 48),
                tenant=tenant,
            )
            for tenant in ("interactive", "batch")
        )
        return poisson_trace(
            self.nominal_rate * rate_scale,
            num_requests,
            seed=seed,
            shapes=shapes,
            weights=(2.0, 1.0),
            name=f"{self.name}@x{rate_scale:g}",
        )


# --------------------------------------------------------------------------- #
# One-call driver.
# --------------------------------------------------------------------------- #
def simulate_cluster_scenario(
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
    **overrides,
) -> ClusterResult:
    """Run one registered scenario end to end on a fleet.

    The fleet is the scenario's ``fleet`` (the default 2-engine
    least-loaded :class:`FleetConfig` when it sets none) with ``overrides``
    replacing its fields for a sweep — an explicit ``None`` disables the
    feature (e.g. ``disaggregation=None`` runs the ``cluster-disaggregated``
    trace colocated).

    Args:
        scenario: Registered scenario name or an instance.
        system: Target system (default: the 32-core scaled single-chip
            system, matching the test/CI scale).
        policy: Compiler policy the step plans are compiled with.
        num_requests: Trace length.
        seed: Trace seed (same seed, same fleet metrics, bit for bit).
        rate_scale: Load multiplier on the scenario's nominal arrival rate.
        session: Shared compile session; pass one to dedupe bucket compiles
            across fleet sizes, routers, and rate points.
        num_layers: Layer-count override for the compiled step workloads.
        prewarm: Compile the reachable bucket grid
            (:meth:`StepLatencyModel.prewarm`) up front through one
            ``compile_many`` fan-out.
        tracer: Optional :class:`repro.obs.Tracer` observing the whole
            fleet run: compile-stage and store spans (wired onto the session
            for the duration of the run), per-engine iteration spans,
            request lifecycle phases, and cluster scale/fault instants.
        **overrides: :class:`FleetConfig` fields replacing the scenario's;
            e.g. ``faults=None`` runs a chaos scenario's trace on the happy
            path, and ``faults=random_faults(...)`` injects a seeded
            schedule into any scenario.
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    fleet = dataclasses.replace(scenario.fleet or FleetConfig(), **overrides)
    system = system or scaled_system(num_cores=32, num_chips=1)
    session = session or make_serving_session()
    previous_tracer = session.tracer
    if tracer is not None:
        session.tracer = tracer
    latency_model = StepLatencyModel(
        session,
        system,
        policy,
        buckets=scenario.buckets,
        num_layers=num_layers,
        tracer=tracer,
    )
    simulator = ClusterSimulator(latency_model, fleet, prewarm=prewarm, tracer=tracer)
    trace = scenario.trace(num_requests=num_requests, seed=seed, rate_scale=rate_scale)
    try:
        return simulator.run(trace, slo=scenario.slo)
    finally:
        if tracer is not None:
            session.tracer = previous_tracer
