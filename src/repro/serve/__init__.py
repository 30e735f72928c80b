"""Request-level serving simulation on top of the compiler and simulators.

The layers below this package answer "how long does one model step take under
a compiler policy?"; :mod:`repro.serve` answers the production question —
"what TTFT/TPOT, tail latency, throughput, and goodput does a *traffic mix*
see?" — by replaying seeded arrival traces through a continuously-batched
serving engine whose per-step latencies come from execution plans compiled
once per batch bucket through a shared :class:`repro.api.Session`.

Quickstart::

    from repro.serve import simulate_scenario

    result = simulate_scenario("interactive-chat", num_requests=64, seed=0)
    print(result.metrics().summary())

The pieces compose individually: build a trace
(:func:`poisson_trace` / :func:`bursty_trace` / :func:`diurnal_trace` /
:func:`batch_trace` / :func:`replay_trace`), a
:class:`StepLatencyModel` over your session/system/policy, and run it
through ``repro.cluster.ClusterSimulator(latency,
FleetConfig(num_engines=1, router="round-robin"))``.  New scenarios
register by name via :func:`register_scenario`, exactly like compiler
policies.

The event loop and the result type (:class:`repro.cluster.ClusterResult`)
are the fleet's: :func:`simulate_scenario` runs one round-robin engine with
every fleet feature off.  Each engine is one :class:`EngineCore` — its
queues, load counters and lifecycle, with a role from :data:`ENGINE_ROLES`.
"""

from repro.serve.batching import (
    ENGINE_ROLES,
    ROLE_COLOCATED,
    ROLE_DECODE,
    ROLE_PREFILL,
    Batch,
    BatchBuckets,
    EngineCore,
    RequestState,
    StepLatencyModel,
)
from repro.serve.metrics import (
    RequestRecord,
    ServingMetrics,
    SLOSpec,
    compute_metrics,
    percentile,
)
from repro.serve.scenarios import (
    ServingScenario,
    available_scenarios,
    get_scenario,
    make_serving_session,
    register_scenario,
    scenario_descriptions,
    simulate_scenario,
    unregister_scenario,
)
from repro.serve.workload import (
    DEFAULT_TENANT,
    TRACE_GENERATORS,
    TRACE_SCHEMA_VERSION,
    ArrivalTrace,
    RequestShape,
    RequestSpec,
    batch_trace,
    bursty_trace,
    diurnal_trace,
    poisson_trace,
    replay_trace,
    save_trace,
)

__all__ = [
    "ENGINE_ROLES",
    "ROLE_COLOCATED",
    "ROLE_DECODE",
    "ROLE_PREFILL",
    "Batch",
    "BatchBuckets",
    "EngineCore",
    "RequestState",
    "StepLatencyModel",
    "RequestRecord",
    "ServingMetrics",
    "SLOSpec",
    "compute_metrics",
    "percentile",
    "ServingScenario",
    "available_scenarios",
    "get_scenario",
    "make_serving_session",
    "register_scenario",
    "scenario_descriptions",
    "simulate_scenario",
    "unregister_scenario",
    "DEFAULT_TENANT",
    "TRACE_GENERATORS",
    "TRACE_SCHEMA_VERSION",
    "ArrivalTrace",
    "RequestShape",
    "RequestSpec",
    "batch_trace",
    "bursty_trace",
    "diurnal_trace",
    "poisson_trace",
    "replay_trace",
    "save_trace",
]
