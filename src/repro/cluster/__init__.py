"""Fleet-scale serving on inter-core-connected AI chips.

``repro.cluster`` dispatches one seeded arrival trace across a fleet of
continuously-batched engines that share a single compile session — bucket
plans compile once fleet-wide.  It layers on :mod:`repro.serve`:

* :mod:`repro.cluster.router` — pluggable dispatch policies (round-robin,
  least-loaded, session-affinity) behind a registry;
* :mod:`repro.cluster.tenancy` — per-tenant token-bucket admission control
  and per-tenant SLOs;
* :mod:`repro.cluster.autoscaler` — queue- and SLO-driven scaling with
  cooldown hysteresis, warm-up delays, and drain-based removal;
* :mod:`repro.cluster.faults` — seeded fault injection (engine crashes,
  stragglers, transient compile failures, store corruption) with JSON
  replay, plus the recovery semantics: retry/backoff policies, graceful
  degradation by tenant priority, and availability metrics;
* :mod:`repro.cluster.simulator` — the fleet discrete-event loop, configured
  by one :class:`FleetConfig` value, including prefill/decode
  disaggregation with a hand-off queue and crash recovery with balanced
  request accounting;
* :mod:`repro.cluster.scenarios` — named fleet studies registered alongside
  the single-engine serving scenarios, including two chaos scenarios, and
  :func:`simulate_cluster_scenario`, the one scenario driver.

Everything stays a pure function of the seeded trace, the fault schedule,
and the configuration: fleet metrics are bit-reproducible.
"""

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
    FAULT_KINDS,
    FAULT_STORE_CORRUPTION,
    AvailabilityMetrics,
    DegradationPolicy,
    FaultEvent,
    FaultSchedule,
    RetryPolicy,
    random_faults,
    replay_fault_schedule,
    save_fault_schedule,
)
from repro.cluster.router import (
    EngineView,
    LeastLoadedRouter,
    RoundRobinRouter,
    RouterPolicy,
    SessionAffinityRouter,
    available_routers,
    get_router,
    register_router,
    router_descriptions,
    unregister_router,
)
from repro.cluster.scenarios import simulate_cluster_scenario
from repro.cluster.simulator import (
    ROLE_COLOCATED,
    ROLE_DECODE,
    ROLE_PREFILL,
    ClusterResult,
    ClusterSimulator,
    DisaggregationConfig,
    EngineRecord,
    FleetConfig,
)
from repro.cluster.tenancy import AdmissionController, TenantSpec, as_tenant_map

__all__ = [
    "SCALE_ADD",
    "SCALE_CRASH",
    "SCALE_DRAIN",
    "SCALE_REMOVE",
    "ROLE_COLOCATED",
    "ROLE_DECODE",
    "ROLE_PREFILL",
    "FAULT_COMPILE_FAILURE",
    "FAULT_ENGINE_CRASH",
    "FAULT_ENGINE_SLOWDOWN",
    "FAULT_KINDS",
    "FAULT_STORE_CORRUPTION",
    "AdmissionController",
    "Autoscaler",
    "AutoscalerConfig",
    "AvailabilityMetrics",
    "ClusterResult",
    "ClusterSimulator",
    "DegradationPolicy",
    "DisaggregationConfig",
    "EngineRecord",
    "EngineView",
    "FaultEvent",
    "FaultSchedule",
    "FleetConfig",
    "RetryPolicy",
    "LeastLoadedRouter",
    "RoundRobinRouter",
    "RouterPolicy",
    "ScaleEvent",
    "SessionAffinityRouter",
    "TenantSpec",
    "as_tenant_map",
    "available_routers",
    "get_router",
    "random_faults",
    "register_router",
    "replay_fault_schedule",
    "router_descriptions",
    "save_fault_schedule",
    "simulate_cluster_scenario",
    "unregister_router",
]
