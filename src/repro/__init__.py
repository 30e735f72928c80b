"""Elk reproduction: a DL compiler framework for inter-core connected AI chips.

This package reproduces *Elk: Exploring the Efficiency of Inter-core Connected
AI Chips with Deep Learning Compiler Techniques* (MICRO 2025) as a pure-Python
library: the operator IR and model zoo, ICCA chip architecture models, operator
partitioning, cost models, the Elk scheduler (inductive operator scheduling,
cost-aware memory allocation, preload-order permutation), the baseline
compilers, an event-driven chip simulator, an emulation framework, code
generation to the abstract device programming model, and the evaluation /
design-space-exploration harness behind every table and figure of the paper.

Quickstart — compile through a caching :class:`Session`, which shares the
frontend result and per-operator profiles across policies and can fan a batch
of requests across workers::

    from repro import CompileRequest, Session, WorkloadSpec, ipu_pod4

    session = Session()
    workload = WorkloadSpec("llama2-13b", batch_size=32, seq_len=2048,
                            num_layers=2)
    artifact = session.compile(workload, ipu_pod4(), policy="elk-full")
    print(artifact.latency, artifact.hbm_utilization)

    sweep = session.compile_many(
        [CompileRequest(workload, ipu_pod4(), policy=p)
         for p in ("basic", "static", "elk-dyn", "elk-full", "ideal")]
    )
    print({a.policy: a.latency for a in sweep})

Artifacts serialize to JSON (``artifact.to_dict()``, ``session.save(path)``)
so sweep results persist across runs.  New compiler policies plug in through
the registry without touching the pipeline::

    from repro import CompilerPolicy, PolicyOutput, register_policy

    @register_policy("my-ablation")
    class MyAblation(CompilerPolicy):
        def run(self, compiler):
            plan = ...  # build an ExecutionPlan from compiler.profiles
            return PolicyOutput(plan=plan,
                                timeline=compiler.evaluator().evaluate(plan))

A policy plans inside the :class:`ModelCompiler` that
``session.compiler(CompileRequest(workload, system))`` returns; the session
builds its frontend result, profiles and cost model, so every policy plans
from the same inputs.

Above the per-step world, :mod:`repro.serve` simulates *request-level*
serving: seeded arrival traces (Poisson, bursty, diurnal, replay) run
through a continuously-batched engine whose bucketed step plans compile once
through a shared session, reporting TTFT/TPOT, tail latency, throughput, and
goodput under SLO::

    from repro import simulate_scenario

    result = simulate_scenario("interactive-chat", num_requests=64, seed=0)
    print(result.metrics().summary())

:mod:`repro.cluster` scales that to a *fleet*: a router (round-robin /
least-loaded / session-affinity) dispatches one trace across N engines
sharing a single compile session, with per-tenant admission quotas, a
queue- and SLO-driven autoscaler, and prefill/decode disaggregation::

    from repro import simulate_cluster_scenario

    result = simulate_cluster_scenario("cluster-chat-fleet", num_requests=64)
    print(result.router, result.fleet_size, result.metrics().summary())

:mod:`repro.obs` observes all of it: an opt-in :class:`Tracer` threads
hierarchical spans through compile, store, serving, and fleet layers
(exportable to Perfetto via :func:`to_chrome_trace`, bit-identical across
same-seed runs), and a :class:`MetricsRegistry` of sources unifies every
subsystem's metric struct behind one ``snapshot()``::

    from repro import (MetricsRegistry, Tracer, make_serving_session,
                       simulate_cluster_scenario, to_chrome_trace)

    session, tracer = make_serving_session(), Tracer()
    result = simulate_cluster_scenario("cluster-chaos-crashes",
                                       session=session, tracer=tracer)
    to_chrome_trace(tracer, "trace.json")  # open in ui.perfetto.dev

    registry = MetricsRegistry()
    result.register_into(registry)  # cluster.{serving,availability,counters}
    registry.register_source("session", session.stats.snapshot)
    print(registry.table())
"""

from repro.api import (
    ArtifactStore,
    CompileArtifact,
    CompileRequest,
    Session,
    SessionStats,
    load_artifacts,
    save_artifacts,
)

from repro.arch import (
    ChipConfig,
    CoreConfig,
    HBMConfig,
    InterconnectConfig,
    SystemConfig,
    ipu_mk2_chip,
    ipu_pod4,
    mesh_pod4,
    scaled_system,
    single_chip,
)
from repro.compiler import (
    POLICIES,
    CompilerPolicy,
    ModelCompiler,
    PolicyOutput,
    WorkloadSpec,
    available_policies,
    register_policy,
)
from repro.cluster import (
    AutoscalerConfig,
    AvailabilityMetrics,
    ClusterResult,
    ClusterSimulator,
    DegradationPolicy,
    DisaggregationConfig,
    FaultEvent,
    FaultSchedule,
    FleetConfig,
    RetryPolicy,
    RouterPolicy,
    TenantSpec,
    available_routers,
    random_faults,
    register_router,
    replay_fault_schedule,
    save_fault_schedule,
    simulate_cluster_scenario,
)
from repro.errors import CompileFailedError, ElkError
from repro.ir import Operator, OperatorGraph, TensorSpec
from repro.ir.models import available_models, build_model
from repro.obs import (
    MetricsRegistry,
    Tracer,
    to_chrome_trace,
    to_jsonl,
)
from repro.scheduler import ElkOptions, ElkScheduler, ExecutionPlan
from repro.serve import (
    ArrivalTrace,
    BatchBuckets,
    RequestShape,
    RequestSpec,
    ServingMetrics,
    ServingScenario,
    SLOSpec,
    StepLatencyModel,
    available_scenarios,
    batch_trace,
    bursty_trace,
    diurnal_trace,
    get_scenario,
    make_serving_session,
    poisson_trace,
    register_scenario,
    replay_trace,
    save_trace,
    simulate_scenario,
)
from repro.sim import ChipSimulator, simulate_system
from repro.sweep import (
    SweepAdapter,
    SweepResult,
    SweepSpec,
    available_adapters,
    register_adapter,
    run_sweep,
)

__version__ = "1.0.0"

__all__ = [
    "ChipConfig",
    "CoreConfig",
    "HBMConfig",
    "InterconnectConfig",
    "SystemConfig",
    "ipu_mk2_chip",
    "ipu_pod4",
    "mesh_pod4",
    "scaled_system",
    "single_chip",
    "POLICIES",
    "CompilerPolicy",
    "ModelCompiler",
    "PolicyOutput",
    "WorkloadSpec",
    "available_policies",
    "register_policy",
    "ArtifactStore",
    "CompileArtifact",
    "CompileRequest",
    "Session",
    "SessionStats",
    "load_artifacts",
    "save_artifacts",
    "ElkError",
    "Operator",
    "OperatorGraph",
    "TensorSpec",
    "available_models",
    "build_model",
    "ElkOptions",
    "ElkScheduler",
    "ExecutionPlan",
    "ArrivalTrace",
    "BatchBuckets",
    "RequestShape",
    "RequestSpec",
    "ServingMetrics",
    "ServingScenario",
    "SLOSpec",
    "StepLatencyModel",
    "available_scenarios",
    "batch_trace",
    "bursty_trace",
    "diurnal_trace",
    "get_scenario",
    "make_serving_session",
    "poisson_trace",
    "register_scenario",
    "replay_trace",
    "save_trace",
    "simulate_scenario",
    "AutoscalerConfig",
    "AvailabilityMetrics",
    "ClusterResult",
    "ClusterSimulator",
    "CompileFailedError",
    "DegradationPolicy",
    "DisaggregationConfig",
    "FaultEvent",
    "FaultSchedule",
    "FleetConfig",
    "RetryPolicy",
    "RouterPolicy",
    "TenantSpec",
    "available_routers",
    "random_faults",
    "register_router",
    "replay_fault_schedule",
    "save_fault_schedule",
    "simulate_cluster_scenario",
    "MetricsRegistry",
    "Tracer",
    "to_chrome_trace",
    "to_jsonl",
    "ChipSimulator",
    "simulate_system",
    "SweepAdapter",
    "SweepResult",
    "SweepSpec",
    "available_adapters",
    "register_adapter",
    "run_sweep",
    "__version__",
]
