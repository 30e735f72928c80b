"""End-to-end compilation pipeline.

:class:`ModelCompiler` ties the frontend, the plan generators (Elk and the
baselines), and the timeline evaluator together behind one call:

>>> compiler = ModelCompiler(WorkloadSpec("llama2-13b", 32, 2048), ipu_pod4())
>>> result = compiler.compile("elk-full")
>>> result.latency            # per-token latency in seconds

Per-operator profiles (plan enumeration + costing) are built once and shared
across policies, which mirrors the paper's ablation setup where every design
consumes the same single-operator partition plans (§6.1).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from repro.obs.trace import Tracer

import repro.compiler.policies  # noqa: F401  (registers the paper's policies)
from repro.arch.chip import SystemConfig
from repro.baselines.ideal import IdealResult
from repro.baselines.static import StaticOptions
from repro.compiler.frontend import FrontendResult, WorkloadSpec, build_frontend_result
from repro.compiler.registry import available_policies, get_policy
from repro.cost.model import AnalyticCostModel, CostModel
from repro.errors import SchedulingError
from repro.obs.trace import maybe_span
from repro.scheduler.elk import ElkOptions
from repro.scheduler.plan import ExecutionPlan
from repro.scheduler.preload_order import OrderSearchStats
from repro.scheduler.profiles import OperatorProfile, build_operator_profiles
from repro.scheduler.timeline import TimelineEvaluator, TimelineResult

#: Designs compared throughout the evaluation (§6.1), derived from the
#: registry at import time.  Policies registered later are equally valid
#: ``compile()`` targets; call
#: :func:`repro.compiler.registry.available_policies` for the live set.
POLICIES = available_policies()


@dataclass
class CompileResult:
    """Outcome of compiling one workload with one policy on one system.

    Attributes:
        workload: The compiled workload.
        system_name: Name of the target system.
        policy: The compiler policy used.
        plan: The per-chip execution plan (``None`` for the Ideal roofline).
        timeline: Analytic timeline of the plan (``None`` for Ideal).
        ideal: Roofline result (only for the ``"ideal"`` policy).
        interchip_time: Per-step inter-chip all-reduce time.
        latency: End-to-end per-step latency (per-chip time + inter-chip time).
        breakdown: Fig. 18a-style latency categories.
        hbm_utilization: Average HBM bandwidth utilization.
        noc_utilization: Average interconnect utilization.
        noc_preload_fraction: Fraction of NoC traffic due to preload delivery.
        achieved_tflops: System-wide achieved TFLOP/s.
        compile_seconds: Wall-clock compile time of this policy.
        search_stats: Elk search statistics (Elk policies only).
    """

    workload: WorkloadSpec
    system_name: str
    policy: str
    plan: ExecutionPlan | None
    timeline: TimelineResult | None
    ideal: IdealResult | None
    interchip_time: float
    latency: float
    breakdown: dict[str, float]
    hbm_utilization: float
    noc_utilization: float
    noc_preload_fraction: float
    achieved_tflops: float
    compile_seconds: float
    search_stats: OrderSearchStats | None = None

    def summary(self) -> dict[str, object]:
        """Flat dictionary for result tables."""
        return {
            "model": self.workload.model_name,
            "batch_size": self.workload.batch_size,
            "seq_len": self.workload.seq_len,
            "policy": self.policy,
            "latency_ms": self.latency * 1e3,
            "hbm_utilization": self.hbm_utilization,
            "noc_utilization": self.noc_utilization,
            "achieved_tflops": self.achieved_tflops,
            "compile_seconds": self.compile_seconds,
        }


class ModelCompiler:
    """Compiles one workload for one system under any of the paper's policies.

    Args:
        workload: Model + serving configuration.
        system: Target multi-chip system.
        cost_model: Cost model for the per-chip planning (defaults to the
            analytic model of the system's chip).
        elk_options: Knobs for the Elk policies.
        static_options: Knobs for the Static baseline.
        frontend: Precomputed frontend result (e.g. from a
            :class:`repro.api.Session` cache); built lazily when omitted.
        profiles: Precomputed operator profiles; built lazily when omitted.
        tracer: Optional :class:`repro.obs.Tracer` receiving per-stage spans
            (``frontend``, ``partition-enumeration``, ``schedule``).
    """

    def __init__(
        self,
        workload: WorkloadSpec,
        system: SystemConfig,
        cost_model: CostModel | None = None,
        elk_options: ElkOptions | None = None,
        static_options: StaticOptions | None = None,
        frontend: FrontendResult | None = None,
        profiles: Sequence[OperatorProfile] | None = None,
        tracer: "Tracer | None" = None,
    ) -> None:
        self.workload = workload
        self.system = system
        self.chip = system.chip
        self.cost_model = cost_model or AnalyticCostModel(self.chip)
        self.elk_options = elk_options or ElkOptions()
        self.static_options = static_options or StaticOptions()
        self._frontend = frontend
        self._profiles = list(profiles) if profiles is not None else None
        self.tracer = tracer

    # ------------------------------------------------------------------ shared
    @property
    def frontend(self) -> FrontendResult:
        """Frontend result (per-chip graph + sharding metadata), cached."""
        if self._frontend is None:
            with maybe_span(
                self.tracer,
                "frontend",
                category="compile",
                model=self.workload.model_name,
                system=self.system.name,
            ):
                self._frontend = build_frontend_result(self.workload, self.system)
        return self._frontend

    @property
    def profiles(self) -> list[OperatorProfile]:
        """Per-operator planning profiles for the per-chip graph, cached."""
        if self._profiles is None:
            frontend = self.frontend  # build outside the enumeration span
            with maybe_span(
                self.tracer,
                "partition-enumeration",
                category="compile",
                model=self.workload.model_name,
            ) as attrs:
                self._profiles = build_operator_profiles(
                    frontend.per_chip_graph,
                    self.chip,
                    self.cost_model,
                    self.elk_options.enumeration,
                )
                attrs["num_profiles"] = len(self._profiles)
        return self._profiles

    @property
    def interchip_time(self) -> float:
        """Per-step inter-chip all-reduce time under model parallelism."""
        if self.system.num_chips <= 1:
            return 0.0
        bytes_per_step = self.frontend.interchip_bytes_per_step
        return (
            bytes_per_step / self.system.inter_chip_bandwidth
            + self.system.inter_chip_latency
        )

    def evaluator(self) -> TimelineEvaluator:
        """A timeline evaluator for plans of this workload's per-chip graph."""
        return TimelineEvaluator(
            self.chip, total_flops=self.frontend.per_chip_graph.total_flops
        )

    # ----------------------------------------------------------------- policies
    def compile(self, policy: str = "elk-full") -> CompileResult:
        """Compile the workload with one registered policy.

        Any policy registered through
        :func:`repro.compiler.registry.register_policy` is accepted, not just
        the paper's five; unknown names raise
        :class:`~repro.errors.ConfigurationError`.
        """
        policy = policy.lower()
        implementation = get_policy(policy)
        started = time.perf_counter()
        with maybe_span(
            self.tracer,
            "schedule",
            category="compile",
            policy=policy,
            model=self.workload.model_name,
        ):
            output = implementation.run(self)
        elapsed = time.perf_counter() - started
        return self._package(
            policy,
            output.plan,
            output.timeline,
            output.ideal,
            elapsed,
            output.search_stats,
        )

    def compile_all(
        self, policies: Sequence[str] = POLICIES
    ) -> dict[str, CompileResult]:
        """Compile the workload with several policies, sharing the profiles."""
        return {policy: self.compile(policy) for policy in policies}

    # ------------------------------------------------------------------ package
    def _package(
        self,
        policy: str,
        plan: ExecutionPlan | None,
        timeline: TimelineResult | None,
        ideal: IdealResult | None,
        compile_seconds: float,
        search_stats: OrderSearchStats | None,
    ) -> CompileResult:
        interchip = self.interchip_time
        if ideal is not None:
            per_chip_time = ideal.total_time
            breakdown = ideal.breakdown()
            hbm_util = ideal.hbm_utilization
            noc_util = 0.0
            noc_preload_fraction = 0.0
        else:
            if timeline is None:
                raise SchedulingError(f"policy {policy!r} produced no timeline")
            per_chip_time = timeline.total_time
            breakdown = timeline.breakdown()
            hbm_util = timeline.hbm_utilization
            noc_util = timeline.noc_utilization
            noc_preload_fraction = timeline.noc_preload_fraction
        latency = per_chip_time + interchip
        achieved = (
            self.frontend.full_graph_flops / latency / 1e12 if latency > 0 else 0.0
        )
        return CompileResult(
            workload=self.workload,
            system_name=self.system.name,
            policy=policy,
            plan=plan,
            timeline=timeline,
            ideal=ideal,
            interchip_time=interchip,
            latency=latency,
            breakdown=breakdown,
            hbm_utilization=hbm_util,
            noc_utilization=noc_util,
            noc_preload_fraction=noc_preload_fraction,
            achieved_tflops=achieved,
            compile_seconds=compile_seconds,
            search_stats=search_stats,
        )


def compile_model(
    workload: WorkloadSpec | str,
    system: SystemConfig,
    policy: str = "elk-full",
    **kwargs,
) -> CompileResult:
    """One-shot convenience wrapper around :class:`ModelCompiler`.

    Args:
        workload: A :class:`WorkloadSpec` or a registered model name (compiled
            with default batch size 32 and sequence length 2048).
        system: Target system.
        policy: One of :data:`POLICIES`.
        **kwargs: Forwarded to :class:`ModelCompiler`.

    Returns:
        The :class:`CompileResult`.
    """
    if isinstance(workload, str):
        workload = WorkloadSpec(model=workload)
    return ModelCompiler(workload, system, **kwargs).compile(policy)
