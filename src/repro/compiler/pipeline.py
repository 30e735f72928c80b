"""End-to-end compilation pipeline.

:class:`ModelCompiler` is the per-request context a policy plans in: it holds
the frontend result, the per-operator profiles and the cost model that
:meth:`repro.api.Session.compiler` built (or fetched from its caches), and
packages each policy's plan into a :class:`CompileResult`:

>>> session = Session()
>>> compiler = session.compiler(CompileRequest("llama2-13b", ipu_pod4()))
>>> result = compiler.compile("elk-full")
>>> result.latency            # per-token latency in seconds

Every policy plans from the same profiles, which mirrors the paper's ablation
setup where every design consumes the same single-operator partition plans
(§6.1).
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
from repro.compiler.frontend import FrontendResult, WorkloadSpec
from repro.compiler.registry import available_policies, get_policy
from repro.cost.model import CostModel
from repro.errors import SchedulingError
from repro.obs.trace import maybe_span
from repro.scheduler.elk import ElkOptions
from repro.scheduler.plan import ExecutionPlan
from repro.scheduler.preload_order import OrderSearchStats
from repro.scheduler.profiles import OperatorProfile
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


class ModelCompiler:
    """Compiles one workload for one system under any registered policy.

    Built by :meth:`repro.api.Session.compiler`, which owns (and caches) every
    input below; policies read them as plain attributes.

    Args:
        workload: Model + serving configuration.
        system: Target multi-chip system.
        frontend: Frontend result (per-chip graph + sharding metadata).
        profiles: Per-operator planning profiles of the per-chip graph.
        cost_model: Cost model of the system's chip.
        elk_options: Knobs for the Elk policies.
        static_options: Knobs for the Static baseline.
        tracer: Optional :class:`repro.obs.Tracer` receiving one ``schedule``
            span per :meth:`compile`.
    """

    def __init__(
        self,
        workload: WorkloadSpec,
        system: SystemConfig,
        *,
        frontend: FrontendResult,
        profiles: Sequence[OperatorProfile],
        cost_model: CostModel,
        elk_options: ElkOptions,
        static_options: StaticOptions,
        tracer: "Tracer | None" = None,
    ) -> None:
        self.workload = workload
        self.system = system
        self.chip = system.chip
        self.frontend = frontend
        self.profiles = profiles
        self.cost_model = cost_model
        self.elk_options = elk_options
        self.static_options = static_options
        self.tracer = tracer

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

