"""End-to-end compilation pipeline.

:class:`ModelCompiler` is the per-request context a policy plans in: it holds
the frontend result, the per-operator profiles and the cost model that
:meth:`repro.api.Session.compiler` built (or fetched from its caches), and
hands each policy's :class:`~repro.compiler.registry.PolicyOutput` back
unchanged.  :meth:`repro.api.CompileArtifact.from_output` is the one place
that turns an output into latency, utilizations and the plan's simulation:

>>> session = Session()
>>> compiler = session.compiler(CompileRequest("llama2-13b", ipu_pod4()))
>>> output = compiler.compile("elk-full")
>>> output.timeline.total_time    # per-chip analytic latency in seconds

Every policy plans from the same profiles, which mirrors the paper's ablation
setup where every design consumes the same single-operator partition plans
(§6.1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from repro.obs.trace import Tracer

import repro.compiler.policies  # noqa: F401  (registers the paper's policies)
from repro.arch.chip import SystemConfig
from repro.baselines.static import StaticOptions
from repro.compiler.frontend import FrontendResult, WorkloadSpec
from repro.compiler.registry import PolicyOutput, available_policies, get_policy
from repro.cost.model import CostModel
from repro.obs.trace import maybe_span
from repro.scheduler.allocation import MemoryAllocator
from repro.scheduler.elk import ElkOptions
from repro.scheduler.profiles import OperatorProfile
from repro.scheduler.timeline import TimelineEvaluator

#: Designs compared throughout the evaluation (§6.1), derived from the
#: registry at import time.  Policies registered later are equally valid
#: ``compile()`` targets; call
#: :func:`repro.compiler.registry.available_policies` for the live set.
POLICIES = available_policies()


class ModelCompiler:
    """Compiles one workload for one system under any registered policy.

    Built by :meth:`repro.api.Session.compiler`, which owns (and caches) every
    input below; policies read them as plain attributes.

    Args:
        workload: Model + serving configuration.
        system: Target multi-chip system.
        frontend: Frontend result (per-chip graph + sharding metadata).
        profiles: Per-operator planning profiles of the per-chip graph.
        allocator: The chip's memory allocator for ``profiles`` (the Elk
            policies share its memo).
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
        allocator: MemoryAllocator,
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
        self.allocator = allocator
        self.cost_model = cost_model
        self.elk_options = elk_options
        self.static_options = static_options
        self.tracer = tracer

    def evaluator(self) -> TimelineEvaluator:
        """A timeline evaluator for plans of this workload's per-chip graph."""
        return TimelineEvaluator(
            self.chip, total_flops=self.frontend.per_chip_graph.total_flops
        )

    # ----------------------------------------------------------------- policies
    def compile(self, policy: str = "elk-full") -> PolicyOutput:
        """Plan the workload with one registered policy.

        Any policy registered through
        :func:`repro.compiler.registry.register_policy` is accepted, not just
        the paper's five; unknown names raise
        :class:`~repro.errors.ConfigurationError`.  The policy's
        :class:`~repro.compiler.registry.PolicyOutput` comes back as is;
        :meth:`repro.api.CompileArtifact.from_output` derives its metrics.
        """
        policy = policy.lower()
        implementation = get_policy(policy)
        with maybe_span(
            self.tracer,
            "schedule",
            category="compile",
            policy=policy,
            model=self.workload.model_name,
        ):
            return implementation.run(self)
