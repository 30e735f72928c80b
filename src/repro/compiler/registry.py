"""Pluggable registry of compiler policies.

The paper compares five compiler designs (§6.1) and several ablations on the
same per-operator profiles.  Rather than hard-coding that set in the compile
pipeline, every design is a :class:`CompilerPolicy` registered by name; the
pipeline dispatches through the registry, so new policies — ablations, paper
extensions, experimental schedulers — plug in without touching
:mod:`repro.compiler.pipeline`:

>>> @register_policy("my-ablation")
... class MyAblation(CompilerPolicy):
...     def run(self, compiler):
...         plan = ...                      # build an ExecutionPlan
...         timeline = compiler.evaluator().evaluate(plan)
...         return PolicyOutput(plan=plan, timeline=timeline)
>>> Session().compile(workload, system, policy="my-ablation")

A policy receives the :class:`~repro.compiler.pipeline.ModelCompiler` driving
the compilation and reads the inputs the :class:`~repro.api.Session` built
for it (frontend result, operator profiles, cost model), which mirrors the paper's ablation
setup where every design consumes the same single-operator partition plans.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar

from repro.errors import ConfigurationError
from repro.registry import Registry

if TYPE_CHECKING:
    from repro.baselines.ideal import IdealResult
    from repro.compiler.pipeline import ModelCompiler
    from repro.scheduler.plan import ExecutionPlan
    from repro.scheduler.preload_order import OrderSearchStats
    from repro.scheduler.timeline import TimelineResult


@dataclass(frozen=True)
class PolicyOutput:
    """What a policy returns; ``CompileArtifact.from_output`` derives its metrics.

    Exactly one of ``timeline`` (plan-producing policies) or ``ideal``
    (roofline-style policies) must be set.

    Attributes:
        plan: The per-chip execution plan (``None`` for roofline policies).
        timeline: Analytic timeline of the plan (``None`` for rooflines).
        ideal: Roofline estimate (roofline policies only).
        search_stats: Search-space statistics, if the policy searched.
    """

    plan: "ExecutionPlan | None" = None
    timeline: "TimelineResult | None" = None
    ideal: "IdealResult | None" = None
    search_stats: "OrderSearchStats | None" = None

    def __post_init__(self) -> None:
        if (self.timeline is None) == (self.ideal is None):
            raise ConfigurationError(
                "a PolicyOutput needs exactly one of `timeline` or `ideal`"
            )


class CompilerPolicy(abc.ABC):
    """One compiler design: turns shared profiles into an execution plan.

    Subclasses are registered with :func:`register_policy` and instantiated
    fresh for every :meth:`~repro.compiler.pipeline.ModelCompiler.compile`
    call, so they may keep per-compilation state on ``self``.

    Attributes:
        name: Registry name, filled in by :func:`register_policy`.
        description: One-line summary for tooling and reports.
    """

    name: ClassVar[str] = ""
    description: ClassVar[str] = ""

    @abc.abstractmethod
    def run(self, compiler: "ModelCompiler") -> PolicyOutput:
        """Compile ``compiler``'s workload and return the outcome."""


_POLICIES: Registry[CompilerPolicy] = Registry("policy", CompilerPolicy)

register_policy = _POLICIES.register
unregister_policy = _POLICIES.unregister
get_policy = _POLICIES.get
is_registered = _POLICIES.is_registered
available_policies = _POLICIES.available
policy_descriptions = _POLICIES.descriptions
