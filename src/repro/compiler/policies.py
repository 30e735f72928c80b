"""The paper's five compiler designs as registered policies (§6.1).

Each class adapts one design — the Basic and Static baselines, the two Elk
variants, and the Ideal roofline — to the :class:`~repro.compiler.registry.
CompilerPolicy` interface.  All of them consume the operator profiles the
:class:`~repro.compiler.pipeline.ModelCompiler` holds, matching the paper's
ablation setup where every design plans from the same single-operator
partition plans.

Importing this module populates the registry; the pipeline imports it for
that side effect.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, ClassVar

from repro.baselines.basic import BasicCompiler
from repro.baselines.ideal import IdealRoofline
from repro.baselines.static import StaticCompiler
from repro.compiler.registry import CompilerPolicy, PolicyOutput, register_policy
from repro.scheduler.elk import ElkScheduler

if TYPE_CHECKING:
    from repro.compiler.pipeline import ModelCompiler


@register_policy("basic")
class BasicPolicy(CompilerPolicy):
    """Conventional on-chip-only compiler: fastest plans, preload next op."""

    description: ClassVar[str] = (
        "fastest partition plans, single-operator preload, no reordering"
    )

    def run(self, compiler: "ModelCompiler") -> PolicyOutput:
        plan = BasicCompiler(
            compiler.profiles, compiler.cost_model, compiler.chip.per_core_usable_sram
        ).plan(model_name=compiler.frontend.per_chip_graph.name)
        timeline = compiler.evaluator().evaluate(plan)
        return PolicyOutput(plan=plan, timeline=timeline)


@register_policy("static")
class StaticPolicy(CompilerPolicy):
    """T10-style compiler with a fixed SRAM split between execute and preload."""

    description: ClassVar[str] = (
        "fixed preload/execute SRAM split swept over candidate fractions"
    )

    def run(self, compiler: "ModelCompiler") -> PolicyOutput:
        plan, timeline = StaticCompiler(
            compiler.profiles,
            compiler.cost_model,
            compiler.chip,
            total_flops=compiler.frontend.per_chip_graph.total_flops,
            options=compiler.static_options,
        ).plan(model_name=compiler.frontend.per_chip_graph.name)
        return PolicyOutput(plan=plan, timeline=timeline)


class _ElkPolicy(CompilerPolicy):
    """Shared driver of the two Elk variants (§4)."""

    enable_reordering: ClassVar[bool] = True

    def run(self, compiler: "ModelCompiler") -> PolicyOutput:
        options = replace(
            compiler.elk_options, enable_reordering=self.enable_reordering
        )
        scheduler = ElkScheduler(
            compiler.frontend.per_chip_graph,
            compiler.chip,
            options,
            profiles=compiler.profiles,
            allocator=compiler.allocator,
        )
        outcome = scheduler.run()
        return PolicyOutput(
            plan=outcome.plan, timeline=outcome.timeline, search_stats=outcome.stats
        )


@register_policy("elk-dyn")
class ElkDynPolicy(_ElkPolicy):
    """Elk's inductive scheduling + cost-aware allocation, execution order."""

    description: ClassVar[str] = (
        "inductive scheduling and cost-aware allocation without reordering"
    )
    enable_reordering: ClassVar[bool] = False


@register_policy("elk-full")
class ElkFullPolicy(_ElkPolicy):
    """The full Elk design: Elk-Dyn plus preload-order permutation."""

    description: ClassVar[str] = (
        "full Elk: inductive scheduling, cost-aware allocation, reordering"
    )
    enable_reordering: ClassVar[bool] = True


@register_policy("ideal")
class IdealPolicy(CompilerPolicy):
    """Contention-free roofline: the theoretical best case, not a compiler."""

    description: ClassVar[str] = (
        "roofline with private interconnect and unlimited preload space"
    )

    def run(self, compiler: "ModelCompiler") -> PolicyOutput:
        ideal = IdealRoofline(
            compiler.profiles,
            compiler.chip,
            compiler.cost_model,
            total_flops=compiler.frontend.per_chip_graph.total_flops,
        ).estimate()
        return PolicyOutput(ideal=ideal)
