"""The Elk scheduling pipeline: profiles → orders → induction → evaluation.

This module glues the pieces of §4 together exactly as Fig. 9 draws them:
generate candidate preload orders (§4.4), run the two-level inductive
scheduling pass with the cost-aware allocator for each candidate (§4.2-§4.3),
estimate each resulting plan's end-to-end performance with the forward
timeline evaluator, and keep the best plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.arch.chip import ChipConfig
from repro.errors import SchedulingError
from repro.ir.graph import OperatorGraph
from repro.partition.enumerate import EnumerationLimits
from repro.scheduler.allocation import MemoryAllocator
from repro.scheduler.inductive import InductiveScheduler, SchedulerOptions
from repro.scheduler.plan import ExecutionPlan
from repro.scheduler.preload_order import (
    OrderSearchConfig,
    OrderSearchStats,
    PreloadOrderGenerator,
)
from repro.scheduler.profiles import OperatorProfile
from repro.scheduler.timeline import TimelineEvaluator, TimelineResult


@dataclass
class ElkOptions:
    """Top-level knobs of the Elk scheduler.

    Attributes:
        enable_reordering: Whether to search preload orders (Elk-Full) or keep
            the execution order (Elk-Dyn).
        max_preload_ahead: Cap on the preload number per operator.
        order_search: Preload-order search bounds.
        enumeration: Partition-plan enumeration bounds.
    """

    enable_reordering: bool = True
    max_preload_ahead: int | None = None
    order_search: OrderSearchConfig = field(default_factory=OrderSearchConfig)
    enumeration: EnumerationLimits = field(default_factory=EnumerationLimits)


@dataclass
class ScheduleOutcome:
    """Result of one Elk scheduling run.

    Attributes:
        plan: The best execution plan found.
        timeline: Its forward-replayed timeline and metrics.
        candidate_results: ``(order, total_time)`` for every evaluated order.
        stats: Search-space statistics (Table 2 factors).
    """

    plan: ExecutionPlan
    timeline: TimelineResult
    candidate_results: list[tuple[tuple[int, ...], float]]
    stats: OrderSearchStats


class ElkScheduler:
    """End-to-end Elk scheduling for one chip's share of a model.

    Args:
        graph: The (per-chip) model graph.
        chip: Target chip configuration.
        options: Scheduler knobs.
        profiles: Per-operator profiles of ``graph`` (the compile pipeline
            shares one list across policies).
        allocator: The chip's :class:`MemoryAllocator` for ``profiles`` (the
            compile pipeline shares it, and its memo, with the profiles).
    """

    def __init__(
        self,
        graph: OperatorGraph,
        chip: ChipConfig,
        options: ElkOptions,
        profiles: Sequence[OperatorProfile],
        allocator: MemoryAllocator,
    ) -> None:
        self.graph = graph
        self.chip = chip
        self.options = options
        self.profiles = profiles
        self.allocator = allocator

    # ------------------------------------------------------------------ stages
    def order_generator(self) -> PreloadOrderGenerator:
        """The §4.4 candidate-order generator for this model."""
        return PreloadOrderGenerator(
            self.graph,
            self.profiles,
            self.chip.per_core_usable_sram,
            self.options.order_search,
        )

    def _scheduler(self, policy_name: str) -> InductiveScheduler:
        return InductiveScheduler(
            self.profiles,
            self.allocator,
            SchedulerOptions(
                max_preload_ahead=self.options.max_preload_ahead,
                policy_name=policy_name,
            ),
        )

    # --------------------------------------------------------------------- run
    def run(self) -> ScheduleOutcome:
        """Run the full Elk pipeline and return the best plan."""
        generator = self.order_generator()
        candidates = generator.candidate_orders() if self.options.enable_reordering else None
        orders = candidates or [tuple(range(len(self.graph)))]
        policy = "elk-full" if self.options.enable_reordering else "elk-dyn"

        evaluator = TimelineEvaluator(self.chip, total_flops=self.graph.total_flops)
        scheduler = self._scheduler(policy)

        best: tuple[ExecutionPlan, TimelineResult] | None = None
        candidate_results: list[tuple[tuple[int, ...], float]] = []
        failures = 0
        for order in orders:
            try:
                plan = scheduler.schedule(order)
                timeline = evaluator.evaluate(plan)
            except SchedulingError:
                failures += 1
                continue
            candidate_results.append((order, timeline.total_time))
            if best is None or timeline.total_time < best[1].total_time:
                best = (plan, timeline)

        if best is None:
            raise SchedulingError(
                f"no candidate preload order produced a valid plan "
                f"({failures} candidates failed)"
            )

        plan, timeline = best
        plan.model_name = self.graph.name
        plan.metadata.update(
            {
                "chip": self.chip.name,
                "policy": policy,
                "orders_evaluated": len(candidate_results),
                "orders_failed": failures,
                "graph_metadata": dict(self.graph.metadata),
            }
        )
        return ScheduleOutcome(
            plan=plan,
            timeline=timeline,
            candidate_results=candidate_results,
            stats=generator.stats(candidates),
        )
