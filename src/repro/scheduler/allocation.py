"""Cost-aware on-chip memory allocation (§4.3).

Given the currently executing operator and the set of operators preloaded
during its execution, the allocator splits each core's SRAM between the
execution space and the preload spaces.  It starts from every operator's
fastest (largest) plan and greedily steps the most "cost-effective" operator —
the one whose next-smaller Pareto plan frees the most memory per unit of added
time — down its frontier until the total footprint fits (Fig. 11).

One :class:`MemoryAllocator` serves one profiles list, and its memo lives as
long as they do: the :class:`~repro.api.Session` builds it next to the
profiles, caches it under the same key and drops both together (a process
backend's child session has its own), so every policy and every candidate
preload order compiled from those profiles shares its answers.  The key is
structural: the current operator stands for the
:class:`~repro.cost.model.ExecutionCost` object of its fastest execute option
and each preloaded operator, in order, for that of its chosen one (ties in the
greedy walk go to the earlier candidate, so the order is part of the
question).  The cost model builds one cost object per enumerated plan, and
structurally identical operators of different layers share them
(:func:`~repro.scheduler.profiles.build_operator_profiles`), so one layer's
questions are answered from another's.  The profiles keep the objects alive,
so their ids stay theirs while the memo lives.

An entry holds numbers only: the window time, the overhead penalty, the
execute-frontier index, the preload frontier positions, the footprint and the
execution, distribution and contention times, or nothing (an empty tuple) if
nothing fits.  :meth:`MemoryAllocator.build` turns it into an
:class:`AllocationResult` for the question's own operators.  Readers take one
``memo.get`` (``None`` only for a question not yet answered), and answers are
deterministic, so threads racing on a miss publish with ``setdefault`` and the
first writer wins harmlessly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.cost.model import CostModel
from repro.errors import AllocationError
from repro.scheduler.profiles import ExecuteOption, OperatorProfile, PreloadOption


@dataclass(slots=True)
class PreloadAssignment:
    """Chosen preload-state plan for one preloaded operator.

    Attributes:
        profile: The operator's planning profile.
        execute_option: The operator's already-chosen execute-state plan.
        option: The chosen preload option.
        frontier_index: Position of ``option`` on the preload frontier.
    """

    profile: OperatorProfile
    execute_option: ExecuteOption
    option: PreloadOption
    frontier_index: int


@dataclass(slots=True)
class AllocationResult:
    """Outcome of one allocator invocation.

    Attributes:
        execute_option: Chosen execute-state plan of the current operator.
        execute_frontier_index: Its position on the execute frontier.
        preload_assignments: Chosen preload plans, keyed by operator index.
        total_memory_bytes: Per-core SRAM used by the allocation.
        execution_time: Current operator's execution time under the chosen plan.
        distribution_time_total: Sum of the preloaded operators' distribution times.
        contention_time: First-order interconnect contention overhead of
            overlapping the preload deliveries with the execution window.
        window_time: Estimated duration of the execution window (objective).
        preload_overhead_penalty: Extra preload/distribution overhead the
            chosen preload plans incur compared with each operator's best
            (largest) preload plan — the future cost of squeezing this many
            operators on chip, used by the scheduler when comparing preload
            numbers.
    """

    execute_option: ExecuteOption
    execute_frontier_index: int
    preload_assignments: dict[int, PreloadAssignment]
    total_memory_bytes: int
    execution_time: float
    distribution_time_total: float
    contention_time: float
    window_time: float
    preload_overhead_penalty: float = 0.0


class MemoryAllocator:
    """The §4.3 greedy allocator.

    Args:
        cost_model: Cost model used for contention estimates.
        sram_budget_bytes: Per-core SRAM available to execution + preload spaces.
        link_bandwidth: Per-core interconnect port bandwidth (contention estimate).
    """

    def __init__(
        self,
        cost_model: CostModel,
        sram_budget_bytes: int,
        link_bandwidth: float,
    ) -> None:
        if sram_budget_bytes <= 0:
            raise AllocationError("SRAM budget must be positive")
        self.cost_model = cost_model
        self.sram_budget = sram_budget_bytes
        self.link_bandwidth = link_bandwidth
        self.memo: dict[tuple[int, ...], tuple] = {}

    # ---------------------------------------------------------------- interface
    def allocate(
        self,
        current: OperatorProfile,
        preloaded: Sequence[tuple[OperatorProfile, ExecuteOption]],
    ) -> AllocationResult | None:
        """Allocate SRAM between the current operator and the preloaded set.

        Args:
            current: Profile of the currently executing operator.
            preloaded: For each operator preloaded during the current
                operator's execution: its profile and its already-chosen
                execute-state plan (decided by a later induction step).

        Returns:
            The allocation, or ``None`` if even the smallest plans of every
            operator exceed the SRAM budget (the preload number is infeasible).
        """
        key = (id(current.fastest.cost), *[id(option.cost) for _, option in preloaded])
        answer = self.memo.get(key)
        if answer is None:
            answer = self.memo.setdefault(key, self.answer(current, preloaded))
        return self.build(answer, current, preloaded) if answer else None

    def answer(
        self,
        current: OperatorProfile,
        preloaded: Sequence[tuple[OperatorProfile, ExecuteOption]],
    ) -> tuple:
        """Walk the greedy allocation of a question; return its memo entry unstored."""
        frontiers = [current.execute_frontier] + [
            profile.preload_frontier(option.plan, self.cost_model)
            for profile, option in preloaded
        ]
        positions = [0] * len(frontiers)
        total_memory = sum(frontier[0].memory_bytes for frontier in frontiers)

        # Greedy walk: step the operator with the best space-saved / time-added
        # ratio until the footprint fits or no operator can shrink further.
        while total_memory > self.sram_budget:
            best_index = -1
            best_ratio = -1.0
            best_saved = 0
            for idx, frontier in enumerate(frontiers):
                position = positions[idx]
                if position + 1 >= len(frontier):
                    continue
                option, smaller = frontier[position], frontier[position + 1]
                saved = option.memory_bytes - smaller.memory_bytes
                added = smaller.time_seconds - option.time_seconds
                if saved <= 0:
                    ratio = float("inf") if added <= 0 else 0.0
                else:
                    ratio = saved / max(added, 1e-12)
                if ratio > best_ratio:
                    best_ratio = ratio
                    best_index = idx
                    best_saved = saved
            if best_index < 0:
                return ()
            positions[best_index] += 1
            total_memory -= best_saved

        execute_option: ExecuteOption = current.execute_frontier[positions[0]]
        distribution_total = 0.0
        # Squeezing the current operator below its fastest plan is also a cost
        # paid because of the chosen preload number.
        overhead_penalty = execute_option.time_seconds - current.fastest.time_seconds
        for frontier, position in zip(frontiers[1:], positions[1:]):
            option: PreloadOption = frontier[position]
            distribution_total += option.distribution_time
            overhead_penalty += option.overhead_time - frontier[0].overhead_time

        execution_time = execute_option.cost.total_time
        # First-order interconnect contention: the execution window's per-core
        # inbound link carries the current operator's exchange traffic; the
        # preload deliveries are spread over many execution windows, so they
        # are accounted globally by the timeline replay rather than charged to
        # this single window (charging them here would spuriously punish
        # larger preload numbers).
        own_bytes = execute_option.cost.exchange_bytes
        link_time = own_bytes / self.link_bandwidth if self.link_bandwidth > 0 else 0.0
        contention = max(0.0, link_time - execution_time)
        return (
            execution_time + contention,
            overhead_penalty,
            positions[0],
            tuple(positions[1:]),
            total_memory,
            execution_time,
            distribution_total,
            contention,
        )

    def build(
        self,
        answer: tuple,
        current: OperatorProfile,
        preloaded: Sequence[tuple[OperatorProfile, ExecuteOption]],
    ) -> AllocationResult:
        """The :class:`AllocationResult` of a memo entry for these operators."""
        (window, penalty, index, positions, memory, execution, distribution, contention) = (
            answer
        )
        assignments = {
            profile.index: PreloadAssignment(
                profile,
                chosen,
                profile.preload_frontier(chosen.plan, self.cost_model)[position],
                position,
            )
            for (profile, chosen), position in zip(preloaded, positions)
        }
        return AllocationResult(
            execute_option=current.execute_frontier[index],
            execute_frontier_index=index,
            preload_assignments=assignments,
            total_memory_bytes=memory,
            execution_time=execution,
            distribution_time_total=distribution,
            contention_time=contention,
            window_time=window,
            preload_overhead_penalty=penalty,
        )
