"""Cost-aware on-chip memory allocation (§4.3).

Given the currently executing operator and the set of operators preloaded
during its execution, the allocator splits each core's SRAM between the
execution space and the preload spaces.  It starts from every operator's
fastest (largest) plan and greedily steps the most "cost-effective" operator —
the one whose next-smaller Pareto plan frees the most memory per unit of added
time — down its frontier until the total footprint fits (Fig. 11).

A :class:`MemoryAllocator` memoizes its answers for its own lifetime.  The key
is the current profile plus the *ordered* preloaded (profile, execute option)
pairs, by identity: ties in the greedy walk go to the earlier candidate, so
the order is part of the question.  The allocator holds every object it has
keyed on, so no other object can take one's identity, and its answers share
their :class:`PreloadAssignment` objects.  The inductive scheduler owns one
allocator per scheduling run, where the same question recurs across preload
numbers and candidate preload orders, so the memo dies with the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
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


@dataclass
class _Candidate:
    """Internal: one operator's walk position along its Pareto frontier."""

    key: int  # operator index; the current operator uses its own index
    frontier: Sequence  # sequence of ExecuteOption or PreloadOption
    position: int = 0

    @property
    def option(self):
        return self.frontier[self.position]

    @property
    def memory(self) -> int:
        return self.option.memory_bytes

    def next_step(self) -> tuple[int, float] | None:
        """(memory saved, time added) by moving one step down the frontier."""
        if self.position + 1 >= len(self.frontier):
            return None
        nxt = self.frontier[self.position + 1]
        saved = self.memory - nxt.memory_bytes
        added = nxt.time_seconds - self.option.time_seconds
        return saved, added


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
        self._serials: dict[int, tuple[int, object]] = {}
        self._memo: dict[tuple[int, ...], AllocationResult | None] = {}
        self._assignments: dict[tuple[int, int, int], PreloadAssignment] = {}

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
            A repeated question returns the first answer's object.
        """
        key = tuple(map(self._serial, (current, *chain.from_iterable(preloaded))))
        if key not in self._memo:
            self._memo[key] = self._allocate(current, preloaded)
        return self._memo[key]

    # ----------------------------------------------------------------- internal
    def _serial(self, obj: object) -> int:
        """This allocator's number for ``obj``, which it holds so the number stays its own."""
        entry = self._serials.get(id(obj))
        if entry is None:
            entry = self._serials[id(obj)] = (len(self._serials), obj)
        return entry[0]

    def _allocate(
        self,
        current: OperatorProfile,
        preloaded: Sequence[tuple[OperatorProfile, ExecuteOption]],
    ) -> AllocationResult | None:
        current_candidate = _Candidate(key=current.index, frontier=current.execute_frontier)
        preload_candidates = [
            _Candidate(profile.index, profile.preload_frontier(option.plan, self.cost_model))
            for profile, option in preloaded
        ]
        candidates = [current_candidate] + preload_candidates
        total_memory = sum(c.memory for c in candidates)

        # Greedy walk: step the operator with the best space-saved / time-added
        # ratio until the footprint fits or no operator can shrink further.
        while total_memory > self.sram_budget:
            best_index = -1
            best_ratio = -1.0
            best_saved = 0
            for idx, candidate in enumerate(candidates):
                step = candidate.next_step()
                if step is None:
                    continue
                saved, added = step
                if saved <= 0:
                    ratio = float("inf") if added <= 0 else 0.0
                else:
                    ratio = saved / max(added, 1e-12)
                if ratio > best_ratio:
                    best_ratio = ratio
                    best_index = idx
                    best_saved = saved
            if best_index < 0:
                return None
            candidates[best_index].position += 1
            total_memory -= best_saved

        return self._build_result(current_candidate, preloaded, preload_candidates, total_memory)

    def _build_result(
        self,
        current_candidate: _Candidate,
        preloaded: Sequence[tuple[OperatorProfile, ExecuteOption]],
        preload_candidates: Sequence[_Candidate],
        total_memory: int,
    ) -> AllocationResult:
        execute_option: ExecuteOption = current_candidate.option
        assignments: dict[int, PreloadAssignment] = {}
        distribution_total = 0.0
        overhead_penalty = 0.0
        # Squeezing the current operator below its fastest plan is also a cost
        # paid because of the chosen preload number.
        overhead_penalty += (
            current_candidate.option.time_seconds
            - current_candidate.frontier[0].time_seconds
        )
        for (profile, chosen), candidate in zip(preloaded, preload_candidates):
            option: PreloadOption = candidate.option
            # (profile, execute option, position) fixes an assignment, and
            # ``_serial`` holds both objects, so their ids stay theirs.
            shared = (id(profile), id(chosen), candidate.position)
            if shared not in self._assignments:
                self._assignments[shared] = PreloadAssignment(
                    profile, chosen, option, candidate.position
                )
            assignments[candidate.key] = self._assignments[shared]
            distribution_total += option.distribution_time
            overhead_penalty += option.overhead_time - candidate.frontier[0].overhead_time

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
        window_time = execution_time + contention
        return AllocationResult(
            execute_option=execute_option,
            execute_frontier_index=current_candidate.position,
            preload_assignments=assignments,
            total_memory_bytes=total_memory,
            execution_time=execution_time,
            distribution_time_total=distribution_total,
            contention_time=contention,
            window_time=window_time,
            preload_overhead_penalty=overhead_penalty,
        )
