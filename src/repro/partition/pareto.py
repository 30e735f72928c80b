"""Pareto-frontier utilities for memory/time trade-off plans.

Elk keeps only Pareto-optimal plans per operator (§4.3): a plan survives if no
other plan is both at least as fast and at least as small.  The allocator then
walks the frontier from the fastest (largest) plan towards smaller plans.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter
from typing import Callable, Generic, Iterable, Sequence, TypeVar

T = TypeVar("T")


@dataclass(frozen=True)
class ParetoPoint(Generic[T]):
    """A plan annotated with its memory footprint and time cost.

    Attributes:
        memory_bytes: Per-core SRAM footprint of the plan.
        time_seconds: Time cost of the plan (execution or distribution time).
        plan: The underlying plan object.
    """

    memory_bytes: int
    time_seconds: float
    plan: T


def pareto_frontier(points: Iterable[ParetoPoint[T]]) -> list[ParetoPoint[T]]:
    """Return the Pareto-optimal points, sorted by decreasing memory.

    A point is kept if no other point has both ``memory_bytes <=`` and
    ``time_seconds <=`` (with at least one strict).  Ties on both axes keep a
    single representative.

    The returned list is ordered from the largest-memory (fastest) plan to the
    smallest-memory (slowest) plan, which is the order the §4.3 greedy
    allocator walks.
    """
    by_fields = attrgetter("memory_bytes"), attrgetter("time_seconds")
    return [point.plan for point in frontier_from_plans(list(points), *by_fields)]


def frontier_from_plans(
    plans: Sequence[T],
    memory_of: Callable[[T], int],
    time_of: Callable[[T], float],
    lower_bound_of: Callable[[T], float] | None = None,
) -> list[ParetoPoint[T]]:
    """Build and filter Pareto points from raw plans.

    Of each memory size, the fastest plan (the first on a tie) joins if it beats
    the frontier's best time over smaller plans by more than 1e-15.

    Args:
        plans: Candidate plans.
        memory_of: Function extracting the per-core memory footprint of a plan.
        time_of: Function extracting the time cost of a plan.
        lower_bound_of: Optional cheap lower bound of ``time_of``.  A plan
            whose bound fails that test cannot join, so ``time_of`` is called
            only for plans that pass it; the frontier is unchanged.

    Returns:
        The Pareto frontier ordered from largest/fastest to smallest/slowest.
    """
    memories = [memory_of(plan) for plan in plans]
    frontier: list[ParetoPoint[T]] = []
    best = float("inf")
    by_memory = sorted(range(len(plans)), key=memories.__getitem__)
    for memory, group in groupby(by_memory, key=memories.__getitem__):
        points = [
            ParetoPoint(memory, time_of(plans[i]), plans[i]) for i in group
            if lower_bound_of is None or lower_bound_of(plans[i]) < best - 1e-15
        ]
        fastest = min(points, key=attrgetter("time_seconds"), default=None)
        if fastest is not None and fastest.time_seconds < best - 1e-15:
            frontier.append(fastest)
            best = fastest.time_seconds
    return frontier[::-1]


def next_smaller(
    frontier: Sequence[ParetoPoint[T]], current_index: int
) -> ParetoPoint[T] | None:
    """Return the next plan down the frontier (smaller memory), if any."""
    if current_index + 1 < len(frontier):
        return frontier[current_index + 1]
    return None
