"""Tests (including property-based tests) for the Pareto-frontier utilities."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.partition.pareto import ParetoPoint, frontier_from_plans, next_smaller, pareto_frontier


def _points(pairs):
    return [ParetoPoint(memory_bytes=m, time_seconds=t, plan=(m, t)) for m, t in pairs]


def _reference_frontier(points):
    """The Pareto rule written out: smallest memory up, keep a point faster by > 1e-15."""
    kept, best = [], float("inf")
    for point in sorted(points, key=lambda p: (p.memory_bytes, p.time_seconds)):
        if point.time_seconds < best - 1e-15:
            kept.append(point)
            best = point.time_seconds
    return kept[::-1]


def test_simple_frontier():
    points = _points([(100, 1.0), (80, 2.0), (60, 1.5), (40, 4.0)])
    frontier = pareto_frontier(points)
    kept = [(p.memory_bytes, p.time_seconds) for p in frontier]
    assert (60, 1.5) in kept  # dominates (80, 2.0)
    assert (80, 2.0) not in kept
    assert kept[0][0] >= kept[-1][0]


def test_frontier_orders_largest_memory_first():
    points = _points([(10, 5.0), (20, 3.0), (30, 1.0)])
    frontier = pareto_frontier(points)
    memories = [p.memory_bytes for p in frontier]
    assert memories == sorted(memories, reverse=True)


def test_next_smaller_walk():
    points = _points([(30, 1.0), (20, 2.0), (10, 3.0)])
    frontier = pareto_frontier(points)
    second = next_smaller(frontier, 0)
    assert second is not None and second.memory_bytes < frontier[0].memory_bytes
    assert next_smaller(frontier, len(frontier) - 1) is None


def test_frontier_from_plans_extractors():
    plans = [(100, 1.0), (50, 2.0), (50, 5.0)]
    frontier = frontier_from_plans(plans, memory_of=lambda p: p[0], time_of=lambda p: p[1])
    assert (50, 5.0) not in [p.plan for p in frontier]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 10_000), st.floats(0.001, 100.0)),
        min_size=1,
        max_size=40,
    )
)
def test_frontier_is_mutually_non_dominated(pairs):
    """Property: no frontier point dominates another, and every input point is
    dominated by (or equal to) some frontier point."""
    frontier = pareto_frontier(_points(pairs))
    assert frontier
    for i, a in enumerate(frontier):
        for j, b in enumerate(frontier):
            if i == j:
                continue
            dominates = (
                a.memory_bytes <= b.memory_bytes
                and a.time_seconds <= b.time_seconds
                and (a.memory_bytes < b.memory_bytes or a.time_seconds < b.time_seconds)
            )
            assert not dominates, "frontier contains a dominated point"
    for memory, timing in pairs:
        assert any(
            p.memory_bytes <= memory and p.time_seconds <= timing + 1e-12
            for p in frontier
        ), "an input point is not covered by the frontier"


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 1000), st.floats(0.001, 10.0)),
        min_size=1,
        max_size=30,
    )
)
def test_frontier_time_is_monotone_in_memory(pairs):
    """Property: walking the frontier toward smaller memory never gets faster."""
    frontier = pareto_frontier(_points(pairs))
    times = [p.time_seconds for p in frontier]
    assert all(times[i] <= times[i + 1] + 1e-12 for i in range(len(times) - 1))


# Memories that tie, and times that tie or differ by a few ulps (< 1e-15).
_near_ties = st.lists(
    st.tuples(
        st.integers(1, 6),
        st.sampled_from([0.25, 0.5, 1.0, 1.5]),
        st.integers(-4, 4),
        st.sampled_from([0.0, 1e-16, 1e-3, 0.5, 10.0]),
    ),
    max_size=30,
)


@settings(max_examples=300, deadline=None)
@given(_near_ties)
# The middle plan passes the bound but is within 1e-15 of the first plan, so
# it does not join and the frontier's best stays the first's time.  The last
# plan beats that best and joins, although it is within 1e-15 of the plain
# minimum of the earlier times.
@example([(1, 1.0, 4, 0.0), (2, 1.0, 0, 1e-3), (3, 1.0, -4, 0.0)])
def test_bounded_frontier_equals_the_unbounded_one(draws):
    """A lower bound of the time skips work but never changes the frontier,
    including which of several tied plans represents them."""
    plans = [
        (index, memory, base + ulps * 2.0**-52, slack)
        for index, (memory, base, ulps, slack) in enumerate(draws)
    ]
    timed = []

    def time_of(plan):
        timed.append(plan)
        return plan[2]

    unbounded = frontier_from_plans(plans, lambda p: p[1], lambda p: p[2])
    bounded = frontier_from_plans(
        plans, lambda p: p[1], time_of, lower_bounds=(lambda p: max(0.0, p[2] - p[3]),)
    )
    points = [ParetoPoint(memory_bytes=p[1], time_seconds=p[2], plan=p) for p in plans]
    reference = _reference_frontier(points)
    assert bounded == unbounded
    assert [p.plan for p in unbounded] == [p.plan for p in reference]
    assert pareto_frontier(points) == reference
    assert len(set(timed)) == len(timed), "a plan was timed twice"
