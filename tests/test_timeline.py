"""Tests for the forward timeline evaluator."""

import pytest

from repro.scheduler import (
    InductiveScheduler,
    MemoryAllocator,
    SchedulerOptions,
    TimelineEvaluator,
)


@pytest.fixture(scope="module")
def evaluated(tiny_profiles, small_chip, small_cost_model, tiny_graph):
    scheduler = InductiveScheduler(
        tiny_profiles,
        MemoryAllocator(
            small_cost_model, small_chip.per_core_usable_sram, small_chip.core.link_bandwidth
        ),
        SchedulerOptions(max_preload_ahead=8),
    )
    plan = scheduler.schedule()
    evaluator = TimelineEvaluator(small_chip, total_flops=tiny_graph.total_flops)
    return plan, evaluator.evaluate(plan)


def test_timeline_is_causally_consistent(evaluated):
    plan, timeline = evaluated
    for timing in timeline.timings:
        assert timing.preload_end >= timing.preload_start
        assert timing.distribution_start >= timing.preload_end - 1e-12
        assert timing.exec_end >= timing.exec_start >= timing.distribution_start
    # Executions are serial and in order.
    ends = [t.exec_end for t in timeline.timings]
    starts = [t.distribution_start for t in timeline.timings]
    for i in range(1, len(ends)):
        assert starts[i] >= ends[i - 1] - 1e-12


def test_preloads_are_sequential(evaluated):
    plan, timeline = evaluated
    by_order = sorted(timeline.timings, key=lambda t: plan.preload_order.index(t.index))
    for previous, current in zip(by_order, by_order[1:]):
        assert current.preload_start >= previous.preload_end - 1e-12


def test_breakdown_sums_to_total(evaluated):
    _, timeline = evaluated
    breakdown = timeline.breakdown()
    total = sum(breakdown.values())
    assert total == pytest.approx(timeline.total_time, rel=0.05)
    assert all(value >= 0 for value in breakdown.values())


def test_total_time_bounds(evaluated):
    plan, timeline = evaluated
    lower = max(
        sum(s.hbm_time for s in plan.schedules),
        sum(s.execution_time for s in plan.schedules),
    )
    upper = sum(
        s.preload_time + s.execution_time + s.distribution_time for s in plan.schedules
    ) + timeline.interconnect_time
    assert lower <= timeline.total_time <= upper * 1.001


def test_utilizations_in_range(evaluated):
    _, timeline = evaluated
    assert 0.0 <= timeline.hbm_utilization <= 1.0
    assert 0.0 <= timeline.noc_utilization <= 1.0
    assert 0.0 <= timeline.noc_preload_fraction <= 1.0
    assert timeline.achieved_flops > 0


def test_stalls_match_preload_gaps(evaluated):
    _, timeline = evaluated
    for timing in timeline.timings:
        assert timing.stall_before_exec >= 0.0
        assert timing.contention_penalty >= 0.0
