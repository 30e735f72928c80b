"""Tests for the two-level inductive scheduler and the preload-order search."""

from dataclasses import replace

import pytest

from repro.errors import SchedulingError
from repro.scheduler import (
    MemoryAllocator,
    InductiveScheduler,
    OrderSearchConfig,
    PreloadOrderGenerator,
    SchedulerOptions,
    TimelineEvaluator,
)


@pytest.fixture(scope="module")
def scheduler(tiny_profiles, small_chip, small_cost_model):
    return InductiveScheduler(
        tiny_profiles,
        MemoryAllocator(
            small_cost_model, small_chip.per_core_usable_sram, small_chip.core.link_bandwidth
        ),
        SchedulerOptions(max_preload_ahead=8),
    )


def test_schedule_covers_every_operator(scheduler, tiny_graph):
    plan = scheduler.schedule()
    plan.validate_against(tiny_graph)
    assert len(plan) == len(tiny_graph)
    assert sorted(plan.preload_order) == list(range(len(tiny_graph)))


def test_last_operator_has_zero_preload_number(scheduler):
    plan = scheduler.schedule()
    assert plan.schedules[-1].preload_number == 0


def test_memory_budget_respected(scheduler, small_chip):
    plan = scheduler.schedule()
    budget = small_chip.per_core_usable_sram
    for schedule in plan.schedules:
        assert schedule.exec_space_bytes <= budget
        resident = schedule.exec_space_bytes + sum(
            plan.schedules[j].preload_space_bytes
            for j in range(
                schedule.index + 1,
                min(len(plan), schedule.index + 1 + schedule.preload_number),
            )
        )
        assert resident <= budget + 1024  # rounding slack


def test_invalid_preload_order_rejected(scheduler):
    with pytest.raises(SchedulingError):
        scheduler.schedule([0, 0, 1])


def test_overlap_beats_no_overlap(tiny_profiles, small_chip, small_cost_model, tiny_graph):
    """Allowing preload-ahead must not be slower than forbidding it."""
    evaluator = TimelineEvaluator(small_chip, total_flops=tiny_graph.total_flops)
    with_overlap = InductiveScheduler(
        tiny_profiles,
        MemoryAllocator(
            small_cost_model, small_chip.per_core_usable_sram, small_chip.core.link_bandwidth
        ),
        SchedulerOptions(max_preload_ahead=8),
    ).schedule()
    without_overlap = InductiveScheduler(
        tiny_profiles,
        MemoryAllocator(
            small_cost_model, small_chip.per_core_usable_sram, small_chip.core.link_bandwidth
        ),
        SchedulerOptions(max_preload_ahead=0),
    ).schedule()
    time_with = evaluator.evaluate(with_overlap).total_time
    time_without = evaluator.evaluate(without_overlap).total_time
    assert time_with <= time_without * 1.001
    assert sum(s.preload_number for s in with_overlap.schedules) > 0
    assert all(s.preload_number == 0 for s in without_overlap.schedules)


def test_reordered_schedule_still_valid(scheduler, tiny_graph, small_chip):
    generator = PreloadOrderGenerator(
        tiny_graph,
        scheduler.profiles,
        small_chip.per_core_usable_sram,
        OrderSearchConfig(max_candidates=8),
    )
    orders = generator.candidate_orders()
    assert orders[0] == tuple(range(len(tiny_graph)))
    evaluated = 0
    for order in orders[1:4]:
        try:
            plan = scheduler.schedule(order)
        except SchedulingError:
            continue
        plan.validate_against(tiny_graph)
        assert tuple(plan.preload_order) == order
        evaluated += 1
    assert evaluated >= 0  # reordering may be fully pruned on tiny models


# --------------------------------------------------------------------------- #
# Preload-order generation (§4.4).
# --------------------------------------------------------------------------- #
def test_order_generator_stats(tiny_graph, tiny_profiles, small_chip):
    generator = PreloadOrderGenerator(
        tiny_graph, tiny_profiles, small_chip.per_core_usable_sram
    )
    stats = generator.stats()
    assert stats.num_operators == len(tiny_graph)
    assert stats.max_plans_per_operator >= 1
    assert stats.max_operators_on_chip >= 1
    assert 0 <= stats.heavy_per_layer <= 6


def test_candidate_orders_are_permutations(tiny_graph, tiny_profiles, small_chip):
    generator = PreloadOrderGenerator(
        tiny_graph,
        tiny_profiles,
        small_chip.per_core_usable_sram,
        OrderSearchConfig(max_candidates=16),
    )
    orders = generator.candidate_orders()
    n = len(tiny_graph)
    for order in orders:
        assert sorted(order) == list(range(n))
    assert len(orders) <= 16
    assert len(set(orders)) == len(orders)


def test_only_heavy_operators_move(tiny_graph, tiny_profiles, small_chip):
    generator = PreloadOrderGenerator(
        tiny_graph,
        tiny_profiles,
        small_chip.per_core_usable_sram,
        OrderSearchConfig(max_candidates=16),
    )
    heavy = set(generator.heavy_indices())
    for order in generator.candidate_orders():
        for position, op_index in enumerate(order):
            if position != op_index:
                assert op_index in heavy, "a light operator was reordered"


def test_edit_distance_limit_respected(tiny_graph, tiny_profiles, small_chip):
    config = OrderSearchConfig(max_candidates=32, max_edit_distance=1)
    generator = PreloadOrderGenerator(
        tiny_graph, tiny_profiles, small_chip.per_core_usable_sram, config
    )
    span = generator.representative_layer()
    heavy = generator.heavy_in_layer(span)
    for permutation in generator.layer_permutations(heavy):
        displacement = max(
            abs(permutation.index(op) - heavy.index(op)) for op in heavy
        )
        assert displacement <= 1


def _structure(op):
    def tensors(specs):
        return [(t.shape, t.dtype, t.kind) for t in specs]

    return op.op_type, tensors(op.inputs), tensors(op.outputs), op.attrs


def _nameless(option):
    plan = option.plan
    operands = tuple(replace(shard, tensor_name="") for shard in plan.operands)
    return replace(option, plan=replace(plan, op_name="", operands=operands))


def test_shared_enumeration_keeps_each_operators_names(tiny_profiles):
    """Layer 1 reuses layer 0's enumeration but not its names."""
    by_name = {profile.op.name: profile for profile in tiny_profiles}
    for profile in tiny_profiles:
        inputs = {tensor.name for tensor in profile.op.inputs}
        for option in profile.execute_frontier:
            assert option.plan.op_name == profile.op.name
            assert {shard.tensor_name for shard in option.plan.operands} <= inputs
    pairs = [
        (by_name[name.replace("layer1.", "layer0.", 1)], profile)
        for name, profile in by_name.items()
        if name.startswith("layer1.")
    ]
    # Layer 0's first norm and residual read the embeddings, an input tensor.
    pairs = [(a, b) for a, b in pairs if _structure(a.op) == _structure(b.op)]
    assert len(pairs) == 12
    for first, second in pairs:
        assert [_nameless(o) for o in first.execute_frontier] == [
            _nameless(o) for o in second.execute_frontier
        ]
        assert first.execute_frontier != second.execute_frontier


def test_negative_preload_cap_is_a_scheduling_error(
    tiny_profiles, small_chip, small_cost_model
):
    scheduler = InductiveScheduler(
        tiny_profiles,
        MemoryAllocator(
            small_cost_model, small_chip.per_core_usable_sram, small_chip.core.link_bandwidth
        ),
        SchedulerOptions(max_preload_ahead=-1),
    )
    with pytest.raises(SchedulingError, match="no preload number"):
        scheduler.schedule()
