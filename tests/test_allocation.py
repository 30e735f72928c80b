"""Tests for the cost-aware on-chip memory allocator (§4.3)."""

import itertools
import random

import pytest

from repro.scheduler.allocation import MemoryAllocator


@pytest.fixture(scope="module")
def allocator_parts(tiny_graph, small_chip, small_cost_model, tiny_profiles):
    allocator = MemoryAllocator(
        small_cost_model,
        small_chip.per_core_usable_sram,
        small_chip.core.link_bandwidth,
    )
    return allocator, tiny_profiles


def test_allocation_fits_budget(allocator_parts, small_chip):
    allocator, profiles = allocator_parts
    current = profiles[1]  # the QKV matmul
    preloaded = [(p, p.fastest) for p in profiles[2:6]]
    result = allocator.allocate(current, preloaded)
    assert result is not None
    assert result.total_memory_bytes <= small_chip.per_core_usable_sram
    assert set(result.preload_assignments) == {p.index for p, _ in preloaded}


def test_allocation_without_preloads_picks_fastest(allocator_parts):
    allocator, profiles = allocator_parts
    current = profiles[1]
    result = allocator.allocate(current, [])
    assert result is not None
    assert result.execute_option is current.execute_frontier[result.execute_frontier_index]
    assert result.execute_frontier_index == 0
    assert result.window_time >= result.execution_time


def test_more_preloads_never_decrease_footprint(allocator_parts):
    allocator, profiles = allocator_parts
    current = profiles[1]
    small = allocator.allocate(current, [(profiles[2], profiles[2].fastest)])
    large = allocator.allocate(
        current, [(p, p.fastest) for p in profiles[2:8]]
    )
    if small is not None and large is not None:
        assert large.total_memory_bytes >= small.total_memory_bytes
        assert large.preload_overhead_penalty >= small.preload_overhead_penalty - 1e-12


def test_infeasible_allocation_returns_none(small_cost_model, tiny_profiles):
    # A budget smaller than any operator's smallest plan is infeasible.
    tiny_budget = min(p.smallest.memory_bytes for p in tiny_profiles) // 2
    allocator = MemoryAllocator(small_cost_model, max(1, tiny_budget), 5.5e9)
    heavy = max(tiny_profiles, key=lambda p: p.smallest.memory_bytes)
    assert allocator.allocate(heavy, []) is None


def test_greedy_tracks_exhaustive_optimum(allocator_parts, small_chip, small_cost_model):
    """On a small instance the greedy allocation's objective is close to the
    optimum found by exhaustively trying every frontier combination."""
    allocator, profiles = allocator_parts
    current = profiles[9]  # FFN gate matmul
    preloaded = [(profiles[10], profiles[10].fastest), (profiles[12], profiles[12].fastest)]
    budget = small_chip.per_core_usable_sram
    result = allocator.allocate(current, preloaded)
    assert result is not None

    def objective(exec_option, preload_options):
        return exec_option.time_seconds + sum(o.overhead_time for o in preload_options)

    frontiers = [
        profiles[10].preload_frontier(profiles[10].fastest.plan, small_cost_model),
        profiles[12].preload_frontier(profiles[12].fastest.plan, small_cost_model),
    ]
    best = None
    for exec_option in current.execute_frontier:
        for combo in itertools.product(*frontiers):
            total_memory = exec_option.memory_bytes + sum(o.memory_bytes for o in combo)
            if total_memory > budget:
                continue
            value = objective(exec_option, combo)
            if best is None or value < best:
                best = value
    assert best is not None
    greedy_value = objective(
        result.execute_option,
        [a.option for a in result.preload_assignments.values()],
    )
    assert greedy_value <= best * 1.5 + 1e-9


def test_allocator_rejects_zero_budget(small_cost_model):
    with pytest.raises(Exception):
        MemoryAllocator(small_cost_model, 0, 5.5e9)


@pytest.mark.parametrize("budget_share", [1, 4])
def test_memoized_allocations_match_fresh_allocators(
    small_chip, small_cost_model, tiny_profiles, budget_share
):
    """Repeats return the first answer; each preload order is its own question."""
    budget = small_chip.per_core_usable_sram // budget_share
    link = small_chip.core.link_bandwidth
    allocator = MemoryAllocator(small_cost_model, budget, link)
    rng = random.Random(budget_share)
    questions = set()
    for _ in range(60):
        current, *others = rng.sample(tiny_profiles, rng.randint(2, 6))
        preloaded = [(p, rng.choice(p.execute_frontier)) for p in others]
        permuted = preloaded[::-1]
        keys = []
        for pairs in (preloaded, permuted):
            first = allocator.allocate(current, pairs)
            fresh = MemoryAllocator(small_cost_model, budget, link).allocate(current, pairs)
            assert first == fresh
            assert allocator.allocate(current, list(pairs)) == first
            keys.append((id(current.fastest.cost), *(id(o.cost) for _, o in pairs)))
        questions.update(keys)
        # The reversed order is computed as a question of its own.
        assert all(key in allocator.memo for key in keys)
        assert len(allocator.memo) == len(questions)
