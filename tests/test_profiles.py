"""The pruned setup search of ``build_operator_profiles`` is exact.

``build_operator_profiles`` searches an execute plan's setup overhead (the
cheapest preload overhead over all its preload plans) only when the plan's
execution time alone beats the frontier's best over strictly smaller plans.
These tests rebuild every frontier with the search run for every plan and
the Pareto rule written out, and pin which plans are searched.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.cost import AnalyticCostModel, FittedCostModel, MeasuredCostModel
from repro.partition.enumerate import enumerate_execute_plans
from repro.partition.plan import enumerate_preload_plans
from repro.scheduler import build_operator_profiles
from repro.scheduler import profiles as profiles_module
from repro.scheduler.profiles import ExecuteOption

COST_MODELS = {
    "analytic": AnalyticCostModel,
    "measured": MeasuredCostModel,
    "fitted": lambda chip: FittedCostModel(chip, samples_per_op=100, seed=5),
}


@pytest.fixture(scope="module", params=sorted(COST_MODELS))
def cost_model(request, small_chip):
    return COST_MODELS[request.param](small_chip)


def exhaustive_options(op, chip, cost_model) -> list[ExecuteOption]:
    """Every execute plan of ``op`` with its setup overhead searched."""
    hbm_time = cost_model.hbm_load_time(op.hbm_load_bytes)
    return [
        ExecuteOption(
            plan=plan,
            cost=cost_model.execution_cost(op, plan),
            setup_overhead=min(
                cost_model.distribution_time(p)
                + max(0.0, cost_model.preload_noc_time(p) - hbm_time)
                for p in enumerate_preload_plans(plan)
            ),
        )
        for plan in enumerate_execute_plans(op, chip)
    ]


def reference_frontier(options: list[ExecuteOption]) -> list[ExecuteOption]:
    """The Pareto rule over all options: smallest memory up, faster by > 1e-15."""
    kept, best = [], float("inf")
    for option in sorted(options, key=lambda o: (o.memory_bytes, o.time_seconds)):
        if option.time_seconds < best - 1e-15:
            kept.append(option)
            best = option.time_seconds
    return kept[::-1]


def test_frontiers_match_an_exhaustive_search(tiny_graph, small_chip, cost_model):
    profiles = build_operator_profiles(tiny_graph, small_chip, cost_model)
    assert [profile.op for profile in profiles] == list(tiny_graph)
    for profile in profiles:
        expected = reference_frontier(exhaustive_options(profile.op, small_chip, cost_model))
        assert profile.execute_frontier == expected, profile.op.name


def test_setup_is_searched_only_for_plans_that_pass_the_bound(
    tiny_graph, small_chip, cost_model, monkeypatch
):
    searched = []

    def counting(plan):
        searched.append(plan)
        return enumerate_preload_plans(plan)

    monkeypatch.setattr(profiles_module, "enumerate_preload_plans", counting)
    build_operator_profiles(tiny_graph, small_chip, cost_model)

    expected, enumerated, seen = [], 0, set()
    for op in tiny_graph:
        if profiles_module._structure(op) in seen:
            continue  # shares the first operator's enumeration
        seen.add(profiles_module._structure(op))
        options = exhaustive_options(op, small_chip, cost_model)
        frontier = reference_frontier(options)
        enumerated += len(options)
        for option in options:
            best = min(
                (f.time_seconds for f in frontier if f.memory_bytes < option.memory_bytes),
                default=float("inf"),
            )
            if option.cost.total_time < best - 1e-15:
                expected.append(option.plan)
    assert Counter(searched) == Counter(expected)
    assert len(searched) < enumerated / 2, "the bound no longer prunes the setup search"
