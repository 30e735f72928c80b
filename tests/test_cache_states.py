"""A serving result must not depend on how its step plans were obtained.

Every registered scenario runs five ways — lazily on a cold store, lazily
on a fresh session over that (now warm) store, prewarmed through a
process-backend ``compile_many``, prewarmed on threads, and lazily in
memory — and the runs must agree bit for bit on the request records, the
metrics, and (for fleets) the availability report.  Each way shares one
session across scenarios, so every bucket plan compiles once per way.
"""

from __future__ import annotations

import pytest

from repro.api import ArtifactStore
from repro.cluster import simulate_cluster_scenario
from repro.serve import (
    available_scenarios,
    get_scenario,
    make_serving_session,
    simulate_scenario,
)

SINGLE_ENGINE = (
    "interactive-chat",
    "bursty-chat",
    "offline-batch",
    "diffusion-serving",
    "mixed-traffic",
)
FLEET = (
    "cluster-chat-fleet",
    "cluster-multi-tenant",
    "cluster-autoscale",
    "cluster-disaggregated",
    "cluster-chaos-crashes",
    "cluster-chaos-degraded",
)
SCENARIOS = SINGLE_ENGINE + FLEET
WAYS = ("cold", "warm", "process", "prewarm", "lazy")
NUM_REQUESTS = 12


def _simulate(name, session, prewarm=False):
    run = simulate_scenario if name in SINGLE_ENGINE else simulate_cluster_scenario
    return run(name, num_requests=NUM_REQUESTS, session=session, prewarm=prewarm)


def _outcome(result) -> dict:
    return {
        "records": result.records,
        "metrics": result.metrics(),
        "availability": result.availability,
    }


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    store_dir = str(tmp_path_factory.mktemp("store"))
    cold = make_serving_session(store=ArtifactStore(store_dir))
    process = make_serving_session(backend="process", max_workers=2)
    prewarmed = make_serving_session()
    lazy = make_serving_session()
    results = {}
    for name in SCENARIOS:
        warm = make_serving_session(store=ArtifactStore(store_dir))
        results[name] = {
            "cold": _simulate(name, cold),
            "warm": _simulate(name, warm),
            "process": _simulate(name, process, prewarm=True),
            "prewarm": _simulate(name, prewarmed, prewarm=True),
            "lazy": _simulate(name, lazy),
        }
        assert warm.stats.compiles == 0, f"{name}: warm run compiled"
    assert process.stats.compiles > 0 and all(
        artifact.result is None for artifact in process.artifacts()
    ), "process-backend artifacts should arrive serialized"
    return results


def test_registry_holds_the_covered_scenarios():
    assert set(SCENARIOS) <= set(available_scenarios())


@pytest.mark.parametrize("name", SCENARIOS)
def test_result_is_independent_of_cache_state(runs, name):
    outcomes = {way: _outcome(runs[name][way]) for way in WAYS}
    reference = outcomes["lazy"]
    assert reference["metrics"].num_requests > 0
    for way in WAYS:
        assert outcomes[way] == reference, f"{name}: {way} run differs from lazy"


@pytest.mark.parametrize("name", SCENARIOS)
def test_prewarm_compiles_only_reachable_prefill_shapes(runs, name):
    budget = get_scenario(name).buckets.prefill_attention_budget
    lazy_shapes = set(runs[name]["lazy"].compiled_shapes)
    for model, phase, batch, context in runs[name]["prewarm"].compiled_shapes:
        if phase == "prefill":
            # Over-budget shapes are reachable only by one long prompt,
            # which the lazy path compiles on demand.
            assert batch * context**2 <= budget or (
                (model, phase, batch, context) in lazy_shapes
            )
