"""Golden digests pinning the serving and fleet paths bit for bit.

Every built-in serving scenario × seeds 0–2 (32 requests, ``policy="basic"``)
runs traced on one warm shared session through :func:`simulate_scenario`;
each run reduces to a SHA-256 over its records, busy time, iteration count,
metrics summary, and deterministic JSONL trace.  Every built-in ``cluster-*``
scenario × seeds 0–2 runs the same way through
:func:`simulate_cluster_scenario` on a second warm session, and its digest
also covers the engine records, scale events, availability metrics,
rejected and failed requests, and cache/retry counters.
``tests/data/serving_golden.json`` holds the expected digests.

Regenerate (only when a change is *meant* to move serving numbers)::

    PYTHONPATH=src python tests/test_serve_golden.py > tests/data/serving_golden.json
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.cluster import simulate_cluster_scenario
from repro.obs import Tracer, to_jsonl
from repro.serve import make_serving_session, simulate_scenario

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "serving_golden.json")
SCENARIOS = (
    "interactive-chat",
    "bursty-chat",
    "offline-batch",
    "diffusion-serving",
    "mixed-traffic",
)
FLEET_SCENARIOS = (
    "cluster-chat-fleet",
    "cluster-multi-tenant",
    "cluster-autoscale",
    "cluster-disaggregated",
    "cluster-chaos-crashes",
    "cluster-chaos-degraded",
)
SEEDS = (0, 1, 2)
NUM_REQUESTS = 32
KEYS = [f"{n}/{s}" for n in SCENARIOS + FLEET_SCENARIOS for s in SEEDS]


def _run(name: str, seed: int, session, tracer=None, simulate=simulate_scenario):
    return simulate(
        name,
        policy="basic",
        num_requests=NUM_REQUESTS,
        seed=seed,
        session=session,
        tracer=tracer,
    )


def _payload(result, tracer: Tracer) -> dict:
    return {
        "records": [repr(record) for record in result.records],
        "busy_time": result.busy_time.hex(),
        "num_iterations": result.num_iterations,
        "summary": result.metrics().summary(),
        "trace": to_jsonl(tracer),
    }


def _fleet_payload(result, tracer: Tracer) -> dict:
    payload = _payload(result, tracer)
    payload.update(
        engines=[repr(engine) for engine in result.engines],
        scale_events=[repr(event) for event in result.scale_events],
        availability=repr(result.availability),
        rejected=[repr(spec) for spec in result.rejected],
        failed=[repr(spec) for spec in result.failed],
        counters=result.counters(),
    )
    return payload


def _sha(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digest_family(names, simulate, payload) -> dict[str, str]:
    session = make_serving_session()
    # Warm pass: every bucket plan compiles here, so the traced runs below
    # see only cache hits and their spans do not depend on compile order.
    for name in names:
        for seed in SEEDS:
            _run(name, seed, session, simulate=simulate)
    digests = {}
    for name in names:
        for seed in SEEDS:
            tracer = Tracer()
            result = _run(name, seed, session, tracer, simulate)
            digests[f"{name}/{seed}"] = _sha(payload(result, tracer))
    return digests


def compute_digests() -> dict[str, str]:
    """``{"<scenario>/<seed>": digest}`` for every pinned run."""
    digests = _digest_family(SCENARIOS, simulate_scenario, _payload)
    digests.update(
        _digest_family(FLEET_SCENARIOS, simulate_cluster_scenario, _fleet_payload)
    )
    return digests


@pytest.fixture(scope="module")
def digests():
    return compute_digests()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("key", KEYS)
def test_simulate_scenario_reproduces_the_golden_digest(digests, golden, key):
    assert digests[key] == golden[key]


def test_golden_file_covers_every_pinned_run(golden):
    assert sorted(golden) == sorted(KEYS)


if __name__ == "__main__":
    print(json.dumps(compute_digests(), indent=2, sort_keys=True))
