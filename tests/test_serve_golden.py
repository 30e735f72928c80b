"""Golden digests pinning the single-engine serving path bit for bit.

Every built-in serving scenario × seeds 0–2 (32 requests, ``policy="basic"``)
runs traced on one warm shared session; each run reduces to a SHA-256 over
its records, busy time, iteration count, metrics summary, and deterministic
JSONL trace.  ``tests/data/serving_golden.json`` holds the expected digests.

Regenerate (only when a change is *meant* to move serving numbers)::

    PYTHONPATH=src python tests/test_serve_golden.py > tests/data/serving_golden.json
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

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
SEEDS = (0, 1, 2)
NUM_REQUESTS = 32


def _run(name: str, seed: int, session, tracer=None):
    return simulate_scenario(
        name,
        policy="basic",
        num_requests=NUM_REQUESTS,
        seed=seed,
        session=session,
        tracer=tracer,
    )


def _digest(result, tracer: Tracer) -> str:
    payload = {
        "records": [repr(record) for record in result.records],
        "busy_time": result.busy_time.hex(),
        "num_iterations": result.num_iterations,
        "summary": result.metrics().summary(),
        "trace": to_jsonl(tracer),
    }
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def compute_digests() -> dict[str, str]:
    """``{"<scenario>/<seed>": digest}`` for every pinned run."""
    session = make_serving_session()
    # Warm pass: every bucket plan compiles here, so the traced runs below
    # see only cache hits and their spans do not depend on compile order.
    for name in SCENARIOS:
        for seed in SEEDS:
            _run(name, seed, session)
    digests = {}
    for name in SCENARIOS:
        for seed in SEEDS:
            tracer = Tracer()
            result = _run(name, seed, session, tracer)
            digests[f"{name}/{seed}"] = _digest(result, tracer)
    return digests


@pytest.fixture(scope="module")
def digests():
    return compute_digests()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("key", [f"{n}/{s}" for n in SCENARIOS for s in SEEDS])
def test_simulate_scenario_reproduces_the_golden_digest(digests, golden, key):
    assert digests[key] == golden[key]


def test_golden_file_covers_every_pinned_run(golden):
    assert sorted(golden) == sorted(f"{n}/{s}" for n in SCENARIOS for s in SEEDS)


if __name__ == "__main__":
    print(json.dumps(compute_digests(), indent=2, sort_keys=True))
