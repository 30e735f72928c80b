"""Golden digests pinning the ``cluster`` and ``chaos`` sweep adapters' rows.

Two specs run into a fresh artifact store: the committed
``examples/sweeps/chaos_crash_retry.json`` and a small ``cluster`` grid
(every router × 1–2 engines on ``cluster-chat-fleet``, plus the
colocated/disaggregated ``cluster-disaggregated`` pair).  Each cold row
reduces to a SHA-256 of its sorted JSON; ``tests/data/sweep_rows_golden.json``
holds the expected digests.  A warm re-run over the same store must give the
same rows apart from ``store_hits``, which counts where plans came from.

Regenerate (only when a change is *meant* to move sweep rows)::

    PYTHONPATH=src python tests/test_sweep_rows.py > tests/data/sweep_rows_golden.json
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.api import ArtifactStore
from repro.cluster import available_routers
from repro.sweep import SweepSpec, run_sweep

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "data", "sweep_rows_golden.json")
CHAOS_SPEC = os.path.join(HERE, os.pardir, "examples", "sweeps", "chaos_crash_retry.json")

CLUSTER_SPEC = SweepSpec(
    name="cluster_rows",
    adapter="cluster",
    axes={"router": available_routers(), "num_engines": (1, 2)},
    seeds=(11,),
    fixed={"scenario": "cluster-chat-fleet", "policy": "basic", "num_requests": 12},
    include=(
        {
            "scenario": "cluster-disaggregated",
            "variant": "colocated",
            "disaggregation": None,
            "num_engines": 3,
        },
        {
            "scenario": "cluster-disaggregated",
            "variant": "disaggregated",
            "disaggregation": {"prefill_engines": 1, "decode_engines": 2},
        },
    ),
)


def _specs() -> dict[str, SweepSpec]:
    return {"chaos_crash_retry": SweepSpec.load(CHAOS_SPEC), "cluster_rows": CLUSTER_SPEC}


def _sha(row: dict) -> str:
    return hashlib.sha256(json.dumps(row, sort_keys=True).encode("utf-8")).hexdigest()


def _without_store_hits(rows: list[dict]) -> list[dict]:
    return [{k: v for k, v in row.items() if k != "store_hits"} for row in rows]


def _cold_and_warm(spec: SweepSpec, root: str):
    cold = run_sweep(spec, store=ArtifactStore(root))
    warm = run_sweep(spec, store=ArtifactStore(root))
    assert cold.ok and warm.ok, (cold.errors, warm.errors)
    return cold.rows, warm.rows


def compute_digests(root: str) -> dict[str, list[str]]:
    """``{spec name: [cold row digest, ...]}`` for both pinned specs."""
    digests = {}
    for name, spec in _specs().items():
        cold, _ = _cold_and_warm(spec, os.path.join(root, name))
        digests[name] = [_sha(row) for row in cold]
    return digests


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", ["chaos_crash_retry", "cluster_rows"])
def test_sweep_rows_reproduce_the_golden_digests(golden, tmp_path, name):
    cold, warm = _cold_and_warm(_specs()[name], str(tmp_path))
    assert [_sha(row) for row in cold] == golden[name]
    assert _without_store_hits(warm) == _without_store_hits(cold)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        print(json.dumps(compute_digests(scratch), indent=2, sort_keys=True))
