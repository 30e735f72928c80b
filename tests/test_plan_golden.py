"""Golden digests pinning compiled plans bit for bit.

Three tiny workloads (``tiny-llm`` and ``tiny-gqa`` at batch 4, ``tiny-dit``
at batch 8; sequence 256, two layers so the second layer repeats the first
one's operator shapes) compile under all five policies on the ``ipu-pod4``
and ``mesh-pod4`` design points, with small scheduler bounds, through one
session.  Each artifact reduces to a SHA-256 of the canonical JSON of:

* its ``to_dict()`` without the wall-time ``compile_seconds``;
* for plan-bearing artifacts, every schedule's ``op_name``,
  ``repr(execute_plan)``, ``repr(preload_plan)`` and ``preload_number``, and
  the plan's ``preload_order``.

The reprs carry every partition factor, operand shard and footprint, so a
change to enumeration, allocation or scheduling that moves any plan, or any
operator or tensor name inside one, moves a digest.

Regenerate (only when a change is *meant* to move compiled plans)::

    PYTHONPATH=src python tests/test_plan_golden.py > tests/data/plan_golden.json
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.compiler import POLICIES, WorkloadSpec
from repro.dse import DesignPoint
from repro.eval import ExperimentConfig, make_request, make_session

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "plan_golden.json")
REGENERATE = "PYTHONPATH=src python tests/test_plan_golden.py > tests/data/plan_golden.json"
CONFIG = ExperimentConfig(
    num_layers=2,
    batch_size=4,
    seq_len=256,
    max_preload_ahead=4,
    max_order_candidates=4,
)
WORKLOADS = (("tiny-llm", 4), ("tiny-gqa", 4), ("tiny-dit", 8))
SYSTEMS = ("ipu-pod4", "mesh-pod4")


def _artifact_record(artifact) -> dict:
    record = {"artifact": artifact.to_dict()}
    record["artifact"].pop("compile_seconds")
    plan = artifact.result.plan
    if plan is not None:
        record["preload_order"] = list(plan.preload_order)
        record["schedules"] = [
            [s.op_name, repr(s.execute_plan), repr(s.preload_plan), s.preload_number]
            for s in plan.schedules
        ]
    return record


def compute_digests() -> dict[str, str]:
    """``{"model/system/policy": sha256}`` for every pinned compile."""
    session = make_session(CONFIG)
    digests = {}
    for system_name in SYSTEMS:
        system = DesignPoint(system=system_name).build_system()
        for model, batch_size in WORKLOADS:
            workload = WorkloadSpec(
                model,
                batch_size=batch_size,
                seq_len=CONFIG.seq_len,
                num_layers=CONFIG.num_layers,
            )
            for policy in POLICIES:
                artifact = session.compile(make_request(workload, system, policy, CONFIG))
                text = json.dumps(
                    _artifact_record(artifact), sort_keys=True, separators=(",", ":")
                )
                key = f"{model}/{system_name}/{policy}"
                digests[key] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return digests


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def digests():
    return compute_digests()


def test_plan_digests_match_the_golden_file(digests, golden):
    assert sorted(digests) == sorted(golden["plans"])
    moved = sorted(key for key, digest in digests.items() if golden["plans"][key] != digest)
    assert not moved, f"compiled plans moved: {moved}"


def test_golden_file_covers_every_compile(golden):
    assert len(golden["plans"]) == len(WORKLOADS) * len(SYSTEMS) * len(POLICIES)
    assert golden["regenerate"] == REGENERATE


if __name__ == "__main__":
    print(json.dumps({"regenerate": REGENERATE, "plans": compute_digests()}, indent=2))
