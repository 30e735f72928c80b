"""Golden digests pinning the figure rows of Figs. 17–24 bit for bit.

Each figure's grid shape (policy comparison, HBM / NoC / core-count /
MatMul-throughput design points, both topologies, single-chip DiT at batch
8, and the training forward pass) runs as a ``compile-grid`` sweep on tiny
models with one layer, batch 4, sequence 256, and small search bounds,
through one shared session.  Each grid reduces to its row count, the sorted
union of its row keys, and a SHA-256 of the canonical JSON of its rows in
order, with the wall-time ``compile_seconds`` dropped.  The digests were
first taken from the per-figure runners these specs replaced; the test
compares only the keys pinned in ``tests/data/figure_golden.json``, so
labels a sweep adds (``seed``, design-point keys) do not move them.

Regenerate (only when a change is *meant* to move figure numbers)::

    PYTHONPATH=src python tests/test_figure_golden.py > tests/data/figure_golden.json
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict

import pytest

from repro.compiler import POLICIES
from repro.eval import ExperimentConfig, make_session
from repro.sweep import SweepSpec, run_sweep
from repro.units import GB, TB

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "figure_golden.json")
REGENERATE = (
    "PYTHONPATH=src python tests/test_figure_golden.py > tests/data/figure_golden.json"
)
TINY = ExperimentConfig(
    num_layers=1,
    batch_size=4,
    seq_len=256,
    max_preload_ahead=4,
    max_order_candidates=4,
)
TOPOLOGIES = ("all_to_all", "mesh_2d")


def _core_point(model: str, cores: int, policy: str) -> dict:
    dit = model.startswith("tiny-dit")
    total_cores = cores if dit else 4 * cores
    point = {
        "model": model,
        "system": "single-chip" if dit else "ipu-pod4",
        "cores_per_chip": cores,
        "total_cores": total_cores,
        "hbm_bandwidth_TBps": 2.7 * GB * total_cores / TB,
        "policy": policy,
    }
    return {**point, "batch_size": 8} if dit else point


def _spec(name: str, fixed=None, **kwargs) -> SweepSpec:
    return SweepSpec(
        name=name, adapter="compile-grid", fixed={**asdict(TINY), **(fixed or {})}, **kwargs
    )


GRIDS = {
    "fig17_end_to_end": _spec(
        "fig17_end_to_end",
        axes={"model": ("tiny-llm", "tiny-gqa"), "seq_len": (256,),
              "batch_size": (4,), "policy": POLICIES},
    ),
    "fig18_utilization": _spec(
        "fig18_utilization", axes={"model": ("tiny-llm", "tiny-gqa"), "policy": POLICIES},
    ),
    "fig19_hbm_sweep": _spec(
        "fig19_hbm_sweep",
        axes={"topology": TOPOLOGIES, "hbm_bandwidth_TBps": (4.0, 16.0),
              "model": ("tiny-llm",), "policy": POLICIES},
    ),
    "fig22_noc_sweep": _spec(
        "fig22_noc_sweep",
        fixed={"model": "tiny-llm"},
        axes={"topology": TOPOLOGIES, "hbm_bandwidth_TBps": (8.0,),
              "noc_bandwidth_TBps": (24.0, 48.0), "policy": POLICIES},
    ),
    "fig23_core_sweep": _spec(
        "fig23_core_sweep",
        include=tuple(
            _core_point(model, cores, policy)
            for model in ("tiny-llm", "tiny-dit")
            for cores in (736, 1472)
            for policy in POLICIES
        ),
    ),
    "fig24_training": _spec(
        "fig24_training",
        fixed={"model": "tiny-llm", "phase": "training_forward"},
        include=tuple(
            {"topology": topology, "hbm_bandwidth_GBps": 300,
             "hbm_bandwidth_TBps": 300 * GB / TB, "noc_bandwidth_TBps": 32,
             "available_tflops": tflops, "matmul_tflops": tflops, "policy": policy}
            for topology in TOPOLOGIES
            for tflops in (500, 1500)
            for policy in ("static", "elk-full", "ideal")
        ),
    ),
}


def _row_digest(rows, keys=None) -> dict:
    """Row count, key union, and SHA-256 of one grid's rows.

    ``keys`` restricts every row to the given keys (the pinned ones), so
    label columns a newer path adds do not move the digest.
    """
    trimmed = [
        {k: v for k, v in row.items() if k != "compile_seconds" and (keys is None or k in keys)}
        for row in rows
    ]
    text = json.dumps(trimmed, sort_keys=True, separators=(",", ":"))
    return {
        "num_rows": len(trimmed),
        "keys": sorted({key for row in trimmed for key in row}),
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
    }


def compute_digests(keys_by_grid=None) -> dict[str, dict]:
    """``{grid: {"num_rows", "keys", "sha256"}}`` for every pinned grid."""
    session = make_session(TINY)
    digests = {}
    for name, spec in GRIDS.items():
        result = run_sweep(spec, session=session)
        assert result.ok, result.errors
        digests[name] = _row_digest(result.rows, (keys_by_grid or {}).get(name))
    return digests


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def digests(golden):
    return compute_digests(
        {name: set(entry["keys"]) for name, entry in golden["grids"].items()}
    )


@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_figure_rows_reproduce_the_golden_digest(digests, golden, grid):
    assert digests[grid] == golden["grids"][grid]


def test_golden_file_covers_every_grid(golden):
    assert sorted(golden["grids"]) == sorted(GRIDS)
    assert golden["regenerate"] == REGENERATE


if __name__ == "__main__":
    print(json.dumps({"regenerate": REGENERATE, "grids": compute_digests()}, indent=2))
