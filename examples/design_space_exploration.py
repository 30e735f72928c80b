#!/usr/bin/env python3
"""Design-space exploration of ICCA chips with Elk (§6.4).

Sweeps (1) HBM bandwidth, (2) interconnect bandwidth, and (3) the network
topology for an LLM decoding workload, and prints which resource bounds
each design point — reproducing the paper's §6.4 insights: HBM bandwidth
helps decode until the interconnect becomes the bottleneck, and the two
must scale together.

Each study is a declarative ``compile-grid`` :class:`~repro.sweep.SweepSpec`
— the same path as the figure benchmarks — and all three share one
compile session.  The HBM-bandwidth study (insight 1) is also checked in as
``examples/sweeps/dse_hbm_bandwidth.json`` for the CLI
(``python -m repro.sweep run examples/sweeps/dse_hbm_bandwidth.json``).

Run with::

    python examples/design_space_exploration.py
"""

from __future__ import annotations

from repro.api import Session
from repro.arch.interconnect import ALL_TO_ALL, MESH_2D
from repro.dse import bottleneck, diminishing_returns
from repro.sweep import SweepSpec, run_sweep

FIXED = {
    "model": "llama2-13b",
    "policy": "elk-full",
    "num_layers": 2,
    "batch_size": 32,
    "seq_len": 2048,
    "max_order_candidates": 8,
}
HBM_SWEEP = SweepSpec(
    name="dse_hbm_bandwidth",
    adapter="compile-grid",
    description="Insight 1: diminishing returns as HBM bandwidth grows",
    axes={"hbm_bandwidth_TBps": (4.0, 8.0, 16.0, 32.0)},
    fixed=FIXED,
)
NOC_SWEEP = SweepSpec(
    name="dse_noc_hbm",
    adapter="compile-grid",
    description="Insight 2: interconnect and HBM bandwidth must scale together",
    axes={"noc_bandwidth_TBps": (24.0, 48.0), "hbm_bandwidth_TBps": (8.0, 16.0)},
    fixed=FIXED,
)
TOPOLOGY_SWEEP = SweepSpec(
    name="dse_topology",
    adapter="compile-grid",
    description="Topology comparison at 16 TB/s HBM",
    axes={"topology": (ALL_TO_ALL, MESH_2D)},
    fixed=FIXED,
)


def main() -> None:
    session = Session()

    def rows(spec: SweepSpec) -> list[dict]:
        result = run_sweep(spec, session=session)
        assert result.ok, result.errors
        return result.rows

    print("== Insight 1: HBM bandwidth sweep (all-to-all NoC) ==")
    hbm_rows = rows(HBM_SWEEP)
    for row in hbm_rows:
        print(
            f"  HBM {row['hbm_bandwidth_TBps']:5.1f} TB/s -> "
            f"latency {row['latency_ms']:6.3f} ms, "
            f"HBM util {row['hbm_utilization']:.2f}, NoC util {row['noc_utilization']:.2f}, "
            f"bottleneck: {bottleneck(row)}"
        )
    print(f"  diminishing returns observed: {diminishing_returns(hbm_rows)}")

    print("\n== Insight 2: interconnect and HBM bandwidth must scale together ==")
    for row in rows(NOC_SWEEP):
        print(
            f"  NoC {row['noc_bandwidth_TBps']:5.1f} TB/s, "
            f"HBM {row['hbm_bandwidth_TBps']:5.1f} TB/s -> "
            f"latency {row['latency_ms']:6.3f} ms ({bottleneck(row)}-bound)"
        )

    print("\n== Topology comparison at 16 TB/s HBM ==")
    for row in rows(TOPOLOGY_SWEEP):
        print(
            f"  {row['topology']:10s}: latency {row['latency_ms']:6.3f} ms, "
            f"NoC util {row['noc_utilization']:.2f}"
        )


if __name__ == "__main__":
    main()
