#!/usr/bin/env python3
"""Serving a diffusion transformer (DiT-XL) on a single ICCA chip (Fig. 23).

DiT-XL is compute-intensive: almost all of its HBM traffic is model weights,
so preload efficiency matters less than for LLM decoding and all designs land
closer together — but Elk-Full still leads.  The example compiles a scaled
DiT-XL denoising step for a single 1472-core chip and compares the designs at
two core counts.

Run with::

    python examples/diffusion_serving.py
"""

from __future__ import annotations

from repro.api import Session
from repro.arch import single_chip
from repro.compiler import WorkloadSpec
from repro.eval import format_table
from repro.units import GB

SESSION = Session()


def evaluate(num_cores: int) -> list[dict]:
    system = single_chip(num_cores=num_cores)
    system = system.with_total_hbm_bandwidth(2.7 * GB * system.total_cores)
    workload = WorkloadSpec("dit-xl", batch_size=8, num_layers=4)
    rows = []
    for policy in ("basic", "static", "elk-full", "ideal"):
        artifact = SESSION.compile(workload, system, policy)
        sim = artifact.simulation  # None for the plan-less Ideal roofline
        if sim is not None:
            latency, tflops = sim.total_time, sim.achieved_tflops
        else:
            latency, tflops = artifact.latency, artifact.achieved_tflops
        rows.append(
            {
                "cores": num_cores,
                "policy": policy,
                "step_latency_ms": latency * 1e3,
                "achieved_tflops": tflops,
            }
        )
    return rows


def main() -> None:
    rows = []
    for cores in (736, 1472):
        rows.extend(evaluate(cores))
    print(format_table(rows))
    elk = {r["cores"]: r["step_latency_ms"] for r in rows if r["policy"] == "elk-full"}
    print(
        f"\nScaling 736 -> 1472 cores speeds a DiT-XL step up by "
        f"{elk[736] / elk[1472]:.2f}x under Elk-Full."
    )


if __name__ == "__main__":
    main()
