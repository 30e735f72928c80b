#!/usr/bin/env python3
"""Quickstart: compile one LLM decoding step for an ICCA system with Elk.

The example drives the service-shaped API: a caching :class:`repro.Session`
compiles two decoder layers of Llama2-13B (batch 32, sequence 2048) for the
paper's IPU-POD4-like system with every registered design (Basic, Static,
Elk-Dyn, Elk-Full, Ideal) in one ``compile_many`` batch — the frontend result
and per-operator profiles are built once and shared by all five policies.
It then prints the simulated per-token latency and hardware utilization
recorded on each artifact, shows the first few instructions of the
generated device program, and demonstrates that compile artifacts
round-trip through JSON.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import json

from repro import CompileArtifact, CompileRequest, POLICIES, Session, WorkloadSpec, ipu_pod4
from repro.codegen import generate_device_program
from repro.eval import format_table


def main() -> None:
    workload = WorkloadSpec("llama2-13b", batch_size=32, seq_len=2048, num_layers=2)
    system = ipu_pod4()
    session = Session()

    print(f"Compiling {workload.model_name} (2 layers) for {system.name} ...")
    artifacts = session.compile_many(
        [CompileRequest(workload, system, policy) for policy in POLICIES]
    )

    rows = []
    for artifact in artifacts:
        # Plan-bearing artifacts carry the event-driven simulation of their
        # plan; the Ideal roofline has no plan and reports analytic numbers.
        sim = artifact.simulation
        metrics = sim if sim is not None else artifact
        rows.append(
            {
                "policy": artifact.policy,
                "latency_ms": (sim.total_time if sim else artifact.latency) * 1e3,
                "hbm_util": metrics.hbm_utilization,
                "noc_util": metrics.noc_utilization,
                "achieved_tflops": metrics.achieved_tflops,
                "compile_s": artifact.compile_seconds,
            }
        )

    print()
    print(format_table(rows))
    stats = session.stats
    print(
        f"\nSession cache: {stats.frontend_builds} frontend build(s), "
        f"{stats.profile_builds} profile build(s) shared by {stats.compiles} compiles"
    )

    elk_artifact = next(a for a in artifacts if a.policy == "elk-full")
    elk_plan = elk_artifact.result.plan
    print(f"\nElk-Full plan: {len(elk_plan)} operators, "
          f"avg preload number {elk_plan.summary()['avg_preload_number']:.2f}, "
          f"reorder edit distance {elk_plan.reorder_edit_distance:.2f}")

    program = generate_device_program(elk_plan)
    print("\nFirst 12 device-program instructions (§4.5 programming model):")
    for instruction in list(program)[:12]:
        print("  " + instruction.render())

    # Artifacts serialize to JSON, so sweep results persist across runs.
    restored = CompileArtifact.from_dict(json.loads(json.dumps(elk_artifact.to_dict())))
    print(f"\nArtifact JSON round-trip: {restored.policy} "
          f"latency {restored.latency * 1e3:.3f} ms "
          f"(matches: {restored == elk_artifact})")


if __name__ == "__main__":
    main()
