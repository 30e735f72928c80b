#!/usr/bin/env python3
"""Cost-model fitting and plan emulation (Figs. 12 and the §5 methodology).

The example (1) profiles the synthetic device and fits the linear-tree cost
model per operator type, reporting its accuracy; (2) compiles a workload with
Elk using that *fitted* model (as the paper's compiler does); and (3) replays
the plan on the emulation framework, whose timings come from the noisy device
profile and the DRAM simulator — i.e. numbers the compiler never saw — and
compares planned vs emulated latency.

Run with::

    python examples/cost_model_and_emulation.py
"""

from __future__ import annotations

from repro.arch import ipu_pod4
from repro.api import Session
from repro.compiler import WorkloadSpec
from repro.cost import FittedCostModel
from repro.emu import EmulationFramework


def main() -> None:
    system = ipu_pod4()
    chip = system.chip

    print("Fitting the linear-tree cost model against device-profile measurements ...")
    fitted = FittedCostModel(chip, samples_per_op=200, seed=1)
    for accuracy_report in fitted.accuracy_reports(samples_per_op=80, seed=2):
        print(
            f"  {accuracy_report.name:20s}  MAPE {accuracy_report.mean_absolute_percentage_error:5.1f}%  "
            f"R^2 {accuracy_report.r_squared:.3f}"
        )

    workload = WorkloadSpec("gemma2-27b", batch_size=32, seq_len=2048, num_layers=2)
    print(f"\nCompiling {workload.model_name} with the fitted cost model ...")
    session = Session(cost_model_factory=lambda chip: fitted)
    artifact = session.compile(workload, system, policy="elk-full")
    frontend = session.frontend(workload, system)
    print(f"  planned per-token latency : {artifact.latency * 1e3:.3f} ms")
    print(f"  planned HBM utilization   : {artifact.hbm_utilization:.2f}")

    print("\nReplaying the plan on the emulation framework (device profile + DRAM sim) ...")
    emulator = EmulationFramework(system, noise=0.08)
    emulated = emulator.emulate_system(
        artifact.result.plan,
        frontend.per_chip_graph,
        frontend.full_graph_flops,
        frontend.interchip_bytes_per_step,
    )
    print(f"  emulated per-token latency: {emulated.total_time * 1e3:.3f} ms")
    print(f"  emulated TFLOPS           : {emulated.achieved_tflops:.1f}")
    gap = abs(emulated.total_time - artifact.latency) / emulated.total_time * 100
    print(f"  compiler-vs-emulation gap : {gap:.1f}%")


if __name__ == "__main__":
    main()
