"""Tests for the flow-level simulation engine and the chip simulator."""

import pytest

from repro.errors import SimulationError
from repro.sim import ChipSimulator, FluidSimulator, Job, Resource, simulate_system


# --------------------------------------------------------------------------- #
# Engine-level tests with hand-constructed jobs.
# --------------------------------------------------------------------------- #
def test_single_job_duration():
    sim = FluidSimulator({"bw": Resource("bw", 100.0)})
    sim.add_job(Job("a", {"bw": 50.0}))
    makespan = sim.run()
    assert makespan == pytest.approx(0.5)
    assert sim.jobs["a"].end_time == pytest.approx(0.5)


def test_two_jobs_share_a_resource():
    sim = FluidSimulator({"bw": Resource("bw", 100.0)})
    sim.add_job(Job("a", {"bw": 50.0}))
    sim.add_job(Job("b", {"bw": 50.0}))
    makespan = sim.run()
    # Equal sharing: both take 1.0s instead of 0.5s each.
    assert makespan == pytest.approx(1.0, rel=1e-6)


def test_precedence_serializes_jobs():
    sim = FluidSimulator({"bw": Resource("bw", 100.0)})
    sim.add_job(Job("a", {"bw": 50.0}))
    sim.add_job(Job("b", {"bw": 50.0}, predecessors={"a"}))
    makespan = sim.run()
    assert makespan == pytest.approx(1.0, rel=1e-6)
    assert sim.jobs["b"].start_time == pytest.approx(sim.jobs["a"].end_time)


def test_independent_resources_overlap():
    sim = FluidSimulator({"x": Resource("x", 10.0), "y": Resource("y", 10.0)})
    sim.add_job(Job("a", {"x": 10.0}))
    sim.add_job(Job("b", {"y": 10.0}))
    assert sim.run() == pytest.approx(1.0, rel=1e-6)


def test_min_duration_enforced():
    sim = FluidSimulator({"bw": Resource("bw", 1e9)})
    sim.add_job(Job("a", {"bw": 1.0}, min_duration=0.25))
    assert sim.run() == pytest.approx(0.25, rel=1e-6)


def test_unknown_resource_or_duplicate_id_rejected():
    sim = FluidSimulator({"bw": Resource("bw", 1.0)})
    sim.add_job(Job("a", {"bw": 1.0}))
    with pytest.raises(SimulationError):
        sim.add_job(Job("a", {"bw": 1.0}))
    with pytest.raises(SimulationError):
        sim.add_job(Job("b", {"nope": 1.0}))


def test_missing_dependency_detected():
    sim = FluidSimulator({"bw": Resource("bw", 1.0)})
    sim.add_job(Job("a", {"bw": 1.0}, predecessors={"ghost"}))
    with pytest.raises(SimulationError):
        sim.run()


def test_resource_utilization_accounting():
    resource = Resource("bw", 100.0)
    sim = FluidSimulator({"bw": resource})
    sim.add_job(Job("a", {"bw": 50.0}))
    makespan = sim.run()
    assert resource.utilization(makespan) == pytest.approx(1.0, rel=1e-6)


_ORDER_PROBE = """
from repro.sim import FluidSimulator, Job, Resource
# Each job is paced to finish at t=1 by its own unit port, so every job
# hands its whole "bw" demand to the shared counter in the same event.
resources = {"bw": Resource("bw", 1e30)}
sim_jobs = [("big", 1e16)] + [(f"small-{i}", 1.0) for i in range(24)]
for job_id, _ in sim_jobs:
    resources[job_id] = Resource(job_id, 1.0)
sim = FluidSimulator(resources)
for job_id, amount in sim_jobs:
    sim.add_job(Job(job_id, {"bw": amount, job_id: 1.0}))
sim.run()
print(resources["bw"].served.hex())
"""


def test_run_is_independent_of_the_string_hash_seed():
    """Float accounting must not follow set order, which tracks PYTHONHASHSEED.

    Adding the 1.0-sized demands before or after the 1e16 one changes the
    served total in the last bits, so hash-ordered iteration shows up as
    different outputs across seeds.
    """
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    outputs = set()
    for seed in ("0", "1", "2", "3"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", _ORDER_PROBE],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.add(done.stdout)
    assert len(outputs) == 1, outputs


# --------------------------------------------------------------------------- #
# Chip-level simulation of compiled plans.
# --------------------------------------------------------------------------- #
def test_chip_simulation_of_elk_plan(tiny_elk_result, small_chip, tiny_compiler):
    plan = tiny_elk_result.plan
    simulator = ChipSimulator(
        small_chip, total_flops=tiny_compiler.frontend.per_chip_graph.total_flops
    )
    result = simulator.simulate(plan)
    assert result.total_time > 0
    assert 0 <= result.hbm_utilization <= 1
    assert 0 <= result.noc_utilization <= 1
    assert set(result.breakdown()) == {"preload", "execute", "overlapped", "interconnect"}
    assert len(result.per_op_times) == len(plan)
    # Every operator's preload completes before its execution completes.
    for preload_end, exec_end in result.per_op_times.values():
        assert preload_end <= exec_end + 1e-12


def test_simulator_close_to_analytic_timeline(tiny_elk_result, small_chip, tiny_compiler):
    simulated = ChipSimulator(
        small_chip, total_flops=tiny_compiler.frontend.per_chip_graph.total_flops
    ).simulate(tiny_elk_result.plan)
    analytic = tiny_elk_result.timeline.total_time
    assert simulated.total_time == pytest.approx(analytic, rel=0.5)


def test_simulator_lower_bounded_by_hbm_time(tiny_elk_result, small_chip, tiny_compiler):
    plan = tiny_elk_result.plan
    hbm_time = plan.total_hbm_bytes / small_chip.hbm_bandwidth
    result = ChipSimulator(small_chip).simulate(plan)
    assert result.total_time >= hbm_time * 0.999


def test_system_simulation_adds_interchip_time(tiny_elk_result, pod4_system, tiny_compiler):
    plan = tiny_elk_result.plan
    result = simulate_system(
        plan,
        pod4_system,
        tiny_compiler.frontend.per_chip_graph.total_flops,
        tiny_compiler.frontend.full_graph_flops,
        interchip_bytes_per_step=10**6,
    )
    assert result.interchip_time > 0
    assert result.total_time == pytest.approx(
        result.chip_result.total_time + result.interchip_time
    )
    assert result.achieved_tflops > 0
