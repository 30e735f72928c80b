"""Tests for the emulation framework (device profile + DRAM latencies)."""

import pytest

from repro.emu import EmulationFramework


@pytest.fixture(scope="module")
def emulated(tiny_elk_result, tiny_compiler, small_system):
    framework = EmulationFramework(small_system, noise=0.05)
    return framework.emulate_system(
        tiny_elk_result.plan,
        tiny_compiler.frontend.per_chip_graph,
        tiny_compiler.frontend.full_graph_flops,
        tiny_compiler.frontend.interchip_bytes_per_step,
    )


def test_emulated_latency_close_to_planned(emulated, tiny_elk_result):
    # The emulator re-times the plan with noisy device measurements and DRAM
    # latencies; it must stay in the same ballpark as the compiler's estimate.
    planned = tiny_elk_result.timeline.total_time
    assert emulated.total_time == pytest.approx(planned, rel=0.6)
    assert emulated.total_time > 0
    assert emulated.achieved_tflops > 0


def test_emulation_is_deterministic(tiny_elk_result, tiny_compiler, small_system):
    frontend = tiny_compiler.frontend
    args = (
        tiny_elk_result.plan,
        frontend.per_chip_graph,
        frontend.full_graph_flops,
        frontend.interchip_bytes_per_step,
    )
    first = EmulationFramework(small_system, noise=0.05).emulate_system(*args)
    second = EmulationFramework(small_system, noise=0.05).emulate_system(*args)
    assert first.total_time == pytest.approx(second.total_time, rel=1e-9)


def test_emulated_breakdown_and_utilization(emulated):
    breakdown = emulated.breakdown()
    assert set(breakdown) == {"preload", "execute", "overlapped", "interconnect"}
    assert all(value >= 0 for value in breakdown.values())
    assert 0 <= emulated.timeline.hbm_utilization <= 1


def test_emulator_uses_dram_latencies(tiny_elk_result, tiny_compiler, small_system):
    framework = EmulationFramework(small_system, noise=0.0)
    timeline = framework.emulate(tiny_elk_result.plan, tiny_compiler.frontend.per_chip_graph)
    emulated_hbm = [s.hbm_time for s in timeline.plan.schedules if s.hbm_bytes > 0]
    planned_hbm = [s.hbm_time for s in tiny_elk_result.plan.schedules if s.hbm_bytes > 0]
    assert len(emulated_hbm) == len(planned_hbm)
    # DRAM-simulated latencies differ from the roofline estimate but stay close.
    assert any(abs(e - p) > 0 for e, p in zip(emulated_hbm, planned_hbm))
    for emulated_time, planned_time in zip(emulated_hbm, planned_hbm):
        assert emulated_time == pytest.approx(planned_time, rel=1.0)
