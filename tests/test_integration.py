"""Integration tests: full compile → simulate → emulate flows and the paper's
qualitative claims on a scaled configuration."""

import pytest

from repro.arch import ipu_pod4, mesh_pod4
from repro.codegen import DeviceRuntime, generate_device_program
from repro.api import CompileRequest, Session
from repro.compiler import POLICIES, WorkloadSpec
from repro.emu import EmulationFramework
from repro.eval import ExperimentConfig, evaluate_artifact, make_request, make_session
from repro.units import TB


@pytest.fixture(scope="module")
def llama_pod4_results():
    """All designs compiled for 2 layers of Llama2-13B on the POD4 system."""
    workload = WorkloadSpec("llama2-13b", batch_size=32, seq_len=2048, num_layers=2)
    session = Session()
    compiler = session.compiler(CompileRequest(workload, ipu_pod4()))
    artifacts = {
        policy: session.compile(CompileRequest(workload, compiler.system, policy))
        for policy in POLICIES
    }
    simulated = {
        policy: artifact.latency if artifact.simulation is None else artifact.simulation.total_time
        for policy, artifact in artifacts.items()
    }
    return compiler, artifacts, simulated


def test_design_ordering_matches_paper(llama_pod4_results):
    """Ideal <= Elk-Full <= Elk-Dyn-ish <= Static < Basic (Fig. 17 ordering)."""
    _, _, simulated = llama_pod4_results
    assert simulated["ideal"] <= simulated["elk-full"] * 1.001
    assert simulated["elk-full"] <= simulated["elk-dyn"] * 1.001
    assert simulated["elk-full"] <= simulated["static"] * 1.05
    assert simulated["elk-full"] < simulated["basic"]
    # Elk achieves a meaningful fraction of the roofline and clearly beats Basic.
    assert simulated["ideal"] / simulated["elk-full"] > 0.6
    assert simulated["basic"] / simulated["elk-full"] > 1.15


def test_hbm_utilization_ordering(llama_pod4_results):
    """HBM utilization improves from Basic to Static to Elk (Fig. 18b)."""
    _, results, _ = llama_pod4_results
    utils = {}
    for policy in ("basic", "static", "elk-full"):
        utils[policy] = results[policy].simulation.hbm_utilization
    assert utils["elk-full"] >= utils["static"] - 0.05
    assert utils["elk-full"] > utils["basic"]


def test_codegen_round_trip_for_all_policies(llama_pod4_results):
    _, results, _ = llama_pod4_results
    for policy in ("basic", "static", "elk-dyn", "elk-full"):
        plan = results[policy].result.plan
        program = generate_device_program(plan)
        runtime = DeviceRuntime(plan).run(program)
        assert runtime.total_time > 0


def test_emulator_agrees_with_plan_estimates(llama_pod4_results):
    compiler, results, _ = llama_pod4_results
    framework = EmulationFramework(compiler.system, noise=0.08)
    emulated = framework.emulate_system(
        results["elk-full"].result.plan,
        compiler.frontend.per_chip_graph,
        compiler.frontend.full_graph_flops,
        compiler.frontend.interchip_bytes_per_step,
    )
    planned = results["elk-full"].latency
    assert emulated.total_time == pytest.approx(planned, rel=0.6)


def _elk_full_row(system):
    """Elk-Full's row for one decoder layer of Llama2-13B on ``system``."""
    config = ExperimentConfig(
        num_layers=1, batch_size=16, seq_len=1024, max_order_candidates=4,
    )
    workload = WorkloadSpec("llama2-13b", batch_size=16, seq_len=1024, num_layers=1)
    request = make_request(workload, system, "elk-full", config)
    return evaluate_artifact(make_session(config).compile(request))


def test_mesh_topology_end_to_end():
    """The mesh NoC compiles and is no faster than all-to-all (Fig. 19)."""
    a2a = _elk_full_row(ipu_pod4())
    mesh = _elk_full_row(mesh_pod4())
    assert a2a["latency_ms"] > 0 and mesh["latency_ms"] > 0
    assert mesh["latency_ms"] >= a2a["latency_ms"] * 0.9


def test_higher_hbm_bandwidth_helps_decode():
    """Raising HBM bandwidth reduces decode latency (Fig. 19 trend)."""
    slow = _elk_full_row(ipu_pod4(hbm_total_bandwidth=4 * TB))
    fast = _elk_full_row(ipu_pod4(hbm_total_bandwidth=16 * TB))
    assert fast["latency_ms"] < slow["latency_ms"]


def test_gqa_model_loads_less_kv_cache_per_layer():
    """Gemma2-27B (GQA) reads far less KV cache per decoder layer than OPT-30B,
    which is why the larger GQA models decode as fast as smaller MHA models
    (the paper's note on Fig. 17)."""
    from repro.ir.models import build_model

    gemma = build_model(
        "gemma2-27b", batch_size=32, seq_len=2048, num_layers=1, include_lm_head=False
    )
    opt = build_model(
        "opt-30b", batch_size=32, seq_len=2048, num_layers=1, include_lm_head=False
    )
    gemma_kv = sum(op.usage.kv_cache_bytes for op in gemma)
    opt_kv = sum(op.usage.kv_cache_bytes for op in opt)
    assert gemma_kv < 0.5 * opt_kv
