"""Tests for the frontend (model-parallel sharding) and the compile pipeline."""

import pytest

from repro.arch import ipu_pod4, scaled_system
from repro.api import CompileArtifact, CompileRequest, Session
from repro.compiler import (
    POLICIES,
    WorkloadSpec,
    build_frontend_result,
    shard_transformer_config,
)
from repro.errors import ConfigurationError
from repro.ir.models import GEMMA2_27B, LLAMA2_13B, LLAMA2_70B, get_config


def test_sharding_divides_heads_and_ffn():
    sharded = shard_transformer_config(LLAMA2_13B, 4)
    assert sharded.num_heads == LLAMA2_13B.num_heads // 4
    assert sharded.ffn_dim == LLAMA2_13B.ffn_dim // 4
    assert sharded.hidden_size == LLAMA2_13B.hidden_size
    assert shard_transformer_config(LLAMA2_13B, 1) is LLAMA2_13B


def test_sharding_handles_gqa_models():
    for config in (LLAMA2_70B, GEMMA2_27B):
        sharded = shard_transformer_config(config, 4)
        assert sharded.num_heads % sharded.num_kv_heads == 0
        assert sharded.num_kv_heads >= 1


def test_frontend_reduces_per_chip_hbm_volume(pod4_system):
    workload = WorkloadSpec("llama2-13b", batch_size=8, seq_len=512, num_layers=1)
    result = build_frontend_result(workload, pod4_system)
    single = build_frontend_result(workload, scaled_system(num_cores=64, num_chips=1))
    assert result.num_chips == 4
    assert result.per_chip_graph.total_hbm_load_bytes < single.per_chip_graph.total_hbm_load_bytes
    assert result.interchip_bytes_per_step > 0
    assert result.full_graph_flops > result.per_chip_graph.total_flops


def test_compile_all_policies(tiny_compiler):
    artifacts = {
        policy: CompileArtifact.from_output(
            tiny_compiler.compile(policy), tiny_compiler, policy, 0.0
        )
        for policy in POLICIES
    }
    assert set(artifacts) == set(POLICIES)
    latencies = {policy: artifact.latency for policy, artifact in artifacts.items()}
    assert all(latency > 0 for latency in latencies.values())
    # The Ideal roofline is the fastest design.
    assert latencies["ideal"] <= min(
        latency for policy, latency in latencies.items() if policy != "ideal"
    ) * 1.001
    # Elk-Full is at least as good as Elk-Dyn, which uses a subset of its search space.
    assert latencies["elk-full"] <= latencies["elk-dyn"] * 1.001


def test_compile_result_fields(tiny_elk_result, tiny_compiler):
    artifact = CompileArtifact.from_output(tiny_elk_result, tiny_compiler, "elk-full", 0.0)
    assert artifact.policy == "elk-full"
    assert artifact.latency > 0
    assert 0 <= artifact.hbm_utilization <= 1
    assert tiny_elk_result.plan is not None
    assert tiny_elk_result.search_stats is not None


def test_unknown_policy_rejected(tiny_compiler):
    with pytest.raises(ConfigurationError):
        tiny_compiler.compile("magic")


def test_interchip_time_only_for_multichip(tiny_compiler):
    small = tiny_compiler.system
    assert small.interchip_time(tiny_compiler.frontend.interchip_bytes_per_step) == 0.0
    assert small.interchip_time(1 << 20) == 0.0  # one chip: nothing crosses links
    workload = WorkloadSpec("tiny-llm", batch_size=2, seq_len=128, num_layers=1)
    pod = Session().compiler(CompileRequest(workload, ipu_pod4()))
    assert pod.system.interchip_time(0) == 0.0
    assert pod.system.interchip_time(pod.frontend.interchip_bytes_per_step) > 0.0


def test_workload_spec_resolution():
    spec = WorkloadSpec("llama2-13b")
    assert spec.model_name == "llama2-13b"
    assert spec.resolve_config() is get_config("llama2-13b")
    explicit = WorkloadSpec(LLAMA2_13B)
    assert explicit.model_name == "llama2-13b"
