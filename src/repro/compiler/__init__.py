"""The Elk compiler driver: frontend, the policy registry, and the pipeline."""

from repro.compiler.frontend import (
    FrontendResult,
    WorkloadSpec,
    build_frontend_result,
    interchip_reduction_bytes,
    shard_dit_config,
    shard_transformer_config,
)
from repro.compiler.pipeline import POLICIES, ModelCompiler
from repro.compiler.registry import (
    CompilerPolicy,
    PolicyOutput,
    available_policies,
    get_policy,
    is_registered,
    policy_descriptions,
    register_policy,
    unregister_policy,
)

__all__ = [
    "FrontendResult",
    "WorkloadSpec",
    "build_frontend_result",
    "interchip_reduction_bytes",
    "shard_dit_config",
    "shard_transformer_config",
    "POLICIES",
    "ModelCompiler",
    "CompilerPolicy",
    "PolicyOutput",
    "available_policies",
    "get_policy",
    "is_registered",
    "policy_descriptions",
    "register_policy",
    "unregister_policy",
]
