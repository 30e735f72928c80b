"""Tests for the policy registry and the ``repro.api`` service layer."""

import dataclasses
import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import repro
from repro.api import CompileArtifact, CompileRequest, Session, load_artifacts
from repro.eval.experiments import evaluate_artifact
from repro.baselines.basic import BasicCompiler
from repro.compiler import (
    POLICIES,
    CompilerPolicy,
    PolicyOutput,
    WorkloadSpec,
    available_policies,
    get_policy,
    is_registered,
    register_policy,
    unregister_policy,
)
from repro.errors import ConfigurationError
from repro.obs import Tracer
from repro.partition.enumerate import EnumerationLimits
from repro.scheduler import ElkOptions, ElkScheduler

TINY = WorkloadSpec("tiny-llm", batch_size=4, seq_len=256, num_layers=1)


# --------------------------------------------------------------------------- #
# Policy registry
# --------------------------------------------------------------------------- #
def test_paper_policies_served_through_registry():
    assert POLICIES == ("basic", "static", "elk-dyn", "elk-full", "ideal")
    for name in POLICIES:
        assert is_registered(name)
        assert isinstance(get_policy(name), CompilerPolicy)


def test_unknown_policy_rejected_by_registry():
    with pytest.raises(ConfigurationError, match="unknown policy"):
        get_policy("does-not-exist")


def test_duplicate_registration_rejected():
    with pytest.raises(ConfigurationError, match="already registered"):

        @register_policy("basic")
        class ShadowBasic(CompilerPolicy):
            def run(self, compiler):  # pragma: no cover - never instantiated
                raise AssertionError

    assert get_policy("basic").__class__.__name__ == "BasicPolicy"


def test_non_policy_registration_rejected():
    with pytest.raises(ConfigurationError, match="CompilerPolicy subclass"):
        register_policy("not-a-policy")(object)


def test_policy_output_needs_timeline_or_ideal():
    with pytest.raises(ConfigurationError):
        PolicyOutput()


def test_toy_policy_pluggable_without_touching_pipeline(small_system):
    """A sixth policy registers, compiles, and unregisters cleanly."""

    @register_policy("toy-basic")
    class ToyBasic(CompilerPolicy):
        description = "Basic's planner rerun under a different name"

        def run(self, compiler):
            plan = BasicCompiler(
                compiler.profiles,
                compiler.cost_model,
                compiler.chip.per_core_usable_sram,
            ).plan(model_name=compiler.frontend.per_chip_graph.name)
            return PolicyOutput(plan=plan, timeline=compiler.evaluator().evaluate(plan))

    try:
        assert "toy-basic" in available_policies()
        compiler = Session().compiler(CompileRequest(TINY, small_system))
        output = compiler.compile("toy-basic")
        assert output.plan is not None
        assert output.timeline.total_time > 0

        artifact = Session().compile(TINY, small_system, "toy-basic")
        assert artifact.policy == "toy-basic"
        assert artifact.latency == pytest.approx(output.timeline.total_time)
    finally:
        unregister_policy("toy-basic")
    assert not is_registered("toy-basic")
    with pytest.raises(ConfigurationError):
        unregister_policy("toy-basic")


# --------------------------------------------------------------------------- #
# Public profile injection
# --------------------------------------------------------------------------- #
def test_elk_scheduler_accepts_precomputed_profiles(small_system):
    compiler = Session().compiler(CompileRequest(TINY, small_system))
    shared = compiler.profiles
    scheduler = ElkScheduler(
        compiler.frontend.per_chip_graph,
        compiler.chip,
        compiler.elk_options,
        profiles=shared,
        allocator=compiler.allocator,
    )
    assert scheduler.profiles is shared
    assert scheduler.run().plan is not None


# --------------------------------------------------------------------------- #
# Session caching
# --------------------------------------------------------------------------- #
def test_session_result_cache_hits_skip_recomputation(small_system):
    session = Session()
    first = session.compile(TINY, small_system, "basic")
    second = session.compile(TINY, small_system, "basic")
    assert second is first
    assert session.stats.compiles == 1
    assert session.stats.result_hits == 1
    assert session.stats.profile_builds == 1


def test_session_cached_peeks_without_compiling(small_system):
    session = Session()
    assert session.cached(TINY, small_system, "basic") is None
    assert session.stats.compiles == 0  # the peek never triggers work
    artifact = session.compile(TINY, small_system, "basic")
    assert session.cached(TINY, small_system, "basic") is artifact
    assert session.stats.compiles == 1
    with pytest.raises(ConfigurationError, match="CompileRequest"):
        session.cached(TINY)


def test_session_shares_profiles_across_policies(small_system):
    session = Session()
    requests = [CompileRequest(TINY, small_system, policy) for policy in POLICIES]
    artifacts = session.compile_many(requests)
    assert [a.policy for a in artifacts] == list(POLICIES)
    # One frontend and one profile build serve the whole multi-policy sweep.
    assert session.stats.frontend_builds == 1
    assert session.stats.profile_builds == 1
    assert session.stats.compiles == len(POLICIES)


def test_session_distinguishes_option_variants(small_system):
    session = Session()
    base = session.compile(TINY, small_system, "elk-full")
    narrowed = session.compile(
        CompileRequest(
            TINY,
            small_system,
            "elk-full",
            elk_options=ElkOptions(enumeration=EnumerationLimits(max_plans=2)),
        )
    )
    assert narrowed is not base
    assert session.stats.compiles == 2
    assert session.stats.profile_builds == 2  # different enumeration limits


def test_requests_promote_model_names(small_system):
    promoted = CompileRequest("tiny-llm", small_system, "IDEAL")
    assert promoted.workload == WorkloadSpec("tiny-llm")
    assert promoted.policy == "ideal"
    with pytest.raises(ConfigurationError, match="workload"):
        CompileRequest(123, small_system)
    with pytest.raises(ConfigurationError, match="CompileRequest"):
        Session().compile(TINY)  # no system given
    with pytest.raises(ConfigurationError, match="SystemConfig"):
        CompileRequest("tiny-llm", "ipu-pod4")  # a preset name, not a system
    with pytest.raises(ConfigurationError, match="policy"):
        CompileRequest("tiny-llm", small_system, policy=None)


def test_compile_many_matches_sequential_results(small_system):
    requests = [CompileRequest(TINY, small_system, policy) for policy in POLICIES]

    sequential = [Session().compile(request) for request in requests]
    parallel = Session().compile_many(requests, max_workers=3)

    def comparable(artifact):
        data = artifact.to_dict()
        data.pop("compile_seconds")  # wall-clock differs run to run
        if data.get("plan_summary"):
            data["plan_summary"] = dict(data["plan_summary"])
        return data

    assert [comparable(a) for a in parallel] == [comparable(a) for a in sequential]


def test_compile_many_deduplicates_repeats(small_system):
    session = Session()
    request = CompileRequest(TINY, small_system, "basic")
    artifacts = session.compile_many([request, request, request], max_workers=3)
    assert artifacts[0] is artifacts[1] is artifacts[2]
    assert session.stats.compiles == 1


def test_session_clear_resets_caches(small_system):
    session = Session()
    session.compile(TINY, small_system, "ideal")
    assert session.artifacts()
    session.clear()
    assert session.artifacts() == []
    assert session.stats.compiles == 0


# --------------------------------------------------------------------------- #
# Artifact serialization
# --------------------------------------------------------------------------- #
def test_artifact_json_round_trip(small_system):
    artifact = Session().compile(TINY, small_system, "elk-full")
    restored = CompileArtifact.from_dict(json.loads(json.dumps(artifact.to_dict())))
    assert restored == artifact
    assert restored.result is None and restored.frontend is None
    assert restored.search_stats == artifact.search_stats
    assert restored.breakdown == pytest.approx(artifact.breakdown)


def test_artifact_rejects_foreign_schema(small_system):
    artifact = Session().compile(TINY, small_system, "ideal")
    data = artifact.to_dict()
    data["schema_version"] = 999
    with pytest.raises(ConfigurationError, match="schema"):
        CompileArtifact.from_dict(data)
    bad = artifact.to_dict()
    bad["mystery_field"] = 1
    with pytest.raises(ConfigurationError, match="unknown artifact fields"):
        CompileArtifact.from_dict(bad)


def test_session_save_and_load_artifacts(small_system, tmp_path):
    session = Session()
    for policy in ("basic", "ideal"):
        session.compile(TINY, small_system, policy)
    path = session.save(str(tmp_path / "artifacts.json"))
    loaded = load_artifacts(path)
    assert [a.policy for a in loaded] == ["basic", "ideal"]
    assert loaded == [
        dataclasses.replace(a, result=None, frontend=None, system=None)
        for a in session.artifacts()
    ]
    # Same rows, columns in the same order, as the freshly compiled ones.
    assert [list(evaluate_artifact(a).items()) for a in loaded] == [
        list(evaluate_artifact(a).items()) for a in session.artifacts()
    ]


@pytest.mark.parametrize(
    "content",
    [None, "{not json", '{"artifacts": [5]}', '{"schema_version": 999, "artifacts": []}'],
    ids=["missing", "not-json", "non-mapping-record", "foreign-batch-version"],
)
def test_load_artifacts_raises_configuration_error(tmp_path, content):
    path = tmp_path / "artifacts.json"
    if content is not None:
        path.write_text(content)
    with pytest.raises(ConfigurationError):
        load_artifacts(str(path))


def test_traced_and_untraced_compiles_agree(small_system):
    """The traced-only ``codegen`` pass leaves every artifact unchanged."""
    tracer = Tracer()

    def artifacts(session):
        return [
            {
                key: value
                for key, value in session.compile(TINY, small_system, policy).to_dict().items()
                if key != "compile_seconds"
            }
            for policy in POLICIES
        ]

    assert artifacts(Session(tracer=tracer)) == artifacts(Session())
    # Every policy but the plan-less ideal roofline was lowered.
    assert sum(span.name == "codegen" for span in tracer.spans()) == len(POLICIES) - 1


# --------------------------------------------------------------------------- #
# Package exports
# --------------------------------------------------------------------------- #
def test_every_public_export_resolves():
    """Each name in ``__all__`` of ``repro`` and its subpackages exists."""
    packages = [repro] + [
        importlib.import_module(f"repro.{info.name}")
        for info in pkgutil.iter_modules(repro.__path__)
        if info.ispkg
    ]
    assert len(packages) > 1
    for package in packages:
        missing = [
            name for name in package.__all__ if not hasattr(package, name)
        ]
        assert not missing, f"{package.__name__}.__all__ lists {missing}"


@pytest.mark.parametrize(
    "module", ["repro.serve", "repro.cluster", "repro.sweep", "repro.serve.batching"]
)
def test_import_order_does_not_matter(module):
    """Each layer imports cleanly as the first module of a fresh interpreter.

    ``repro.cluster`` builds on ``repro.serve``, whose scenarios name the
    fleet types only for type checking; a runtime import of them from
    ``repro.serve`` would close a cycle that breaks whichever side loads
    first.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
