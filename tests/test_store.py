"""Tests for stable cache keys, the on-disk artifact store, and the
process-pool compile backend."""

from __future__ import annotations

import json
import os
import sys
import time

import pytest

from repro.api import (
    ArtifactStore,
    CompileArtifact,
    CompileRequest,
    Session,
    artifact_digest,
    default_cache_dir,
)
from repro.api import service as api_service
from repro.api.service import frozen_key
from repro.compiler import POLICIES, WorkloadSpec
from repro.cost.model import AnalyticCostModel
from repro.errors import CompileFailedError, ConfigurationError, ElkError
from repro.scheduler import ElkOptions
from repro.scheduler.preload_order import OrderSearchConfig

TINY = WorkloadSpec("tiny-llm", batch_size=4, seq_len=256, num_layers=1)


# --------------------------------------------------------------------------- #
# frozen_key: structural, deterministic, process-stable cache keys
# --------------------------------------------------------------------------- #
def test_freeze_equal_configs_freeze_identically():
    a = ElkOptions(max_preload_ahead=8, order_search=OrderSearchConfig(max_candidates=8))
    b = ElkOptions(max_preload_ahead=8, order_search=OrderSearchConfig(max_candidates=8))
    assert a is not b
    assert frozen_key(a) == frozen_key(b)
    assert frozen_key(WorkloadSpec("tiny-llm")) == frozen_key(WorkloadSpec("tiny-llm"))


def test_freeze_is_structural_not_repr():
    # The frozen key must contain no trace of object identity.
    frozen = repr(frozen_key(ElkOptions()))
    assert " object at 0x" not in frozen


def test_freeze_sets_are_order_insensitive():
    assert frozen_key({3, 1, 2}) == frozen_key({2, 3, 1}) == ("set", 1, 2, 3)
    assert frozen_key(frozenset(("b", "a"))) == ("set", "a", "b")
    # Tagged, so a set never collides with the equal-content sequence.
    assert frozen_key({1, 2}) != frozen_key((1, 2))


def test_freeze_dicts_sort_mixed_keys():
    assert frozen_key({"b": 1, "a": 2}) == frozen_key({"a": 2, "b": 1})
    # Mixed-type keys would crash Python's default ordering; repr-keyed
    # sorting keeps them deterministic.
    assert frozen_key({1: "x", "1": "y"}) == frozen_key({"1": "y", 1: "x"})


def test_freeze_rejects_unknown_objects():
    class NotAConfig:
        pass

    with pytest.raises(ConfigurationError, match="stable cache key"):
        frozen_key(NotAConfig())
    with pytest.raises(ConfigurationError, match="stable cache key"):
        frozen_key({"nested": [NotAConfig()]})


def test_artifact_digest_stable_and_schema_versioned(small_system):
    request = CompileRequest(TINY, small_system, "basic")
    session = Session()
    key = session._result_key(request)
    again = Session()._result_key(CompileRequest(TINY, small_system, "basic"))
    assert artifact_digest(key) == artifact_digest(again)
    assert len(artifact_digest(key)) == 64
    assert artifact_digest(key) != artifact_digest((key, "something-else"))


# --------------------------------------------------------------------------- #
# ArtifactStore: content-addressed persistence
# --------------------------------------------------------------------------- #
def test_store_round_trip_across_sessions(small_system, tmp_path):
    """compile → new Session on the same store → store hit, zero recompiles."""
    root = str(tmp_path / "cache")
    first = Session(store=root)
    cold = first.compile(TINY, small_system, "elk-full")
    assert first.stats.compiles == 1
    assert first.stats.store_puts == 1
    assert first.store.stats.puts == 1
    assert len(first.store) == 1

    second = Session(store=ArtifactStore(root))
    warm = second.compile(TINY, small_system, "elk-full")
    assert second.stats.compiles == 0
    assert second.stats.store_hits == 1
    assert second.store.stats.hits == 1
    # Runtime fields are compare=False, so equality covers every serialized
    # field (metrics, stats, timings) — and the refs really are dropped.
    assert warm == cold
    assert warm.result is None and warm.frontend is None and warm.system is None

    # Within the second session the disk is consulted exactly once.
    assert second.compile(TINY, small_system, "elk-full") is warm
    assert second.stats.result_hits == 1
    assert second.store.stats.hits == 1


def test_simulation_record_survives_the_store(small_system, tmp_path):
    """The persisted simulation round-trips unchanged; ``ideal`` has none."""
    session = Session(store=str(tmp_path / "cache"))
    elk = session.compile(TINY, small_system, "elk-full")
    ideal = session.compile(TINY, small_system, "ideal")
    assert elk.simulation is not None and ideal.simulation is None
    assert elk.simulation.total_time > 0
    for artifact in (elk, ideal):
        restored = CompileArtifact.from_dict(
            json.loads(json.dumps(artifact.to_dict()))
        )
        assert restored.simulation == artifact.simulation
    warm = Session(store=str(tmp_path / "cache"))
    stored = warm.compile(TINY, small_system, "elk-full")
    assert warm.stats.store_hits == 1
    assert stored.simulation == elk.simulation
    assert list(stored.simulation.breakdown) == list(elk.simulation.breakdown)


def test_store_hits_count_in_compile_many(small_system, tmp_path):
    root = str(tmp_path / "cache")
    requests = [CompileRequest(TINY, small_system, p) for p in ("basic", "ideal")]
    Session(store=root).compile_many(requests)

    warm = Session(store=root)
    artifacts = warm.compile_many(requests)
    assert [a.policy for a in artifacts] == ["basic", "ideal"]
    assert warm.stats.compiles == 0
    assert warm.stats.store_hits == 2
    # Nothing was dispatched, so no frontend/profile work happened either.
    assert warm.stats.frontend_builds == 0
    assert warm.stats.profile_builds == 0


def test_store_evicts_foreign_schema_and_corrupt_entries(small_system, tmp_path):
    root = str(tmp_path / "cache")
    session = Session(store=root)
    session.compile(TINY, small_system, "basic")
    store = session.store
    [path] = list(store._entry_paths())

    data = json.load(open(path))
    data["schema_version"] = 999
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
    digest = os.path.splitext(os.path.basename(path))[0]
    assert store.get(digest) is None
    assert store.stats.evictions == 1
    assert not os.path.exists(path)

    store.put(digest, session.artifacts()[0])
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("{not json")
    assert store.get(digest) is None
    assert store.stats.evictions == 2


def test_store_evicts_truncated_entries(small_system, tmp_path):
    """Partial writes (e.g. a crash mid-``json.dump``) must not poison reads.

    A truncated artifact file can still be *valid JSON* of the wrong shape
    (a bare string, number, or list), so the read path has to treat every
    structural explosion as corruption, evict, and miss — never crash.
    """
    root = str(tmp_path / "cache")
    session = Session(store=root)
    session.compile(TINY, small_system, "basic")
    store = session.store
    [path] = list(store._entry_paths())
    digest = os.path.splitext(os.path.basename(path))[0]

    assert store.corrupt_entry(0)  # truncate the only entry in place
    assert store.get(digest) is None
    assert store.stats.evictions == 1
    assert not os.path.exists(path)

    # JSON that parses to the wrong top-level type is corruption too.
    store.put(digest, session.artifacts()[0])
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(["not", "an", "artifact"], handle)
    assert store.get(digest) is None
    assert store.stats.evictions == 2

    # An almost-empty truncation (bare ``{``) and a zero-byte file.
    store.put(digest, session.artifacts()[0])
    assert store.corrupt_entry(5, keep_bytes=1)  # index wraps modulo entries
    assert store.get(digest) is None
    assert store.stats.evictions == 3


def test_corrupt_entry_on_empty_store(tmp_path):
    store = ArtifactStore(str(tmp_path / "cache"))
    assert not store.corrupt_entry(0)  # nothing to corrupt: report, don't raise


def test_store_clear_and_digest_validation(tmp_path):
    store = ArtifactStore(str(tmp_path / "cache"))
    assert len(store) == 0
    assert store.clear() == 0
    with pytest.raises(ConfigurationError, match="digest"):
        store.path_for("../../etc/passwd")
    with pytest.raises(ConfigurationError, match="digest"):
        store.path_for("abc")


def test_default_cache_dir_honors_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "override"))
    assert default_cache_dir() == str(tmp_path / "override")
    assert ArtifactStore().root == str(tmp_path / "override")
    monkeypatch.delenv("REPRO_CACHE_DIR")
    assert default_cache_dir().endswith(os.path.join("repro", "artifacts"))


# --------------------------------------------------------------------------- #
# Process-pool backend
# --------------------------------------------------------------------------- #
def test_process_backend_matches_sequential_compiles(small_system):
    requests = [CompileRequest(TINY, small_system, policy) for policy in POLICIES]
    sequential = [Session().compile(request) for request in requests]

    session = Session()
    parallel = session.compile_many(requests, max_workers=2, backend="process")
    assert session.stats.compiles == len(POLICIES)

    def comparable(artifact):
        data = artifact.to_dict()
        data.pop("compile_seconds")  # wall-clock differs run to run
        return data

    assert [comparable(a) for a in parallel] == [comparable(a) for a in sequential]
    # Shipped artifacts are deserialized: no in-memory plan/frontend refs.
    assert all(a.result is None and a.frontend is None for a in parallel)


def test_process_backend_populates_shared_store(small_system, tmp_path):
    root = str(tmp_path / "cache")
    session = Session(store=root)
    requests = [CompileRequest(TINY, small_system, p) for p in ("basic", "ideal")]
    session.compile_many(requests, max_workers=2, backend="process")
    assert session.stats.compiles == 2
    assert len(session.store) == 2

    warm = Session(store=root)
    warm.compile_many(requests, backend="process")
    assert warm.stats.compiles == 0
    assert warm.stats.store_hits == 2


def test_process_backend_needs_picklable_cost_model_factory(small_system):
    session = Session(cost_model_factory=lambda chip: AnalyticCostModel(chip))
    request = CompileRequest(TINY, small_system, "basic")
    with pytest.raises(ConfigurationError, match="picklable"):
        session.compile_many([request, request], backend="process")


def test_unknown_backend_rejected(small_system):
    with pytest.raises(ConfigurationError, match="backend"):
        Session(backend="fiber")
    with pytest.raises(ConfigurationError, match="backend"):
        Session().compile_many(
            [CompileRequest(TINY, small_system, "basic")], backend="fiber"
        )


# --------------------------------------------------------------------------- #
# Process-pool fault handling: worker death, timeouts, typed errors
# --------------------------------------------------------------------------- #
# Worker stand-ins must be module-level so the pool can pickle them by
# reference; the fork start method makes the monkeypatched attributes and
# globals below visible inside the children.
_REAL_COMPILE_IN_SUBPROCESS = api_service._compile_in_subprocess
_MARKER_PATH = ""  # set per-test; inherited by forked workers


def _die_in_worker(payload):
    os._exit(3)  # hard kill: BrokenProcessPool in the parent


def _die_once_then_compile(payload):
    if not os.path.exists(_MARKER_PATH):
        open(_MARKER_PATH, "w").close()
        os._exit(3)
    return _REAL_COMPILE_IN_SUBPROCESS(payload)


def _hang_in_worker(payload):
    time.sleep(1.5)
    os._exit(0)


def test_worker_death_retries_on_a_fresh_pool(
    small_system, tmp_path, monkeypatch
):
    monkeypatch.setattr(
        sys.modules[__name__], "_MARKER_PATH", str(tmp_path / "worker-died")
    )
    monkeypatch.setattr(
        api_service, "_compile_in_subprocess", _die_once_then_compile
    )
    session = Session(compile_retries=1)
    request = CompileRequest(TINY, small_system, "basic")
    [artifact] = session.compile_many([request], max_workers=1,
                                      backend="process")
    assert os.path.exists(_MARKER_PATH)  # the first attempt really died
    assert artifact.policy == "basic" and artifact.latency > 0
    assert session.stats.compiles == 1


def test_worker_death_raises_typed_error_after_retries(
    small_system, monkeypatch
):
    monkeypatch.setattr(api_service, "_compile_in_subprocess", _die_in_worker)
    session = Session(compile_retries=1)
    request = CompileRequest(TINY, small_system, "basic")
    with pytest.raises(CompileFailedError, match="failed after 2 attempt") as err:
        session.compile_many([request], max_workers=1, backend="process")
    # The typed error names the offending request and counts no compiles.
    assert err.value.request is request
    assert "tiny-llm" in str(err.value)
    assert isinstance(err.value, ElkError)
    assert session.stats.compiles == 0


def test_compile_timeout_raises_typed_error(small_system, monkeypatch):
    monkeypatch.setattr(api_service, "_compile_in_subprocess", _hang_in_worker)
    session = Session(compile_timeout=0.05, compile_retries=0)
    request = CompileRequest(TINY, small_system, "basic")
    with pytest.raises(CompileFailedError, match="TimeoutError"):
        session.compile_many([request], max_workers=1, backend="process")


def test_compile_timeout_and_retries_validated():
    with pytest.raises(ConfigurationError, match="compile_timeout"):
        Session(compile_timeout=0.0)
    with pytest.raises(ConfigurationError, match="compile_retries"):
        Session(compile_retries=-1)
