"""Service-shaped compilation API: sessions, requests, persistent artifacts.

This package is the batteries-included way to drive the compiler for
sweep-shaped work (the evaluation harness, sweeps, benchmarks):

* :class:`CompileRequest` — one (workload, system, policy, options) unit.
* :class:`CompileArtifact` — the JSON-serializable outcome of one request.
* :class:`Session` — caches frontend results, operator profiles, cost models
  and compile results across requests; :meth:`Session.compile_many` batches
  requests through those shared caches (deduplicating repeats) and dispatches
  distinct ones on a thread or process pool.
* :class:`ArtifactStore` — content-addressed on-disk artifact cache
  (``$REPRO_CACHE_DIR`` or ``~/.cache/repro/artifacts``); a session built
  with ``store=`` resolves equal requests from disk across processes and
  runs, recompiling only what no process has compiled before.

A :class:`Session` is also the only builder of a compile's inputs:
:meth:`Session.compiler` hands policies a
:class:`repro.compiler.ModelCompiler` holding the session's frontend result,
profiles and cost model.

The request-level serving layer (:mod:`repro.serve`) is the service's
largest client: :class:`StepLatencyModel` compiles one bucketed step plan
per (model, phase, batch, context) through a shared session, and
:func:`simulate_scenario` drives a whole named serving study through it.
Both are re-exported here because they are how sessions are consumed at
serving scale.
"""

from repro.api.artifacts import (
    ARTIFACT_SCHEMA_VERSION,
    CompileArtifact,
    load_artifacts,
    save_artifacts,
)
from repro.api.service import (
    BACKENDS,
    CompileRequest,
    Session,
    SessionStats,
    frozen_key,
)
from repro.api.store import (
    CACHE_DIR_ENV,
    ArtifactStore,
    StoreStats,
    artifact_digest,
    default_cache_dir,
)

#: Serving-layer names re-exported lazily (PEP 562): repro.serve builds on
#: repro.api.service, so importing it eagerly here would create an
#: import-order-sensitive cycle.
_SERVE_EXPORTS = {
    "StepLatencyModel": "repro.serve.batching",
    "make_serving_session": "repro.serve.scenarios",
    "simulate_scenario": "repro.serve.scenarios",
}


def __getattr__(name: str):
    module_name = _SERVE_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "BACKENDS",
    "CACHE_DIR_ENV",
    "CompileArtifact",
    "load_artifacts",
    "save_artifacts",
    "ArtifactStore",
    "StoreStats",
    "artifact_digest",
    "default_cache_dir",
    "CompileRequest",
    "Session",
    "SessionStats",
    "frozen_key",
    "StepLatencyModel",
    "make_serving_session",
    "simulate_scenario",
]
