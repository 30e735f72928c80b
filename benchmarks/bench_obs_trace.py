"""Observability: trace determinism and the active tracer's overhead.

Two claims of :mod:`repro.obs` are load-bearing enough to gate on:

1. **Deterministic export** — tracing one same-seed cluster-chaos run twice
   (each against a fresh store, so cache state is identical) yields
   bit-identical Chrome-trace and JSONL exports, with spans from all four
   layers (compile stages, store round-trips, engine/request lifecycle,
   cluster scale/fault instants).  CI asserts on the bytes like it does on
   the sweep journals.
2. **Tracing stays cheap** — an *active* tracer may cost more than the
   untraced serving sweep but stays within a small constant factor.  The
   ``noop`` arm passes ``tracer=None``, which is exactly the call the
   untraced baseline makes (the parameter's default), so its
   ``noop_overhead_ratio`` measures run-to-run noise, not the cost of a
   no-op tracer; no null-tracer object exists to time.

Each invocation journals the measured overhead ratios to
``results/BENCH_obs_trace.json`` and writes the exported trace plus a
unified metrics snapshot to ``results/obs/`` for the CI artifact upload.
"""

import json
import os
import tempfile
import time

from _common import RESULTS_DIR, bench_journal

from repro.api.store import ArtifactStore
from repro.obs import MetricsRegistry, Tracer, to_chrome_trace, to_jsonl
from repro.cluster import simulate_cluster_scenario
from repro.serve import make_serving_session, simulate_scenario

SCENARIO = "cluster-chaos-crashes"
NUM_REQUESTS = 32
POLICY = "basic"
SEED = 7

#: Where the CI workflow picks up the exported artifacts.
OBS_DIR = os.path.join(RESULTS_DIR, "obs")

#: Repetitions per timing arm; the minimum is the noise-resistant statistic.
TIMING_ROUNDS = 3


def _traced_run(store_root: str) -> tuple[Tracer, object, object]:
    """One traced chaos run against a fresh store rooted at ``store_root``."""
    tracer = Tracer()
    store = ArtifactStore(store_root)
    session = make_serving_session(store=store)
    result = simulate_cluster_scenario(
        SCENARIO,
        policy=POLICY,
        num_requests=NUM_REQUESTS,
        seed=SEED,
        session=session,
        tracer=tracer,
    )
    return tracer, result, (session, store)


def _timed(fn, *args, **kwargs) -> float:
    """Best-of-``TIMING_ROUNDS`` wall time of ``fn``."""
    best = float("inf")
    for _ in range(TIMING_ROUNDS):
        started = time.perf_counter()
        fn(*args, **kwargs)
        best = min(best, time.perf_counter() - started)
    return best


def test_obs_trace_determinism_and_overhead(benchmark):
    # ---- determinism: same seed, fresh store each time, identical bytes ----
    with tempfile.TemporaryDirectory() as tmp_a, tempfile.TemporaryDirectory() as tmp_b:
        tracer_a, result, (session, store) = benchmark.pedantic(
            _traced_run, args=(tmp_a,), rounds=1, iterations=1
        )
        tracer_b, _, _ = _traced_run(tmp_b)
    chrome_a, chrome_b = to_chrome_trace(tracer_a), to_chrome_trace(tracer_b)
    jsonl_a, jsonl_b = to_jsonl(tracer_a), to_jsonl(tracer_b)
    assert chrome_a == chrome_b, "same-seed Chrome-trace export is not bit-identical"
    assert jsonl_a == jsonl_b, "same-seed JSONL export is not bit-identical"

    # All four layers present on one timeline.
    categories = {span.category for span in tracer_a.spans()}
    assert {"compile", "store", "engine", "request", "cluster"} <= categories, categories
    assert any(span.name == "store.put" for span in tracer_a.spans())
    assert any(span.kind == "instant" for span in tracer_a.spans())

    # ---- artifacts for the CI upload --------------------------------------
    os.makedirs(OBS_DIR, exist_ok=True)
    trace_path = os.path.join(OBS_DIR, "cluster_chaos_trace.json")
    to_chrome_trace(tracer_a, trace_path)
    to_jsonl(tracer_a, os.path.join(OBS_DIR, "cluster_chaos_trace.jsonl"))
    registry = MetricsRegistry()
    result.register_into(registry)
    registry.register_source("session", session.stats.snapshot)
    registry.register_source("store", store.stats.snapshot)
    snapshot = registry.snapshot()
    snapshot_path = os.path.join(OBS_DIR, "metrics_snapshot.json")
    with open(snapshot_path, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")

    # ---- overhead: serving sweep, active tracer vs untraced baseline ------
    sweep_session = make_serving_session()

    def sweep(tracer=None):
        return simulate_scenario(
            "interactive-chat",
            policy=POLICY,
            num_requests=NUM_REQUESTS,
            seed=SEED,
            session=sweep_session,
            tracer=tracer,
        )

    sweep()  # warm the session so every timed arm reuses the same plans
    baseline_s = _timed(sweep)
    noop_s = _timed(sweep, tracer=None)
    active_s = _timed(lambda: sweep(tracer=Tracer()))
    noop_ratio = noop_s / baseline_s if baseline_s > 0 else 1.0
    active_ratio = active_s / baseline_s if baseline_s > 0 else 1.0

    bench_journal(
        "obs_trace",
        {
            "num_spans": len(tracer_a),
            "chrome_trace_bytes": len(chrome_a),
            "bit_identical": True,
            "baseline_seconds": baseline_s,
            "noop_tracer_seconds": noop_s,
            "active_tracer_seconds": active_s,
            "noop_overhead_ratio": noop_ratio,
            "active_overhead_ratio": active_ratio,
            "trace_path": trace_path,
            "metrics_snapshot_path": snapshot_path,
            "metrics_snapshot_keys": len(snapshot),
        },
    )

    # ``noop_s`` times the very call ``baseline_s`` times (``tracer=None``
    # is the default), so this ratio is run-to-run noise around 1.0, not a
    # no-op tracer's cost; the bound absorbs shared-runner noise and the
    # journal records the measured number for the trajectory.
    assert noop_ratio < 1.25, f"no-op tracer overhead {noop_ratio:.3f}x"
    assert active_ratio < 5.0, f"active tracer overhead {active_ratio:.3f}x"
