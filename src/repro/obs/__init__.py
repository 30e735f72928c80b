"""Observability: deterministic tracing, exporters, and a metrics registry.

Answers "where did this request's time go?" end to end across the four
layers of the reproduction:

- :class:`Tracer` — hierarchical spans stamped with sim-time and wall-time,
  threaded (opt-in, ``tracer=None`` no-op fast path) through the compile
  pipeline (frontend / partition enumeration / scheduler / codegen stages),
  the caching :class:`~repro.api.Session` and :class:`~repro.api.ArtifactStore`
  (hit/miss/round-trip spans), each serving engine (request lifecycle:
  queued → admitted → prefill → decode → done, including retry hops after a
  crash), and the cluster simulator (scale/crash/shed instants).
- :func:`to_chrome_trace` / :func:`to_jsonl` — exporters whose deterministic
  mode is bit-identical across same-seed runs; the Chrome output loads in
  Perfetto (see the README "Observability" section).
- :class:`MetricsRegistry` — a registry of sources: the existing per-layer
  metric structs plug in as bound methods, yielding one ``snapshot()`` dict
  and one reporting table.

Quick start::

    from repro import (MetricsRegistry, Tracer, make_serving_session,
                       simulate_cluster_scenario, to_chrome_trace)

    session, tracer = make_serving_session(), Tracer()
    result = simulate_cluster_scenario("cluster-chaos-crashes",
                                       session=session, tracer=tracer)
    to_chrome_trace(tracer, "results/cluster_trace.json")  # open in Perfetto

    registry = MetricsRegistry()
    result.register_into(registry)  # cluster.{serving,availability,counters}
    registry.register_source("session", session.stats.snapshot)
    print(registry.table())
"""

from .export import to_chrome_trace, to_jsonl, trace_events
from .metrics import MetricsRegistry
from .trace import Span, Tracer

__all__ = [
    "MetricsRegistry",
    "Span",
    "Tracer",
    "to_chrome_trace",
    "to_jsonl",
    "trace_events",
]
