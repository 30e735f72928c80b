"""Tests for repro.obs: tracer semantics, deterministic export, registry."""

from __future__ import annotations

import dataclasses
import gc
import itertools
import json
import sys
import threading
from collections import Counter

import pytest

from repro.api import ArtifactStore, Session
from repro.arch import scaled_system
from repro.cluster import simulate_cluster_scenario
from repro.compiler import POLICIES, WorkloadSpec
from repro.errors import ConfigurationError
from repro.obs import (
    MetricsRegistry,
    Tracer,
    to_chrome_trace,
    to_jsonl,
    trace_events,
)
from repro.serve import make_serving_session, simulate_scenario

# --------------------------------------------------------------------------- #
# Tracer primitives.
# --------------------------------------------------------------------------- #


def test_span_nesting_depth_and_seq_containment():
    tracer = Tracer(clock=lambda: 0.0)
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("sibling") as extra:
            extra["late"] = 1
    spans = {span.name: span for span in tracer.spans()}
    outer, inner, sibling = spans["outer"], spans["inner"], spans["sibling"]
    assert outer.depth == 0 and inner.depth == 1 and sibling.depth == 1
    # Children open and close strictly inside the parent's sequence window.
    for child in (inner, sibling):
        assert outer.seq_start < child.seq_start < child.seq_end < outer.seq_end
    assert inner.seq_end < sibling.seq_start
    assert dict(sibling.attrs) == {"late": 1}
    # spans() sorts by sequence: parent (earliest open) first.
    assert [span.name for span in tracer.spans()] == ["outer", "inner", "sibling"]


def test_begin_end_first_publisher_wins_and_unopened_end_ignored():
    tracer = Tracer(clock=lambda: 0.0)
    tracer.begin(("r1", "queued"), "queued", sim_time=1.0, tenant="a")
    tracer.begin(("r1", "queued"), "queued", sim_time=5.0, tenant="b")  # ignored
    tracer.end(("r1", "queued"), 7.0)
    tracer.end(("never-opened",), 9.0)  # no-op
    (span,) = tracer.spans()
    assert span.sim_start == 1.0 and span.sim_end == 7.0
    assert dict(span.attrs) == {"tenant": "a"}


def test_noop_begin_still_takes_a_sequence_number():
    """Trace goldens and perfbench's span counts depend on this numbering."""
    tracer = Tracer(clock=lambda: 0.0)
    tracer.begin("r1", "decode", sim_time=1.0)  # seq 1
    tracer.begin("r1", "decode", sim_time=2.0)  # no-op, still seq 2
    tracer.end("r1", 3.0)  # seq 3
    tracer.end("r1", 4.0)  # nothing open: no sequence number
    tracer.instant("marker", sim_time=4.0)  # seq 4
    phase, marker = tracer.spans()
    assert (phase.seq_start, phase.seq_end, phase.sim_start) == (1, 3, 1.0)
    assert marker.seq_start == 4


def test_skip_open_numbers_like_a_noop_begin():
    tracer = Tracer(clock=lambda: 0.0)
    assert not tracer.skip_open("r1")  # not open: takes no sequence number
    tracer.begin("r1", "decode", sim_time=1.0)  # seq 1
    assert tracer.skip_open("r1")  # seq 2, as a no-op begin would take
    tracer.take()  # seq 3, likewise
    tracer.end("r1", 3.0)  # seq 4
    (phase,) = tracer.spans()
    assert (phase.seq_start, phase.seq_end, phase.sim_start) == (1, 4, 1.0)


def test_concurrent_emitters_keep_every_span():
    num_threads, rounds = 8, 2000
    tracer = Tracer(clock=lambda: 0.0)
    barrier = threading.Barrier(num_threads)

    def emit(thread):
        barrier.wait(timeout=30)
        for i in range(rounds):
            tracer.add_span(
                "iteration", i, i + 1.0, track=f"engine/{thread}",
                attrs={"thread": thread, "round": i},
            )
            tracer.instant(
                "tick", sim_time=float(i), track=f"tick/{thread}",
                thread=thread, round=i,
            )
            tracer.begin((thread, i), "phase", sim_time=float(i))
            tracer.end((thread, i), i + 0.5)

    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        threads = [
            threading.Thread(target=emit, args=(t,)) for t in range(num_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch_interval)
    assert not any(thread.is_alive() for thread in threads)

    spans = tracer.spans()
    assert len(spans) == len(tracer) == num_threads * rounds * 3
    assert Counter(span.name for span in spans) == {
        "iteration": num_threads * rounds,
        "tick": num_threads * rounds,
        "phase": num_threads * rounds,
    }
    # Sequence numbers are unique and contiguous: 2 per span, 1 per instant.
    seqs = [span.seq_start for span in spans]
    seqs += [span.seq_end for span in spans if span.kind == "span"]
    assert sorted(seqs) == list(range(1, num_threads * rounds * 5 + 1))
    keys = [(span.seq_start, span.seq_end) for span in spans]
    assert keys == sorted(keys)
    # Every exported record kept its own attrs: they name the thread on its
    # track and the round in its sim time.
    for line in to_jsonl(tracer).splitlines():
        row = json.loads(line)
        if row["name"] == "phase":
            assert row["attrs"] == {}
            continue
        prefix = "engine" if row["name"] == "iteration" else "tick"
        assert row["track"] == f"{prefix}/{row['attrs']['thread']}"
        assert row["sim_start"] == row["attrs"]["round"]


def test_finished_records_stay_untracked_by_the_collector():
    """A long traced run must not grow the collector's work per span."""
    num = 10_000
    tracer = Tracer(clock=lambda: 0.0)
    young = []

    def count_young(phase, info):
        if phase == "start" and info["generation"] == 0:
            young.append(info)

    gc.collect()
    before = len(gc.get_objects())
    gc.callbacks.append(count_young)
    try:
        for i in range(num):
            tracer.add_span(
                "iteration", float(i), i + 1.0, track="engine/0",
                attrs={"batch_size": i, "model": "m"},
            )
            tracer.instant("tick", sim_time=float(i), engine=0)
            tracer.begin(i, "phase", sim_time=float(i), engine=0)
            tracer.end(i, i + 0.5, tokens=i)
    finally:
        gc.callbacks.remove(count_young)
    gc.collect()
    assert len(tracer) == 3 * num
    assert len(gc.get_objects()) - before < 100
    # Each round keeps four attrs dicts the emitters made; those alone set
    # the collector's pace.  A record object of its own per span would add
    # three more allocations per round and nearly double the collections.
    assert len(young) <= 4 * num // gc.get_threshold()[0]


def test_abandoned_phase_is_never_emitted():
    tracer = Tracer(clock=lambda: 0.0)
    tracer.begin(("r1", "decode"), "decode", sim_time=1.0)
    assert len(tracer) == 0
    assert tracer.spans() == ()


def test_instants_and_add_span_record_sim_times():
    tracer = Tracer(clock=lambda: 2.5)
    tracer.add_span("iteration", 0.5, 0.75, track="engine/0", attrs={"batch_size": 4})
    tracer.instant("scale-add", sim_time=0.6, engine=1)
    tracer.instant("wall-marker")  # wall-clocked instant
    iteration, scale, marker = tracer.spans()
    assert iteration.sim_start == 0.5 and iteration.sim_end == 0.75
    assert scale.kind == "instant" and scale.seq_start == scale.seq_end
    assert marker.sim_start is None and marker.wall_start == 2.5


# --------------------------------------------------------------------------- #
# Exporters.
# --------------------------------------------------------------------------- #


def _tiny_trace() -> Tracer:
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("compile-stage", category="compile"):
        pass
    tracer.add_span("iteration", 0.001, 0.002, track="engine/0")
    tracer.instant("crash", sim_time=0.0015, category="cluster")
    return tracer


def test_chrome_trace_structure_and_metadata():
    data = json.loads(to_chrome_trace(_tiny_trace()))
    assert data["displayTimeUnit"] == "ms"
    events = data["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    assert {"process_name", "thread_name"} <= {e["name"] for e in meta}
    tracks = {e["args"]["name"] for e in meta if e["name"] == "thread_name"}
    assert tracks == {"compile", "engine/0", "cluster"}
    complete = [e for e in events if e["ph"] == "X"]
    instants = [e for e in events if e["ph"] == "i"]
    assert len(complete) == 2 and len(instants) == 1
    assert instants[0]["s"] == "t"
    # Sim-clocked events are stamped in simulation microseconds.
    iteration = next(e for e in complete if e["name"] == "iteration")
    assert iteration["ts"] == pytest.approx(1000.0)
    assert iteration["dur"] == pytest.approx(1000.0)


def test_deterministic_export_quantizes_wall_times_out():
    tracer = _tiny_trace()
    stage = next(
        e
        for e in json.loads(to_chrome_trace(tracer))["traceEvents"]
        if e.get("name") == "compile-stage"
    )
    # Deterministic mode: wall spans get dimensionless sequence timestamps.
    assert stage["ts"] == 1.0 and stage["dur"] == 1.0
    for line in to_jsonl(tracer).splitlines():
        record = json.loads(line)
        assert "wall_start" not in record and "wall_end" not in record
    # Non-deterministic mode keeps (rebased) wall readings.
    honest = [json.loads(line) for line in to_jsonl(tracer, deterministic=False).splitlines()]
    assert any(record["wall_start"] is not None for record in honest)


def test_jsonl_round_trips_span_fields():
    records = [json.loads(line) for line in to_jsonl(_tiny_trace()).splitlines()]
    assert [r["name"] for r in records] == ["compile-stage", "iteration", "crash"]
    assert records[1]["track"] == "engine/0"
    assert records[2]["kind"] == "instant"


def _mixed_trace() -> Tracer:
    """Nested wall spans, a wall instant and sim events, with rich attrs."""
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: 7.0 + next(ticks) * 0.0012345)
    with tracer.span("outer", shape=(4, 2), plan={"b": 1, "a": (1, 2)}) as extra:
        with tracer.span("inner", category="store", track="store", key="k"):
            tracer.instant("wall-mark", note="x")
        extra["late"] = {"z": [3]}
    tracer.add_span(
        "iteration", 0.001, 0.0025, track="engine/0", attrs={"batch": (1, 2)}
    )
    tracer.begin("r0", "queued", sim_time=0.0005, tenant={"id": 3})
    tracer.end("r0", 0.002, tokens=5)
    return tracer


@pytest.mark.parametrize("deterministic", [True, False])
def test_exports_agree_with_spans_field_for_field(deterministic):
    tracer = _mixed_trace()
    spans = tracer.spans()
    assert {span.kind for span in spans} == {"span", "instant"}
    lines = to_jsonl(tracer, deterministic=deterministic).splitlines()
    assert len(lines) == len(spans)
    for line, span in zip(lines, spans):
        expected = dataclasses.asdict(span)
        expected["attrs"] = dict(span.attrs)
        for field in ("wall_start", "wall_end"):
            if deterministic:
                del expected[field]
            elif expected[field] is not None:
                expected[field] = round(expected[field] - tracer.wall_origin, 9)
        # JSON has no tuples: compare against the expected row's JSON form.
        assert json.loads(line) == json.loads(json.dumps(expected))
    events = [
        e for e in trace_events(tracer, deterministic=deterministic) if e["ph"] != "M"
    ]
    assert [(e["name"], e["cat"]) for e in events] == [
        (span.name, span.category) for span in spans
    ]
    for event, span in zip(events, spans):
        assert event["args"] == dict(span.attrs)


def test_exports_do_not_alias_tracer_state():
    tracer = _mixed_trace()
    jsonl = to_jsonl(tracer)
    events = trace_events(tracer)
    pristine = trace_events(tracer)
    for event in events:
        event["args"].clear()
        event["args"]["injected"] = True
    assert to_jsonl(tracer) == jsonl
    assert trace_events(tracer) == pristine


# --------------------------------------------------------------------------- #
# End-to-end determinism across the four layers.
# --------------------------------------------------------------------------- #


def _traced_chaos_run(store_root):
    tracer = Tracer()
    session = make_serving_session(store=ArtifactStore(str(store_root)))
    result = simulate_cluster_scenario(
        "cluster-chaos-crashes",
        policy="basic",
        num_requests=16,
        seed=5,
        session=session,
        tracer=tracer,
    )
    return tracer, result


def test_same_seed_cluster_trace_is_bit_identical(tmp_path):
    tracer_a, result_a = _traced_chaos_run(tmp_path / "a")
    tracer_b, result_b = _traced_chaos_run(tmp_path / "b")
    assert to_chrome_trace(tracer_a) == to_chrome_trace(tracer_b)
    assert to_jsonl(tracer_a) == to_jsonl(tracer_b)
    assert result_a.metrics() == result_b.metrics()

    # Spans from all four layers share the one timeline.
    categories = {span.category for span in tracer_a.spans()}
    assert {"compile", "store", "engine", "request", "cluster"} <= categories
    names = {span.name for span in tracer_a.spans()}
    assert {"frontend", "schedule", "codegen", "store.get", "store.put",
            "queued", "prefill", "decode", "done", "scale-crash"} <= names


def test_cold_session_builds_each_compile_input_once():
    """Five policies of one workload: one frontend, one enumeration, five plans."""
    tracer = Tracer()
    session = Session(tracer=tracer)
    workload = WorkloadSpec("tiny-llm", batch_size=4, seq_len=256, num_layers=1)
    system = scaled_system(num_cores=32, num_chips=1)
    for policy in POLICIES:
        session.compile(workload, system, policy)
    names = Counter(span.name for span in tracer.spans())
    assert names["frontend"] == 1
    assert names["partition-enumeration"] == 1
    assert names["schedule"] == len(POLICIES) == 5


def test_tracing_does_not_change_serving_metrics():
    baseline = simulate_scenario(
        "interactive-chat", policy="basic", num_requests=12, seed=3,
    )
    traced = simulate_scenario(
        "interactive-chat", policy="basic", num_requests=12, seed=3,
        tracer=Tracer(),
    )
    assert traced.metrics() == baseline.metrics()


def test_request_lifecycle_spans_cover_every_request():
    tracer = Tracer()
    result = simulate_scenario(
        "interactive-chat", policy="basic", num_requests=8, seed=1,
        tracer=tracer,
    )
    by_request: dict[str, set[str]] = {}
    for span in tracer.spans():
        if span.category == "request" and span.kind == "span":
            by_request.setdefault(span.track, set()).add(span.name)
    assert len(by_request) == len(result.records) == 8
    for phases in by_request.values():
        assert {"queued", "prefill", "decode"} <= phases


def test_scenario_run_restores_session_tracer():
    session = make_serving_session()
    simulate_scenario(
        "interactive-chat", policy="basic", num_requests=4, seed=0,
        session=session, tracer=Tracer(),
    )
    assert session.tracer is None


# --------------------------------------------------------------------------- #
# MetricsRegistry.
# --------------------------------------------------------------------------- #


def test_registry_instruments_and_snapshot():
    registry = MetricsRegistry()
    depth = {"value": 7}
    registry.register_source("store", lambda: {"misses": 1, "hits": 5})
    registry.register_source("queue", lambda: {"depth": depth["value"]})
    snapshot = registry.snapshot()
    assert snapshot == {"queue.depth": 7, "store.hits": 5, "store.misses": 1}
    assert list(snapshot) == sorted(snapshot)
    # Sources are re-read at every snapshot, not copied at registration.
    depth["value"] = 9
    assert registry.snapshot()["queue.depth"] == 9
    rows = registry.table().splitlines()[2:]  # below the header and rule
    assert [row.split()[0] for row in rows] == sorted(snapshot)


def test_registry_rejects_duplicate_names_across_kinds():
    registry = MetricsRegistry()
    registry.register_source("x", lambda: {})
    with pytest.raises(ConfigurationError):
        registry.register_source("x", lambda: {"other": 1})
    with pytest.raises(ConfigurationError):
        registry.register_source("", lambda: {})
    assert registry.snapshot() == {}


def test_existing_structs_register_as_sources(tmp_path):
    tracer = Tracer()
    session = make_serving_session(store=ArtifactStore(str(tmp_path)))
    result = simulate_cluster_scenario(
        "cluster-chaos-crashes",
        policy="basic",
        num_requests=12,
        seed=2,
        session=session,
        tracer=tracer,
    )
    registry = MetricsRegistry()
    result.register_into(registry)
    registry.register_source("session", session.stats.snapshot)
    registry.register_source("store", session.store.stats.snapshot)
    snapshot = registry.snapshot()
    assert "cluster.serving.throughput_rps" in snapshot
    assert "cluster.availability.crashes" in snapshot
    assert "cluster.counters.requeues" in snapshot
    assert "session.compiles" in snapshot
    assert "store.hits" in snapshot
    assert snapshot["cluster.counters.retries"] == result.availability.num_retries
    # Double registration of one result is a configuration error, not a
    # silent shadow.
    with pytest.raises(ConfigurationError):
        result.register_into(registry)
