"""Tests for the request-level serving subsystem (`repro.serve`)."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.cluster import ClusterSimulator, FleetConfig
from repro.errors import ConfigurationError, SimulationInvariantError
from repro.eval import format_serving_summary, serving_summary_rows
from repro.eval.reporting import SERVING_SUMMARY_COLUMNS
from repro.serve import (
    ArrivalTrace,
    BatchBuckets,
    EngineCore,
    RequestShape,
    RequestSpec,
    ServingScenario,
    SLOSpec,
    StepLatencyModel,
    available_scenarios,
    batch_trace,
    bursty_trace,
    compute_metrics,
    diurnal_trace,
    get_scenario,
    make_serving_session,
    percentile,
    poisson_trace,
    register_scenario,
    replay_trace,
    save_trace,
    scenario_descriptions,
    simulate_scenario,
    unregister_scenario,
)
from repro.serve.batching import RequestState, make_states
from repro.serve.metrics import RequestRecord


# --------------------------------------------------------------------------- #
# Shared fixtures: one serving session per module so bucketed step plans
# compile once across the tests that don't exercise cold-session behaviour.
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def serve_session():
    return make_serving_session()


def _llm(request_id, arrival, prefill=64, decode=4, model="tiny-llm"):
    return RequestSpec(
        request_id, arrival, model, prefill_tokens=prefill, decode_tokens=decode
    )


def _dit(request_id, arrival, steps=3, model="tiny-dit"):
    return RequestSpec(request_id, arrival, model, denoise_steps=steps)


# --------------------------------------------------------------------------- #
# Workloads and arrival traces
# --------------------------------------------------------------------------- #
def test_request_spec_validation():
    with pytest.raises(ConfigurationError):
        RequestSpec(0, -1.0, "tiny-llm", prefill_tokens=8, decode_tokens=8)
    with pytest.raises(ConfigurationError):
        RequestSpec(0, 0.0, "tiny-llm", prefill_tokens=8, decode_tokens=0)
    with pytest.raises(ConfigurationError):
        RequestSpec(0, 0.0, "tiny-dit", denoise_steps=4, decode_tokens=2)
    assert _llm(0, 0.0).kind == "llm"
    assert _dit(0, 0.0).kind == "diffusion"
    assert _dit(0, 0.0, steps=5).output_units == 5


def test_trace_must_be_in_arrival_order():
    with pytest.raises(ConfigurationError, match="arrival order"):
        ArrivalTrace("bad", (_llm(0, 1.0), _llm(1, 0.5)))


@pytest.mark.parametrize(
    "generator",
    [
        lambda seed: poisson_trace(50.0, 20, seed=seed),
        lambda seed: bursty_trace(200.0, 20, seed=seed),
        lambda seed: diurnal_trace(80.0, 20, seed=seed),
        lambda seed: batch_trace(20, seed=seed),
    ],
)
def test_generators_are_seed_deterministic(generator):
    first, second = generator(7), generator(7)
    assert first == second  # bit-identical arrivals AND request lengths
    assert len(first) == 20
    arrivals = [r.arrival_time for r in first]
    assert arrivals == sorted(arrivals)
    assert generator(8) != first


def test_batch_trace_arrives_at_time_zero():
    trace = batch_trace(5, seed=1)
    assert all(r.arrival_time == 0.0 for r in trace)


def test_mixture_shapes_sample_both_kinds():
    trace = poisson_trace(
        100.0,
        40,
        seed=3,
        shapes=(RequestShape(model="tiny-llm"), RequestShape(model="tiny-dit", denoise_steps=4)),
        weights=(1.0, 1.0),
    )
    kinds = {r.kind for r in trace}
    assert kinds == {"llm", "diffusion"}


def test_trace_replay_round_trip(tmp_path):
    trace = poisson_trace(40.0, 12, seed=5, name="round-trip")
    path = save_trace(trace, str(tmp_path / "trace.json"))
    assert replay_trace(path) == trace


def test_replay_rejects_wrong_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema_version": 999, "name": "x", "requests": []}')
    with pytest.raises(ConfigurationError, match="schema"):
        replay_trace(str(path))


def test_replay_missing_file_is_configuration_error(tmp_path):
    with pytest.raises(ConfigurationError, match="does not exist"):
        replay_trace(str(tmp_path / "nope.json"))


def test_replay_corrupt_json_is_configuration_error(tmp_path):
    path = tmp_path / "corrupt.json"
    path.write_text('{"schema_version": 1, "name": "x", "requests": [')
    with pytest.raises(ConfigurationError, match="not valid JSON"):
        replay_trace(str(path))


def test_replay_preserves_tenant_and_defaults_old_traces(tmp_path):
    trace = poisson_trace(
        40.0, 6, seed=5, shapes=RequestShape(tenant="acme"), name="tenants"
    )
    path = save_trace(trace, str(tmp_path / "trace.json"))
    assert {r.tenant for r in replay_trace(path)} == {"acme"}


def test_generator_argument_validation():
    with pytest.raises(ConfigurationError):
        poisson_trace(0.0, 4)
    with pytest.raises(ConfigurationError):
        poisson_trace(10.0, 4, weights=[1.0, 2.0])
    with pytest.raises(ConfigurationError):
        diurnal_trace(10.0, 4, floor_fraction=0.0)
    for generator in (poisson_trace, bursty_trace, diurnal_trace):
        with pytest.raises(ConfigurationError, match="non-negative"):
            generator(10.0, -1)
    with pytest.raises(ConfigurationError, match="non-negative"):
        batch_trace(-1)


# --------------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------------- #
def test_percentile_edge_cases():
    assert percentile([], 99) == 0.0
    assert percentile([4.0], 50) == 4.0
    assert percentile([4.0], 99) == 4.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert percentile([1.0, 2.0, 3.0, 4.0], 100) == 4.0
    with pytest.raises(ConfigurationError):
        percentile([1.0], 101)


def test_metrics_of_empty_record_set():
    metrics = compute_metrics([])
    assert metrics.num_requests == 0
    assert metrics.throughput_rps == 0.0
    assert metrics.ttft_p99 == 0.0
    assert metrics.goodput_fraction == 1.0  # vacuous without an SLO
    assert compute_metrics([], slo=SLOSpec(ttft=1.0)).goodput_fraction == 0.0


def test_metrics_of_single_record():
    record = RequestRecord(
        spec=_llm(0, 0.0, decode=1),
        arrival_time=0.0,
        started_time=0.5,
        first_token_time=1.0,
        completion_time=1.0,
    )
    metrics = compute_metrics([record], busy_time=0.5, slo=SLOSpec(ttft=2.0))
    assert record.ttft == record.e2e == 1.0
    assert record.tpot == 0.0  # single-token output has no decode phase
    assert metrics.ttft_p50 == metrics.ttft_p99 == 1.0
    assert metrics.goodput_fraction == 1.0
    tight = compute_metrics([record], slo=SLOSpec(ttft=0.5))
    assert tight.goodput_fraction == 0.0 and tight.goodput_rps == 0.0


def test_slo_components_enforced_independently():
    record = RequestRecord(
        spec=_llm(0, 0.0, decode=5),
        arrival_time=0.0,
        started_time=0.0,
        first_token_time=1.0,
        completion_time=3.0,
    )
    assert SLOSpec().met_by(record)
    assert SLOSpec(ttft=1.0, tpot=0.5, e2e=3.0).met_by(record)
    assert not SLOSpec(ttft=0.9).met_by(record)
    assert not SLOSpec(tpot=0.4).met_by(record)
    assert not SLOSpec(e2e=2.9).met_by(record)


# --------------------------------------------------------------------------- #
# Buckets and continuous batching
# --------------------------------------------------------------------------- #
def test_batch_buckets():
    buckets = BatchBuckets(batch_sizes=(1, 2, 4), context_buckets=(128, 512))
    assert buckets.batch_bucket(1) == 1
    assert buckets.batch_bucket(3) == 4
    assert buckets.batch_bucket(9) == 4  # clamped to the largest
    assert buckets.context_bucket(1) == 128
    assert buckets.context_bucket(200) == 512
    assert buckets.context_bucket(9999) == 512
    assert buckets.max_batch == 4
    with pytest.raises(ConfigurationError):
        buckets.batch_bucket(0)
    with pytest.raises(ConfigurationError):
        BatchBuckets(batch_sizes=(2, 1))
    with pytest.raises(ConfigurationError):
        BatchBuckets(context_buckets=())


def test_batcher_admission_cap_and_group_rotation():
    buckets = BatchBuckets(batch_sizes=(1, 2), context_buckets=(256,))
    engine = EngineCore(buckets)
    specs = [
        _llm(0, 0.0, decode=1),
        _llm(1, 0.0, decode=1),
        _llm(2, 0.0, decode=1),
        _dit(3, 0.0),
    ]
    for state in make_states(specs):
        engine.enqueue(state)

    first = engine.form_batch(0.0)
    # FCFS: two tiny-llm requests admitted (cap 2), third waits; groups
    # rotate, so the second batch serves the DiT group.
    assert first.group == ("default", "tiny-llm", "llm")
    assert [s.spec.request_id for s in first.requests] == [0, 1]
    assert engine.waiting == 1
    completed = engine.complete_step(first, 1.0)
    assert {s.spec.request_id for s in completed} == {0, 1}
    second = engine.form_batch(1.0)
    assert second.group == ("default", "tiny-dit", "diffusion")
    engine.complete_step(second, 2.0)
    third = engine.form_batch(2.0)
    # The freed slots admit the waiting request on the next llm turn.
    assert third.group == ("default", "tiny-llm", "llm")
    assert {s.spec.request_id for s in third.requests} == {2}


def test_prefill_chunks_respect_attention_budget():
    buckets = BatchBuckets(
        batch_sizes=(1, 2, 4),
        context_buckets=(256, 512),
        prefill_attention_budget=2 * 512 * 512,
    )
    engine = EngineCore(buckets)
    states = make_states(
        [_llm(i, 0.0, prefill=400) for i in range(4)]  # bucket to 512 each
    )
    chunks = engine._prefill_chunks(states)
    assert [len(chunk) for chunk in chunks] == [2, 2]
    for chunk in chunks:
        footprint = buckets.batch_bucket(len(chunk)) * 512 * 512
        assert footprint <= buckets.prefill_attention_budget
    # A single oversized prompt still gets its own chunk.
    lone = make_states([_llm(0, 0.0, prefill=2000)])
    assert [len(c) for c in engine._prefill_chunks(lone)] == [1]


def test_started_time_marks_first_scheduled_iteration_not_admission():
    """A request admitted while another group holds the engine has not
    started: its per-step metrics must exclude the cross-group wait."""
    buckets = BatchBuckets(batch_sizes=(1, 2), context_buckets=(256,))
    engine = EngineCore(buckets)
    llm_state, dit_state = make_states([_llm(0, 0.0, decode=1), _dit(1, 0.0)])
    engine.enqueue(llm_state)
    engine.enqueue(dit_state)
    first = engine.form_batch(0.0)
    assert first.group == ("default", "tiny-llm", "llm")
    assert llm_state.started_time == 0.0
    assert dit_state.started_time is None  # admitted, but not yet scheduled
    engine.complete_step(first, 1.5)
    second = engine.form_batch(1.5)
    assert second.group == ("default", "tiny-dit", "diffusion")
    assert dit_state.started_time == 1.5


def test_request_state_progression():
    state = RequestState(spec=_llm(0, 0.0, prefill=100, decode=3))
    assert state.prefill_pending and state.context_tokens == 100
    state.steps_done = 2
    assert not state.prefill_pending and state.context_tokens == 102


# --------------------------------------------------------------------------- #
# Step-latency model: compile-once semantics through the shared session
# --------------------------------------------------------------------------- #
def test_step_latency_model_compiles_each_bucket_once(small_system, serve_session):
    model = StepLatencyModel(
        serve_session,
        small_system,
        "basic",
        buckets=BatchBuckets(batch_sizes=(1, 2), context_buckets=(256,)),
    )
    first = model.decode_latency("tiny-llm", 1, 100)
    again = model.decode_latency("tiny-llm", 1, 200)  # same buckets
    assert first == again and first > 0
    assert model.stats == {"compiles": 1, "hits": 1,
                           "compile_faults": 0, "fallbacks": 0}
    model.decode_latency("tiny-llm", 2, 100)  # new batch bucket
    assert model.stats["compiles"] == 2
    assert ("tiny-llm", "decode", 1, 256) in model.compiled_shapes()


def test_step_latency_model_rejects_non_dit_diffusion(small_system, serve_session):
    model = StepLatencyModel(serve_session, small_system, "basic")
    with pytest.raises(ConfigurationError, match="diffusion"):
        model.diffusion_latency("tiny-llm", 1)


def test_two_engines_share_session_compiles(small_system, serve_session):
    buckets = BatchBuckets(batch_sizes=(1,), context_buckets=(256,))
    first = StepLatencyModel(serve_session, small_system, "basic", buckets=buckets)
    second = StepLatencyModel(serve_session, small_system, "basic", buckets=buckets)
    a = first.prefill_latency("tiny-llm", 1, 64)
    hits_before = serve_session.stats.result_hits
    b = second.prefill_latency("tiny-llm", 1, 64)
    assert a == b
    # The second engine's lookup is a session-level cache hit, not a compile.
    assert serve_session.stats.result_hits == hits_before + 1


# --------------------------------------------------------------------------- #
# The discrete-event simulator
# --------------------------------------------------------------------------- #
def _engine(session, system, policy="basic", **kwargs):
    kwargs.setdefault(
        "buckets", BatchBuckets(batch_sizes=(1, 2, 4), context_buckets=(256,))
    )
    return ClusterSimulator(
        StepLatencyModel(session, system, policy, **kwargs),
        FleetConfig(num_engines=1, router="round-robin"),
    )


def test_empty_trace_serves_cleanly(small_system, serve_session):
    result = _engine(serve_session, small_system).run(ArrivalTrace("empty"))
    assert result.records == ()
    assert result.makespan == 0.0
    assert result.num_iterations == 0
    metrics = result.metrics()
    assert metrics.num_requests == 0 and metrics.throughput_rps == 0.0


def test_single_request_lifecycle(small_system, serve_session):
    trace = ArrivalTrace("one", (_llm(0, 0.5, prefill=32, decode=3),))
    result = _engine(serve_session, small_system).run(trace)
    assert len(result.records) == 1
    record = result.records[0]
    assert record.arrival_time == 0.5
    assert record.started_time == 0.5  # engine idle: admitted immediately
    assert 0.5 < record.first_token_time < record.completion_time
    assert result.num_iterations == 3  # prefill+first token, then 2 decodes
    metrics = result.metrics()
    assert metrics.num_requests == 1
    assert metrics.ttft_p50 == metrics.ttft_p99 == record.ttft
    assert metrics.output_tokens == 3


def test_unfinished_requests_raise_a_typed_invariant_error(
    small_system, serve_session, monkeypatch
):
    # An engine that never starts an iteration strands its queue; the check
    # is an explicit raise, so it holds under ``python -O`` too.
    monkeypatch.setattr(EngineCore, "form_batch", lambda self, now: None)
    trace = ArrivalTrace("stuck", (_llm(0, 0.0),))
    with pytest.raises(SimulationInvariantError, match="unfinished requests"):
        _engine(serve_session, small_system).run(trace)


def test_every_request_completes_and_accounting_holds(small_system, serve_session):
    trace = poisson_trace(
        300.0,
        16,
        seed=2,
        shapes=RequestShape(model="tiny-llm", prefill_tokens=(16, 64), decode_tokens=(1, 6)),
    )
    result = _engine(serve_session, small_system).run(trace)
    assert len(result.records) == len(trace)
    assert {r.spec.request_id for r in result.records} == set(range(len(trace)))
    for record in result.records:
        assert record.arrival_time <= record.started_time <= record.first_token_time
        assert record.first_token_time <= record.completion_time
    metrics = result.metrics()
    assert metrics.output_tokens == sum(r.output_units for r in trace)
    assert 0.0 < metrics.utilization <= 1.0


def test_simultaneous_arrivals_share_the_first_iteration(small_system, serve_session):
    """Offline batches / burst heads arriving at one instant must be batched
    together, not served solo head-of-line."""
    specs = tuple(_llm(i, 0.0, prefill=32, decode=2) for i in range(4))
    result = _engine(serve_session, small_system).run(ArrivalTrace("t0", specs))
    assert all(record.started_time == 0.0 for record in result.records)
    # 4 requests x 2 tokens in full batches of 4: exactly 2 iterations.
    assert result.num_iterations == 2


def test_mixed_traffic_serves_both_groups(small_system, serve_session):
    specs = tuple(
        _llm(i, 0.0, prefill=32, decode=2) if i % 2 == 0 else _dit(i, 0.0, steps=2)
        for i in range(6)
    )
    result = _engine(serve_session, small_system).run(ArrivalTrace("mixed", specs))
    assert len(result.records) == 6
    kinds = {r.spec.kind for r in result.records}
    assert kinds == {"llm", "diffusion"}


def test_serving_run_is_bit_reproducible(small_system):
    """Identical seeds reproduce identical traces AND identical metrics."""
    outcomes = []
    for _ in range(2):  # fresh session each time: nothing carries over
        result = simulate_scenario(
            "interactive-chat",
            system=small_system,
            policy="basic",
            num_requests=10,
            seed=13,
            session=make_serving_session(),
        )
        outcomes.append(result)
    first, second = outcomes
    assert first.records == second.records  # bit-identical timestamps
    assert first.metrics() == second.metrics()
    assert first.num_iterations == second.num_iterations
    third = simulate_scenario(
        "interactive-chat",
        system=small_system,
        policy="basic",
        num_requests=10,
        seed=14,
        session=make_serving_session(),
    )
    assert third.records != first.records


# --------------------------------------------------------------------------- #
# Scenario registry
# --------------------------------------------------------------------------- #
def test_builtin_scenarios_registered():
    names = available_scenarios()
    assert len(names) >= 4
    for required in (
        "interactive-chat",
        "offline-batch",
        "diffusion-serving",
        "mixed-traffic",
    ):
        assert required in names
        scenario = get_scenario(required)
        assert isinstance(scenario, ServingScenario)
        assert scenario_descriptions()[required]


def test_scenario_traces_are_seeded():
    scenario = get_scenario("interactive-chat")
    assert scenario.trace(num_requests=8, seed=3) == scenario.trace(
        num_requests=8, seed=3
    )


def test_scenario_registration_lifecycle():
    @register_scenario("toy-scenario")
    class ToyScenario(ServingScenario):
        description = "test-only"

        def trace(self, num_requests=4, seed=0, rate_scale=1.0):
            return batch_trace(num_requests, seed=seed, name=self.name)

    try:
        assert "toy-scenario" in available_scenarios()
        with pytest.raises(ConfigurationError, match="already registered"):

            @register_scenario("toy-scenario")
            class Shadow(ServingScenario):
                def trace(self, num_requests=4, seed=0, rate_scale=1.0):
                    raise AssertionError

    finally:
        unregister_scenario("toy-scenario")
    assert "toy-scenario" not in available_scenarios()
    with pytest.raises(ConfigurationError, match="unknown scenario"):
        get_scenario("toy-scenario")
    with pytest.raises(ConfigurationError, match="ServingScenario"):
        register_scenario("not-a-scenario")(object)


# --------------------------------------------------------------------------- #
# Reporting integration
# --------------------------------------------------------------------------- #
def test_serving_summary_formatting(small_system, serve_session):
    trace = ArrivalTrace("one", (_llm(0, 0.0, prefill=32, decode=2),))
    result = _engine(serve_session, small_system).run(trace, slo=SLOSpec(ttft=10.0))
    runs = [({"scenario": "one", "policy": "basic", "rate_scale": 1.0}, result.metrics())]
    rows = serving_summary_rows(runs)
    assert rows[0]["scenario"] == "one"
    assert "goodput_rps" in rows[0]
    text = format_serving_summary(runs)
    assert "ttft_p50_ms" in text and "basic" in text
    assert format_serving_summary([]) == ""


# --------------------------------------------------------------------------- #
# Validation and concurrency regressions (PR 6)
# --------------------------------------------------------------------------- #
def test_negative_denoise_steps_rejected():
    with pytest.raises(ConfigurationError, match="non-negative"):
        RequestSpec(0, 0.0, "tiny-dit", denoise_steps=-1)
    # A negative count on the *shape* used to slip through as "an LLM shape"
    # and only blow up (or mislabel requests) at sampling time.
    with pytest.raises(ConfigurationError, match="non-negative"):
        RequestShape(model="tiny-dit", denoise_steps=-3)
    assert RequestShape(model="tiny-dit", denoise_steps=4).denoise_steps == 4


def test_metrics_summary_reports_p95_tails():
    records = [
        RequestRecord(
            spec=_llm(i, 0.0, decode=2),
            arrival_time=0.0,
            started_time=0.0,
            first_token_time=float(i + 1),
            completion_time=float(i + 2),
        )
        for i in range(10)
    ]
    metrics = compute_metrics(records)
    summary = metrics.summary()
    assert summary["ttft_p95_ms"] == pytest.approx(metrics.ttft_p95 * 1e3)
    assert summary["tpot_p95_ms"] == pytest.approx(metrics.tpot_p95 * 1e3)
    # p50 <= p95 <= p99 on a spread of distinct TTFTs.
    assert summary["ttft_p50_ms"] <= summary["ttft_p95_ms"] <= summary["ttft_p99_ms"]
    assert "ttft_p95_ms" in SERVING_SUMMARY_COLUMNS
    assert "tpot_p95_ms" in SERVING_SUMMARY_COLUMNS


def test_step_latency_model_race_compiles_once(small_system):
    """N threads racing to one uncached shape: one compile, N-1 hits."""
    session = make_serving_session()
    model = StepLatencyModel(session, small_system, policy="basic")
    num_threads = 4
    barrier = threading.Barrier(num_threads)
    original_compile = session.compile

    def stalling_compile(request):
        # Hold every thread inside the compute section until all of them
        # have passed the cached-read check, forcing the publish race.
        barrier.wait(timeout=30)
        return original_compile(request)

    session.compile = stalling_compile
    results: list[float | None] = [None] * num_threads
    errors: list[BaseException] = []

    def worker(index):
        try:
            results[index] = model.decode_latency("tiny-llm", 4, 128)
        except BaseException as error:  # pragma: no cover - diagnostic only
            errors.append(error)

    threads = [
        threading.Thread(target=worker, args=(index,))
        for index in range(num_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not errors
    assert len(set(results)) == 1 and results[0] is not None
    assert model.stats == {"compiles": 1, "hits": num_threads - 1,
                           "compile_faults": 0, "fallbacks": 0}
    assert len(model.compiled_shapes()) == 1


def test_step_latency_hits_are_exact_under_threads(small_system, serve_session):
    """Lock-free cache hits from racing threads are each counted once."""
    model = StepLatencyModel(
        serve_session,
        small_system,
        "basic",
        buckets=BatchBuckets(batch_sizes=(1, 2), context_buckets=(256,)),
    )
    expected = model.decode_latency("tiny-llm", 1, 100)  # compiles the shape
    num_threads, lookups = 4, 1000
    barrier = threading.Barrier(num_threads)
    seen: list[float] = []

    def worker():
        barrier.wait(timeout=30)
        for _ in range(lookups):
            seen.append(model.decode_latency("tiny-llm", 1, 100))

    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        threads = [threading.Thread(target=worker) for _ in range(num_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch_interval)
    assert not any(thread.is_alive() for thread in threads)
    assert seen == [expected] * (num_threads * lookups)
    stats = model.stats
    assert stats["hits"] == num_threads * lookups
    assert stats["compiles"] == 1
    assert model.stats == stats  # reading the counters does not move them
