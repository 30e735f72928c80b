"""Tests for repro.cluster.faults: fault injection, retries, degradation.

The chaos integration tests build a FRESH :class:`StepLatencyModel` per run
(the compile-fault fallback path depends on what is already compiled, so a
shared model would make the second run see a warmer cache than the first);
the compile *session* is shared module-wide, which is exactly the supported
reproducibility contract.
"""

from unittest import mock

import pytest

from repro.cluster import (
    AutoscalerConfig,
    ClusterSimulator,
    DegradationPolicy,
    FaultEvent,
    FaultSchedule,
    FleetConfig,
    RetryPolicy,
    random_faults,
    replay_fault_schedule,
    save_fault_schedule,
    simulate_cluster_scenario,
)
from repro.cluster.autoscaler import SCALE_CRASH
from repro.cluster.faults import (
    FAULT_COMPILE_FAILURE,
    FAULT_ENGINE_CRASH,
    FAULT_ENGINE_SLOWDOWN,
    FAULT_KINDS,
    FAULT_STORE_CORRUPTION,
    AvailabilityMetrics,
)
from repro.errors import ConfigurationError
from repro.obs import Tracer
from repro.serve import (
    ArrivalTrace,
    BatchBuckets,
    EngineCore,
    RequestSpec,
    RequestShape,
    StepLatencyModel,
    get_scenario,
    make_serving_session,
    poisson_trace,
)


@pytest.fixture(scope="module")
def chaos_session():
    return make_serving_session()


def _latency_model(session, system, **kwargs):
    kwargs.setdefault(
        "buckets", BatchBuckets(batch_sizes=(1, 2, 4), context_buckets=(256,))
    )
    return StepLatencyModel(session, system, "basic", **kwargs)


def _trace(num_requests=24, rate=600.0, seed=7):
    return poisson_trace(
        rate, num_requests, seed=seed,
        shapes=RequestShape(model="tiny-llm", prefill_tokens=(64, 64),
                            decode_tokens=(6, 6)),
    )


def _crash(time, target=0):
    return FaultEvent(time=time, kind=FAULT_ENGINE_CRASH, target=target)


# --------------------------------------------------------------------------- #
# FaultEvent / FaultSchedule: validation and serialization
# --------------------------------------------------------------------------- #
def test_fault_event_validation():
    with pytest.raises(ConfigurationError, match="unknown fault kind"):
        FaultEvent(time=0.0, kind="meteor-strike")
    with pytest.raises(ConfigurationError, match="non-negative"):
        FaultEvent(time=-1.0, kind=FAULT_ENGINE_CRASH)
    with pytest.raises(ConfigurationError, match="duration"):
        FaultEvent(time=0.0, kind=FAULT_ENGINE_SLOWDOWN, factor=2.0)
    with pytest.raises(ConfigurationError, match="factor"):
        FaultEvent(time=0.0, kind=FAULT_ENGINE_SLOWDOWN, duration=0.1, factor=1.0)
    with pytest.raises(ConfigurationError, match="count"):
        FaultEvent(time=0.0, kind=FAULT_COMPILE_FAILURE, count=0)


def test_fault_schedule_requires_time_order():
    with pytest.raises(ConfigurationError, match="time order"):
        FaultSchedule("bad", (_crash(0.2), _crash(0.1)))
    schedule = FaultSchedule(
        "ok",
        (
            _crash(0.1),
            FaultEvent(time=0.1, kind=FAULT_ENGINE_SLOWDOWN,
                       duration=0.05, factor=2.0),
            _crash(0.3),
        ),
    )
    assert len(schedule) == 3
    assert [event.kind for event in schedule] == [
        FAULT_ENGINE_CRASH, FAULT_ENGINE_SLOWDOWN, FAULT_ENGINE_CRASH,
    ]
    assert schedule.by_kind() == {
        FAULT_ENGINE_CRASH: 2, FAULT_ENGINE_SLOWDOWN: 1,
    }


def test_fault_schedule_json_round_trip(tmp_path):
    schedule = random_faults(
        0.5, crash_rate=10.0, slowdown_rate=5.0, compile_failure_rate=3.0,
        store_corruption_rate=2.0, seed=11, name="round-trip",
    )
    assert len(schedule) > 0
    path = save_fault_schedule(schedule, str(tmp_path / "faults.json"))
    assert replay_fault_schedule(path) == schedule


def test_replay_fault_schedule_error_paths(tmp_path):
    with pytest.raises(ConfigurationError, match="does not exist"):
        replay_fault_schedule(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigurationError, match="not valid JSON"):
        replay_fault_schedule(str(bad))
    bad.write_text('{"no": "events"}')
    with pytest.raises(ConfigurationError, match="not a fault-schedule"):
        replay_fault_schedule(str(bad))
    bad.write_text('{"schema_version": 999, "events": []}')
    with pytest.raises(ConfigurationError, match="schema v999"):
        replay_fault_schedule(str(bad))
    bad.write_text('{"events": [{"time": 0.0, "kind": "engine-crash", "bogus": 1}]}')
    with pytest.raises(ConfigurationError, match="corrupt fault record"):
        replay_fault_schedule(str(bad))


def test_random_faults_seeded_and_validated():
    kwargs = dict(crash_rate=20.0, slowdown_rate=10.0, seed=3)
    assert random_faults(0.3, **kwargs) == random_faults(0.3, **kwargs)
    assert random_faults(0.3, **kwargs) != random_faults(0.3, crash_rate=20.0,
                                                         slowdown_rate=10.0,
                                                         seed=4)
    assert len(random_faults(0.3)) == 0  # all rates default to zero
    times = [event.time for event in random_faults(0.5, **kwargs)]
    assert times == sorted(times) and all(0 <= t < 0.5 for t in times)
    assert {e.kind for e in random_faults(0.5, **kwargs)} <= set(FAULT_KINDS)
    with pytest.raises(ConfigurationError, match="duration"):
        random_faults(0.0, crash_rate=1.0)
    with pytest.raises(ConfigurationError, match="non-negative"):
        random_faults(0.5, crash_rate=-1.0)


# --------------------------------------------------------------------------- #
# RetryPolicy: bounded, exponential, deterministically jittered
# --------------------------------------------------------------------------- #
def test_retry_policy_validation():
    with pytest.raises(ConfigurationError, match="max_attempts"):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ConfigurationError, match="base_backoff"):
        RetryPolicy(base_backoff=0.5, max_backoff=0.1)
    with pytest.raises(ConfigurationError, match="multiplier"):
        RetryPolicy(backoff_multiplier=0.5)
    with pytest.raises(ConfigurationError, match="jitter"):
        RetryPolicy(jitter=1.5)
    with pytest.raises(ConfigurationError, match="retry_budget"):
        RetryPolicy(retry_budget=-1)
    with pytest.raises(ConfigurationError, match="attempt"):
        RetryPolicy().backoff_delay(0, request_id=1)


def test_backoff_is_exponential_capped_and_deterministic():
    policy = RetryPolicy(base_backoff=0.01, backoff_multiplier=2.0,
                         max_backoff=0.05, jitter=0.0)
    assert policy.backoff_delay(1, 0) == pytest.approx(0.01)
    assert policy.backoff_delay(2, 0) == pytest.approx(0.02)
    assert policy.backoff_delay(3, 0) == pytest.approx(0.04)
    assert policy.backoff_delay(4, 0) == pytest.approx(0.05)  # capped
    assert policy.backoff_delay(9, 0) == pytest.approx(0.05)

    jittered = RetryPolicy(base_backoff=0.01, jitter=0.2)
    # Deterministic: same (request, attempt) always gets the same delay...
    assert jittered.backoff_delay(1, 42) == jittered.backoff_delay(1, 42)
    # ...bounded by the jitter fraction...
    assert 0.01 <= jittered.backoff_delay(1, 42) <= 0.01 * 1.2
    # ...and co-crashed requests do not thunder back in lockstep.
    delays = {jittered.backoff_delay(1, rid) for rid in range(8)}
    assert len(delays) > 1


# --------------------------------------------------------------------------- #
# DegradationPolicy: priority shedding under overload
# --------------------------------------------------------------------------- #
def test_degradation_policy_sheds_by_priority():
    policy = DegradationPolicy.from_mapping(
        {"batch": 0, "interactive": 2}, queue_depth_per_engine=4.0
    )
    assert policy.priority_of("batch") == 0
    assert policy.priority_of("unlisted") == 1  # default
    assert policy.overload_level(3.9) == 0
    assert policy.overload_level(4.0) == 1
    assert policy.overload_level(9.0) == 2
    # Healthy fleet sheds nothing.
    assert not policy.should_shed("batch", 2.0)
    # Level 1 sheds only the lowest priority.
    assert policy.should_shed("batch", 5.0)
    assert not policy.should_shed("unlisted", 5.0)
    assert not policy.should_shed("interactive", 5.0)
    # Deepening overload escalates the cutoff.
    assert policy.should_shed("unlisted", 9.0)
    assert not policy.should_shed("interactive", 9.0)


def test_degradation_policy_validation():
    with pytest.raises(ConfigurationError, match="positive"):
        DegradationPolicy(queue_depth_per_engine=0.0)
    with pytest.raises(ConfigurationError, match="duplicate"):
        DegradationPolicy(priorities=(("a", 1), ("a", 2)))
    with pytest.raises(ConfigurationError, match="non-empty"):
        DegradationPolicy(priorities=(("", 1),))


def test_availability_metrics_summary():
    metrics = AvailabilityMetrics(
        num_crashes=2, num_retries=3, num_failed=1,
        recovery_times=(0.0, 0.02),
    )
    assert metrics.mean_recovery_time == pytest.approx(0.01)
    assert metrics.max_recovery_time == pytest.approx(0.02)
    summary = metrics.summary()
    assert summary["crashes"] == 2
    assert summary["recovery_max_ms"] == pytest.approx(20.0)
    assert AvailabilityMetrics().mean_recovery_time == 0.0


# --------------------------------------------------------------------------- #
# Compile faults: fallback to the closest already-compiled plan
# --------------------------------------------------------------------------- #
def test_compile_fault_falls_back_to_closest_compiled_plan(
    chaos_session, small_system
):
    model = _latency_model(chaos_session, small_system)
    compiled = model.decode_latency("tiny-llm", 1, 128)
    assert model.stats["compiles"] >= 1

    model.inject_compile_failures(1)
    fallback = model.decode_latency("tiny-llm", 4, 128)  # new bucket: faults
    assert model.stats["compile_faults"] == 1
    assert model.stats["fallbacks"] == 1
    assert fallback == compiled  # served from the batch-1 plan
    # The fallback is NOT cached as the failed shape: a later healthy call
    # compiles the real plan.
    healthy = model.decode_latency("tiny-llm", 4, 128)
    assert healthy != fallback
    assert model.disarm_compile_failures() == 0


def test_compile_fault_with_no_fallback_compiles_inline(
    chaos_session, small_system
):
    model = _latency_model(chaos_session, small_system)
    model.inject_compile_failures(2)
    first = model.decode_latency("tiny-llm", 1, 128)  # nothing compiled yet
    assert model.stats["compile_faults"] == 1
    assert model.stats["fallbacks"] == 0
    assert first > 0
    assert model.disarm_compile_failures() == 1  # leftover armed fault cleared
    with pytest.raises(ConfigurationError, match="count"):
        model.inject_compile_failures(0)


# --------------------------------------------------------------------------- #
# Chaos runs: crashes, retries, accounting, determinism
# --------------------------------------------------------------------------- #
def test_crash_redispatches_lost_work_and_accounting_balances(
    chaos_session, small_system
):
    trace = _trace()
    faults = FaultSchedule("one-crash", (_crash(0.004, target=1),))
    result = ClusterSimulator(
        _latency_model(chaos_session, small_system),
        FleetConfig(
            num_engines=3,
            faults=faults,
            retry_policy=RetryPolicy(max_attempts=3, base_backoff=0.002,
                                     max_backoff=0.01),
        ),
    ).run(trace)

    assert result.availability.num_crashes == 1
    assert result.accounting_balanced
    acct = result.accounting()
    assert acct["arrivals"] == len(trace)
    assert acct["completed"] + acct["rejected"] + acct["failed"] == len(trace)
    assert acct["failed"] == 0  # retries recovered everything
    assert SCALE_CRASH in [event.action for event in result.scale_events]
    # Every arrival completed exactly once despite the re-dispatches.
    served = sorted(record.spec.request_id for record in result.records)
    assert served == sorted(spec.request_id for spec in trace.requests)
    # The crash destroyed work, so recovery took measurable time.
    assert len(result.availability.recovery_times) == 1
    assert result.availability.num_redispatches >= 1


def test_crash_without_retries_records_failed_requests(
    chaos_session, small_system
):
    trace = _trace()
    faults = FaultSchedule("one-crash", (_crash(0.004, target=1),))
    result = ClusterSimulator(
        _latency_model(chaos_session, small_system),
        FleetConfig(
            num_engines=2,
            faults=faults,
            retry_policy=RetryPolicy(max_attempts=1),  # fail-fast
        ),
    ).run(trace)

    assert result.availability.num_crashes == 1
    assert result.availability.num_retries == 0
    assert len(result.failed) >= 1
    assert result.availability.num_failed == len(result.failed)
    assert result.accounting_balanced
    # failed + completed partition the arrivals (nothing lost, nothing twice).
    ids = sorted(
        [r.spec.request_id for r in result.records]
        + [spec.request_id for spec in result.failed]
    )
    assert ids == sorted(spec.request_id for spec in trace.requests)
    # Goodput under faults charges the failures.
    assert result.availability.goodput_under_faults_fraction < 1.0


def test_exhausted_retry_budget_fails_lost_work(chaos_session, small_system):
    trace = _trace()
    faults = FaultSchedule("one-crash", (_crash(0.004, target=1),))
    result = ClusterSimulator(
        _latency_model(chaos_session, small_system),
        FleetConfig(
            num_engines=2,
            faults=faults,
            retry_policy=RetryPolicy(max_attempts=5, retry_budget=0),
        ),
    ).run(trace)
    assert result.availability.num_retries == 0  # budget trumps attempts
    assert len(result.failed) >= 1
    assert result.accounting_balanced


def test_crash_never_takes_the_last_engine(chaos_session, small_system):
    trace = _trace(num_requests=12)
    faults = FaultSchedule("overkill", tuple(
        _crash(0.002 * (i + 1), target=i) for i in range(4)
    ))
    result = ClusterSimulator(
        _latency_model(chaos_session, small_system),
        FleetConfig(num_engines=2, faults=faults),
    ).run(trace)
    # Only one crash can ever apply: after it, one engine remains and every
    # later crash is skipped as unappliable rather than bricking the fleet.
    assert result.availability.num_crashes == 1
    assert len(result.records) + len(result.failed) == len(trace)
    assert result.accounting_balanced


def test_crash_of_the_last_ready_engine_parks_work_on_a_warming_one(
    chaos_session, small_system
):
    # The crash guard counts a warming engine as a replica, so a crash can
    # take the only *ready* engine while the autoscaler's replacement is
    # still warming.  Requests routed in that gap park on the warming
    # engine and must not start before it is ready.
    crash_time = 0.12
    trace = poisson_trace(
        400.0, 64, seed=0,
        shapes=RequestShape(model="tiny-llm", prefill_tokens=(64, 256),
                            decode_tokens=(8, 48)),
    )
    result = ClusterSimulator(
        StepLatencyModel(chaos_session, small_system, "basic"),
        FleetConfig(
            num_engines=1,
            autoscaler=AutoscalerConfig(
                scale_up_queue_depth=1.0,
                scale_down_queue_depth=0.1,
                cooldown=0.0,
                warmup_delay=0.5,
            ),
            faults=FaultSchedule("last-ready", (_crash(crash_time, target=0),)),
        ),
    ).run(trace)
    first, warming = result.engines[0], result.engines[1]
    assert first.removed_time == crash_time
    assert warming.added_time < crash_time < warming.ready_time
    assert result.accounting_balanced
    assert not result.failed
    assert warming.requests_completed > 0
    assert not [
        record
        for record in result.records
        if crash_time <= record.started_time < warming.ready_time
    ]


def test_slowdown_stretches_the_run(chaos_session, small_system):
    trace = _trace(num_requests=12)
    baseline = ClusterSimulator(
        _latency_model(chaos_session, small_system), FleetConfig(num_engines=1)
    ).run(trace)
    slowdown = FaultEvent(time=0.0, kind=FAULT_ENGINE_SLOWDOWN,
                          duration=10.0, factor=8.0)
    slowed = ClusterSimulator(
        _latency_model(chaos_session, small_system),
        FleetConfig(num_engines=1, faults=FaultSchedule("straggler", (slowdown,))),
    ).run(trace)
    assert slowed.availability.num_slowdowns == 1
    assert slowed.makespan > baseline.makespan
    assert slowed.metrics().e2e_p95 > baseline.metrics().e2e_p95
    assert slowed.accounting_balanced


class _QuarterSecondSteps(StepLatencyModel):
    """Every bucketed step takes 0.25 s, which sums and compares exactly."""

    def _step_latency(self, model, phase, batch_bucket, context_bucket):
        return 0.25


def test_steady_steps_stop_at_an_event_that_ties_their_end(chaos_session, small_system):
    """Steady decode steps run in place only while they end before the next
    event; an arrival or a crash at exactly a step's end goes first, as the
    heap orders it (pushed earlier, so it pops earlier)."""
    trace = ArrivalTrace("ties", (
        RequestSpec(0, 0.0, "tiny-llm", prefill_tokens=64, decode_tokens=6),  # A
        RequestSpec(1, 0.0, "tiny-llm", prefill_tokens=64, decode_tokens=2),  # X
        RequestSpec(2, 0.75, "tiny-llm", prefill_tokens=64, decode_tokens=4),  # B
    ))
    fleet = FleetConfig(
        num_engines=2,
        router="round-robin",
        faults=FaultSchedule("tie", (_crash(1.75, target=0),)),
        retry_policy=RetryPolicy(base_backoff=0.25, jitter=0.0),
    )

    def run(tracer=None):
        model = _QuarterSecondSteps(chaos_session, small_system, "basic")
        return ClusterSimulator(model, fleet, tracer=tracer).run(trace)

    advance = EngineCore.advance
    steady = []

    def counting_advance(engine, batch):
        ran = advance(engine, batch)
        if ran:
            steady.append(engine.engine_id)
        return ran

    with mock.patch.object(EngineCore, "advance", counting_advance):
        result = run()
    # Engine 0 serves A alone, runs [0.5, 0.75] in place, and stops there: B
    # arrives at 0.75 and joins A's next step.  A and B then decode in place
    # over [1.5, 1.75]; the crash at 1.75 destroys them before that step is
    # applied.  Their retries return at 2.0 to engine 1, which finishes X
    # at 0.5 and then runs [3.0, 3.25] and [3.25, 3.5] in place.
    assert steady == [0, 0, 1, 1]
    times = {
        record.spec.request_id: (
            record.started_time, record.first_token_time, record.completion_time
        )
        for record in result.records
    }
    assert times == {0: (2.0, 2.25, 3.75), 1: (0.0, 0.25, 0.5), 2: (2.25, 2.75, 3.5)}
    ttft = {r.spec.request_id: r.ttft for r in result.records}
    tpot = {r.spec.request_id: r.tpot for r in result.records}
    assert ttft == {0: 2.25, 1: 0.25, 2: 2.0}
    assert tpot == {0: 0.3, 1: 0.25, 2: 0.25}
    assert [(e.num_iterations, e.busy_time) for e in result.engines] == [
        (6, 1.75), (8, 2.25)
    ]
    assert result.availability.num_retries == 2
    tracer = Tracer()
    assert run(tracer) == result
    assert sum(1 for span in tracer.spans() if span.name == "iteration") == 14


def test_store_corruption_fault_is_counted(small_system, tmp_path):
    session = make_serving_session(store=str(tmp_path / "cache"))
    trace = _trace(num_requests=12)
    faults = FaultSchedule(
        "bitrot",
        (FaultEvent(time=0.004, kind=FAULT_STORE_CORRUPTION, target=0),),
    )
    result = ClusterSimulator(
        _latency_model(session, small_system),
        FleetConfig(num_engines=2, faults=faults),
    ).run(trace)
    # By the fault time at least one bucket plan was persisted, so the
    # corruption had an entry to truncate; the run itself is unaffected
    # (plans are already in memory) but the next cold session will evict.
    assert result.availability.num_store_corruptions == 1
    assert result.accounting_balanced
    assert len(result.records) == len(trace)


def test_chaos_runs_are_bit_reproducible(chaos_session, small_system):
    trace = _trace()
    faults = FaultSchedule(
        "mixed",
        (
            _crash(0.003, target=1),
            FaultEvent(time=0.006, kind=FAULT_ENGINE_SLOWDOWN,
                       duration=0.02, factor=3.0),
            FaultEvent(time=0.008, kind=FAULT_COMPILE_FAILURE),
            _crash(0.012, target=0),
        ),
    )

    def run():
        return ClusterSimulator(
            _latency_model(chaos_session, small_system),
            FleetConfig(
                num_engines=3,
                faults=faults,
                retry_policy=RetryPolicy(max_attempts=3, base_backoff=0.002,
                                         max_backoff=0.01),
            ),
        ).run(trace)

    first, second = run(), run()
    assert first.metrics() == second.metrics()
    assert first.availability == second.availability
    assert first.accounting() == second.accounting()
    assert [r.spec.request_id for r in first.records] == [
        r.spec.request_id for r in second.records
    ]


def test_faults_and_policies_are_type_checked():
    with pytest.raises(ConfigurationError, match="FaultSchedule"):
        FleetConfig(faults=[_crash(0.1)])
    with pytest.raises(ConfigurationError, match="RetryPolicy"):
        FleetConfig(retry_policy="patient")
    with pytest.raises(ConfigurationError, match="DegradationPolicy"):
        FleetConfig(degradation="shed-everything")


# --------------------------------------------------------------------------- #
# Chaos scenarios
# --------------------------------------------------------------------------- #
def test_chaos_crash_scenario_is_deterministic():
    def run():
        return simulate_cluster_scenario(
            "cluster-chaos-crashes", policy="basic", num_requests=24, seed=5,
            session=make_serving_session(),
        )

    first, second = run(), run()
    assert first.availability.num_crashes >= 1
    assert first.accounting_balanced
    assert first.metrics() == second.metrics()
    assert first.availability == second.availability


def test_every_latency_lookup_is_one_counted_step_latency_call(small_system):
    """Each lookup ends as exactly one hit, compile or fallback, all inside
    ``_step_latency`` — the call the benchmark counts as a lookup."""
    scenario = get_scenario("cluster-chaos-crashes")
    model = StepLatencyModel(
        make_serving_session(), small_system, "basic", buckets=scenario.buckets
    )
    with mock.patch.object(
        StepLatencyModel,
        "_step_latency",
        autospec=True,
        side_effect=StepLatencyModel._step_latency,
    ) as lookups:
        result = ClusterSimulator(model, scenario.fleet).run(
            scenario.trace(num_requests=24, seed=5)  # two compile faults fire
        )
    stats = model.stats
    assert result.availability.compile_fallbacks == stats["fallbacks"] > 0
    assert stats["hits"] + stats["compiles"] + stats["fallbacks"] == lookups.call_count


def test_chaos_degraded_scenario_sheds_low_priority_first():
    result = simulate_cluster_scenario(
        "cluster-chaos-degraded", policy="basic", num_requests=36, seed=5,
        session=make_serving_session(),
    )
    assert result.accounting_balanced
    availability = result.availability
    assert availability.num_shed > 0
    assert availability.num_shed <= len(result.rejected)
    # Priority shedding: the batch tenant absorbs the overload, the
    # interactive tenant is never shed.
    rejections = result.rejections_by_tenant()
    assert rejections and set(rejections) == {"batch"}
    assert "interactive" in result.tenant_metrics()


def test_scenario_fault_overrides():
    # Explicitly clearing the schedule turns the chaos scenario into a
    # healthy run; supplying a custom one replaces the default.
    calm = simulate_cluster_scenario(
        "cluster-chaos-crashes", policy="basic", num_requests=12, seed=5,
        session=make_serving_session(),
        faults=None, retry_policy=None, degradation=None,
    )
    assert calm.availability.num_crashes == 0
    assert calm.availability == AvailabilityMetrics(
        goodput_under_faults_rps=calm.availability.goodput_under_faults_rps,
        goodput_under_faults_fraction=(
            calm.availability.goodput_under_faults_fraction
        ),
    )
    assert len(calm.records) == 12
