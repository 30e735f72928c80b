"""Tests for repro.cluster: routers, tenancy, autoscaling, disaggregation.

The simulator-level tests run on the small 32-core system so every test
runs in well under a second while still exercising real compiled step
plans.
"""

import dataclasses

import pytest

from repro.cluster import (
    AdmissionController,
    Autoscaler,
    AutoscalerConfig,
    AvailabilityMetrics,
    ClusterSimulator,
    ROLE_DECODE,
    ROLE_PREFILL,
    DisaggregationConfig,
    EngineView,
    FleetConfig,
    RouterPolicy,
    TenantSpec,
    available_routers,
    get_router,
    register_router,
    simulate_cluster_scenario,
    unregister_router,
)
from repro.cluster.autoscaler import SCALE_ADD, SCALE_DRAIN, SCALE_REMOVE
from repro.errors import ConfigurationError
from repro.serve import (
    ArrivalTrace,
    BatchBuckets,
    EngineCore,
    RequestShape,
    RequestSpec,
    SLOSpec,
    StepLatencyModel,
    get_scenario,
    make_serving_session,
    poisson_trace,
    simulate_scenario,
)
from repro.serve.batching import make_states


@pytest.fixture(scope="module")
def cluster_session():
    return make_serving_session()


def _latency_model(session, system, **kwargs):
    kwargs.setdefault(
        "buckets", BatchBuckets(batch_sizes=(1, 2, 4), context_buckets=(256,))
    )
    return StepLatencyModel(session, system, "basic", **kwargs)


def _views(*loads):
    return [
        EngineView(engine_id=i, waiting=q, running=r, in_flight_tokens=t)
        for i, (q, r, t) in enumerate(loads)
    ]


def _state(tenant="default", request_id=0):
    spec = RequestSpec(request_id, 0.0, "tiny-llm", 64, 8, tenant=tenant)
    return make_states([spec])[0]


# --------------------------------------------------------------------------- #
# Router policies and registry
# --------------------------------------------------------------------------- #
def test_builtin_routers_registered():
    assert {"round-robin", "least-loaded", "session-affinity"} <= set(
        available_routers()
    )


def test_router_registry_round_trip():
    @register_router("test-first")
    class First(RouterPolicy):
        description = "always the first engine"

        def choose(self, state, engines, now):
            return engines[0].engine_id

    try:
        assert get_router("test-first").choose(_state(), _views((0, 0, 0)), 0.0) == 0
        with pytest.raises(ConfigurationError, match="already registered"):
            register_router("test-first")(First)
    finally:
        unregister_router("test-first")
    with pytest.raises(ConfigurationError, match="unknown router"):
        get_router("test-first")


def test_round_robin_cycles_in_engine_order():
    router = get_router("round-robin")
    views = _views((0, 0, 0), (0, 0, 0), (0, 0, 0))
    picks = [router.choose(_state(), views, 0.0) for _ in range(6)]
    assert picks == [0, 1, 2, 0, 1, 2]


def test_least_loaded_prefers_fewest_requests_then_tokens_then_id():
    router = get_router("least-loaded")
    assert router.choose(_state(), _views((2, 1, 40), (0, 1, 40), (1, 1, 5)), 0.0) == 1
    # Equal load: fewer in-flight tokens wins.
    assert router.choose(_state(), _views((1, 0, 40), (1, 0, 5)), 0.0) == 1
    # Full tie: lowest engine id.
    assert router.choose(_state(), _views((1, 0, 5), (1, 0, 5)), 0.0) == 0


def test_session_affinity_is_sticky_and_spreads_tenants():
    router = get_router("session-affinity")
    views = _views(*(((0, 0, 0),) * 4))
    one = {router.choose(_state("acme", i), views, 0.0) for i in range(5)}
    assert len(one) == 1  # same tenant always lands on one engine
    spread = {
        router.choose(_state(tenant, 0), views, 0.0)
        for tenant in ("acme", "globex", "initech", "umbrella", "hooli")
    }
    assert len(spread) > 1  # different tenants do not all collapse together


def test_engine_role_is_validated_and_gates_enqueue():
    with pytest.raises(ConfigurationError, match="unknown engine role"):
        EngineCore(role="bogus")
    with pytest.raises(ConfigurationError, match="prefill"):
        EngineCore(role=ROLE_DECODE).enqueue(_state())  # prefill still pending
    dit = RequestSpec(0, 0.0, "tiny-dit", denoise_steps=4)
    with pytest.raises(ConfigurationError, match="diffusion"):
        EngineCore(role=ROLE_PREFILL).enqueue(make_states([dit])[0])


def test_engine_view_matches_live_engine_for_every_router():
    """Routers read a live engine and an EngineView of it the same way."""
    buckets = BatchBuckets(batch_sizes=(1, 2), context_buckets=(256,))
    engines = [EngineCore(buckets, engine_id=i) for i in range(3)]
    states = make_states(
        [RequestSpec(i, 0.0, "tiny-llm", 64, 4 + i) for i in range(6)]
    )
    for state in states[:3]:
        engines[0].enqueue(state)
    engines[0].complete_step(engines[0].form_batch(0.0), 1.0)
    for state in states[3:5]:
        engines[1].enqueue(state)
    engines[1].form_batch(0.0)
    engines[2].enqueue(states[5])
    assert [(e.waiting, e.running, e.in_flight_tokens) for e in engines] == [
        (1, 2, 13),
        (0, 2, 15),
        (1, 0, 9),
    ]
    views = [
        EngineView(
            engine_id=e.engine_id,
            waiting=e.waiting,
            running=e.running,
            in_flight_tokens=e.in_flight_tokens,
        )
        for e in engines
    ]
    assert [view.load for view in views] == [e.load for e in engines] == [3, 2, 1]
    tenants = ("acme", "globex", "initech", "umbrella")
    for name in available_routers():
        on_views, on_engines = get_router(name), get_router(name)
        for i, tenant in enumerate(tenants):
            state = _state(tenant, i)
            assert on_views.choose(state, views, 0.0) == on_engines.choose(
                state, engines, 0.0
            ), name


@pytest.mark.parametrize("router", ["round-robin", "least-loaded", "session-affinity"])
def test_cluster_runs_are_deterministic_per_policy(
    small_system, cluster_session, router
):
    results = [
        simulate_cluster_scenario(
            "cluster-chat-fleet",
            system=small_system,
            policy="basic",
            num_requests=24,
            seed=7,
            session=cluster_session,
            router=router,
        )
        for _ in range(2)
    ]
    assert results[0].metrics() == results[1].metrics()
    assert [e.num_iterations for e in results[0].engines] == [
        e.num_iterations for e in results[1].engines
    ]
    assert results[0].router == router


# --------------------------------------------------------------------------- #
# Acceptance: a 4-engine fleet beats one engine, with zero duplicate compiles
# --------------------------------------------------------------------------- #
def test_fleet_beats_single_engine_p95_ttft_with_deduped_compiles(small_system):
    session = make_serving_session()
    kwargs = dict(
        system=small_system,
        policy="basic",
        num_requests=48,
        seed=0,
        session=session,
        router="least-loaded",
    )
    solo = simulate_cluster_scenario("cluster-chat-fleet", num_engines=1, **kwargs)
    fleet = simulate_cluster_scenario("cluster-chat-fleet", num_engines=4, **kwargs)
    assert fleet.metrics().ttft_p95 < solo.metrics().ttft_p95
    assert {len(solo.engines), len(fleet.engines)} == {1, 4}
    # Zero duplicate bucket compiles fleet-wide: every distinct compiled
    # shape was compiled exactly once through the shared session, no matter
    # how many engines (or runs) requested it.
    distinct_shapes = set(solo.compiled_shapes) | set(fleet.compiled_shapes)
    assert session.stats.compiles == len(distinct_shapes)


# --------------------------------------------------------------------------- #
# Autoscaler
# --------------------------------------------------------------------------- #
def test_autoscaler_config_validates_hysteresis_band():
    with pytest.raises(ConfigurationError, match="hysteresis"):
        AutoscalerConfig(scale_up_queue_depth=2.0, scale_down_queue_depth=2.0)
    with pytest.raises(ConfigurationError, match="max_engines"):
        AutoscalerConfig(min_engines=3, max_engines=2)


def test_autoscaler_cooldown_prevents_flapping():
    scaler = Autoscaler(
        AutoscalerConfig(
            min_engines=1,
            max_engines=4,
            scale_up_queue_depth=2.0,
            scale_down_queue_depth=0.5,
            cooldown=1.0,
        )
    )
    assert scaler.decide(0.0, active_engines=1, total_waiting=10) == "up"
    # An immediate reversal (queue emptied) must wait out the cooldown.
    assert scaler.decide(0.1, active_engines=2, total_waiting=0) is None
    assert scaler.decide(0.99, active_engines=2, total_waiting=0) is None
    assert scaler.decide(1.01, active_engines=2, total_waiting=0) == "down"
    # ...and the next decision waits for its own cooldown again.
    assert scaler.decide(1.5, active_engines=1, total_waiting=10) is None


def test_autoscaler_respects_fleet_bounds_and_attainment_floor():
    config = AutoscalerConfig(
        min_engines=1,
        max_engines=2,
        scale_up_queue_depth=2.0,
        scale_down_queue_depth=0.5,
        cooldown=0.0,
        attainment_floor=0.9,
        attainment_window=4,
    )
    scaler = Autoscaler(config)
    assert scaler.decide(0.0, active_engines=2, total_waiting=100) is None  # at max
    for met in (False, False, True, True):
        scaler.observe(met)
    assert scaler.attainment == 0.5
    # Missing the SLO floor scales up even with empty queues...
    assert scaler.decide(1.0, active_engines=1, total_waiting=0) == "up"
    # ...and blocks scale-down.
    assert scaler.decide(2.0, active_engines=2, total_waiting=0) is None


def test_autoscaled_fleet_scales_up_and_rebalances(small_system, cluster_session):
    result = simulate_cluster_scenario(
        "cluster-autoscale",
        system=small_system,
        policy="basic",
        num_requests=200,
        seed=2,
        rate_scale=4.0,
        session=cluster_session,
    )
    adds = [e for e in result.scale_events if e.action == SCALE_ADD]
    assert adds, "overload never triggered a scale-up"
    config = result.engines  # all engines, in id order
    assert len(config) <= 4  # bounded by max_engines
    # Rebalancing on warm-up: every scaled-up engine actually served work.
    for event in adds:
        record = result.engines[event.engine_id]
        assert record.num_iterations > 0
        assert record.ready_time == pytest.approx(event.time + 0.05)
    # No flapping: autoscaler actions respect the cooldown (remove events
    # are drain completions, not autoscaler decisions).
    actions = [e.time for e in result.scale_events if e.action != SCALE_REMOVE]
    assert all(b - a >= 0.1 for a, b in zip(actions, actions[1:]))
    assert result.metrics().num_requests == 200


def test_autoscaler_drains_idle_engine_and_work_completes(
    small_system, cluster_session
):
    # A thundering herd at t=0 forces a scale-up; the lone straggler half a
    # second later finds empty queues, an expired cooldown, and triggers the
    # drain -> remove path.
    herd = poisson_trace(
        5000.0,
        60,
        seed=4,
        shapes=RequestShape(model="tiny-llm", prefill_tokens=(64, 256), decode_tokens=(8, 48)),
    )
    stragglers = tuple(
        RequestSpec(len(herd) + i, 0.5 + 0.2 * i, "tiny-llm", 128, 8)
        for i in range(3)
    )
    trace = ArrivalTrace("herd-then-quiet", herd.requests + stragglers)
    model = _latency_model(cluster_session, small_system)
    result = ClusterSimulator(
        model,
        FleetConfig(
            num_engines=1,
            autoscaler=AutoscalerConfig(
                min_engines=1,
                max_engines=3,
                scale_up_queue_depth=4.0,
                scale_down_queue_depth=0.5,
                cooldown=0.1,
                warmup_delay=0.01,
            ),
        ),
    ).run(trace)
    actions = [e.action for e in result.scale_events]
    assert SCALE_ADD in actions and SCALE_DRAIN in actions
    assert SCALE_REMOVE in actions  # the drained engine emptied and left
    drained = [e for e in result.engines if e.removed_time is not None]
    assert drained
    assert result.metrics().num_requests == len(trace)


def test_autoscaler_and_disaggregation_are_mutually_exclusive():
    with pytest.raises(ConfigurationError, match="disaggregated"):
        FleetConfig(
            autoscaler=AutoscalerConfig(), disaggregation=DisaggregationConfig()
        )


# --------------------------------------------------------------------------- #
# Tenancy: admission control and per-tenant metrics
# --------------------------------------------------------------------------- #
def test_token_bucket_admission_is_exact():
    controller = AdmissionController(
        [TenantSpec("metered", quota_rps=1.0, burst=1)]
    )
    assert controller.admit("metered", 0.0)  # bucket starts full
    assert not controller.admit("metered", 0.5)  # half a token refilled
    assert controller.admit("metered", 1.5)  # a full second passed
    assert controller.admit("unmetered", 0.0)  # unknown tenants are unlimited
    assert controller.admitted == {"metered": 2, "unmetered": 1}
    assert controller.rejected == {"metered": 1}


def test_tenant_specs_validate():
    with pytest.raises(ConfigurationError, match="quota_rps"):
        TenantSpec("x", quota_rps=0.0)
    with pytest.raises(ConfigurationError, match="burst"):
        TenantSpec("x", burst=0)
    with pytest.raises(ConfigurationError, match="duplicate"):
        AdmissionController([TenantSpec("x"), TenantSpec("x")])


def test_tenant_quota_enforced_in_cluster_run(small_system, cluster_session):
    trace = poisson_trace(
        400.0,
        40,
        seed=9,
        shapes=(
            RequestShape(model="tiny-llm", decode_tokens=(8, 16), tenant="greedy"),
            RequestShape(model="tiny-llm", decode_tokens=(8, 16), tenant="quiet"),
        ),
        weights=(3.0, 1.0),
    )
    model = _latency_model(cluster_session, small_system)
    result = ClusterSimulator(
        model,
        FleetConfig(
            num_engines=2,
            tenants=[TenantSpec("greedy", quota_rps=20.0, burst=2)],
        ),
    ).run(trace)
    rejected = result.rejections_by_tenant()
    assert rejected and set(rejected) == {"greedy"}  # only the metered tenant
    served = {r.spec.request_id for r in result.records}
    assert len(served) + len(result.rejected) == len(trace)
    # Tenants never share a batch, and per-tenant metrics partition the run.
    per_tenant = result.tenant_metrics()
    assert sum(m.num_requests for m in per_tenant.values()) == len(served)
    assert set(per_tenant) == {"greedy", "quiet"}


def test_per_tenant_slo_goodput(small_system, cluster_session):
    model = _latency_model(cluster_session, small_system)
    trace = poisson_trace(
        100.0, 16, seed=3, shapes=RequestShape(model="tiny-llm", tenant="vip")
    )
    result = ClusterSimulator(
        model,
        FleetConfig(
            num_engines=2,
            tenants=[TenantSpec("vip", slo=SLOSpec(ttft=1e9))],
        ),
    ).run(trace, slo=SLOSpec(ttft=1e-12))
    per_tenant = result.tenant_metrics()
    # The tenant's own (loose) SLO overrides the (impossible) run SLO.
    assert per_tenant["vip"].goodput_fraction == 1.0
    assert result.metrics().goodput_fraction == 0.0


# --------------------------------------------------------------------------- #
# Prefill/decode disaggregation
# --------------------------------------------------------------------------- #
def test_disaggregated_pools_split_the_work(small_system, cluster_session):
    result = simulate_cluster_scenario(
        "cluster-disaggregated",
        system=small_system,
        policy="basic",
        num_requests=32,
        seed=3,
        session=cluster_session,
    )
    roles = {e.role for e in result.engines}
    assert roles == {"prefill", "decode"}
    prefill = [e for e in result.engines if e.role == "prefill"]
    decode = [e for e in result.engines if e.role == "decode"]
    # Multi-token LLM requests always finish on the decode pool; the
    # prefill pool still executed iterations for every hand-off.
    assert all(e.num_iterations > 0 for e in prefill)
    assert sum(e.requests_completed for e in decode) == len(result.records)
    assert result.metrics().num_requests == 32


def test_disaggregation_with_idle_prefill_pool_keeps_ttft(
    small_system, cluster_session
):
    """At low load an idle dedicated prefill pool can't hurt TTFT."""
    kwargs = dict(
        system=small_system,
        policy="basic",
        num_requests=16,
        seed=11,
        rate_scale=0.05,  # sparse arrivals: every engine is idle on arrival
        session=cluster_session,
    )
    disagg = simulate_cluster_scenario("cluster-disaggregated", **kwargs)
    colocated = simulate_cluster_scenario(
        "cluster-disaggregated", disaggregation=None, num_engines=3, **kwargs
    )
    assert disagg.metrics().ttft_p95 <= colocated.metrics().ttft_p95 + 1e-12
    assert disagg.metrics().num_requests == colocated.metrics().num_requests


def test_handoff_delay_defers_decode(small_system, cluster_session):
    model = _latency_model(cluster_session, small_system)
    trace = poisson_trace(
        50.0, 8, seed=1, shapes=RequestShape(model="tiny-llm", decode_tokens=(4, 8))
    )
    fast = ClusterSimulator(
        model, FleetConfig(disaggregation=DisaggregationConfig(handoff_delay=0.0))
    ).run(trace)
    slow = ClusterSimulator(
        model, FleetConfig(disaggregation=DisaggregationConfig(handoff_delay=0.01))
    ).run(trace)
    # The hand-off tax lands on e2e latency, not on TTFT (first token is
    # produced by the prefill pool before the hand-off).
    assert slow.metrics().e2e_p50 > fast.metrics().e2e_p50
    assert slow.metrics().ttft_p50 == pytest.approx(fast.metrics().ttft_p50)


# --------------------------------------------------------------------------- #
# Result surface
# --------------------------------------------------------------------------- #
def test_cluster_metrics_summary_includes_queue_wait(small_system, cluster_session):
    result = simulate_cluster_scenario(
        "cluster-chat-fleet",
        system=small_system,
        policy="basic",
        num_requests=16,
        seed=5,
        session=cluster_session,
    )
    summary = result.metrics().summary()
    assert summary["queue_p50_ms"] <= summary["queue_p95_ms"]
    utilization = result.engine_utilization()
    assert all(0.0 <= value <= 1.0 for value in utilization.values())


def test_plain_scenario_through_the_fleet_driver(small_system, cluster_session):
    # A plain serving scenario borrows the fleet defaults: two engines,
    # least-loaded routing, and every fleet feature off.
    fleet = simulate_cluster_scenario(
        "interactive-chat",
        system=small_system,
        policy="basic",
        num_requests=12,
        seed=3,
        session=cluster_session,
    )
    assert fleet.router == "least-loaded"
    assert fleet.fleet_size == 2
    assert fleet.scale_events == ()
    assert fleet.availability == dataclasses.replace(
        AvailabilityMetrics(),
        goodput_under_faults_rps=fleet.availability.goodput_under_faults_rps,
        goodput_under_faults_fraction=(
            fleet.availability.goodput_under_faults_fraction
        ),
    )
    assert fleet.accounting_balanced

    # simulate_scenario is the README recipe: one round-robin engine.
    scenario = get_scenario("interactive-chat")
    single = simulate_scenario(
        scenario,
        system=small_system,
        policy="basic",
        num_requests=12,
        seed=3,
        session=cluster_session,
    )
    latency = StepLatencyModel(
        cluster_session, small_system, "basic", buckets=scenario.buckets, num_layers=1
    )
    trace = scenario.trace(num_requests=12, seed=3)
    one_engine = FleetConfig(num_engines=1, router="round-robin")
    direct = ClusterSimulator(latency, one_engine).run(trace, slo=scenario.slo)
    assert single.records == direct.records
    assert single.metrics() == direct.metrics()
    assert direct.router == "round-robin" and direct.fleet_size == 1
