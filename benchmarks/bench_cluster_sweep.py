"""Cluster sweep: tail latency across fleet size × router policy.

The fleet-scale counterpart of the serving sweep as a declarative
:class:`repro.sweep.SweepSpec`: the cluster-chat-fleet scenario replayed
across fleet sizes and every registered router policy, plus the
prefill/decode disaggregation comparison (dedicated pools vs the
chunked-prefill colocated baseline) expressed as the spec's ``include``
pair — all through ONE shared compile session, so each bucketed step plan
compiles exactly once for the whole sweep no matter how many engines,
fleet sizes, or routers serve it.

Like the serving sweep, the session is backed by the benchmarks'
persistent artifact store and step latencies are the simulated latencies
persisted on each artifact, which keeps a warm run bit-identical to the
cold run that populated the store.  Each invocation appends wall-clock,
session/store stats, and the result rows to
``results/BENCH_cluster_sweep.json``.
"""

from _common import BENCH_BACKEND, FULL, RESULTS_DIR, make_store, report

from repro.cluster import DisaggregationConfig, available_routers
from repro.sweep import SweepSpec, run_sweep

SCENARIO = "cluster-chat-fleet"
FLEET_SIZES = (1, 2, 4, 8) if FULL else (1, 4)
NUM_REQUESTS = 96 if FULL else 32
POLICY = "basic"
SEED = 11

#: Disaggregation comparison: colocated baseline vs dedicated pools of the
#: same total engine count.
DISAGG_SCENARIO = "cluster-disaggregated"
DISAGG_POOLS = DisaggregationConfig(prefill_engines=1, decode_engines=2)

SPEC = SweepSpec(
    name="cluster_sweep",
    adapter="cluster",
    description="Cluster: tail latency across fleet size x router policy",
    axes={"router": available_routers(), "num_engines": FLEET_SIZES},
    seeds=(SEED,),
    fixed={
        "scenario": SCENARIO,
        "policy": POLICY,
        "num_requests": NUM_REQUESTS,
    },
    include=(
        {
            "scenario": DISAGG_SCENARIO,
            "variant": "colocated",
            "disaggregation": None,
            "num_engines": DISAGG_POOLS.prefill_engines + DISAGG_POOLS.decode_engines,
        },
        {
            "scenario": DISAGG_SCENARIO,
            "variant": "disaggregated",
            "disaggregation": {
                "prefill_engines": DISAGG_POOLS.prefill_engines,
                "decode_engines": DISAGG_POOLS.decode_engines,
            },
        },
    ),
    columns=(
        "scenario", "router", "num_engines", "throughput_rps",
        "goodput_fraction", "queue_p50_ms", "queue_p95_ms",
        "ttft_p50_ms", "ttft_p95_ms", "e2e_p95_ms",
        "store_hits", "fallback_serves", "retries", "requeues",
        "utilization",
    ),
)


def test_cluster_fleet_router_sweep(benchmark):
    store = make_store()
    result = benchmark.pedantic(
        run_sweep,
        args=(SPEC,),
        kwargs=dict(store=store, backend=BENCH_BACKEND),
        rounds=1,
        iterations=1,
    )
    report(
        SPEC.name,
        SPEC.description,
        result.rows,
        columns=SPEC.columns,
        session=None,  # serving artifacts are per-sweep, not figure-shaped
    )
    result.journal(RESULTS_DIR, full_grid=FULL)
    assert result.ok, result.errors
    assert len(result.rows) == len(available_routers()) * len(FLEET_SIZES) + 2

    # One shared session across every fleet size, router, and the
    # disaggregation pair: each distinct bucketed shape resolves exactly
    # once (fresh compile on a cold store, store hit on a warm one).
    stats = result.session_stats
    assert stats["compiles"] + stats["store_hits"] == result.distinct_shapes, (
        stats, result.distinct_shapes,
    )
    assert stats["result_hits"] > 0, stats

    # Growing the least-loaded fleet must not hurt p95 TTFT.
    series = sorted(
        (row for row in result.rows if row.get("router") == "least-loaded"
         and row["scenario"] == SCENARIO),
        key=lambda row: row["num_engines"],
    )
    p95s = [row["ttft_p95_ms"] for row in series]
    assert all(later <= earlier + 1e-9 for earlier, later in zip(p95s, p95s[1:])), p95s
