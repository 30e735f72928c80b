"""Serving sweep: goodput and tail latency across arrival rate × policy.

The serving-layer counterpart of the latency figures, expressed as a
declarative :class:`repro.sweep.SweepSpec`: the interactive-chat scenario
replayed at several arrival-rate multiples under every compiler policy that
produces an execution plan.  The sweep runner drives every point through
ONE shared compile session — so each bucketed (workload, policy,
batch-bucket) step plan compiles exactly once for the whole sweep, however
many rate points reuse it.

The session is backed by the benchmarks' persistent artifact store and the
step latencies are the simulated latencies persisted on each artifact, so a
warm run is bit-identical to the cold run that populated the store.  Each invocation appends wall-clock, session stats, store stats, and
the result rows to ``results/BENCH_serving_sweep.json``; on a warm run the
store serves every bucketed step plan and the session performs zero fresh
compiles.
"""

from _common import BENCH_BACKEND, FULL, RESULTS_DIR, make_store, report

from repro.sweep import SweepSpec, run_sweep

#: Plan-producing policies (rooflines have no plan to serve with).
SWEEP_POLICIES = ("basic", "static", "elk-dyn", "elk-full")

RATE_SCALES = (0.5, 1.0, 2.0, 4.0, 8.0) if FULL else (1.0, 4.0)
NUM_REQUESTS = 96 if FULL else 32
SCENARIO = "interactive-chat"

SPEC = SweepSpec(
    name="serving_sweep",
    adapter="serving",
    description="Serving: goodput under SLO across arrival rate x compiler policy",
    axes={"policy": SWEEP_POLICIES, "rate_scale": RATE_SCALES},
    seeds=(11,),
    fixed={
        "scenario": SCENARIO,
        "num_requests": NUM_REQUESTS,
    },
    columns=(
        "scenario", "policy", "rate_scale", "throughput_rps",
        "goodput_rps", "goodput_fraction", "ttft_p50_ms", "ttft_p95_ms",
        "ttft_p99_ms", "tpot_p95_ms", "tpot_p99_ms", "utilization",
    ),
)


def test_serving_rate_policy_sweep(benchmark):
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
    assert len(result.rows) == SPEC.num_points == len(SWEEP_POLICIES) * len(RATE_SCALES)

    # The shared session deduplicates (workload, policy, batch-bucket)
    # requests across the sweep: each DISTINCT bucketed shape per policy
    # resolves exactly once — a fresh compile on a cold store, a store hit
    # on a warm one — and every repeat across rate points lands as an
    # in-memory cache hit.
    stats = result.session_stats
    assert stats["compiles"] + stats["store_hits"] == result.distinct_shapes, (
        stats, result.distinct_shapes,
    )
    assert stats["result_hits"] > 0, stats

    # Per policy, SLO attainment must not improve as offered load grows.
    for policy in SWEEP_POLICIES:
        series = sorted(
            (row for row in result.rows if row["policy"] == policy),
            key=lambda row: row["rate_scale"],
        )
        fractions = [row["goodput_fraction"] for row in series]
        assert all(
            later <= earlier + 1e-9
            for earlier, later in zip(fractions, fractions[1:])
        ), (policy, fractions)
