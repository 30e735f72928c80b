"""Chaos sweep: goodput and recovery across crash rate × retry policy.

The robustness counterpart of the cluster sweep as a declarative
:class:`repro.sweep.SweepSpec`: the crash-heavy chaos scenario's trace
replayed under seeded random fault schedules of increasing crash rate,
crossed with retry policies of different aggressiveness — all through ONE
shared compile session backed by the benchmarks' persistent artifact
store.  Each cell reports the standard serving metrics plus the
availability story (crashes applied, retries, re-dispatches, failures,
recovery times, goodput under faults), and every cell must keep request
accounting balanced: the chaos adapter raises (recording a typed error
row) on any cell where completed + rejected + failed != arrivals.

Fault schedules are seeded and the step latencies are the simulated
latencies persisted on each artifact, so a warm-cache run is bit-identical
to the cold run that populated the store.  Each invocation appends wall-clock,
session/store stats, and the result rows to
``results/BENCH_chaos_sweep.json``.
"""

from _common import BENCH_BACKEND, FULL, RESULTS_DIR, make_store, report

from repro.sweep import SweepSpec, run_sweep

SCENARIO = "cluster-chaos-crashes"
NUM_REQUESTS = 96 if FULL else 32
POLICY = "basic"
SEED = 13
#: Fault schedules span the serving window of the trace (arrivals plus the
#: queue drain), so late crashes still destroy work.
FAULT_WINDOW = 0.25
CRASH_RATES = (0.0, 8.0, 24.0, 48.0) if FULL else (0.0, 12.0, 36.0)

#: Retry policies of increasing aggressiveness; labels name the rows and
#: the mapping bodies become :class:`repro.cluster.RetryPolicy` fields
#: (slowdown rate rides at crash_rate/4 via ``slowdown_fraction``).
RETRY_POLICIES = (
    {"label": "fail-fast", "max_attempts": 1},
    {"label": "patient", "max_attempts": 3, "base_backoff": 0.005,
     "max_backoff": 0.05},
    {"label": "budgeted", "max_attempts": 3, "base_backoff": 0.005,
     "max_backoff": 0.05, "retry_budget": 4},
)

SPEC = SweepSpec(
    name="chaos_sweep",
    adapter="chaos",
    description="Chaos: goodput and recovery across crash rate x retry policy",
    axes={"crash_rate": CRASH_RATES, "retry_policy": RETRY_POLICIES},
    seeds=(SEED,),
    fixed={
        "scenario": SCENARIO,
        "policy": POLICY,
        "num_requests": NUM_REQUESTS,
        "fault_window": FAULT_WINDOW,
        "slowdown_fraction": 0.25,
    },
    columns=(
        "crash_rate", "retry_policy", "crashes", "retries", "failed",
        "recovery_max_ms", "goodput_under_faults_fraction",
        "goodput_fraction", "ttft_p95_ms",
        "store_hits", "fallback_serves", "requeues",
    ),
)


def test_chaos_crash_rate_retry_sweep(benchmark):
    store = make_store()
    result = benchmark.pedantic(
        run_sweep,
        args=(SPEC,),
        kwargs=dict(store=store, backend=BENCH_BACKEND),
        rounds=1,
        iterations=1,
    )
    rows = result.rows
    report(
        SPEC.name,
        SPEC.description,
        rows,
        columns=SPEC.columns,
        session=None,  # serving artifacts are per-sweep, not figure-shaped
    )
    result.journal(RESULTS_DIR, fault_window=FAULT_WINDOW, full_grid=FULL)
    # Accounting balance is enforced per cell by the chaos adapter — an
    # unbalanced cell would surface here as a typed error row.
    assert result.ok, result.errors
    assert len(rows) == len(CRASH_RATES) * len(RETRY_POLICIES)

    # The zero-crash column is the happy-path baseline: every retry policy
    # must produce the identical result there (nothing to retry or fail).
    baseline = [row for row in rows if row["crash_rate"] == 0.0]
    assert all(row["crashes"] == 0 and row["failed"] == 0 for row in baseline), baseline
    assert all(row["goodput_fraction"] == baseline[0]["goodput_fraction"]
               for row in baseline), baseline

    # Determinism under chaos: replaying the whole sweep with the same
    # seeds and schedules reproduces availability bit for bit.  store_hits
    # is cache-state-dependent (a warm store serves the first pass, the
    # session's in-memory cache serves the rerun), so it is the one column
    # excluded from the comparison.
    rerun = run_sweep(SPEC, store=store, backend=BENCH_BACKEND)
    stable = [{k: v for k, v in row.items() if k != "store_hits"} for row in rows]
    assert [
        {k: v for k, v in row.items() if k != "store_hits"} for row in rerun.rows
    ] == stable

    # One shared session across every crash rate and retry policy: bucketed
    # step plans resolve once (fresh compile on a cold store, store hit on
    # a warm one).
    assert result.session_stats["result_hits"] > 0, result.session_stats
