#!/usr/bin/env python3
"""Chaos serving: fault injection, retries, and graceful degradation.

Runs the chaos scenario library on the scaled single-chip system and walks
through the fleet's robustness story:

* cluster-chaos-crashes — a deterministic schedule of engine crashes, a
  straggler slowdown, and transient compile failures against an autoscaled
  fleet; crashed engines' work re-dispatches through the router under a
  bounded exponential-backoff retry policy.
* retry-policy comparison — the same crash schedule replayed under fail-fast
  (no retries) vs patient policies, showing retries turning failed requests
  back into completions.
* cluster-chaos-degraded — an overloaded two-tenant fleet sheds low-priority
  batch work by tenant priority while interactive traffic keeps its SLO.
* replay — a seeded random schedule round-trips through a JSON replay file
  and reproduces the exact same availability metrics.

Every run keeps request accounting balanced — completed + rejected + failed
equals arrivals — and identical seeds and schedules reproduce results bit
for bit.  Each run compiles through a fresh session, all backed by the
benchmarks' persistent artifact store (honoring ``REPRO_CACHE_DIR``): on a
warm store, injected compile faults are absorbed as store hits instead of
fallback serves — the cache doubling as a resilience layer.

Run with::

    python examples/chaos_serving.py
    python examples/chaos_serving.py --num-requests 24 --policy elk-full
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

sys.path.insert(
    0,
    os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks"
    ),
)
from _common import make_store  # noqa: E402  (shared REPRO_CACHE_DIR helper)

from repro.cluster import (  # noqa: E402
    RetryPolicy,
    random_faults,
    replay_fault_schedule,
    save_fault_schedule,
    simulate_cluster_scenario,
)
from repro.serve import make_serving_session  # noqa: E402


def _run(scenario: str, args: argparse.Namespace, **overrides):
    # Fresh session per run (in-memory caches don't leak between runs), all
    # sharing the persistent store: compile-fault behavior depends only on
    # the store's state, which REPRO_CACHE_DIR pins explicitly.
    return simulate_cluster_scenario(
        scenario,
        policy=args.policy,
        num_requests=args.num_requests,
        seed=args.seed,
        session=make_serving_session(store=make_store()),
        **overrides,
    )


def _print_availability(result) -> None:
    acct = result.accounting()
    assert result.accounting_balanced, acct
    print(
        f"  accounting: {acct['arrivals']} arrivals = "
        f"{acct['completed']} completed + {acct['rejected']} rejected + "
        f"{acct['failed']} failed"
    )
    summary = result.availability.summary()
    print(
        f"  faults: {summary['crashes']} crashes, {summary['slowdowns']} "
        f"slowdowns, {summary['compile_faults']} compile faults "
        f"({summary['compile_fallbacks']} served from fallback plans)"
    )
    print(
        f"  recovery: {summary['retries']} retries, "
        f"{summary['redispatches']} re-dispatches, "
        f"mean {summary['recovery_mean_ms']:.2f}ms / "
        f"max {summary['recovery_max_ms']:.2f}ms"
    )
    print(
        f"  goodput under faults: {summary['goodput_under_faults_fraction']:.2f} "
        f"({summary['goodput_under_faults_rps']:.0f} rps)"
    )
    counters = result.counters()
    print(
        f"  counters: {counters['store_hits']} store hits, "
        f"{counters['fallback_serves']} fallback serves, "
        f"{counters['retries']} retries, {counters['requeues']} requeues"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--num-requests", type=int, default=48)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--policy", default="basic")
    args = parser.parse_args()

    # ---- crash-heavy chaos -------------------------------------------------
    result = _run("cluster-chaos-crashes", args)
    print("[cluster-chaos-crashes] crashes + straggler + compile faults:")
    for event in result.scale_events:
        print(
            f"  t={event.time * 1e3:8.2f}ms {event.action:>6}  "
            f"engine {event.engine_id}  fleet={event.fleet_size}  {event.reason}"
        )
    _print_availability(result)

    # ---- retry policies under the same crashes -----------------------------
    print("\n[retry policies] same crash schedule, different recovery:")
    for label, retry_policy in (
        ("fail-fast", RetryPolicy(max_attempts=1)),
        ("patient", RetryPolicy(max_attempts=4, base_backoff=0.002,
                                max_backoff=0.02)),
    ):
        run = _run("cluster-chaos-crashes", args, retry_policy=retry_policy)
        acct = run.accounting()
        print(
            f"  {label:>9}: {acct['completed']} completed, "
            f"{acct['failed']} failed, "
            f"{run.availability.num_retries} retries"
        )

    # ---- graceful degradation ---------------------------------------------
    result = _run("cluster-chaos-degraded", args)
    print("\n[cluster-chaos-degraded] priority shedding under overload:")
    rejections = result.rejections_by_tenant()
    for tenant, metrics in result.tenant_metrics().items():
        print(
            f"  {tenant:>12}: {metrics.num_requests} served, "
            f"{rejections.get(tenant, 0)} shed/rejected, "
            f"ttft p95 {metrics.ttft_p95 * 1e3:.3f}ms"
        )
    _print_availability(result)

    # ---- seeded schedules replay from JSON ---------------------------------
    schedule = random_faults(
        0.2, crash_rate=20.0, slowdown_rate=5.0, seed=args.seed,
        name="random-chaos",
    )
    with tempfile.TemporaryDirectory() as tmpdir:
        path = save_fault_schedule(schedule, os.path.join(tmpdir, "chaos.json"))
        replayed = replay_fault_schedule(path)
    assert replayed == schedule
    first = _run("cluster-chaos-crashes", args, faults=schedule)
    second = _run("cluster-chaos-crashes", args, faults=replayed)
    assert first.availability == second.availability
    assert first.metrics() == second.metrics()
    print(
        f"\n[replay] {len(schedule)} random faults round-tripped through JSON: "
        f"identical metrics on replay (goodput under faults "
        f"{first.availability.goodput_under_faults_fraction:.2f})"
    )


if __name__ == "__main__":
    main()
