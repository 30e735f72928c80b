#!/usr/bin/env python3
"""Fleet-scale serving: routers, autoscaling, tenants, disaggregation.

Runs the cluster scenario library on the scaled single-chip system and
prints the standard serving section with the fleet labels, then the
cluster-level story each study adds:

* cluster-chat-fleet — fleet-size comparison (1 engine vs the fleet) under
  every registered router policy;
* cluster-autoscale — scale events and per-engine utilization of a bursty
  trace against a 1..4-engine autoscaled fleet;
* cluster-multi-tenant — per-tenant goodput and admission rejections under
  token-bucket quotas;
* cluster-disaggregated — dedicated prefill/decode pools vs the colocated
  chunked-prefill baseline.

Every run shares ONE compile session: a bucketed step plan compiles at most
once across the whole demo, no matter how many engines serve it.  The
session is backed by the benchmarks' persistent artifact store (honoring
``REPRO_CACHE_DIR``), so a second invocation resolves every plan from disk.

Run with::

    python examples/cluster_serving.py
    python examples/cluster_serving.py --num-requests 24 --policy basic
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(
    0,
    os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks"
    ),
)
from _common import make_store  # noqa: E402  (shared REPRO_CACHE_DIR helper)

from repro.cluster import (  # noqa: E402
    available_routers,
    router_descriptions,
    simulate_cluster_scenario,
)
from repro.eval import format_serving_summary  # noqa: E402
from repro.serve import make_serving_session  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--num-requests", type=int, default=48)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--policy", default="elk-full")
    args = parser.parse_args()

    store = make_store()
    session = make_serving_session(store=store)
    common = dict(
        policy=args.policy,
        num_requests=args.num_requests,
        seed=args.seed,
        session=session,
    )

    # ---- fleet size x router policy --------------------------------------
    print("routers:")
    for name, description in router_descriptions().items():
        print(f"  {name}: {description}")
    runs = []
    for router in available_routers():
        for num_engines in (1, 4):
            result = simulate_cluster_scenario(
                "cluster-chat-fleet", router=router, num_engines=num_engines,
                **common,
            )
            labels = {
                "scenario": "cluster-chat-fleet",
                "router": router,
                "num_engines": num_engines,
            }
            runs.append((labels, result.metrics()))
    print()
    print(format_serving_summary(runs))

    # ---- autoscaling ------------------------------------------------------
    result = simulate_cluster_scenario("cluster-autoscale", rate_scale=4.0, **common)
    print("\n[cluster-autoscale] scale events:")
    for event in result.scale_events:
        print(
            f"  t={event.time * 1e3:8.2f}ms {event.action:>6}  "
            f"engine {event.engine_id}  fleet={event.fleet_size}  {event.reason}"
        )
    for record in result.engines:
        print(
            f"  engine {record.engine_id}: {record.num_iterations} iterations, "
            f"utilization {record.utilization:.2f}"
        )

    # ---- multi-tenancy ----------------------------------------------------
    result = simulate_cluster_scenario("cluster-multi-tenant", **common)
    print("\n[cluster-multi-tenant] per-tenant goodput:")
    rejections = result.rejections_by_tenant()
    for tenant, metrics in result.tenant_metrics().items():
        print(
            f"  {tenant:>10}: {metrics.num_requests} served, "
            f"{rejections.get(tenant, 0)} rejected, "
            f"goodput {metrics.goodput_fraction:.2f}, "
            f"ttft p95 {metrics.ttft_p95 * 1e3:.3f}ms"
        )

    # ---- prefill/decode disaggregation ------------------------------------
    pair = []
    for label, overrides in (
        ("disaggregated", {}),
        ("colocated", dict(disaggregation=None, num_engines=3)),
    ):
        result = simulate_cluster_scenario(
            "cluster-disaggregated", **overrides, **common
        )
        pair.append(({"scenario": f"disagg:{label}", "router": result.router},
                     result.metrics()))
    print("\n[cluster-disaggregated] dedicated pools vs colocated baseline:")
    print(format_serving_summary(pair))

    stats = session.stats.snapshot()
    print(
        f"\n[session] {stats['compiles']} bucketed step plans compiled once "
        f"fleet-wide, {stats['result_hits']} cache reuses across every fleet"
    )
    print(
        f"[store] {store.root}: {store.stats.hits} hits, "
        f"{store.stats.puts} puts (set REPRO_CACHE_DIR to relocate)"
    )


if __name__ == "__main__":
    main()
