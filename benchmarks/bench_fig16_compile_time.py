"""Figure 16: Elk compile time for varied models and batch sizes.

Expressed as a declarative :class:`repro.sweep.SweepSpec` over the
``compile-time`` adapter, which deliberately does NOT reuse a sweep-wide
shared session: compile time must be measured COLD, so the adapter creates
a fresh session per point and every ``compile_seconds`` covers the full
frontend + profile + scheduling work.

The cold sessions do share one persistent :class:`ArtifactStore`
(``REPRO_CACHE_DIR`` or ``results/compile_cache``): the first run against an
empty store compiles everything and persists it; later runs resolve every
workload from disk without recompiling (a store-resolved row reports the
*recorded* cold ``compile_seconds``, so the table stays honest).  Each
invocation appends a machine-readable record — wall-clock, fresh compiles,
store hits, per-run rows — to ``results/BENCH_compile_time.json``, which is
how CI asserts the warm run performs zero fresh compiles and how later PRs
show compile-path speedups.
"""

from _common import BENCH_BACKEND, BENCH_CONFIG, FULL, RESULTS_DIR, make_store, report

from repro.ir.models import PAPER_LLM_NAMES
from repro.sweep import SweepSpec, run_sweep

BATCH_SIZES = (2, 8, 32, 64) if FULL else (8, 32)

SPEC = SweepSpec(
    name="compile_time",
    adapter="compile-time",
    description="Fig. 16: Elk-Full compile time per model and batch size (scaled layers)",
    axes={"model": PAPER_LLM_NAMES, "batch_size": BATCH_SIZES},
    seeds=(0,),
    fixed={
        "num_layers": BENCH_CONFIG.num_layers,
        "seq_len": BENCH_CONFIG.seq_len,
        "max_preload_ahead": BENCH_CONFIG.max_preload_ahead,
        "max_order_candidates": BENCH_CONFIG.max_order_candidates,
    },
    columns=(
        "model", "batch_size", "layers_compiled", "compile_seconds",
        "projected_full_model_seconds", "orders_evaluated",
    ),
)


def test_fig16_compile_time(benchmark):
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
        "fig16_compile_time",
        SPEC.description,
        rows,
        columns=SPEC.columns,
        session=None,  # cold sessions are discarded; nothing shared to persist
    )
    # compiles / store_hits aggregate the per-point COLD sessions (the
    # CI warm-cache smoke diffs them across a cold and a warm run).
    compiles = result.cold_stats.get("compiles", 0)
    store_hits = result.cold_stats.get("store_hits", 0)
    result.journal(
        RESULTS_DIR,
        compiles=compiles,
        store_hits=store_hits,
        cache_entries=len(store),
        full_grid=FULL,
    )
    assert result.ok, result.errors
    assert rows
    # Every workload resolved either as a fresh compile or a store hit.
    assert compiles + store_hits == len(rows), (compiles, store_hits, len(rows))
    # The paper's claim: compilation finishes in minutes even for 70B models.
    # On the scaled layer count, every compile stays under a minute and the
    # projection to the full layer count stays under ~10 minutes.
    for row in rows:
        assert row["compile_seconds"] < 60.0
        assert row["projected_full_model_seconds"] < 600.0
