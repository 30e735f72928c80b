"""Shared configuration for the benchmark harness.

Every benchmark regenerates the rows/series of one paper artifact (a table or
figure) on a *scaled* configuration — a representative number of identical
transformer layers on the IPU-POD4-like system — prints them, and writes them
to ``results/``.  Set ``REPRO_BENCH_FULL=1`` to run the full grids (closer to
the paper's sweep sizes; substantially slower).

Store resolution, config digests, and the ``BENCH_*.json`` journal format
all live in :mod:`repro.sweep.journal`; this module only binds them to the
benchmarks' directories and scaled configuration.  The sweep-shaped
benchmarks themselves run through :mod:`repro.sweep` specs.
"""

from __future__ import annotations

import os
from dataclasses import asdict

from repro.api.store import ArtifactStore
from repro.eval import ExperimentConfig, make_session
from repro.eval.reporting import save_results
from repro.sweep import SweepSpec, run_sweep
from repro.sweep.journal import append_journal, config_digest, resolve_cache_dir

#: Directory where benchmark tables are persisted.
RESULTS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "results")

#: Whether to run the full (paper-sized) grids.
FULL = os.environ.get("REPRO_BENCH_FULL", "0") == "1"

#: Persistent compile-cache directory shared by benchmark runs.  Honors the
#: same ``REPRO_CACHE_DIR`` override as the library default, but falls back
#: to a repo-local directory so benchmark runs never warm (or pollute) the
#: user-wide cache unless explicitly pointed at it.
BENCH_CACHE_DIR = resolve_cache_dir(os.path.join(RESULTS_DIR, "compile_cache"))


def make_store() -> ArtifactStore:
    """A handle on the benchmarks' shared on-disk artifact store.

    The one place benchmarks *and* examples resolve the store location, so
    ``REPRO_CACHE_DIR`` (via :data:`BENCH_CACHE_DIR`) steers every script
    the same way.
    """
    return ArtifactStore(BENCH_CACHE_DIR)


def bench_config_digest() -> str:
    """Short digest of the frozen benchmark configuration.

    Hashes the scaled :data:`BENCH_CONFIG`, the :data:`FULL` switch, and the
    compile backend — everything that changes what a benchmark measures
    without changing its name — so journal entries from different
    configurations never get compared as one perf trajectory.
    """
    return config_digest((BENCH_CONFIG, FULL, BENCH_BACKEND))


def bench_journal(name: str, record: dict) -> str:
    """Append one machine-readable run record to ``results/BENCH_<name>.json``.

    Layout and semantics come from :func:`repro.sweep.journal.append_journal`
    (see :func:`repro.sweep.journal.validate_journal` for the schema); this
    wrapper pins the benchmarks' results directory and config digest.
    """
    return append_journal(RESULTS_DIR, name, record, digest=bench_config_digest())


#: Scaled configuration used by default in every benchmark.
BENCH_CONFIG = ExperimentConfig(
    num_layers=2 if not FULL else 4,
    batch_size=32,
    seq_len=2048,
    max_preload_ahead=12,
    max_order_candidates=16 if not FULL else 64,
)

#: The scaled configuration as ``compile-grid`` point keys: the fixed config
#: of the figure specs (Figs. 17-24).
BENCH_POINT = asdict(BENCH_CONFIG)

#: Default compile_many backend for the benchmarks ("thread" or "process";
#: "process" parallelizes the GIL-bound compile path across cores).
BENCH_BACKEND = os.environ.get("REPRO_BENCH_BACKEND", "thread")

#: One compile session shared by every benchmark in the process, so repeated
#: (workload, system) pairs across figures reuse frontends, profiles, and
#: whole compile results instead of rebuilding them per figure.  It is
#: backed by the shared on-disk store: artifacts carry their simulated
#: metrics, so a warm figure run compiles nothing and reports the same rows.
SESSION = make_session(BENCH_CONFIG, backend=BENCH_BACKEND, store=make_store())


def report(name: str, title: str, rows, columns=None, session=SESSION) -> str:
    """Print and persist one benchmark's result rows (and compile artifacts).

    Compile artifacts accumulate in the process-wide session, so they are
    persisted to a single session-scoped file (refreshed after every
    benchmark) rather than attributed to individual figures.
    """
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    text = save_results(rows, path, title=title, columns=columns)
    print(f"\n{text}")
    print(f"[saved to {path}]")
    if session is not None and session.artifacts():
        artifact_path = session.save(os.path.join(RESULTS_DIR, "session_artifacts.json"))
        print(f"[{len(session.artifacts())} compile artifacts saved to {artifact_path}]")
    return text


def run_figure(benchmark, spec: SweepSpec) -> list[dict]:
    """Run one figure spec on the shared session, report it, return its rows.

    The table is written as ``results/<spec.name>.txt`` under the spec's
    description and columns.  Every point must produce a row: ``run_sweep``
    turns any exception into an error row, so a failing point fails the
    figure here instead of vanishing from its table.
    """
    result = benchmark.pedantic(
        run_sweep,
        args=(spec,),
        kwargs=dict(session=SESSION, backend=BENCH_BACKEND),
        rounds=1,
        iterations=1,
    )
    report(spec.name, spec.description, result.rows, columns=spec.columns)
    assert result.ok, result.errors
    return result.rows


def summarize_speedups(rows) -> dict[str, float]:
    """Geometric-mean speedup of elk-full over the other designs."""
    from collections import defaultdict

    from repro.eval.reporting import geometric_mean

    by_workload = defaultdict(dict)
    for row in rows:
        if "latency_ms" not in row:
            continue
        key = (row.get("model"), row.get("batch_size"), row.get("seq_len"),
               row.get("topology"), row.get("hbm_bandwidth_TBps"))
        by_workload[key][row["policy"]] = row["latency_ms"]
    speedups = defaultdict(list)
    for latencies in by_workload.values():
        if "elk-full" not in latencies:
            continue
        for policy, latency in latencies.items():
            if policy == "elk-full":
                continue
            speedups[policy].append(latency / latencies["elk-full"])
    return {policy: geometric_mean(values) for policy, values in speedups.items()}
