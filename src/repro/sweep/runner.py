"""The sweep runner: expand a spec, execute every point, journal the result.

One :func:`run_sweep` call is the whole lifecycle the benchmarks used to
hand-roll: build (or accept) a store-backed session, let the adapter
prefetch the grid's compile requests through ONE ``Session.compile_many``
fan-out, execute the points in expansion order with per-point fault
isolation — a failing point records a typed error row instead of killing
the sweep — and package rows + cache statistics as a
:class:`SweepResult` that renders tables and appends schema-versioned
``BENCH_*`` journal entries.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.api.service import Session
from repro.api.store import ArtifactStore
from repro.sweep.adapters import RunContext, SweepAdapter, get_adapter
from repro.sweep.journal import append_journal, config_digest
from repro.sweep.spec import SweepSpec

#: Default ``compile_many`` backend of a sweep run.
DEFAULT_BACKEND = "thread"


@dataclass
class SweepResult:
    """Everything one sweep run produced.

    Attributes:
        spec: The spec that ran.
        backend: ``compile_many`` backend the run used.
        rows: One row per expanded point, in expansion order.  A row is
            either the adapter's result (seed + axis labels merged in) or a
            typed error row carrying ``error`` / ``error_type``.
        errors: The error rows again, for direct inspection.
        wall_seconds: Wall-clock of the whole run (prefetch included).
        session_stats: The shared session's counter snapshot.
        store_stats: The artifact store's counter snapshot (empty for a
            store-less run).
        cold_stats: Summed counters of adapter-created cold sessions (the
            compile-time study), zero-filled otherwise.
        distinct_shapes: Distinct compiled shapes adapters recorded.
        cache_dir: The store's root directory (``None`` for a store-less
            run).
    """

    spec: SweepSpec
    backend: str
    rows: list[dict] = field(default_factory=list)
    errors: list[dict] = field(default_factory=list)
    wall_seconds: float = 0.0
    session_stats: dict = field(default_factory=dict)
    store_stats: dict = field(default_factory=dict)
    cold_stats: dict = field(default_factory=dict)
    distinct_shapes: int = 0
    cache_dir: str | None = None

    @property
    def ok(self) -> bool:
        """Whether every point produced a result row."""
        return not self.errors

    def table(self, columns=None) -> str:
        """The run as an aligned text table (spec columns by default)."""
        from repro.eval.reporting import format_table, union_columns

        columns = list(columns) if columns else list(self.spec.columns)
        return format_table(self.rows, columns or union_columns(self.rows))

    def journal_record(self, **extra) -> dict:
        """The run's journal payload (rows + cache counters + the spec)."""
        record = {
            "spec": self.spec.to_dict(),
            "backend": self.backend,
            "wall_seconds": self.wall_seconds,
            "num_points": len(self.rows),
            "num_errors": len(self.errors),
            "session_stats": dict(self.session_stats),
            "store_stats": dict(self.store_stats),
            "distinct_shapes": self.distinct_shapes,
            "cache_dir": self.cache_dir,
            "rows": [dict(row) for row in self.rows],
        }
        record.update(extra)
        return record

    def journal(
        self,
        results_dir: str,
        *,
        now: float | None = None,
        quiet: bool = False,
        **extra,
    ) -> str:
        """Append this run to ``<results_dir>/BENCH_<spec.name>.json``."""
        return append_journal(
            results_dir,
            self.spec.name,
            self.journal_record(**extra),
            digest=config_digest(self.spec.to_dict()),
            now=now,
            quiet=quiet,
        )


def _sum_stats(sessions) -> dict[str, int]:
    totals: dict[str, int] = {}
    for session in sessions:
        for key, value in session.stats.snapshot().items():
            totals[key] = totals.get(key, 0) + value
    return totals


def run_sweep(
    spec: SweepSpec,
    *,
    session: Session | None = None,
    store: ArtifactStore | None = None,
    backend: str = DEFAULT_BACKEND,
    adapter: SweepAdapter | None = None,
) -> SweepResult:
    """Execute every point of ``spec`` and return the packaged result.

    Args:
        spec: The sweep to run.
        session: Shared compile session.  Omit to let the adapter build one
            (the usual path); pass one to chain sweeps through shared
            caches.  An explicit session wins over ``store``.
        store: Artifact store backing the adapter-built session.
        backend: ``compile_many`` backend for the prefetch fan-out (and the
            adapter-built session's default).
        adapter: Adapter instance override (tests inject doubles here);
            defaults to the registry entry named by ``spec.adapter``.

    Per-point fault isolation: an exception from one point is recorded as a
    typed error row (``error`` + ``error_type`` alongside the point's seed
    and labels) and the sweep continues; only harness-level failures —
    an unknown adapter, a spec that cannot expand — raise.
    """
    if adapter is None:
        adapter = get_adapter(spec.adapter)
    if session is None:
        session = adapter.build_session(store, backend)
    ctx = RunContext(session=session, backend=backend)
    points = spec.points()
    started = time.perf_counter()

    requests = []
    try:
        requests = list(adapter.prefetch([point.config for point in points], ctx))
    except Exception:
        requests = []  # per-point runs resurface whatever broke the batch
    if requests:
        try:
            session.compile_many(requests, backend=backend)
        except Exception:
            pass  # failed prefetches surface as the affected points' errors

    result = SweepResult(spec=spec, backend=backend)
    for point in points:
        base = {"seed": point.seed, **point.labels()}
        try:
            row = adapter.run_point(dict(point.config), ctx)
        except Exception as error:  # noqa: BLE001 — the isolation boundary
            row = {
                **base,
                "error": str(error),
                "error_type": type(error).__qualname__,
            }
            result.errors.append(row)
            result.rows.append(row)
            continue
        result.rows.append({**base, **dict(row)})

    result.wall_seconds = time.perf_counter() - started
    result.session_stats = session.stats.snapshot()
    result.distinct_shapes = len(ctx.compiled_shapes)
    result.cold_stats = _sum_stats(ctx.cold_sessions)
    if session.store is not None:
        result.store_stats = session.store.stats.snapshot()
        result.cache_dir = session.store.root
    return result
