"""Declarative sweep harness: specs, adapters, runner, journal, CLI.

Every grid-shaped study in this repo — rate × policy serving sweeps,
fleet × router cluster sweeps, crash × retry chaos grids, cold compile-time
measurement, and the compile grids of Figs. 17–24 and design-space
exploration (one ``compile-grid`` adapter) — is the same shape: expand named
axes over seeds on top of a fixed config, execute each point through one
shared compile session, and journal schema-versioned rows.  This package
is that shape, once:

* :class:`SweepSpec` — the declarative grid (JSON round-trip, file-able).
* :mod:`~repro.sweep.adapters` — named execution paths
  (:func:`register_adapter` to add one) translating a point config into
  one result row.
* :func:`run_sweep` — expansion, one ``compile_many`` prefetch fan-out,
  per-point fault isolation, and a :class:`SweepResult` of rows + cache
  statistics.
* :mod:`~repro.sweep.journal` — the shared ``BENCH_*.json`` journal
  schema (:func:`validate_journal` is its executable definition).
* ``python -m repro.sweep run|list|report`` — the CLI front door.
"""

from repro.sweep.adapters import (
    RunContext,
    SweepAdapter,
    adapter_descriptions,
    available_adapters,
    get_adapter,
    register_adapter,
    unregister_adapter,
)
from repro.sweep.journal import (
    DIGEST_LENGTH,
    JOURNAL_SCHEMA_VERSION,
    REQUIRED_RUN_FIELDS,
    append_journal,
    config_digest,
    journal_path,
    make_store,
    read_journal,
    resolve_cache_dir,
    validate_journal,
)
from repro.sweep.runner import DEFAULT_BACKEND, SweepResult, run_sweep
from repro.sweep.spec import SEED_KEY, SweepPoint, SweepSpec

__all__ = [
    "DEFAULT_BACKEND",
    "DIGEST_LENGTH",
    "JOURNAL_SCHEMA_VERSION",
    "REQUIRED_RUN_FIELDS",
    "SEED_KEY",
    "RunContext",
    "SweepAdapter",
    "SweepPoint",
    "SweepResult",
    "SweepSpec",
    "adapter_descriptions",
    "append_journal",
    "available_adapters",
    "config_digest",
    "get_adapter",
    "journal_path",
    "make_store",
    "read_journal",
    "register_adapter",
    "resolve_cache_dir",
    "run_sweep",
    "unregister_adapter",
    "validate_journal",
]
