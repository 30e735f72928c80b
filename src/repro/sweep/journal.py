"""The one journal format behind every ``results/BENCH_*.json`` file.

Every sweep and benchmark appends machine-readable run records through
:func:`append_journal`, so the perf-trajectory tooling (and the CI smoke
steps that diff cold-vs-warm runs) read a single schema:

.. code-block:: json

    {"benchmark": "<name>",
     "runs": [{"run_index": 0,
               "unix_time": 1723099531.2,
               "schema_version": 2,
               "config_digest": "a1b2c3d4e5f6",
               "...": "benchmark-specific payload"}]}

:func:`validate_journal` is the schema's executable definition — the golden
tests run every journal writer through it so drift breaks CI instead of the
downstream readers.  The store/cache-dir helpers live here too: benchmarks,
examples, and the sweep CLI all resolve ``REPRO_CACHE_DIR`` through one
function instead of copy-pasting the fallback logic.
"""

from __future__ import annotations

import hashlib
import os
import time
from typing import Mapping

from repro.api.service import frozen_key
from repro.api.store import CACHE_DIR_ENV, ArtifactStore
from repro.errors import ConfigurationError
from repro.jsonfile import read_json, write_json

#: Version of the journal entry layout.  Bumped whenever the stamped fields
#: change meaning, so trajectory tooling can tell entries apart:
#: 1 = run_index + unix_time + payload; 2 adds schema_version + config_digest.
JOURNAL_SCHEMA_VERSION = 2

#: Length of the (hex) config digest stamped on every run entry.
DIGEST_LENGTH = 12

#: Fields every run entry must carry, whatever the benchmark's payload.
REQUIRED_RUN_FIELDS = ("run_index", "unix_time", "schema_version", "config_digest")


def config_digest(config: object) -> str:
    """Short stable digest of one benchmark/sweep configuration.

    Hashes the *structural* frozen key (:func:`repro.api.frozen_key`) of the
    configuration, so equal configs — however they were constructed, and in
    whatever dict order — digest identically, and journal entries from
    different configurations never get compared as one perf trajectory.
    """
    payload = repr(frozen_key(config))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:DIGEST_LENGTH]


def resolve_cache_dir(default: str | None = None) -> str:
    """The persistent compile-cache directory, honoring ``REPRO_CACHE_DIR``.

    Args:
        default: Directory used when the environment variable is unset
            (e.g. a repo-local ``results/compile_cache``); ``None`` falls
            through to the library's user-wide default location.
    """
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return override
    if default is not None:
        return default
    from repro.api.store import default_cache_dir

    return default_cache_dir()


def make_store(default_dir: str | None = None) -> ArtifactStore:
    """An artifact store at :func:`resolve_cache_dir`'s location."""
    return ArtifactStore(resolve_cache_dir(default_dir))


def journal_path(results_dir: str, name: str) -> str:
    """Path of the journal file for benchmark/sweep ``name``."""
    return os.path.join(results_dir, f"BENCH_{name}.json")


def append_journal(
    results_dir: str,
    name: str,
    record: Mapping[str, object],
    *,
    digest: str,
    now: float | None = None,
    quiet: bool = False,
) -> str:
    """Append one run record to ``<results_dir>/BENCH_<name>.json``.

    The journal holds ``{"benchmark": name, "runs": [...]}`` with one entry
    per invocation, so consecutive runs of one benchmark — a cold run and a
    warm run against the same artifact store, or the same sweep across PRs —
    line up as a perf trajectory that later tooling (and the CI smoke steps)
    can diff.

    Args:
        results_dir: Directory the journal lives in (created if missing).
        name: Journal name (``BENCH_<name>.json``).
        record: Benchmark-specific payload merged into the run entry; it
            must not claim the stamped fields.
        digest: The run's :func:`config_digest`.
        now: Timestamp override (tests inject a fixed one for golden files).
        quiet: Suppress the one-line append notice.
    """
    claimed = sorted(set(record) & set(REQUIRED_RUN_FIELDS))
    if claimed:
        raise ConfigurationError(
            f"journal record must not set the stamped fields {claimed}"
        )
    path = journal_path(results_dir, name)
    payload: dict = {"benchmark": name, "runs": []}
    if os.path.exists(path):
        try:
            existing = read_json(path, "journal")
            if isinstance(existing, dict) and isinstance(existing.get("runs"), list):
                payload = existing
        except ConfigurationError:
            pass  # corrupt journal: restart it rather than fail the benchmark
    payload["runs"].append(
        {
            "run_index": len(payload["runs"]),
            "unix_time": time.time() if now is None else now,
            "schema_version": JOURNAL_SCHEMA_VERSION,
            "config_digest": digest,
            **record,
        }
    )
    write_json(path, payload, indent=2, sort_keys=True)
    if not quiet:
        print(f"[bench journal: run {len(payload['runs']) - 1} appended to {path}]")
    return path


def read_journal(path: str) -> dict:
    """Load one journal file, raising :class:`ConfigurationError` on junk."""
    payload = read_json(path, "journal")
    problems = validate_journal(payload)
    if problems:
        raise ConfigurationError(
            f"journal {path!r} violates the shared schema: " + "; ".join(problems)
        )
    return payload


def validate_journal(payload: object) -> list[str]:
    """Check one journal payload against the shared schema.

    Returns a list of human-readable problems (empty = valid).  This is the
    executable definition of the ``BENCH_*`` format: every writer's output
    must pass it, and the golden tests assert exactly that.
    """
    problems: list[str] = []
    if not isinstance(payload, dict):
        return [f"journal must be a JSON object, got {type(payload).__name__}"]
    name = payload.get("benchmark")
    if not isinstance(name, str) or not name:
        problems.append(f"'benchmark' must be a non-empty string, got {name!r}")
    runs = payload.get("runs")
    if not isinstance(runs, list):
        return problems + [f"'runs' must be a list, got {type(runs).__name__}"]
    extra_top = sorted(set(payload) - {"benchmark", "runs"})
    if extra_top:
        problems.append(f"unexpected top-level fields {extra_top}")
    for index, run in enumerate(runs):
        where = f"runs[{index}]"
        if not isinstance(run, dict):
            problems.append(f"{where} must be an object")
            continue
        missing = [field for field in REQUIRED_RUN_FIELDS if field not in run]
        if missing:
            problems.append(f"{where} is missing {missing}")
            continue
        if run["run_index"] != index:
            problems.append(
                f"{where} has run_index {run['run_index']!r}, expected {index}"
            )
        if not isinstance(run["unix_time"], (int, float)) or isinstance(
            run["unix_time"], bool
        ):
            problems.append(f"{where} unix_time must be a number")
        if run["schema_version"] != JOURNAL_SCHEMA_VERSION:
            problems.append(
                f"{where} schema_version {run['schema_version']!r} != "
                f"{JOURNAL_SCHEMA_VERSION}"
            )
        digest = run["config_digest"]
        if (
            not isinstance(digest, str)
            or len(digest) != DIGEST_LENGTH
            or any(c not in "0123456789abcdef" for c in digest)
        ):
            problems.append(
                f"{where} config_digest must be {DIGEST_LENGTH} lowercase hex "
                f"chars, got {digest!r}"
            )
        rows = run.get("rows")
        if rows is not None:
            if not isinstance(rows, list) or any(
                not isinstance(row, dict) for row in rows
            ):
                problems.append(f"{where} rows must be a list of objects")
    return problems
