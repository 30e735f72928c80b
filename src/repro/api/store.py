"""Content-addressed on-disk compilation cache.

The in-memory :class:`~repro.api.service.Session` cache dies with its
process, so every sweep, benchmark, and CI run used to recompile identical
(workload, system, policy, options) requests from scratch.  An
:class:`ArtifactStore` persists each :class:`~repro.api.artifacts.CompileArtifact`
as one JSON file addressed by the SHA-256 of its structural cache key (see
:func:`artifact_digest`), so any later process — a second benchmark run, a
CI warm-cache step, a :meth:`~repro.api.service.Session.compile_many`
process-pool worker — resolves the same request from disk instead of
recompiling.

Layout and lifecycle:

* **Location** — ``$REPRO_CACHE_DIR`` if set, else
  ``$XDG_CACHE_HOME/repro/artifacts`` (``~/.cache/repro/artifacts`` by
  default); every entry lives at ``<root>/<digest[:2]>/<digest>.json``.
* **Keys** — the digest covers the canonical frozen request key *and*
  :data:`~repro.api.artifacts.ARTIFACT_SCHEMA_VERSION`, so keys are stable
  across processes (no ``repr`` memory addresses) and a schema bump
  addresses a fresh namespace.
* **Invalidation** — entries whose recorded ``schema_version`` no longer
  matches (or whose JSON is corrupt) are evicted on read and recompiled;
  there is nothing to migrate, the cache is purely derived state.
* **Writes** — atomic (temp file + ``os.replace``), so concurrent sessions
  and process-pool workers may share one store directory safely.

Stored artifacts carry only the serializable fields: the in-memory
``result`` / ``frontend`` / ``system`` references are dropped, exactly as in
:meth:`CompileArtifact.to_dict`.  Callers that need the execution plan (not
just the metrics) recompile; callers that need metrics, stats, or timings hit
the store.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import threading
from typing import Hashable, Iterator

from repro.api.artifacts import ARTIFACT_SCHEMA_VERSION, CompileArtifact
from repro.errors import ConfigurationError

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> str:
    """The store root used when none is given.

    ``$REPRO_CACHE_DIR`` wins; otherwise the XDG cache convention
    (``$XDG_CACHE_HOME/repro/artifacts``, falling back to
    ``~/.cache/repro/artifacts``).
    """
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return override
    xdg = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(xdg, "repro", "artifacts")


def artifact_digest(key: Hashable) -> str:
    """SHA-256 content address of one canonical (frozen) cache key.

    The digest hashes the ``repr`` of the key together with
    :data:`ARTIFACT_SCHEMA_VERSION`.  Frozen keys are nested tuples of
    primitives with sets and dicts canonically ordered (see
    :func:`repro.api.frozen_key`), so the text — and therefore the
    digest — is identical across processes and machines; bumping the schema
    version re-addresses every key, which is how stale layouts invalidate.
    """
    payload = repr((ARTIFACT_SCHEMA_VERSION, key))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclasses.dataclass
class StoreStats:
    """Effectiveness counters of one :class:`ArtifactStore` handle.

    Attributes:
        hits: Reads resolved from disk.
        misses: Reads that found no (usable) entry.
        puts: Artifacts written.
        evictions: Stale-schema or corrupt entries dropped on read (each one
            also counts as a miss).
    """

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0

    def snapshot(self) -> dict[str, int]:
        """Plain-dict copy for logging."""
        return dataclasses.asdict(self)


class ArtifactStore:
    """A content-addressed directory of compile artifacts.

    Thread-safe; safe to share one root directory across processes (every
    write is atomic and every entry is immutable once written — same digest,
    same content).

    Args:
        root: Store directory (default: :func:`default_cache_dir`).  Created
            lazily on the first write, so read-only use never touches disk.
    """

    def __init__(self, root: str | None = None) -> None:
        self.root = os.path.abspath(os.path.expanduser(root or default_cache_dir()))
        self.stats = StoreStats()
        self._lock = threading.Lock()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"ArtifactStore({self.root!r})"

    # ------------------------------------------------------------------ paths
    def path_for(self, digest: str) -> str:
        """The entry path of ``digest`` (two-level fan-out, like git objects)."""
        if len(digest) != 64 or any(c not in "0123456789abcdef" for c in digest):
            raise ConfigurationError(
                f"not an artifact digest: {digest!r} (expected 64 hex chars)"
            )
        return os.path.join(self.root, digest[:2], f"{digest}.json")

    # ------------------------------------------------------------- read/write
    def get(self, digest: str) -> CompileArtifact | None:
        """The stored artifact of ``digest``, or ``None`` on a miss.

        Entries written by an incompatible schema version (or corrupted on
        disk) are deleted and reported as misses, so the caller recompiles
        and overwrites them.
        """
        path = self.path_for(digest)
        try:
            with open(path, encoding="utf-8") as handle:
                artifact = CompileArtifact.from_dict(json.load(handle))
        except FileNotFoundError:
            with self._lock:
                self.stats.misses += 1
            return None
        except (
            ConfigurationError,
            json.JSONDecodeError,
            OSError,
            TypeError,
            # Truncated or partially-written JSON can still parse — to a
            # bare string, number, or list — and then explode structurally
            # (no ``.get``, wrong value types) instead of as a decode
            # error.  Treat every structural failure as corruption: evict
            # and let the caller recompile.
            AttributeError,
            KeyError,
            ValueError,  # also covers JSONDecodeError / UnicodeDecodeError
        ):
            self._evict(path)
            return None
        with self._lock:
            self.stats.hits += 1
        return artifact

    def put(self, digest: str, artifact: CompileArtifact) -> str:
        """Persist ``artifact`` under ``digest``; return the entry path."""
        path = self.path_for(digest)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                # Field order is kept (not sorted) so a store-resolved
                # artifact's breakdowns iterate like the cold compile's.
                json.dump(artifact.to_dict(), handle)
                handle.write("\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        with self._lock:
            self.stats.puts += 1
        return path

    def corrupt_entry(self, index: int, keep_bytes: int | None = None) -> bool:
        """Truncate one on-disk entry in place (fault injection only).

        Deterministically picks the ``index``-th entry (modulo the entry
        count, in sorted path order) and rewrites it with only its first
        ``keep_bytes`` bytes (default: half), simulating a torn write from
        a crashed process.  The next :meth:`get` of that digest detects the
        damage, evicts the entry (counted in ``StoreStats.evictions``), and
        the caller recompiles.  Returns ``False`` when the store is empty.
        """
        paths = list(self._entry_paths())
        if not paths:
            return False
        path = paths[index % len(paths)]
        try:
            with open(path, "rb") as handle:
                data = handle.read()
            keep = keep_bytes if keep_bytes is not None else len(data) // 2
            with open(path, "wb") as handle:
                handle.write(data[: max(0, keep)])
        except OSError:
            return False
        return True

    def _evict(self, path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass
        with self._lock:
            self.stats.evictions += 1
            self.stats.misses += 1

    # -------------------------------------------------------------- inventory
    def _entry_paths(self) -> Iterator[str]:
        if not os.path.isdir(self.root):
            return
        for shard in sorted(os.listdir(self.root)):
            shard_dir = os.path.join(self.root, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".json"):
                    yield os.path.join(shard_dir, name)

    def __len__(self) -> int:
        """Number of entries currently on disk."""
        return sum(1 for _ in self._entry_paths())

    def clear(self) -> int:
        """Delete every entry; return how many were removed.

        The counters are left alone — clearing is maintenance, not a run.
        """
        removed = 0
        for path in list(self._entry_paths()):
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        return removed
