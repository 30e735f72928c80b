"""Unified metrics registry: one namespace of metric sources.

The repo grew one bespoke metrics struct per layer (`SessionStats`,
`StoreStats`, `ServingMetrics`, `AvailabilityMetrics`, the
`StepLatencyModel` counter dict).  :class:`MetricsRegistry` gives them one
namespace: each plugs in unchanged as a *source* — a zero-arg callable
returning a flat mapping, re-read at every :meth:`MetricsRegistry.snapshot`.
Register a bound method directly
(``registry.register_source("session", session.stats.snapshot)``);
:meth:`~repro.cluster.ClusterResult.register_into` registers a fleet run's
three families at once.  Registering the same name twice raises
:class:`~repro.errors.ConfigurationError` so two subsystems can never
silently shadow each other's numbers.

``snapshot()`` returns one flat ``{"source.key": value}`` dict and
``table()`` renders it with the standard reporting formatter — one place to
look instead of five.
"""

from __future__ import annotations

import threading
from typing import Callable, Mapping

from ..errors import ConfigurationError

__all__ = ["MetricsRegistry"]


class MetricsRegistry:
    """One namespace of pluggable metric sources (thread-safe registration)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._sources: dict[str, Callable[[], Mapping[str, float]]] = {}

    def register_source(
        self, name: str, source: Callable[[], Mapping[str, float]]
    ) -> None:
        """Register an external metrics source (re-read at every snapshot).

        ``source`` is a zero-arg callable returning a flat mapping; its keys
        appear in the snapshot as ``"<name>.<key>"``.
        """
        if not name:
            raise ConfigurationError("source name must be non-empty")
        with self._lock:
            if name in self._sources:
                raise ConfigurationError(
                    f"metric source {name!r} already registered"
                )
            self._sources[name] = source

    def snapshot(self) -> dict[str, float]:
        """One flat, key-sorted dict across every source."""
        with self._lock:
            sources = dict(self._sources)
        out = {
            f"{name}.{key}": value
            for name, source in sources.items()
            for key, value in source().items()
        }
        return dict(sorted(out.items()))

    def table(self) -> str:
        """The snapshot as one aligned two-column reporting table."""
        from ..eval.reporting import format_table

        rows = [
            {"metric": name, "value": value}
            for name, value in self.snapshot().items()
        ]
        return format_table(rows, ["metric", "value"])
