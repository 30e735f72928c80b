"""Fleet routing: pluggable dispatch policies over engine load signals.

A router decides which engine an arriving (or handed-off) request runs on.
Policies read engines only through the :class:`EngineView` shape — engine
id plus load signals — so they stay pure functions of the dispatch sequence
and the fleet state, which keeps every seeded cluster run bit-reproducible.

Policies register by name in a :class:`repro.registry.Registry`, like
compiler policies, scenarios, and sweep adapters:

>>> @register_router("my-policy")
... class MyPolicy(RouterPolicy):
...     description = "always the first engine"
...     def choose(self, state, engines, now):
...         return engines[0].engine_id

Built-ins: ``round-robin`` (cycle the ready fleet), ``least-loaded``
(fewest queued+running requests, then fewest in-flight tokens), and
``session-affinity`` (sticky CRC32 hash on the request's tenant id, so a
tenant's requests land on one engine and reuse its warm state).
"""

from __future__ import annotations

import abc
import zlib
from dataclasses import dataclass
from typing import ClassVar, Sequence

from repro.registry import Registry
from repro.serve.batching import RequestState


@dataclass(frozen=True)
class EngineView:
    """The load signals a router reads from one dispatchable engine.

    The fleet simulator hands routers its live engines, which expose these
    same attributes (read them, never mutate the engine); this frozen
    snapshot documents the shape and serves as a test double.

    Attributes:
        engine_id: Stable engine identifier within the fleet.
        waiting: Requests queued but not yet admitted.
        running: Requests admitted and unfinished.
        in_flight_tokens: Output units still owed to the engine's requests.
    """

    engine_id: int
    waiting: int
    running: int
    in_flight_tokens: int

    @property
    def load(self) -> int:
        """Requests the engine currently owns (queued plus running)."""
        return self.waiting + self.running


class RouterPolicy(abc.ABC):
    """One dispatch policy; instantiated fresh per simulation run.

    Subclasses may keep state on ``self`` (e.g. a round-robin cursor);
    a fresh instance per run is what keeps repeated runs identical.

    Attributes:
        name: Registry name, filled in by :func:`register_router`.
        description: One-line summary for tooling and reports.
    """

    name: ClassVar[str] = ""
    description: ClassVar[str] = ""

    @abc.abstractmethod
    def choose(
        self, state: RequestState, engines: Sequence[EngineView], now: float
    ) -> int:
        """Pick the engine for ``state``.

        Args:
            state: The request being dispatched.
            engines: The dispatchable (ready, non-draining) engines in
                :class:`EngineView` shape, non-empty and sorted by
                ``engine_id``.
            now: Current simulation time.

        Returns:
            The chosen ``engine_id`` (must be one of ``engines``).
        """


_ROUTERS: Registry[RouterPolicy] = Registry("router", RouterPolicy)

register_router = _ROUTERS.register
unregister_router = _ROUTERS.unregister
get_router = _ROUTERS.get
available_routers = _ROUTERS.available
router_descriptions = _ROUTERS.descriptions


# --------------------------------------------------------------------------- #
# Built-in policies.
# --------------------------------------------------------------------------- #
@register_router("round-robin")
class RoundRobinRouter(RouterPolicy):
    description = "cycle dispatches across the ready fleet in engine order"

    def __init__(self) -> None:
        self._cursor = 0

    def choose(self, state, engines, now):
        view = engines[self._cursor % len(engines)]
        self._cursor += 1
        return view.engine_id


@register_router("least-loaded")
class LeastLoadedRouter(RouterPolicy):
    description = (
        "fewest queued+running requests, then fewest in-flight tokens, "
        "then lowest engine id"
    )

    def choose(self, state, engines, now):
        best = min(
            engines,
            key=lambda view: (view.load, view.in_flight_tokens, view.engine_id),
        )
        return best.engine_id


@register_router("session-affinity")
class SessionAffinityRouter(RouterPolicy):
    description = "sticky CRC32 hash on the request's tenant id"

    def choose(self, state, engines, now):
        # zlib.crc32, not hash(): str hashing is salted per process
        # (PYTHONHASHSEED), which would break cross-run determinism.
        digest = zlib.crc32(state.spec.tenant.encode("utf-8"))
        return engines[digest % len(engines)].engine_id
