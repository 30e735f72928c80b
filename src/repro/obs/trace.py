"""Deterministic hierarchical tracing over sim-time and wall-time.

One :class:`Tracer` collects :class:`Span` records from every layer of the
stack — compile-pipeline stages (wall-clocked, nested via the
:meth:`Tracer.span` context manager), artifact-store round trips, request
lifecycle phases in each serving engine (sim-clocked, opened and closed
asynchronously via :meth:`Tracer.begin` / :meth:`Tracer.end`), engine
iterations (:meth:`Tracer.add_span`), and cluster scale/fault events
(:meth:`Tracer.instant`).

Determinism is the design center: every event is stamped with a global
monotonic sequence number at open *and* close, and the discrete-event
simulators emit events in heap-pop order, so the sequence ordering of a
same-seed run is bit-reproducible.  Wall-clock readings are carried for
profiling but live in separate fields that the deterministic exporters
(:mod:`repro.obs.export`) quantize out.

Tracing is strictly opt-in.  Every instrumented call site takes
``tracer=None`` and guards with ``if tracer is not None`` (or, around a
wall-clocked block, :func:`maybe_span`) — the no-op fast path is one
attribute load and branch, not yet timed on its own (see ROADMAP item 6(b)).

A long run holds one record per span, so each is stored flat: its twelve
:class:`Span` fields (``attrs`` last, as the emitter's dict) occupy twelve
consecutive slots of one list.  A record thus allocates no object of its own
for the garbage collector to count or track; the field tuples are built only
at export, by :meth:`Tracer.records`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import threading
import time
from collections.abc import Iterator
from typing import Any, Callable, ContextManager, Hashable

__all__ = ["Span", "Tracer", "maybe_span"]


@dataclasses.dataclass(frozen=True)
class Span:
    """One finished trace event (a duration span or an instant).

    Attributes:
        name: Human-readable event name (``"frontend"``, ``"queued"`` ...).
        category: Layer tag (``"compile"``, ``"store"``, ``"engine"``,
            ``"request"``, ``"cluster"``).
        track: Display track the event renders on (maps to a Chrome-trace
            thread), e.g. ``"compile"``, ``"engine/0"``, ``"cluster"``.
        kind: ``"span"`` (has duration) or ``"instant"``.
        seq_start: Global sequence number taken when the event opened.
        seq_end: Global sequence number taken when the event closed (equal
            to ``seq_start`` for instants).
        depth: Nesting depth for wall-clocked spans (0 for sim events).
        sim_start: Simulation time at open, seconds (``None`` for
            wall-only spans).
        sim_end: Simulation time at close, seconds.
        wall_start: Wall clock at open, seconds on the tracer's clock
            (``None`` for sim-clocked events).
        wall_end: Wall clock at close, seconds.
        attrs: Sorted ``(key, value)`` pairs of event attributes.
    """

    name: str
    category: str
    track: str
    kind: str
    seq_start: int
    seq_end: int
    depth: int = 0
    sim_start: float | None = None
    sim_end: float | None = None
    wall_start: float | None = None
    wall_end: float | None = None
    attrs: tuple[tuple[str, Any], ...] = ()


#: List slots per stored record: one per :class:`Span` field.
_WIDTH = len(dataclasses.fields(Span))


class Tracer:
    """Collects spans from all layers onto one deterministic timeline.

    Thread-safe without a lock per event: every emitter takes its sequence
    numbers from one :func:`itertools.count` and adds its record's twelve
    fields to one flat list with one ``list.extend``, and
    ``begin``/``end`` claim and release open phases with one
    ``dict.setdefault``/``dict.pop`` — each a single atomic operation under
    the GIL, so concurrent emitters never lose a span, share a sequence
    number or split a pair.  The wall-span nesting stack is thread-local.
    The exporters read the records through :meth:`records`; :meth:`spans`
    builds :class:`Span` objects from them.  Note that *ordering*
    determinism is only guaranteed for serial emission (the single-threaded
    simulator event loops and the serial compile path); spans emitted from
    `compile_many` worker pools interleave nondeterministically.

    Args:
        clock: Wall-clock source (seconds); defaults to
            :func:`time.perf_counter`.  Injectable for tests.
    """

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self._clock = clock if clock is not None else time.perf_counter
        self._seq = itertools.count(1)
        #: Takes one sequence number, as a no-op :meth:`begin` does.
        self.take = self._seq.__next__
        # _WIDTH slots per record: the Span fields, ``attrs`` last.
        self._records: list = []
        # key -> (name, category, track, seq_start, sim_start, attrs)
        self._open: dict[Hashable, tuple] = {}
        self._local = threading.local()
        self.wall_origin = self._clock()

    @property
    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    @contextlib.contextmanager
    def span(
        self,
        name: str,
        *,
        category: str = "compile",
        track: str = "compile",
        **attrs: Any,
    ) -> Iterator[dict[str, Any]]:
        """Wall-clocked nested span around a code block.

        Yields a mutable attribute dict; entries added before exit are
        merged into the finished span's ``attrs``.
        """
        stack = self._stack
        depth = len(stack)
        stack.append(name)
        seq_start = next(self._seq)
        wall_start = self._clock()
        extra: dict[str, Any] = {}
        try:
            yield extra
        finally:
            wall_end = self._clock()
            seq_end = next(self._seq)
            stack.pop()
            self._records.extend((
                name, category, track, "span", seq_start, seq_end, depth,
                None, None, wall_start, wall_end, {**attrs, **extra},
            ))

    def add_span(
        self,
        name: str,
        sim_start: float,
        sim_end: float,
        category: str = "engine",
        track: str = "engine",
        attrs: dict[str, Any] | None = None,
    ) -> None:
        """Record a completed sim-clocked span (e.g. one engine iteration).

        ``attrs`` is stored as given, not copied, so a hot caller may hand
        the same dict to many spans; it must not mutate it afterwards.
        """
        seq = self._seq
        self._records.extend((
            name, category, track, "span", next(seq), next(seq), 0,
            sim_start, sim_end, None, None, {} if attrs is None else attrs,
        ))

    def instant(
        self,
        name: str,
        *,
        sim_time: float | None = None,
        category: str = "cluster",
        track: str = "cluster",
        **attrs: Any,
    ) -> None:
        """Record a zero-duration event (scale, crash, shed, fallback...).

        Sim-clocked when ``sim_time`` is given, wall-clocked otherwise.
        """
        seq = next(self._seq)
        wall = self._clock() if sim_time is None else None
        self._records.extend((
            name, category, track, "instant", seq, seq, 0,
            sim_time, sim_time, wall, wall, attrs,
        ))

    def begin(
        self,
        key: Hashable,
        name: str,
        *,
        sim_time: float,
        category: str = "request",
        track: str = "request",
        **attrs: Any,
    ) -> None:
        """Open an async sim-clocked phase under ``key``.

        First publisher wins: a ``begin`` on an already-open key is ignored,
        preserving the original open time — but it still takes a sequence
        number, like every call, so the numbering (and with it the trace
        exports) does not depend on which begins were no-ops.  Phases never
        closed with :meth:`end` (e.g. work abandoned by an engine crash) are
        simply never emitted.
        """
        self._open.setdefault(
            key, (name, category, track, next(self._seq), sim_time, attrs)
        )

    def skip_open(self, key: Hashable) -> bool:
        """Take a no-op :meth:`begin`'s sequence number if ``key`` is open.

        Returns whether it was open, so a hot caller builds ``begin``'s
        arguments only for keys that are not.
        """
        if key in self._open:
            next(self._seq)
            return True
        return False

    def end(self, key: Hashable, sim_time: float, **attrs: Any) -> None:
        """Close the phase opened under ``key``; no-op if none is open."""
        phase = self._open.pop(key, None)
        if phase is None:
            return
        name, category, track, seq_start, sim_start, opened = phase
        merged = {**opened, **attrs} if attrs else opened
        self._records.extend((
            name, category, track, "span", seq_start, next(self._seq), 0,
            sim_start, sim_time, None, None, merged,
        ))

    def records(self) -> tuple[list[tuple], list[dict[str, Any]]]:
        """All finished spans in deterministic (sequence) order, as two lists.

        The first holds each span's :class:`Span` fields before ``attrs``;
        the second its ``attrs``, the emitter's (possibly shared) dict: read
        it, do not mutate it.  Keeping the dicts out of the field tuples
        lets the collector untrack the tuples during an export.
        ``seq_start`` is unique per record, so it alone gives the
        ``(seq_start, seq_end)`` order.
        """
        flat = self._records
        fields = list(zip(*(flat[i::_WIDTH] for i in range(_WIDTH - 1))))
        attrs = flat[_WIDTH - 1::_WIDTH]
        order = sorted(range(len(fields)), key=flat[4::_WIDTH].__getitem__)
        return [fields[i] for i in order], [attrs[i] for i in order]

    def spans(self) -> tuple[Span, ...]:
        """All finished spans in deterministic (sequence) order."""
        return tuple(
            Span(*fields, attrs=tuple(sorted(attrs.items())))
            for fields, attrs in zip(*self.records())
        )

    def __len__(self) -> int:
        return len(self._records) // _WIDTH


def maybe_span(
    tracer: Tracer | None, name: str, **attrs: Any
) -> ContextManager[dict[str, Any]]:
    """``tracer.span(name, **attrs)``, or a no-op when ``tracer`` is ``None``.

    Untraced, the block still receives a (throwaway) attribute dict, so one
    code path serves both cases.
    """
    if tracer is None:
        return contextlib.nullcontext({})
    return tracer.span(name, **attrs)
