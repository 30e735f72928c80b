"""Measurement primitives: timed calls, sample summaries, spans, profiles.

Everything here is benchmark-side: nothing is added to the program's hot
paths.  Host times come from :func:`time.perf_counter` around serial calls,
each preceded by ``gc.collect()`` so one repeat's garbage is not collected
inside the next.
"""

from __future__ import annotations

import cProfile
import gc
import heapq
import json
import os
import pstats
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator


def timed(fn: Callable[..., Any], *args: Any) -> tuple[float, Any]:
    """Run ``fn(*args)`` after a ``gc.collect()``; return (seconds, result)."""
    gc.collect()
    started = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - started, result


class _Request:
    __slots__ = ("id", "arrival", "left", "tokens")

    def __init__(self, id: int, arrival: float, left: int) -> None:
        self.id = id
        self.arrival = arrival
        self.left = left
        self.tokens = 0


def reference_kernel(num_requests: int = 4000) -> float:
    """A fixed pure-Python batching event loop: the unit of host speed.

    It does the kind of work the program's hot paths do (heap events, small
    objects, list and dict updates) without importing the program, so its
    speed moves with the host and never with a change to the program.  Do
    not edit it: every host-time metric is scaled by its measured speed, so
    an edit would rescale every recorded value.
    """
    heap = [(i * 0.013, 0, i) for i in range(num_requests)]
    heapq.heapify(heap)
    waiting: list[_Request] = []
    done: dict[int, tuple[float, int]] = {}
    seq = num_requests
    while heap:
        now, kind, index = heapq.heappop(heap)
        if kind == 0:
            waiting.append(_Request(index, now, 1 + (index * 7) % 13))
        if waiting:
            batch = waiting[:8]
            del waiting[:8]
            for request in batch:
                request.left -= 1
                request.tokens += 1
                if request.left > 0:
                    waiting.append(request)
                else:
                    done[request.id] = (now - request.arrival, request.tokens)
            seq += 1
            heapq.heappush(heap, (now + 0.001 * len(batch), 1, seq))
    return sum(latency for latency, _ in done.values())


class ReferenceClock:
    """Host times scaled to a reference host speed.

    On a shared host the speed of pure-Python code drifts by a quarter and
    more between runs minutes apart, and within a run from one second to
    the next.  The drift hits the program and :func:`reference_kernel`
    alike, so :meth:`timed` runs the kernel right before and after each
    measured call and scales the call's wall time by ``NOMINAL_S`` over the
    kernel's mean time: the result is the time the call takes on a host
    that runs the kernel in ``NOMINAL_S`` seconds.
    """

    #: Reference-kernel time of the reference host (any fixed value works;
    #: this one is close to a 2-vCPU x86 cloud host, so scaled times read
    #: like wall times there).
    NOMINAL_S = 0.05

    def __init__(self) -> None:
        self._last: float | None = None
        self.kernel_seconds: list[float] = []

    def _kernel(self) -> float:
        elapsed, _ = timed(reference_kernel)
        self.kernel_seconds.append(elapsed)
        return elapsed

    def timed(self, fn: Callable[..., Any], *args: Any) -> tuple[float, float, Any]:
        """Run ``fn(*args)``; return (wall seconds, scaled seconds, result)."""
        before = self._last if self._last is not None else self._kernel()
        wall, result = timed(fn, *args)
        after = self._last = self._kernel()
        return wall, wall * self.NOMINAL_S * 2 / (before + after), result


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark, in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _number(value: float, unit: str) -> float | int:
    """Counts and byte sizes as integers, everything else unrounded."""
    if unit in ("count", "bytes") and value.is_integer():
        return int(value)
    return value


class Samples:
    """Named samples with units, reported as medians.

    Every metric of a run is a list of samples: host-time metrics hold one
    sample per repeat, deterministic ones a single value.
    """

    def __init__(self) -> None:
        self._samples: dict[str, tuple[str, list[float]]] = {}

    def add(self, name: str, value: float, unit: str) -> None:
        known_unit, values = self._samples.setdefault(name, (unit, []))
        if known_unit != unit:
            raise ValueError(f"{name}: unit {unit!r} != earlier {known_unit!r}")
        values.append(float(value))

    def median(self, name: str) -> float:
        return quartiles(self._samples[name][1])[1]

    def metrics(self) -> dict[str, dict[str, float | str]]:
        """``{name: {"value": median, "unit": unit}}`` in insertion order."""
        return {
            name: {"value": _number(quartiles(values)[1], unit), "unit": unit}
            for name, (unit, values) in self._samples.items()
        }

    def report(self, out=sys.stdout) -> None:
        """Print median, quartiles, and sample count of every metric."""
        print(
            f"{'metric':34} {'unit':6} {'median':>14} {'q1':>14} {'q3':>14} "
            f"{'n':>3} {'iqr/med':>8}",
            file=out,
        )
        for name, (unit, values) in self._samples.items():
            q1, median, q3 = quartiles(values)
            spread = (q3 - q1) / abs(median) if median else 0.0
            print(
                f"{name:34} {unit:6} {median:14.6g} {q1:14.6g} {q3:14.6g} "
                f"{len(values):3d} {spread:8.2%}",
                file=out,
            )


class Tally:
    """Operations attempted and failed, with the reason of each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, count: int, problems: list[str]) -> None:
        """Count ``count`` operations; all of them fail if ``problems``."""
        self.attempted += count
        if problems:
            self.failed += count
            self.reasons.extend(problems)

    @property
    def success_fraction(self) -> float:
        return (self.attempted - self.failed) / self.attempted


class SpanRecorder:
    """Benchmark-side spans around calls into the program's layers.

    Spans nest (the innermost open span is the parent of a new one), stay
    in memory, and are written once by :meth:`write` when the run ends.
    """

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[dict[str, Any]]:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield attrs
        finally:
            self._open.pop()
            record["end"] = time.perf_counter()

    def seconds(self, name: str, **attrs: Any) -> float:
        """Total duration of spans named ``name`` whose attrs include ``attrs``."""
        return sum(
            span["end"] - span["start"]
            for span in self.spans
            if span["name"] == name
            and all(span["attrs"].get(k) == v for k, v in attrs.items())
        )

    def self_seconds(self, name: str) -> float:
        """Total duration of spans named ``name`` minus their children's."""
        durations = {s["id"]: s["end"] - s["start"] for s in self.spans}
        total = 0.0
        for span in self.spans:
            if span["name"] == name:
                total += durations[span["id"]]
            elif span["parent"] is not None and self.spans[span["parent"]]["name"] == name:
                total -= durations[span["id"]]
        return total

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle, indent=0, default=str)


#: ``repro`` subpackages whose self time the profiled run reports.
LAYERS = (
    "api", "compiler", "scheduler", "partition", "cost", "ir", "sim",
    "serve", "cluster", "obs",
)


def _layer_of(filename: str) -> str | None:
    """``repro`` subpackage of a source file (``"repro"`` for top-level modules)."""
    parts = filename.replace("\\", "/").split("/")
    if "repro" not in parts:
        return None
    index = len(parts) - 1 - parts[::-1].index("repro")
    rest = parts[index + 1:]
    return rest[0] if len(rest) > 1 else "repro"


def self_seconds_by_layer(profile: cProfile.Profile) -> dict[str, float]:
    """cProfile ``tottime`` summed by ``repro.<subpackage>``; ``"total"`` sums all."""
    totals = {layer: 0.0 for layer in LAYERS}
    totals["total"] = 0.0
    for (filename, _, _), (_, _, tottime, _, _) in pstats.Stats(profile).stats.items():
        layer = _layer_of(filename)
        if layer is None:
            continue
        totals["total"] += tottime
        if layer in totals:
            totals[layer] += tottime
    return totals


def call_count(profile: cProfile.Profile, function: str, path_suffix: str) -> int:
    """Calls recorded for a function, by its name and its file's path suffix."""
    count = 0
    for (filename, _, name), (_, ncalls, _, _, _) in pstats.Stats(profile).stats.items():
        if name == function and filename.replace("\\", "/").endswith(path_suffix):
            count += ncalls
    return count
