"""Trace exporters: JSONL and Chrome-trace-event JSON (Perfetto-viewable).

Both exporters default to ``deterministic=True``, producing **bit-identical
text across same-seed runs**: events are ordered by the tracer's global
sequence numbers (emission order, which for the discrete-event simulators is
heap-pop order), sim-clocked events use simulation microseconds as
timestamps, and wall-clocked spans (compile stages, store round trips) have
their wall times quantized out — their timestamps become the dimensionless
sequence numbers themselves, so the nesting structure survives while the
jitter does not.  CI asserts byte equality of two same-seed exports.

With ``deterministic=False`` the wall-clocked spans instead carry real wall
microseconds (rebased to the tracer's origin) for honest profiling.

The Chrome output loads directly in https://ui.perfetto.dev or
``chrome://tracing``: one process, one named thread per tracer track.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any

from .trace import Span, Tracer

__all__ = ["trace_events", "to_chrome_trace", "to_jsonl"]

#: JSONL row keys: the tracer's record fields, in order.
_FIELDS = tuple(field.name for field in dataclasses.fields(Span))

_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _write(text: str, path: str | None) -> str:
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text


def trace_events(tracer: Tracer, *, deterministic: bool = True) -> list[dict[str, Any]]:
    """Chrome-trace-event dicts for every finished span, sequence-ordered."""
    records, attrs_of = tracer.records()
    tracks: dict[str, int] = {}
    for record in records:
        if record[2] not in tracks:
            tracks[record[2]] = len(tracks) + 1
    pid = 1
    events: list[dict[str, Any]] = [
        {"args": {"name": label}, "name": meta, "ph": "M", "pid": pid, "tid": tid}
        for meta, label, tid in (
            ("process_name", "repro", 0),
            *(("thread_name", track, tid) for track, tid in tracks.items()),
        )
    ]
    origin = tracer.wall_origin
    for (name, category, track, kind, seq_start, seq_end, _depth,
         sim_start, sim_end, wall_start, wall_end), attrs in zip(records, attrs_of):
        if sim_start is not None:
            ts = round(sim_start * 1e6, 3)
            dur = round((sim_end - sim_start) * 1e6, 3)
        elif deterministic:
            ts, dur = float(seq_start), float(seq_end - seq_start)
        else:
            ts = round((wall_start - origin) * 1e6, 3)
            dur = round((wall_end - wall_start) * 1e6, 3)
        # A copy: the returned events must not alias the tracer's attrs.
        event: dict[str, Any] = {
            "args": dict(attrs),
            "cat": category,
            "name": name,
            "ph": "i" if kind == "instant" else "X",
            "pid": pid,
            "tid": tracks[track],
            "ts": ts,
        }
        if kind == "instant":
            event["s"] = "t"
        else:
            event["dur"] = dur
        events.append(event)
    return events


def to_chrome_trace(
    tracer: Tracer, path: str | None = None, *, deterministic: bool = True
) -> str:
    """Serialize the trace as Chrome-trace JSON; optionally write ``path``.

    Returns the JSON text.  With ``deterministic=True`` (default) the text
    is bit-identical across same-seed runs.
    """
    payload = {
        "displayTimeUnit": "ms",
        "traceEvents": trace_events(tracer, deterministic=deterministic),
    }
    return _write(_encode(payload) + "\n", path)


def to_jsonl(
    tracer: Tracer, path: str | None = None, *, deterministic: bool = True
) -> str:
    """Serialize the trace as one JSON object per line; optionally write.

    Each line is a :class:`Span` as a dict.  In deterministic mode the
    ``wall_start``/``wall_end`` fields are dropped (sim times and sequence
    numbers fully order the events); otherwise they are rebased to the
    tracer's wall origin.
    """
    origin = tracer.wall_origin
    lines = []
    for record, attrs in zip(*tracer.records()):
        row = dict(zip(_FIELDS, record), attrs=attrs)
        if deterministic:
            del row["wall_start"], row["wall_end"]
        else:
            for field in ("wall_start", "wall_end"):
                if row[field] is not None:
                    row[field] = round(row[field] - origin, 9)
        lines.append(_encode(row))
    return _write("\n".join(lines) + ("\n" if lines else ""), path)
