"""Declarative sweep specifications: named axes × seeds × fixed config.

A :class:`SweepSpec` describes one experiment grid the way the benchmarks
used to hand-roll it: every combination of the named axis values, replayed
under every seed, on top of a shared fixed configuration.  Specs are plain
JSON values end to end — they round-trip through :meth:`SweepSpec.save` /
:meth:`SweepSpec.load` losslessly — so a sweep can live in a file,
ship through the CLI (``python -m repro.sweep run spec.json``), and be
hashed into the journal's config digest.

Beyond the pure grid, ``include`` appends explicit extra points (the
GitHub-Actions-matrix idiom) for comparisons that are not cross-products,
e.g. the cluster sweep's colocated-vs-disaggregated pair.  As in such a
matrix, a spec with ``include`` entries but no axes runs exactly those
entries (Fig. 23's core counts, where HBM bandwidth scales with cores).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Mapping, Sequence

from repro.api.service import frozen_key
from repro.errors import ConfigurationError
from repro.jsonfile import read_json, write_json

#: Keys a spec may carry in its JSON form (anything else is a typo we want
#: to fail loudly on, not silently ignore).
_SPEC_FIELDS = (
    "name",
    "adapter",
    "axes",
    "seeds",
    "fixed",
    "include",
    "columns",
    "description",
)

#: Config key injected by the runner for every point; axes and fixed config
#: must not claim it.
SEED_KEY = "seed"


def _normalize(value: object, where: str) -> object:
    """Canonicalize a JSON-shaped value (sequences become tuples).

    Tuples and lists normalize identically, so a spec built in Python with
    tuples compares equal to the same spec after a JSON round-trip.
    Anything that cannot survive a JSON round-trip is rejected here, at
    construction, instead of surfacing later as a corrupt spec file.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return tuple(_normalize(item, where) for item in value)
    if isinstance(value, Mapping):
        for key in value:
            if not isinstance(key, str):
                raise ConfigurationError(
                    f"{where}: mapping keys must be strings, got {key!r}"
                )
        return {key: _normalize(item, f"{where}.{key}") for key, item in value.items()}
    raise ConfigurationError(
        f"{where}: {value!r} is not JSON-representable; specs allow only "
        "null/bool/int/float/str and nested lists/mappings of them"
    )


def _plain(value: object) -> object:
    """The inverse of :func:`_normalize`: tuples back to JSON lists."""
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    return value


@dataclass(frozen=True)
class SweepPoint:
    """One expanded grid point: a seed plus its merged configuration.

    Attributes:
        index: Position in the expansion order (stable across runs).
        seed: The seed this point runs under.
        values: The axis (or ``include``) values that distinguish this point
            — the labels a result row is keyed by.
        config: The full point configuration the adapter executes:
            ``fixed`` ⊕ ``values`` ⊕ ``{"seed": seed}``.
    """

    index: int
    seed: int
    values: Mapping[str, object]
    config: Mapping[str, object]

    def key(self) -> Hashable:
        """Canonical identity of this point (seed + full config)."""
        return frozen_key({**dict(self.config), SEED_KEY: self.seed})

    def labels(self) -> dict[str, object]:
        """Flat row labels for this point.

        Scalar values label as themselves; mapping values label by their
        ``"label"`` entry when they carry one (the idiom for axes whose
        values are whole config objects, e.g. retry policies) and are
        otherwise omitted from the labels — they stay in :attr:`config`.
        """
        labels: dict[str, object] = {}
        for name, value in self.values.items():
            if value is None or isinstance(value, (bool, int, float, str)):
                labels[name] = value
            elif isinstance(value, Mapping) and isinstance(value.get("label"), str):
                labels[name] = value["label"]
        return labels


@dataclass(frozen=True)
class SweepSpec:
    """One declarative sweep: adapter + axes × seeds + fixed config.

    Attributes:
        name: Journal/report name of the sweep (``BENCH_<name>.json``).
        adapter: Registered :mod:`repro.sweep.adapters` kind executing each
            point.
        axes: Ordered ``{axis_name: (value, ...)}``; the grid is the full
            cross-product in declaration order (first axis outermost).
        seeds: Seeds the whole grid is replayed under.
        fixed: Configuration shared by every point (axes override it).
        include: Explicit extra point configurations appended after the
            grid, each merged over ``fixed`` (matrix-``include`` style); an
            entry may pin its own ``"seed"``.
        columns: Preferred report column order (empty = derive from rows).
        description: One-line summary for ``python -m repro.sweep list``.
    """

    name: str
    adapter: str
    axes: Mapping[str, tuple] = field(default_factory=dict)
    seeds: tuple[int, ...] = (0,)
    fixed: Mapping[str, object] = field(default_factory=dict)
    include: tuple[Mapping[str, object], ...] = ()
    columns: tuple[str, ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ConfigurationError(f"sweep name must be a non-empty string, got {self.name!r}")
        if not self.adapter or not isinstance(self.adapter, str):
            raise ConfigurationError(f"sweep adapter must be a non-empty string, got {self.adapter!r}")
        axes: dict[str, tuple] = {}
        for raw_name, raw_values in dict(self.axes).items():
            if not raw_name or not isinstance(raw_name, str):
                raise ConfigurationError(f"axis names must be non-empty strings, got {raw_name!r}")
            if raw_name == SEED_KEY:
                raise ConfigurationError(
                    f"axis name {SEED_KEY!r} is reserved (use the spec's seeds list)"
                )
            if isinstance(raw_values, (str, Mapping)) or not isinstance(
                raw_values, Sequence
            ):
                raise ConfigurationError(
                    f"axis {raw_name!r} needs a sequence of values, got {raw_values!r}"
                )
            values = tuple(
                _normalize(value, f"axis {raw_name!r}") for value in raw_values
            )
            if not values:
                raise ConfigurationError(f"axis {raw_name!r} has no values")
            seen: set[Hashable] = set()
            for value in values:
                key = frozen_key(value)
                if key in seen:
                    raise ConfigurationError(
                        f"axis {raw_name!r} repeats value {value!r}; duplicate "
                        "grid points would double-count in the journal"
                    )
                seen.add(key)
            axes[raw_name] = values
        object.__setattr__(self, "axes", axes)
        seeds = tuple(self.seeds)
        if not seeds:
            raise ConfigurationError("a sweep needs at least one seed")
        for seed in seeds:
            if not isinstance(seed, int) or isinstance(seed, bool):
                raise ConfigurationError(f"seeds must be integers, got {seed!r}")
        if len(set(seeds)) != len(seeds):
            raise ConfigurationError(f"seeds repeat: {seeds}")
        object.__setattr__(self, "seeds", seeds)
        fixed = _normalize(dict(self.fixed), "fixed")
        if SEED_KEY in fixed:
            raise ConfigurationError(
                f"fixed config must not set {SEED_KEY!r} (use the spec's seeds list)"
            )
        object.__setattr__(self, "fixed", fixed)
        include = []
        for entry in tuple(self.include):
            if not isinstance(entry, Mapping):
                raise ConfigurationError(
                    f"include entries must be mappings, got {entry!r}"
                )
            include.append(_normalize(dict(entry), "include"))
        object.__setattr__(self, "include", tuple(include))
        object.__setattr__(self, "columns", tuple(str(c) for c in self.columns))

    # ---------------------------------------------------------------- points
    @property
    def grid_size(self) -> int:
        """Points per seed in the pure axis grid.

        With no axes the grid is the fixed config alone (1), or empty (0)
        when ``include`` entries are given: they are then the only points.
        """
        if not self.axes and self.include:
            return 0
        size = 1
        for values in self.axes.values():
            size *= len(values)
        return size

    @property
    def num_points(self) -> int:
        """Total expanded points: seeds × (grid + include entries)."""
        return len(self.seeds) * (self.grid_size + len(self.include))

    def points(self) -> list[SweepPoint]:
        """Expand the full grid (plus ``include``) in deterministic order.

        For each seed: the axis cross-product with the first axis outermost,
        then the ``include`` entries in declaration order.  Expansion is a
        pure function of the spec — the same spec always yields the same
        points in the same order, which is what makes same-seed journal rows
        comparable across runs.
        """
        combos: list[dict[str, object]] = [{}] if self.grid_size else []
        for name, values in self.axes.items():
            combos = [
                {**combo, name: value} for combo in combos for value in values
            ]
        points: list[SweepPoint] = []
        for seed in self.seeds:
            for values in combos:
                points.append(self._point(len(points), seed, values))
            for entry in self.include:
                entry = dict(entry)
                seed_override = entry.pop(SEED_KEY, seed)
                if not isinstance(seed_override, int) or isinstance(seed_override, bool):
                    raise ConfigurationError(
                        f"include entry seed must be an integer, got {seed_override!r}"
                    )
                points.append(self._point(len(points), seed_override, entry))
        return points

    def _point(self, index: int, seed: int, values: Mapping[str, object]) -> SweepPoint:
        config = {**dict(self.fixed), **dict(values), SEED_KEY: seed}
        return SweepPoint(index=index, seed=seed, values=dict(values), config=config)

    # ------------------------------------------------------------ round-trip
    def to_dict(self) -> dict[str, object]:
        """Plain-JSON form (lists, not tuples); inverse of :meth:`from_dict`."""
        return {
            "name": self.name,
            "adapter": self.adapter,
            "axes": {name: _plain(values) for name, values in self.axes.items()},
            "seeds": list(self.seeds),
            "fixed": _plain(dict(self.fixed)),
            "include": [_plain(dict(entry)) for entry in self.include],
            "columns": list(self.columns),
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SweepSpec":
        """Build a spec from its plain-JSON form, rejecting unknown keys."""
        if not isinstance(data, Mapping):
            raise ConfigurationError(f"a sweep spec must be a mapping, got {data!r}")
        unknown = sorted(set(data) - set(_SPEC_FIELDS))
        if unknown:
            raise ConfigurationError(
                f"unknown sweep spec fields {unknown}; expected a subset of "
                f"{list(_SPEC_FIELDS)}"
            )
        missing = [key for key in ("name", "adapter") if key not in data]
        if missing:
            raise ConfigurationError(f"sweep spec is missing required fields {missing}")
        kwargs = {key: data[key] for key in _SPEC_FIELDS if key in data}
        return cls(**kwargs)  # type: ignore[arg-type]

    def save(self, path: str) -> str:
        """Write this spec to ``path`` as JSON; returns the path."""
        return write_json(path, self.to_dict(), indent=2)

    @classmethod
    def load(cls, path: str) -> "SweepSpec":
        """Read a spec from a JSON file."""
        return cls.from_dict(read_json(path, "sweep spec"))
