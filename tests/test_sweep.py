"""Tests for the declarative sweep harness (:mod:`repro.sweep`).

Covers the satellite test layer of the harness: property-based grid
expansion and canonicalization invariants, the shared ``BENCH_*`` journal
schema (golden file + executable validator), per-point fault isolation,
same-seed determinism across the thread and process compile backends, and
the CLI front door.
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ArtifactStore, frozen_key
from repro.errors import ConfigurationError
from repro.sweep import (
    JOURNAL_SCHEMA_VERSION,
    SweepAdapter,
    SweepSpec,
    append_journal,
    available_adapters,
    config_digest,
    read_journal,
    register_adapter,
    run_sweep,
    unregister_adapter,
    validate_journal,
)
from repro.sweep.cli import main as sweep_cli

# --------------------------------------------------------------------------- #
# Hypothesis strategies: small grids of JSON scalars with unique axis values.
# --------------------------------------------------------------------------- #
_axis_names = st.text(
    alphabet="abcdefghij_", min_size=1, max_size=8
).filter(lambda s: s != "seed")
_scalars = st.one_of(
    st.integers(-100, 100),
    st.text(alphabet="xyz0123", max_size=4),
    st.booleans(),
)
_axes = st.dictionaries(
    _axis_names,
    st.lists(_scalars, min_size=1, max_size=4, unique_by=lambda v: frozen_key(v)),
    min_size=0,
    max_size=3,
)
_seeds = st.lists(st.integers(0, 1000), min_size=1, max_size=3, unique=True)
_fixed = st.dictionaries(
    st.text(alphabet="klmnop", min_size=1, max_size=6).filter(lambda s: s != "seed"),
    _scalars,
    max_size=3,
)
_includes = st.lists(
    st.dictionaries(
        st.text(alphabet="qrstuv", min_size=1, max_size=6), _scalars, max_size=3
    ),
    max_size=2,
)


@settings(max_examples=50, deadline=None)
@given(axes=_axes, seeds=_seeds, fixed=_fixed, include=_includes)
def test_expansion_count_and_uniqueness(axes, seeds, fixed, include):
    """Point count is seeds × (axis product + includes); keys don't collide.

    With no axes, include entries alone are the points (a CI-matrix
    ``include``); the axis product then counts 0 instead of 1.

    Duplicate point keys are possible only if an include entry reproduces a
    grid point exactly — the strategies here never do, so every expanded
    point must be structurally distinct and the count must be the exact
    product formula.
    """
    spec = SweepSpec(
        name="prop", adapter="probe",
        axes=axes, seeds=tuple(seeds), fixed=fixed, include=tuple(include),
    )
    points = spec.points()
    expected_grid = 1
    for values in axes.values():
        expected_grid *= len(values)
    if not axes and include:
        expected_grid = 0
    assert spec.grid_size == expected_grid
    assert len(points) == spec.num_points == len(seeds) * (expected_grid + len(include))
    assert [p.index for p in points] == list(range(len(points)))
    # The pure grid (the first seed's points before the includes) never
    # repeats a configuration: every axis combo is structurally distinct.
    grid_keys = {p.key() for p in points[:expected_grid]}
    assert len(grid_keys) == expected_grid


@settings(max_examples=50, deadline=None)
@given(axes=_axes, seeds=_seeds, fixed=_fixed, include=_includes, data=st.data())
def test_spec_round_trip_and_digest_stable_under_key_order(
    axes, seeds, fixed, include, data
):
    """JSON round-trip is lossless and the digest ignores dict ordering."""
    spec = SweepSpec(
        name="prop", adapter="probe",
        axes=axes, seeds=tuple(seeds), fixed=fixed, include=tuple(include),
    )
    assert SweepSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    # frozen_key canonicalization: permuting the insertion order of the fixed
    # config must not change the digest (the journal identity of the run).
    keys = list(fixed)
    permuted_order = data.draw(st.permutations(keys)) if keys else []
    permuted = {key: fixed[key] for key in permuted_order}
    assert config_digest(permuted) == config_digest(fixed)
    assert frozen_key(permuted) == frozen_key(dict(fixed))


def test_expansion_order_first_axis_outermost():
    spec = SweepSpec(
        name="order", adapter="probe",
        axes={"a": (1, 2), "b": ("x", "y")}, seeds=(0, 7),
    )
    combos = [(p.seed, p.values["a"], p.values["b"]) for p in spec.points()]
    assert combos == [
        (0, 1, "x"), (0, 1, "y"), (0, 2, "x"), (0, 2, "y"),
        (7, 1, "x"), (7, 1, "y"), (7, 2, "x"), (7, 2, "y"),
    ]


def test_point_labels_scalars_and_labeled_mappings():
    spec = SweepSpec(
        name="labels", adapter="probe",
        axes={
            "rate": (1.5,),
            "retry": ({"label": "patient", "max_attempts": 3},),
            "blob": ({"no_label_here": 1},),
        },
    )
    point = spec.points()[0]
    labels = point.labels()
    assert labels == {"rate": 1.5, "retry": "patient"}  # unlabeled blob omitted
    assert point.config["retry"] == {"label": "patient", "max_attempts": 3}


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(axes={"seed": (1, 2)}),                      # reserved axis name
        dict(axes={"a": ()}),                             # empty axis
        dict(axes={"a": (1, 1)}),                         # duplicate values
        dict(axes={"a": "xy"}),                           # string is not a value list
        dict(seeds=()),                                   # no seeds
        dict(seeds=(1, 1)),                               # duplicate seeds
        dict(seeds=(1.5,)),                               # non-int seed
        dict(fixed={"seed": 3}),                          # fixed claims seed
        dict(include=(42,)),                              # include not a mapping
        dict(fixed={"f": object()}),                      # not JSON-representable
    ],
)
def test_spec_validation_rejects(kwargs):
    with pytest.raises(ConfigurationError):
        SweepSpec(name="bad", adapter="probe", **kwargs)


def test_spec_from_dict_rejects_unknown_and_missing_fields():
    with pytest.raises(ConfigurationError):
        SweepSpec.from_dict({"name": "x", "adapter": "probe", "axess": {}})
    with pytest.raises(ConfigurationError):
        SweepSpec.from_dict({"name": "x"})


# --------------------------------------------------------------------------- #
# Runner: fault isolation and adapter registry.
# --------------------------------------------------------------------------- #
def test_per_point_fault_isolation():
    """A failing point records a typed error row; the sweep continues."""

    @register_adapter("explodes-on-two")
    class Explodes(SweepAdapter):
        description = "test double"

        def build_session(self, store, backend):
            from repro.api import Session

            return Session(store=store, backend=backend)

        def run_point(self, config, ctx):
            if config["x"] == 2:
                raise ValueError("boom at x=2")
            return {"value": config["x"]}

    try:
        spec = SweepSpec(
            name="faulty", adapter="explodes-on-two", axes={"x": (1, 2, 3)}
        )
        result = run_sweep(spec)
        assert not result.ok
        assert len(result.rows) == 3
        assert len(result.errors) == 1
        error_row = result.errors[0]
        assert error_row["x"] == 2 and error_row["seed"] == 0
        assert error_row["error_type"] == "ValueError"
        assert "boom at x=2" in error_row["error"]
        assert [row.get("value") for row in result.rows] == [1, None, 3]
        # Error rows journal like any other row (schema allows extra keys).
        assert not validate_journal(
            {"benchmark": "faulty", "runs": [
                {"run_index": 0, "unix_time": 0.0,
                 "schema_version": JOURNAL_SCHEMA_VERSION,
                 "config_digest": "0" * 12, "rows": result.rows}
            ]}
        )
    finally:
        unregister_adapter("explodes-on-two")


def test_adapter_registry_guards():
    assert "probe" in available_adapters()
    with pytest.raises(ConfigurationError):
        run_sweep(SweepSpec(name="x", adapter="no-such-adapter"))
    with pytest.raises(ConfigurationError):
        @register_adapter("probe")  # already taken
        class Dup(SweepAdapter):
            def run_point(self, config, ctx):
                return {}
    with pytest.raises(ConfigurationError):
        unregister_adapter("never-registered")


# --------------------------------------------------------------------------- #
# Journal schema: golden file + validator.
# --------------------------------------------------------------------------- #
GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "data", "sweep_golden_journal.json"
)


def _write_golden(directory: str) -> str:
    """Two deterministic appends of the same record (a cold + warm pair)."""
    for index in range(2):
        path = append_journal(
            directory,
            "golden",
            {
                "backend": "thread",
                "rows": [{"seed": 0, "x": 1, "value": 2.5}],
                "wall_seconds": 0.125,
            },
            digest="0123456789ab",
            now=float(index),
            quiet=True,
        )
    return path


def test_journal_golden_file(tmp_path):
    """The journal byte format is pinned by a committed golden file.

    If this fails because the format deliberately changed, bump
    JOURNAL_SCHEMA_VERSION and regenerate tests/data/sweep_golden_journal.json
    with tests/test_sweep.py::_write_golden.
    """
    produced = _write_golden(str(tmp_path))
    with open(produced, encoding="utf-8") as handle:
        got = handle.read()
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        want = handle.read()
    assert got == want
    payload = read_journal(produced)
    assert payload["runs"][0]["schema_version"] == JOURNAL_SCHEMA_VERSION
    assert payload["runs"][1]["run_index"] == 1


def test_every_bench_journal_field_requirement():
    """validate_journal rejects each way a writer could drift."""
    good = {
        "benchmark": "b",
        "runs": [{"run_index": 0, "unix_time": 1.0,
                  "schema_version": JOURNAL_SCHEMA_VERSION,
                  "config_digest": "a" * 12}],
    }
    assert validate_journal(good) == []
    assert validate_journal([]) != []                       # not an object
    assert validate_journal({**good, "benchmark": ""}) != []
    assert validate_journal({**good, "extra": 1}) != []
    bad_cases = [
        {"run_index": 1},                                    # wrong position
        {"unix_time": "yesterday"},
        {"unix_time": True},                                 # bool is not a time
        {"schema_version": JOURNAL_SCHEMA_VERSION + 1},
        {"config_digest": "XYZ"},
        {"config_digest": "a" * 11},
        {"rows": [1, 2]},                                    # rows not objects
    ]
    for overrides in bad_cases:
        run = {**good["runs"][0], **overrides}
        assert validate_journal({"benchmark": "b", "runs": [run]}) != [], overrides
    missing = {k: v for k, v in good["runs"][0].items() if k != "config_digest"}
    assert validate_journal({"benchmark": "b", "runs": [missing]}) != []


def test_append_journal_rejects_stamped_fields(tmp_path):
    with pytest.raises(ConfigurationError):
        append_journal(
            str(tmp_path), "x", {"run_index": 9}, digest="a" * 12, quiet=True
        )


def test_benchmarks_use_shared_journal_writer():
    """Drift guard: no benchmark hand-rolls its own BENCH_* journal writer.

    Benchmarks journal through ``_common.bench_journal`` or
    ``SweepResult.journal`` (both thin wrappers over ``append_journal``), so
    no benchmark source should ever spell a quoted ``BENCH_`` filename —
    that is how the old copy-pasted writers drifted apart.  Writing OTHER
    json artifacts (trace exports, metrics snapshots) stays allowed.
    """
    bench_dir = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks"
    )
    checked = 0
    for entry in sorted(os.listdir(bench_dir)):
        if not entry.endswith(".py"):
            continue
        checked += 1
        with open(os.path.join(bench_dir, entry), encoding="utf-8") as handle:
            source = handle.read()
        for literal in ('"BENCH_', "'BENCH_", 'f"BENCH_', "f'BENCH_"):
            assert literal not in source, (
                f"{entry} builds a BENCH_* journal path by hand; journals "
                "must go through repro.sweep.journal.append_journal (via "
                "_common.bench_journal or SweepResult.journal) so the "
                "shared schema holds"
            )
    assert checked >= 5  # the guard is actually scanning the benchmarks


# --------------------------------------------------------------------------- #
# Determinism: same-seed sweeps are bit-identical across runs and backends.
# --------------------------------------------------------------------------- #
COMPILE_GRID = SweepSpec(
    name="grid_det",
    adapter="compile-grid",
    axes={"policy": ("basic", "elk-full")},
    seeds=(3,),
    fixed={
        "model": "tiny-llm", "batch_size": 8, "seq_len": 256, "num_layers": 1,
        "system": "scaled", "max_order_candidates": 4, "max_preload_ahead": 4,
    },
)


def test_same_seed_thread_rerun_bit_identical():
    first = run_sweep(COMPILE_GRID, backend="thread")
    second = run_sweep(COMPILE_GRID, backend="thread")
    assert first.ok and second.ok, (first.errors, second.errors)
    assert first.rows == second.rows


def test_thread_vs_process_backend_bit_identical():
    """The process pool ships artifacts back serialized; rows must not move."""
    threaded = run_sweep(COMPILE_GRID, backend="thread")
    processed = run_sweep(COMPILE_GRID, backend="process")
    assert threaded.ok and processed.ok, (threaded.errors, processed.errors)
    assert threaded.rows == processed.rows
    assert threaded.backend == "thread" and processed.backend == "process"


def test_serving_sweep_cold_vs_warm_store_bit_identical(tmp_path):
    spec = SweepSpec(
        name="serve_det",
        adapter="serving",
        axes={"rate_scale": (1.0, 4.0)},
        seeds=(11,),
        fixed={"scenario": "interactive-chat", "policy": "basic",
               "num_requests": 8},
    )
    cold = run_sweep(spec, store=ArtifactStore(str(tmp_path)))
    warm = run_sweep(spec, store=ArtifactStore(str(tmp_path)))
    assert cold.ok and warm.ok
    assert cold.rows == warm.rows
    assert cold.session_stats["compiles"] > 0
    assert warm.session_stats["compiles"] == 0
    assert warm.session_stats["store_hits"] == cold.session_stats["compiles"]
    assert cold.distinct_shapes == warm.distinct_shapes > 0


# --------------------------------------------------------------------------- #
# CLI front door.
# --------------------------------------------------------------------------- #
def _probe_spec_file(tmp_path) -> str:
    spec = SweepSpec(
        name="cli_probe",
        adapter="probe",
        description="probe grid for the CLI test",
        axes={"x": (1, 2), "y": (10,)},
        seeds=(0, 1),
        columns=("seed", "x", "y", "value"),
    )
    return spec.save(str(tmp_path / "cli_probe.json"))


def test_cli_run_list_report(tmp_path, capsys):
    spec_path = _probe_spec_file(tmp_path)
    results_dir = str(tmp_path / "results")

    assert sweep_cli(["run", spec_path, "--results-dir", results_dir]) == 0
    assert sweep_cli(["run", spec_path, "--results-dir", results_dir]) == 0
    out = capsys.readouterr().out
    assert "probe grid for the CLI test" in out

    journal = read_journal(os.path.join(results_dir, "BENCH_cli_probe.json"))
    assert len(journal["runs"]) == 2
    assert journal["runs"][0]["rows"] == journal["runs"][1]["rows"]
    assert os.path.exists(os.path.join(results_dir, "cli_probe.txt"))
    with open(os.path.join(results_dir, "cli_probe.json"), encoding="utf-8") as handle:
        assert len(json.load(handle)) == 4  # table sidecar rows

    assert sweep_cli(["list", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "probe" in out and "cli_probe" in out

    assert sweep_cli(["report", spec_path, "--results-dir", results_dir]) == 0
    out = capsys.readouterr().out
    assert "cli_probe run 1" in out and "value" in out


def test_cli_run_strict_fails_on_error_rows(tmp_path, capsys):
    spec = SweepSpec(
        name="cli_bad", adapter="probe", axes={"x": (1, "not-a-number")}
    )
    spec_path = spec.save(str(tmp_path / "bad.json"))
    results_dir = str(tmp_path / "results")
    assert sweep_cli(["run", spec_path, "--results-dir", results_dir]) == 0
    assert (
        sweep_cli(["run", spec_path, "--results-dir", results_dir, "--strict"]) == 1
    )
    err = capsys.readouterr().err
    assert "ConfigurationError" in err


def test_cli_unknown_spec_is_a_clean_error(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert sweep_cli(["run", missing]) == 2
    assert "error:" in capsys.readouterr().err
