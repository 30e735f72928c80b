"""Byte pins for the replay files the library writes.

Traces, fault schedules and sweep specs are captured once and replayed
later, so the bytes their writers put on disk must not drift.  Each case
writes one file (into a directory the writer has to create) and compares
its SHA-256 with the digest below.  The journal's bytes are pinned by
``tests/test_sweep.py::test_journal_golden_file``.

Regenerate only on purpose: ``PYTHONPATH=src python tests/test_json_files.py``
prints the current digests.
"""

from __future__ import annotations

import hashlib
import os

import pytest

from repro.cluster import random_faults, save_fault_schedule
from repro.serve import poisson_trace, save_trace
from repro.sweep import SweepSpec

SPEC_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "examples", "sweeps"
)


def _spec_writer(name: str):
    return lambda path: SweepSpec.load(os.path.join(SPEC_DIR, name)).save(path)


WRITERS = {
    "trace": lambda path: save_trace(poisson_trace(40.0, 30, seed=5), path),
    "fault-schedule": lambda path: save_fault_schedule(
        random_faults(0.5, crash_rate=10.0, slowdown_rate=5.0, seed=3), path
    ),
    **{name: _spec_writer(name) for name in sorted(os.listdir(SPEC_DIR))},
}

EXPECTED = {
    "trace": "a042a8213d18aac8b0e588e9b0db7e5dcac3c9f49cf7a71570228bc1d1b1a86d",
    "fault-schedule": "02bebadf2336c23a4127a93815c3a1218dee1ee59917521b392467b46cce7fd3",
    "chaos_crash_retry.json": "936ccab68fe748c4fc9e940e628e51b0f7dc72e2b24f4a1e03795d0867e70e62",
    "dse_hbm_bandwidth.json": "ee41f91ac623234015dd2068163f862dae6dfa45f6486bf7ae60e85ee56bac55",
    "serving_rate_policy.json": "9409b3b997c5da57a7bd24b44bfaffe0fbea6db7017e0847289b8ac51f68b714",
}


def _digest(name: str, directory: str) -> str:
    path = WRITERS[name](os.path.join(directory, "out", "file.json"))
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_written_bytes_are_pinned(name, tmp_path):
    assert _digest(name, str(tmp_path)) == EXPECTED[name]


def test_every_example_spec_is_pinned():
    assert set(EXPECTED) == set(WRITERS)


if __name__ == "__main__":
    import tempfile

    for name in WRITERS:
        with tempfile.TemporaryDirectory() as directory:
            print(f'    "{name}": "{_digest(name, directory)}",')
