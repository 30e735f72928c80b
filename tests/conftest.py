"""Shared fixtures for the test suite.

The fixtures favour small, fast configurations (the ``tiny-llm`` model and a
scaled chip with a few dozen cores) so the full suite runs in well under a
minute, while exercising exactly the same code paths as the paper-scale
configurations.
"""

from __future__ import annotations

import pytest

from repro.arch import ipu_pod4, scaled_chip, scaled_system
from repro.api import CompileRequest, Session
from repro.compiler import WorkloadSpec
from repro.cost import AnalyticCostModel
from repro.ir.models import build_model
from repro.scheduler import build_operator_profiles


@pytest.fixture(scope="session")
def tiny_graph():
    """A small 2-layer decode graph used across the suite."""
    return build_model("tiny-llm", batch_size=4, seq_len=256, num_layers=2)


@pytest.fixture(scope="session")
def small_chip():
    """A 32-core chip with IPU-like per-core parameters."""
    return scaled_chip(num_cores=32)


@pytest.fixture(scope="session")
def small_system():
    """A single-chip, 32-core system."""
    return scaled_system(num_cores=32, num_chips=1)


@pytest.fixture(scope="session")
def pod4_system():
    """The paper's 4-chip IPU-POD4-like system."""
    return ipu_pod4()


@pytest.fixture(scope="session")
def small_cost_model(small_chip):
    """Analytic cost model for the small chip."""
    return AnalyticCostModel(small_chip)


@pytest.fixture(scope="session")
def tiny_profiles(tiny_graph, small_chip, small_cost_model):
    """Operator profiles of the tiny graph on the small chip."""
    return build_operator_profiles(tiny_graph, small_chip, small_cost_model)


@pytest.fixture(scope="session")
def tiny_compiler(small_system):
    """A session's ModelCompiler for the tiny workload on the small system."""
    workload = WorkloadSpec("tiny-llm", batch_size=4, seq_len=256, num_layers=2)
    return Session().compiler(CompileRequest(workload, small_system))


@pytest.fixture(scope="session")
def tiny_elk_result(tiny_compiler):
    """The Elk-Full policy output of the tiny workload (compiled once)."""
    return tiny_compiler.compile("elk-full")
