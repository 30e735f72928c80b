"""Baseline designs evaluated against Elk: Basic, Static, and the Ideal roofline."""

from repro.baselines.basic import BasicCompiler
from repro.baselines.ideal import IdealResult, IdealRoofline
from repro.baselines.static import StaticCompiler, StaticOptions

__all__ = [
    "BasicCompiler",
    "IdealResult",
    "IdealRoofline",
    "StaticCompiler",
    "StaticOptions",
]
