"""Design-space exploration of ICCA chip architectures (§6.4)."""

from repro.dse.explorer import DesignPoint, bottleneck, diminishing_returns

__all__ = ["DesignPoint", "bottleneck", "diminishing_returns"]
