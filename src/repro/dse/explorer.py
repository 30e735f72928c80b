"""Design-space exploration (DSE) for ICCA chips (§6.4).

A :class:`DesignPoint` is a named system preset plus architectural
overrides — topology, HBM bandwidth, interconnect bandwidth, core count,
compute throughput — and is the one place a sweep point's keys become a
:class:`~repro.arch.chip.SystemConfig`.  Grids of design points run as
``compile-grid`` sweeps (:mod:`repro.sweep`), the same path as the paper's
Figs. 17–24; :func:`bottleneck` and :func:`diminishing_returns` are the
§6.4 insight checks over their rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.arch.chip import SystemConfig
from repro.arch.interconnect import ALL_TO_ALL, MESH_2D
from repro.arch.presets import ipu_pod4, scaled_system, single_chip
from repro.errors import ConfigurationError
from repro.units import TB


def _pod4(topology: str, cores: int) -> SystemConfig:
    system = ipu_pod4(topology=topology)
    return system.with_cores_per_chip(cores) if cores else system


#: Named base systems, built from a topology and a per-chip core count
#: (0 keeps the preset's).  Single-chip presets size their chip directly.
_PRESETS: dict[str, tuple[str, Callable[[str, int], SystemConfig]]] = {
    "ipu-pod4": (ALL_TO_ALL, _pod4),
    "mesh-pod4": (MESH_2D, _pod4),
    "single-chip": (
        ALL_TO_ALL,
        lambda topology, cores: single_chip(topology, num_cores=cores or 1472),
    ),
    "scaled": (
        ALL_TO_ALL,
        lambda topology, cores: scaled_system(cores or 32, 1, topology=topology),
    ),
}

#: Sweep-point key -> (design-point field, conversion).  Bandwidths arrive
#: in TB/s, the figures' units.
_POINT_KEYS: tuple[tuple[str, str, Callable[[object], object]], ...] = (
    ("system", "system", str),
    ("topology", "topology", str),
    ("hbm_bandwidth_TBps", "hbm_bandwidth", lambda value: float(value) * TB),
    ("noc_bandwidth_TBps", "noc_bandwidth", lambda value: float(value) * TB),
    ("cores_per_chip", "cores_per_chip", int),
    ("matmul_tflops", "matmul_tflops", float),
)


@dataclass(frozen=True)
class DesignPoint:
    """One architecture configuration in the design space.

    Attributes:
        system: Base preset: ``ipu-pod4`` (the paper's platform),
            ``mesh-pod4``, ``single-chip`` or ``scaled``.
        topology: On-chip network topology (``None`` keeps the preset's).
        hbm_bandwidth: Total HBM bandwidth across the system, bytes/s
            (0 keeps the preset's value).
        noc_bandwidth: Total interconnect bandwidth across the system, bytes/s
            (0 keeps the preset's value).
        cores_per_chip: Cores per chip (0 keeps the preset's value).
        matmul_tflops: System MatMul throughput in TFLOP/s (0 keeps preset).
    """

    system: str = "ipu-pod4"
    topology: str | None = None
    hbm_bandwidth: float = 0.0
    noc_bandwidth: float = 0.0
    cores_per_chip: int = 0
    matmul_tflops: float = 0.0

    def build_system(self) -> SystemConfig:
        """Materialize the system configuration of this design point."""
        try:
            default_topology, preset = _PRESETS[self.system.lower()]
        except KeyError:
            raise ConfigurationError(
                f"unknown system preset {self.system!r}; expected one of "
                f"{tuple(_PRESETS)}"
            ) from None
        system = preset(self.topology or default_topology, self.cores_per_chip)
        if self.hbm_bandwidth:
            system = system.with_total_hbm_bandwidth(self.hbm_bandwidth)
        if self.noc_bandwidth:
            system = system.with_total_interconnect_bandwidth(self.noc_bandwidth)
        if self.matmul_tflops:
            system = system.with_matmul_tflops(self.matmul_tflops)
        return system

    @classmethod
    def from_config(cls, config: Mapping[str, object]) -> "DesignPoint":
        """Build a design point from flat JSON-friendly sweep keys.

        Keys: ``system``, ``topology``, ``hbm_bandwidth_TBps``,
        ``noc_bandwidth_TBps``, ``cores_per_chip`` and ``matmul_tflops``;
        absent keys keep the dataclass defaults.
        """
        return cls(
            **{
                name: convert(config[key])
                for key, name, convert in _POINT_KEYS
                if key in config
            }
        )


def bottleneck(row: Mapping[str, object]) -> str:
    """The resource bounding one result row: ``hbm``, ``interconnect`` or ``compute``."""
    hbm_util = float(row.get("hbm_utilization", 0.0))
    noc_util = float(row.get("noc_utilization", 0.0))
    if hbm_util >= max(noc_util, 0.6):
        return "hbm"
    if noc_util >= 0.6:
        return "interconnect"
    return "compute"


def diminishing_returns(rows: Sequence[Mapping[str, object]]) -> bool:
    """Insight 1: latency gains shrink as HBM bandwidth keeps growing.

    Expects ``rows`` ordered by increasing HBM bandwidth; returns True when
    the marginal speedup of the last step is smaller than that of the
    first step.
    """
    if len(rows) < 3:
        return False
    latencies = [float(row["latency_ms"]) for row in rows]
    first_gain = latencies[0] / latencies[1]
    last_gain = latencies[-2] / latencies[-1]
    return last_gain <= first_gain + 1e-9
