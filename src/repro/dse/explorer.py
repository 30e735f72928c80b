"""Design-space exploration (DSE) for ICCA chips (§6.4).

The explorer sweeps architectural parameters — HBM bandwidth, interconnect
bandwidth, core count, compute throughput, topology — compiles the workload
with Elk for every design point, and summarizes which resource bounds the
design.  It reproduces the paper's four §6.4 insights as programmatic checks
so the design-space benchmarks can assert them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.api import Session
from repro.arch.chip import SystemConfig
from repro.arch.interconnect import ALL_TO_ALL
from repro.arch.presets import ipu_pod4
from repro.compiler.frontend import WorkloadSpec
from repro.errors import ElkError
from repro.eval.experiments import (
    DEFAULT_CONFIG,
    ExperimentConfig,
    evaluate_artifact,
    make_request,
    make_session,
)
from repro.units import TB


@dataclass(frozen=True)
class DesignPoint:
    """One architecture configuration in the design space.

    Attributes:
        topology: On-chip network topology.
        hbm_bandwidth: Total HBM bandwidth across the system, bytes/s.
        noc_bandwidth: Total interconnect bandwidth across the system, bytes/s
            (0 keeps the preset's value).
        cores_per_chip: Cores per chip (0 keeps the preset's value).
        matmul_tflops: System MatMul throughput in TFLOP/s (0 keeps preset).
    """

    topology: str = ALL_TO_ALL
    hbm_bandwidth: float = 16 * TB
    noc_bandwidth: float = 0.0
    cores_per_chip: int = 0
    matmul_tflops: float = 0.0

    def build_system(self) -> SystemConfig:
        """Materialize the system configuration of this design point."""
        system = ipu_pod4(topology=self.topology, hbm_total_bandwidth=self.hbm_bandwidth)
        if self.cores_per_chip:
            system = system.with_cores_per_chip(self.cores_per_chip)
        if self.noc_bandwidth:
            system = system.with_total_interconnect_bandwidth(self.noc_bandwidth)
        if self.matmul_tflops:
            system = system.with_matmul_tflops(self.matmul_tflops)
        return system

    @classmethod
    def from_config(cls, config: "Mapping[str, object]") -> "DesignPoint":
        """Build a design point from flat JSON-friendly sweep keys.

        Bandwidths arrive in TB/s (``hbm_bandwidth_tbps`` /
        ``noc_bandwidth_tbps``) so spec files stay in human units; absent
        keys keep the dataclass defaults.
        """
        kwargs: dict = {}
        if "topology" in config:
            kwargs["topology"] = str(config["topology"])
        if "hbm_bandwidth_tbps" in config:
            kwargs["hbm_bandwidth"] = float(config["hbm_bandwidth_tbps"]) * TB
        if "noc_bandwidth_tbps" in config:
            kwargs["noc_bandwidth"] = float(config["noc_bandwidth_tbps"]) * TB
        if "cores_per_chip" in config:
            kwargs["cores_per_chip"] = int(config["cores_per_chip"])
        if "matmul_tflops" in config:
            kwargs["matmul_tflops"] = float(config["matmul_tflops"])
        return cls(**kwargs)


@dataclass
class DesignPointResult:
    """Evaluation of one design point.

    Attributes:
        point: The design point.
        latency: Per-step latency of the Elk-Full plan (seconds).
        hbm_utilization: Average HBM utilization.
        noc_utilization: Average interconnect utilization.
        achieved_tflops: Achieved system TFLOP/s.
        bottleneck: ``"hbm"``, ``"interconnect"``, or ``"compute"``.
    """

    point: DesignPoint
    latency: float
    hbm_utilization: float
    noc_utilization: float
    achieved_tflops: float
    bottleneck: str

    def row(self) -> dict[str, object]:
        """Flat result-table row (the design axes plus the evaluation)."""
        return {
            "topology": self.point.topology,
            "hbm_bandwidth_tbps": self.point.hbm_bandwidth / TB,
            "noc_bandwidth_tbps": self.point.noc_bandwidth / TB,
            "cores_per_chip": self.point.cores_per_chip,
            "matmul_tflops": self.point.matmul_tflops,
            "latency_ms": self.latency * 1e3,
            "hbm_utilization": self.hbm_utilization,
            "noc_utilization": self.noc_utilization,
            "achieved_tflops": self.achieved_tflops,
            "bottleneck": self.bottleneck,
        }


class DesignSpaceExplorer:
    """Evaluates a workload across a set of design points with Elk-Full.

    Args:
        workload: The workload to compile for every design point.
        config: Experiment configuration (scaling, search bounds).
        policy: Compiler policy evaluated at each point.
        session: Compile session whose caches are shared across design points
            (and, when passed in, across explorers).
    """

    def __init__(
        self,
        workload: WorkloadSpec,
        config: ExperimentConfig = DEFAULT_CONFIG,
        policy: str = "elk-full",
        session: Session | None = None,
    ) -> None:
        self.workload = workload
        self.config = config
        self.policy = policy
        self.session = session or make_session(config)

    def evaluate_point(self, point: DesignPoint) -> DesignPointResult:
        """Compile + evaluate the workload on one design point."""
        system = point.build_system()
        artifact = self.session.compile(
            make_request(self.workload, system, self.policy, self.config)
        )
        row = evaluate_artifact(artifact)
        hbm_util = float(row.get("hbm_utilization", 0.0))
        noc_util = float(row.get("noc_utilization", 0.0))
        if hbm_util >= max(noc_util, 0.6):
            bottleneck = "hbm"
        elif noc_util >= 0.6:
            bottleneck = "interconnect"
        else:
            bottleneck = "compute"
        return DesignPointResult(
            point=point,
            latency=float(row["latency_ms"]) / 1e3,
            hbm_utilization=hbm_util,
            noc_utilization=noc_util,
            achieved_tflops=float(row.get("achieved_tflops", 0.0)),
            bottleneck=bottleneck,
        )

    def sweep(self, points: Sequence[DesignPoint]) -> list[DesignPointResult]:
        """Evaluate every design point, skipping ones that fail to compile."""
        results = []
        for point in points:
            try:
                results.append(self.evaluate_point(point))
            except ElkError:
                continue
        return results

    @staticmethod
    def diminishing_returns(results: Sequence[DesignPointResult]) -> bool:
        """Insight 1: latency gains shrink as HBM bandwidth keeps growing.

        Expects ``results`` ordered by increasing HBM bandwidth; returns True
        when the marginal speedup of the last step is smaller than that of the
        first step.
        """
        if len(results) < 3:
            return False
        first_gain = results[0].latency / results[1].latency
        last_gain = results[-2].latency / results[-1].latency
        return last_gain <= first_gain + 1e-9
