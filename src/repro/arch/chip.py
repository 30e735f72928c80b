"""ICCA chip and multi-chip system configurations."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.arch.core import CoreConfig
from repro.arch.hbm import HBMConfig
from repro.arch.interconnect import InterconnectConfig
from repro.errors import ArchitectureError
from repro.units import GB


@dataclass(frozen=True)
class ChipConfig:
    """One inter-core connected AI chip.

    Attributes:
        name: Human-readable name (e.g. ``"ipu-mk2"``).
        num_cores: Number of cores on the chip.
        core: Per-core configuration.
        interconnect: On-chip network configuration.
        hbm: Off-chip HBM configuration attached to this chip.
    """

    name: str
    num_cores: int
    core: CoreConfig = field(default_factory=CoreConfig)
    interconnect: InterconnectConfig = field(default_factory=InterconnectConfig)
    hbm: HBMConfig = field(default_factory=HBMConfig)

    def __post_init__(self) -> None:
        if self.num_cores <= 0:
            raise ArchitectureError(f"chip {self.name!r} needs at least one core")

    # ------------------------------------------------------------ capacities
    @property
    def total_sram_bytes(self) -> int:
        """Aggregate on-chip SRAM (the distributed memory space), bytes."""
        return self.num_cores * self.core.sram_bytes

    @property
    def usable_sram_bytes(self) -> int:
        """Aggregate SRAM available to the compiler, bytes."""
        return self.num_cores * self.core.usable_sram_bytes

    @property
    def per_core_usable_sram(self) -> int:
        """SRAM per core available to the compiler, bytes."""
        return self.core.usable_sram_bytes

    # ------------------------------------------------------------ throughputs
    @property
    def matmul_flops(self) -> float:
        """Peak chip MatMul throughput, FLOP/s."""
        return self.num_cores * self.core.matmul_flops

    @property
    def vector_flops(self) -> float:
        """Peak chip vector throughput, FLOP/s."""
        return self.num_cores * self.core.vector_flops

    @property
    def interconnect_bandwidth(self) -> float:
        """Aggregate interconnect bandwidth, bytes/s."""
        return self.interconnect.aggregate_bandwidth(self.num_cores)

    @property
    def hbm_bandwidth(self) -> float:
        """Aggregate HBM bandwidth of this chip, bytes/s."""
        return self.hbm.total_bandwidth

    # ------------------------------------------------------------- transforms
    def with_hbm_bandwidth(self, total_bandwidth: float) -> "ChipConfig":
        """Return a copy with the chip's HBM bandwidth set to ``total_bandwidth``."""
        return replace(self, hbm=self.hbm.with_total_bandwidth(total_bandwidth))

    def with_interconnect(self, interconnect: InterconnectConfig) -> "ChipConfig":
        """Return a copy with a different on-chip network."""
        return replace(self, interconnect=interconnect)

    def with_num_cores(self, num_cores: int) -> "ChipConfig":
        """Return a copy with a different core count (Fig. 23 sweeps)."""
        if num_cores <= 0:
            raise ArchitectureError("num_cores must be positive")
        return replace(self, num_cores=num_cores, name=f"{self.name}-c{num_cores}")

    def with_core(self, core: CoreConfig) -> "ChipConfig":
        """Return a copy with a different per-core configuration."""
        return replace(self, core=core)

    def describe(self) -> dict[str, object]:
        """Headline numbers for reports."""
        return {
            "name": self.name,
            "num_cores": self.num_cores,
            "total_sram_MiB": self.total_sram_bytes / (1024 * 1024),
            "matmul_tflops": self.matmul_flops / 1e12,
            "vector_tflops": self.vector_flops / 1e12,
            "interconnect_TBps": self.interconnect_bandwidth / 1e12,
            "hbm_TBps": self.hbm_bandwidth / 1e12,
            "topology": self.interconnect.topology,
        }


@dataclass(frozen=True)
class SystemConfig:
    """A multi-chip ICCA system (e.g. IPU-POD4: 4 chips + inter-chip links).

    The paper uses model parallelism across chips (§5): each chip holds a
    slice of every operator, and the small activation reductions cross the
    inter-chip links.  The compiler therefore schedules one chip's share of
    the work and accounts for the inter-chip reduction separately.

    Attributes:
        name: System name.
        chip: Configuration of each (identical) chip.
        num_chips: Number of chips.
        inter_chip_bandwidth: Aggregate bandwidth between chips, bytes/s.
        inter_chip_latency: Latency of an inter-chip transfer, seconds.
        parallelism: Cross-chip parallelism strategy (only ``"model"`` —
            tensor / model parallelism — is implemented, as in the paper).
    """

    name: str
    chip: ChipConfig
    num_chips: int = 1
    inter_chip_bandwidth: float = 640 * GB
    inter_chip_latency: float = 1e-6
    parallelism: str = "model"

    def __post_init__(self) -> None:
        if self.num_chips <= 0:
            raise ArchitectureError("system needs at least one chip")
        if self.num_chips > 1 and self.inter_chip_bandwidth <= 0:
            raise ArchitectureError("multi-chip system needs inter-chip bandwidth")
        if self.parallelism != "model":
            raise ArchitectureError(
                f"unsupported parallelism {self.parallelism!r}; only 'model' is implemented"
            )

    # ------------------------------------------------------------ aggregates
    @property
    def total_cores(self) -> int:
        """Total cores across all chips."""
        return self.num_chips * self.chip.num_cores

    @property
    def total_sram_bytes(self) -> int:
        """Total on-chip SRAM across all chips, bytes."""
        return self.num_chips * self.chip.total_sram_bytes

    @property
    def usable_sram_bytes(self) -> int:
        """Total compiler-visible SRAM across all chips, bytes."""
        return self.num_chips * self.chip.usable_sram_bytes

    @property
    def total_hbm_bandwidth(self) -> float:
        """Total HBM bandwidth across all chips, bytes/s."""
        return self.num_chips * self.chip.hbm_bandwidth

    @property
    def total_matmul_flops(self) -> float:
        """Total MatMul throughput across all chips, FLOP/s."""
        return self.num_chips * self.chip.matmul_flops

    @property
    def total_vector_flops(self) -> float:
        """Total vector throughput across all chips, FLOP/s."""
        return self.num_chips * self.chip.vector_flops

    @property
    def total_interconnect_bandwidth(self) -> float:
        """Total on-chip interconnect bandwidth across all chips, bytes/s."""
        return self.num_chips * self.chip.interconnect_bandwidth

    def interchip_time(self, bytes_per_step: int) -> float:
        """Per-step time to all-reduce ``bytes_per_step`` over the inter-chip links.

        Zero on a single chip or when nothing crosses the links.
        """
        if self.num_chips <= 1 or bytes_per_step <= 0:
            return 0.0
        return bytes_per_step / self.inter_chip_bandwidth + self.inter_chip_latency

    # ------------------------------------------------------------- transforms
    def with_total_hbm_bandwidth(self, total_bandwidth: float) -> "SystemConfig":
        """Return a copy whose *system-wide* HBM bandwidth is ``total_bandwidth``."""
        per_chip = total_bandwidth / self.num_chips
        return replace(self, chip=self.chip.with_hbm_bandwidth(per_chip))

    def with_total_interconnect_bandwidth(self, total_bandwidth: float) -> "SystemConfig":
        """Return a copy whose system-wide NoC bandwidth is ``total_bandwidth``.

        The per-link bandwidth of every chip is scaled so the aggregate
        across chips matches the target (Fig. 22 sweeps).
        """
        current = self.total_interconnect_bandwidth
        if current <= 0:
            raise ArchitectureError("system has no interconnect bandwidth to scale")
        factor = total_bandwidth / current
        return replace(
            self,
            chip=self.chip.with_interconnect(
                self.chip.interconnect.scaled_bandwidth(factor)
            ),
        )

    def with_cores_per_chip(self, num_cores: int) -> "SystemConfig":
        """Return a copy with a different per-chip core count."""
        return replace(self, chip=self.chip.with_num_cores(num_cores))

    def with_matmul_tflops(self, total_tflops: float) -> "SystemConfig":
        """Return a copy whose system-wide MatMul throughput is ``total_tflops`` TFLOP/s."""
        factor = (total_tflops * 1e12) / self.total_matmul_flops
        return replace(self, chip=self.chip.with_core(self.chip.core.scaled_flops(factor)))

    def describe(self) -> dict[str, object]:
        """Headline numbers for reports."""
        info = dict(self.chip.describe())
        info.update(
            {
                "system": self.name,
                "num_chips": self.num_chips,
                "total_cores": self.total_cores,
                "total_sram_GiB": self.total_sram_bytes / (1024**3),
                "total_hbm_TBps": self.total_hbm_bandwidth / 1e12,
                "total_matmul_tflops": self.total_matmul_flops / 1e12,
                "inter_chip_GBps": self.inter_chip_bandwidth / 1e9,
            }
        )
        return info
