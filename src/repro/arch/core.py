"""Per-core hardware description.

Each ICCA-chip core has a local scratchpad SRAM, a compute pipeline with
separate MatMul (tensor) and vector throughput, and a network agent with one
inbound and one outbound link to the on-chip interconnect.  The numbers in the
IPU-MK2 preset follow the paper (§2.1, §2.3, §6.3): 624 KB SRAM per core,
5.5 GB/s per-core inter-core bandwidth, 128 bit/cycle local SRAM reads, and a
chip-level 250 TFLOP/s MatMul / 7.8 TFLOP/s vector rate divided over 1472 cores.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ArchitectureError
from repro.units import GB, KiB


@dataclass(frozen=True)
class CoreConfig:
    """Configuration of a single core.

    Attributes:
        sram_bytes: Local scratchpad capacity in bytes.
        matmul_flops: Peak MatMul throughput of one core, FLOP/s.
        vector_flops: Peak vector (elementwise / softmax / norm) throughput, FLOP/s.
        sram_bandwidth: Local SRAM read bandwidth available to the compute
            pipeline, bytes/s.
        link_bandwidth: Bandwidth of the core's interconnect port (both for
            inter-core sharing and for receiving HBM preloads), bytes/s.
        link_latency: Per-transfer fixed latency of the core's port, seconds.
        reserved_bytes: SRAM reserved for the runtime (e.g. the 8 KB inbound
            transfer buffer described in §5), unavailable to the compiler.
        clock_hz: Core clock, used to convert cycle counts to seconds.
    """

    sram_bytes: int = 624 * KiB
    matmul_flops: float = 170e9
    vector_flops: float = 5.3e9
    sram_bandwidth: float = 21.0 * GB
    link_bandwidth: float = 5.5 * GB
    link_latency: float = 300e-9
    reserved_bytes: int = 8 * KiB
    clock_hz: float = 1.325e9

    def __post_init__(self) -> None:
        if self.sram_bytes <= 0:
            raise ArchitectureError("core SRAM must be positive")
        if self.reserved_bytes < 0 or self.reserved_bytes >= self.sram_bytes:
            raise ArchitectureError(
                f"reserved_bytes ({self.reserved_bytes}) must be in [0, sram_bytes)"
            )
        if min(self.matmul_flops, self.vector_flops) <= 0:
            raise ArchitectureError("core FLOP rates must be positive")
        if min(self.sram_bandwidth, self.link_bandwidth, self.clock_hz) <= 0:
            raise ArchitectureError("core bandwidths and clock must be positive")

    @property
    def usable_sram_bytes(self) -> int:
        """SRAM available to the compiler after the runtime reservation."""
        return self.sram_bytes - self.reserved_bytes

    def flops_for(self, op_is_matmul: bool) -> float:
        """Peak FLOP/s for an operator class (MatMul vs vector)."""
        return self.matmul_flops if op_is_matmul else self.vector_flops

    def cycles_to_seconds(self, cycles: float) -> float:
        """Convert a cycle count to seconds at this core's clock."""
        return cycles / self.clock_hz

    def scaled_flops(self, factor: float) -> "CoreConfig":
        """Return a copy with compute throughput scaled by ``factor``.

        Used by the design-space exploration of Fig. 24 (varying available
        TFLOPS while holding the memory system constant).
        """
        if factor <= 0:
            raise ArchitectureError("FLOPS scale factor must be positive")
        return replace(
            self,
            matmul_flops=self.matmul_flops * factor,
            vector_flops=self.vector_flops * factor,
        )


#: Per-core configuration of the Graphcore IPU MK2 (Colossus GC200).
IPU_MK2_CORE = CoreConfig()
