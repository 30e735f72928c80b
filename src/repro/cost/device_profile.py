"""Synthetic device profile — the "ground truth" timing source.

The paper profiles a real IPU by running randomly shaped tiles on one core and
measuring per-core execution and per-link transfer times, then fits cost
models against those measurements (§4.3, Fig. 12).  Without the hardware, this
module plays the role of the device: an analytic machine model of an
IPU-MK2-like core (compute pipeline + SRAM port + interconnect port) perturbed
by deterministic, shape-dependent noise that mimics measurement variation
(kernel-selection effects, alignment, link arbitration).

Both the emulator (:mod:`repro.emu`) and the cost-model fitting
(:mod:`repro.cost.fitted`) consume this profile, so — as on the real system —
the compiler plans with a *model* of the machine while the evaluation measures
against the *machine itself*.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass
from math import prod

from repro.arch.core import CoreConfig
from repro.errors import CostModelError
from repro.ir.dtypes import FP16, DType


def _deterministic_noise(key: str, amplitude: float) -> float:
    """A reproducible multiplicative noise factor in ``[1-amplitude, 1+amplitude]``."""
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    unit = int.from_bytes(digest[:8], "big") / float(1 << 64)
    return 1.0 + amplitude * (2.0 * unit - 1.0)


@dataclass(frozen=True)
class TileWorkload:
    """One per-core tile measurement request.

    Attributes:
        op_type: Operator type (``matmul``, ``elementwise``, ``reduce``, ...).
        shape: Tile iteration-space shape (e.g. ``(m, n)`` for a matmul tile).
        reduction: Contracted-dimension extent (1 for vector operators).
        dtype: Element type.
    """

    op_type: str
    shape: tuple[int, ...]
    reduction: int = 1
    dtype: DType = FP16

    @property
    def output_elements(self) -> int:
        """Elements in the tile's output."""
        return prod(self.shape)

    @property
    def flops(self) -> int:
        """FLOPs performed for the tile."""
        if self.op_type in ("matmul", "batch_matmul"):
            return 2 * self.output_elements * self.reduction
        if self.op_type == "softmax":
            return 5 * self.output_elements
        if self.op_type in ("layer_norm", "rms_norm"):
            return 6 * self.output_elements
        if self.op_type == "reduce":
            return self.output_elements
        return 2 * self.output_elements

    @property
    def bytes_touched(self) -> int:
        """Bytes streamed through the local SRAM port for the tile."""
        item = self.dtype.itemsize
        if self.op_type in ("matmul", "batch_matmul"):
            if len(self.shape) < 2:
                raise CostModelError("matmul tiles need at least two dims")
            m, n = self.shape[-2], self.shape[-1]
            batch = prod(self.shape[:-2]) if len(self.shape) > 2 else 1
            return batch * item * (m * self.reduction + self.reduction * n + m * n)
        return 3 * self.output_elements * item


class DeviceProfile:
    """Analytic + noise model of one ICCA core and its interconnect port.

    Args:
        core: Per-core hardware description.
        noise: Amplitude of the deterministic measurement noise (0 disables it).
        kernel_overhead_cycles: Fixed per-tile kernel launch overhead.
    """

    def __init__(
        self,
        core: CoreConfig,
        noise: float = 0.08,
        kernel_overhead_cycles: float = 1500.0,
    ) -> None:
        if not (0.0 <= noise < 1.0):
            raise CostModelError("noise amplitude must be in [0, 1)")
        self.core = core
        self.noise = noise
        self.kernel_overhead_cycles = kernel_overhead_cycles

    # ------------------------------------------------------------------ compute
    def matmul_efficiency(self, workload: TileWorkload) -> float:
        """Fraction of peak MatMul throughput achieved for a tile shape.

        Small or skewed tiles underutilize the accumulation pipelines, which is
        the physical reason larger execution spaces run faster (Fig. 5).
        """
        if len(workload.shape) < 2:
            return 0.5
        m, n = workload.shape[-2], workload.shape[-1]
        k = workload.reduction
        # Each dimension ramps towards full efficiency as it reaches the
        # pipeline's native granularity (16 accumulators x 64-wide dot product).
        dim_eff = lambda extent, native: extent / (extent + native)  # noqa: E731
        return dim_eff(m, 4.0) * dim_eff(n, 16.0) * dim_eff(k, 64.0)

    def execution_time(self, workload: TileWorkload) -> float:
        """Measured per-core execution time of one tile, in seconds."""
        is_matmul = workload.op_type in ("matmul", "batch_matmul")
        peak = self.core.flops_for(is_matmul)
        efficiency = self.matmul_efficiency(workload) if is_matmul else 0.85
        compute = workload.flops / (peak * max(efficiency, 1e-3))
        sram = workload.bytes_touched / self.core.sram_bandwidth
        overhead = self.core.cycles_to_seconds(self.kernel_overhead_cycles)
        ideal = max(compute, sram) + overhead
        key = f"exec|{workload.op_type}|{workload.shape}|{workload.reduction}"
        return ideal * _deterministic_noise(key, self.noise)

    # ----------------------------------------------------------------- transfer
    def transfer_time(self, volume_bytes: int, hops: int = 1) -> float:
        """Measured time to move ``volume_bytes`` across one core's link."""
        if volume_bytes < 0:
            raise CostModelError("transfer volume must be non-negative")
        if volume_bytes == 0:
            return 0.0
        serial = volume_bytes / self.core.link_bandwidth
        latency = hops * self.core.link_latency
        key = f"xfer|{volume_bytes}|{hops}"
        return (serial + latency) * _deterministic_noise(key, self.noise)

    # ---------------------------------------------------------------- sampling
    def sample_workloads(
        self, op_type: str, count: int, seed: int = 0
    ) -> list[TileWorkload]:
        """Generate randomly shaped tiles of one operator type (for fitting)."""
        import numpy as np

        # crc32, not hash(): str hashing is salted per process (PYTHONHASHSEED).
        rng = np.random.default_rng(seed + zlib.crc32(op_type.encode()))
        workloads: list[TileWorkload] = []
        for _ in range(count):
            if op_type in ("matmul", "batch_matmul"):
                m = int(rng.integers(1, 128))
                n = int(rng.integers(8, 512))
                k = int(rng.integers(32, 4096))
                workloads.append(TileWorkload(op_type, (m, n), reduction=k))
            else:
                elements = int(rng.integers(64, 65536))
                workloads.append(TileWorkload(op_type, (elements,)))
        return workloads
