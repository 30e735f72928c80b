"""Tensor-granularity HBM access simulator (DRAMsim3 substitute).

The emulation framework places tensors sequentially in HBM, slices each tensor
evenly across the stacks to balance traffic, and asks the memory simulator for
per-tensor load latencies (§5).  This module reproduces that flow: a
:class:`TensorPlacement` maps tensors to addresses, a trace generator produces
per-channel access streams, and :class:`HBMSimulator` returns per-tensor
latencies from a bank/row timing model with row-buffer locality.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.timing import HBM3E_TIMING, HBMTimingParams
from repro.errors import SimulationError
from repro.units import ceil_div


@dataclass(frozen=True)
class TensorPlacement:
    """Placement of one tensor in HBM.

    Attributes:
        name: Tensor name.
        address: Byte address of the first byte (within the interleaved space).
        size_bytes: Tensor size.
    """

    name: str
    address: int
    size_bytes: int


@dataclass
class AccessRecord:
    """Result of loading one tensor.

    Attributes:
        name: Tensor name.
        size_bytes: Bytes read.
        latency: Time from issue to last byte delivered.
        effective_bandwidth: ``size_bytes / latency``.
        row_hits: Row-buffer hits during the access.
        row_misses: Row-buffer misses during the access.
    """

    name: str
    size_bytes: int
    latency: float
    effective_bandwidth: float
    row_hits: int
    row_misses: int


class TensorPlacer:
    """Sequentially places tensors in HBM (the paper's placement policy)."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise SimulationError("HBM capacity must be positive")
        self.capacity = capacity_bytes
        self._next_address = 0
        self.placements: dict[str, TensorPlacement] = {}

    def place(self, name: str, size_bytes: int) -> TensorPlacement:
        """Place a tensor at the next sequential address."""
        if size_bytes <= 0:
            raise SimulationError(f"tensor {name!r} must have positive size")
        if self._next_address + size_bytes > self.capacity:
            raise SimulationError(
                f"placing tensor {name!r} ({size_bytes} bytes) exceeds HBM capacity"
            )
        placement = TensorPlacement(name, self._next_address, size_bytes)
        self._next_address += size_bytes
        self.placements[name] = placement
        return placement

    @property
    def used_bytes(self) -> int:
        """Total bytes placed so far."""
        return self._next_address


class HBMSimulator:
    """Bank/row-aware HBM access timing for tensor-granularity reads.

    Args:
        params: Device timing parameters of one stack.
        num_stacks: Stacks per chip (each tensor is striped across all stacks).
    """

    def __init__(self, params: HBMTimingParams = HBM3E_TIMING, num_stacks: int = 4) -> None:
        if num_stacks <= 0:
            raise SimulationError("need at least one HBM stack")
        self.params = params
        self.num_stacks = num_stacks
        self._open_rows: dict[tuple[int, int], int] = {}

    @property
    def peak_bandwidth(self) -> float:
        """Aggregate peak bandwidth across stacks."""
        return self.params.peak_bandwidth * self.num_stacks

    # ------------------------------------------------------------------ access
    def load_tensor(self, placement: TensorPlacement) -> AccessRecord:
        """Simulate streaming one tensor from HBM.

        The tensor is striped across all stacks and channels; each channel
        reads its slice as a sequence of bursts, paying a row-miss penalty
        whenever a burst crosses into a new row.  The reported latency is the
        slowest channel's completion time.
        """
        params = self.params
        total_channels = self.num_stacks * params.num_channels
        per_channel_bytes = ceil_div(placement.size_bytes, total_channels)
        bursts = ceil_div(per_channel_bytes, params.burst_bytes)
        bursts_per_row = max(1, params.row_size_bytes // params.burst_bytes)

        row_misses_per_channel = ceil_div(bursts, bursts_per_row)
        row_hits_per_channel = bursts - row_misses_per_channel

        transfer_time = per_channel_bytes / params.channel_bandwidth
        # The first activate of a row overlaps poorly with the data bus; later
        # activates in a streaming pattern are mostly hidden behind transfers.
        visible_miss_fraction = 0.15
        miss_time = (
            params.row_miss_penalty
            + (row_misses_per_channel - 1) * params.row_miss_penalty * visible_miss_fraction
            if row_misses_per_channel > 0
            else 0.0
        )
        latency = params.t_cas + transfer_time + miss_time
        return AccessRecord(
            name=placement.name,
            size_bytes=placement.size_bytes,
            latency=latency,
            effective_bandwidth=placement.size_bytes / latency if latency > 0 else 0.0,
            row_hits=row_hits_per_channel * total_channels,
            row_misses=row_misses_per_channel * total_channels,
        )

    def sustained_bandwidth(self, tensor_bytes: int) -> float:
        """Effective bandwidth achieved when streaming a tensor of this size."""
        placement = TensorPlacement("probe", 0, tensor_bytes)
        return self.load_tensor(placement).effective_bandwidth
