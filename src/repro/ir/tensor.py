"""Symbolic tensors for the operator IR.

A :class:`TensorSpec` describes a tensor by shape and dtype only; no data is
ever materialized.  Tensors also carry a *kind* that tells the compiler where
the data originates, which drives HBM preload volume accounting:

* ``weight``     — model parameters resident in HBM, loaded once per operator
                   execution (reused across the batch, compute-intensive).
* ``kv_cache``   — per-request state resident in HBM with no reuse across the
                   batch (memory-intensive).
* ``activation`` — intermediate output produced on-chip by a previous
                   operator; it does not need an HBM preload.
* ``input``      — model input (token ids / embeddings), negligible size.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterable

from repro.errors import ShapeError
from repro.ir.dtypes import FP16, DType

TENSOR_KINDS = ("weight", "kv_cache", "activation", "input", "output")


@dataclass(frozen=True)
class TensorSpec:
    """A symbolic tensor: a named shape + dtype + origin kind.

    Attributes:
        name: Unique name within an operator graph.
        shape: Tuple of positive dimension sizes.
        dtype: Element type.
        kind: One of :data:`TENSOR_KINDS`.
    """

    name: str
    shape: tuple[int, ...]
    dtype: DType = FP16
    kind: str = "activation"

    def __post_init__(self) -> None:
        if not self.name:
            raise ShapeError("tensor name must be non-empty")
        if not self.shape:
            raise ShapeError(f"tensor {self.name!r} must have at least one dim")
        if any(int(d) <= 0 for d in self.shape):
            raise ShapeError(f"tensor {self.name!r} has non-positive dim: {self.shape}")
        if self.kind not in TENSOR_KINDS:
            raise ShapeError(
                f"tensor {self.name!r} has unknown kind {self.kind!r}; "
                f"expected one of {TENSOR_KINDS}"
            )
        # Normalize the shape to a tuple of ints so callers may pass lists.
        object.__setattr__(self, "shape", tuple(int(d) for d in self.shape))

    @property
    def rank(self) -> int:
        """Number of dimensions."""
        return len(self.shape)

    @property
    def num_elements(self) -> int:
        """Total element count."""
        return prod(self.shape)

    @property
    def size_bytes(self) -> int:
        """Total size in bytes."""
        return self.num_elements * self.dtype.itemsize

    @property
    def loads_from_hbm(self) -> bool:
        """Whether executing an operator with this input requires an HBM load."""
        return self.kind in ("weight", "kv_cache", "input")

    def with_kind(self, kind: str) -> "TensorSpec":
        """Return a copy of this tensor with a different kind."""
        return TensorSpec(self.name, self.shape, self.dtype, kind)

    def to_dict(self) -> dict:
        """Serialize to a JSON-compatible dictionary."""
        return {
            "name": self.name,
            "shape": list(self.shape),
            "dtype": self.dtype.name,
            "kind": self.kind,
        }

    @staticmethod
    def from_dict(data: dict) -> "TensorSpec":
        """Deserialize from :meth:`to_dict` output."""
        from repro.ir.dtypes import dtype_from_name

        return TensorSpec(
            name=data["name"],
            shape=tuple(data["shape"]),
            dtype=dtype_from_name(data["dtype"]),
            kind=data.get("kind", "activation"),
        )


@dataclass
class TensorUsage:
    """Aggregated byte accounting for an operator's tensors.

    Attributes:
        weight_bytes: Bytes of parameter tensors loaded from HBM.
        kv_cache_bytes: Bytes of KV-cache tensors loaded from HBM.
        activation_bytes: Bytes of on-chip activations consumed.
        output_bytes: Bytes of outputs produced.
    """

    weight_bytes: int = 0
    kv_cache_bytes: int = 0
    activation_bytes: int = 0
    output_bytes: int = 0
    input_bytes: int = 0

    @property
    def hbm_load_bytes(self) -> int:
        """Bytes that must be fetched from HBM before execution."""
        return self.weight_bytes + self.kv_cache_bytes + self.input_bytes

    @property
    def on_chip_bytes(self) -> int:
        """Bytes that already live on-chip (activations)."""
        return self.activation_bytes

    @staticmethod
    def from_tensors(
        inputs: Iterable[TensorSpec], outputs: Iterable[TensorSpec] = ()
    ) -> "TensorUsage":
        """Build usage accounting from operator inputs and outputs."""
        usage = TensorUsage()
        for t in inputs:
            if t.kind == "weight":
                usage.weight_bytes += t.size_bytes
            elif t.kind == "kv_cache":
                usage.kv_cache_bytes += t.size_bytes
            elif t.kind == "input":
                usage.input_bytes += t.size_bytes
            else:
                usage.activation_bytes += t.size_bytes
        for t in outputs:
            usage.output_bytes += t.size_bytes
        return usage
