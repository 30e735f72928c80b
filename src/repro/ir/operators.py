"""Tensor operators of the IR.

Each operator records its input/output :class:`~repro.ir.tensor.TensorSpec`
objects plus the attributes the compiler needs (FLOP count, HBM load volume,
and the *iteration space* that partition plans slice).  The operator taxonomy
follows the paper's workloads: transformer decoders (MatMul, BatchMatMul,
softmax, normalization, rotary embedding, elementwise) and diffusion
transformers (the same set plus patch embedding expressed as a MatMul).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Sequence

from repro.errors import ShapeError, UnknownOperatorError
from repro.ir.tensor import TensorSpec, TensorUsage

#: Operator types understood by the partitioner and cost models.
OP_TYPES = (
    "matmul",
    "batch_matmul",
    "elementwise",
    "softmax",
    "layer_norm",
    "rms_norm",
    "rotary_embedding",
    "reduce",
    "embedding",
    "transpose",
    "concat",
)

#: Operators dominated by element-wise / memory-bound work (vector pipeline).
VECTOR_OP_TYPES = frozenset(
    {
        "elementwise",
        "softmax",
        "layer_norm",
        "rms_norm",
        "rotary_embedding",
        "reduce",
        "transpose",
        "concat",
        "embedding",
    }
)


@dataclass
class Operator:
    """One tensor operator in a model graph.

    Attributes:
        name: Unique name within the graph (e.g. ``"layer0.attn.qkv_matmul"``).
        op_type: One of :data:`OP_TYPES`.
        inputs: Input tensors, including weights / KV-cache tensors.
        outputs: Output tensors (usually one).
        attrs: Extra attributes (e.g. ``{"activation": "gelu"}``).
        label: Human-readable role used by figures (e.g. ``"Attention_QKV"``).
    """

    name: str
    op_type: str
    inputs: list[TensorSpec]
    outputs: list[TensorSpec]
    attrs: dict = field(default_factory=dict)
    label: str = ""

    def __post_init__(self) -> None:
        if self.op_type not in OP_TYPES:
            raise UnknownOperatorError(
                f"operator {self.name!r} has unknown type {self.op_type!r}"
            )
        if not self.outputs:
            raise ShapeError(f"operator {self.name!r} must produce at least one output")
        self._validate_shapes()

    # ------------------------------------------------------------------ shapes
    def _validate_shapes(self) -> None:
        """Check structural shape constraints for the known operator types."""
        if self.op_type == "matmul":
            a, b = self._matmul_operands()
            if a.shape[-1] != b.shape[-2]:
                raise ShapeError(
                    f"matmul {self.name!r}: inner dims mismatch "
                    f"{a.shape} x {b.shape}"
                )
        elif self.op_type == "batch_matmul":
            a, b = self._matmul_operands()
            if a.shape[-1] != b.shape[-2]:
                raise ShapeError(
                    f"batch_matmul {self.name!r}: inner dims mismatch "
                    f"{a.shape} x {b.shape}"
                )

    def _matmul_operands(self) -> tuple[TensorSpec, TensorSpec]:
        if len(self.inputs) < 2:
            raise ShapeError(f"{self.op_type} {self.name!r} needs two operands")
        return self.inputs[0], self.inputs[1]

    # ------------------------------------------------------------------ metrics
    @property
    def output(self) -> TensorSpec:
        """Primary output tensor."""
        return self.outputs[0]

    @property
    def usage(self) -> TensorUsage:
        """Aggregated byte accounting over inputs and outputs."""
        return TensorUsage.from_tensors(self.inputs, self.outputs)

    @property
    def hbm_load_bytes(self) -> int:
        """Bytes that must be preloaded from HBM before this operator runs."""
        return self.usage.hbm_load_bytes

    @property
    def on_chip_input_bytes(self) -> int:
        """Bytes of activation inputs that already reside on-chip."""
        return self.usage.on_chip_bytes

    @property
    def output_bytes(self) -> int:
        """Bytes produced by this operator."""
        return self.usage.output_bytes

    @property
    def flops(self) -> int:
        """Floating point operations performed by this operator."""
        return operator_flops(self)

    @property
    def is_matmul_like(self) -> bool:
        """Whether the operator runs on the tensor (MatMul) pipeline."""
        return self.op_type in ("matmul", "batch_matmul")

    @property
    def compute_intensity(self) -> float:
        """FLOPs per byte moved from HBM + on-chip inputs (arithmetic intensity)."""
        moved = self.hbm_load_bytes + self.on_chip_input_bytes + self.output_bytes
        if moved == 0:
            return float("inf")
        return self.flops / moved

    # --------------------------------------------------------------- iteration
    @property
    def iteration_space(self) -> tuple[int, ...]:
        """The loop-nest extents partition plans slice.

        For matmuls this is ``(M, N)`` (the output dims; the reduction dim is
        kept per-core), optionally prefixed by batch dims for batched matmuls.
        For vector operators it is the output shape.
        """
        if self.op_type == "matmul":
            out = self.output.shape
            return (prod(out[:-1]), out[-1])
        if self.op_type == "batch_matmul":
            out = self.output.shape
            batch = prod(out[:-2]) if len(out) > 2 else 1
            return (batch, out[-2], out[-1])
        return self.output.shape

    @property
    def reduction_dim(self) -> int:
        """Extent of the contracted dimension (1 for non-matmul operators)."""
        if self.op_type in ("matmul", "batch_matmul"):
            return self.inputs[0].shape[-1]
        return 1

    # ------------------------------------------------------------ serialization
    def to_dict(self) -> dict:
        """Serialize to a JSON-compatible dictionary."""
        return {
            "name": self.name,
            "op_type": self.op_type,
            "inputs": [t.to_dict() for t in self.inputs],
            "outputs": [t.to_dict() for t in self.outputs],
            "attrs": dict(self.attrs),
            "label": self.label,
        }

    @staticmethod
    def from_dict(data: dict) -> "Operator":
        """Deserialize from :meth:`to_dict` output."""
        return Operator(
            name=data["name"],
            op_type=data["op_type"],
            inputs=[TensorSpec.from_dict(t) for t in data["inputs"]],
            outputs=[TensorSpec.from_dict(t) for t in data["outputs"]],
            attrs=dict(data.get("attrs", {})),
            label=data.get("label", ""),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Operator({self.name!r}, {self.op_type}, "
            f"out={self.output.shape}, hbm={self.hbm_load_bytes})"
        )


def operator_flops(op: Operator) -> int:
    """Compute the FLOP count of an operator from its tensor shapes."""
    if op.op_type in ("matmul", "batch_matmul"):
        out = op.output
        return 2 * out.num_elements * op.reduction_dim
    if op.op_type == "softmax":
        # exp + sum + div + max + sub per element.
        return 5 * op.output.num_elements
    if op.op_type in ("layer_norm", "rms_norm"):
        return 6 * op.output.num_elements
    if op.op_type == "rotary_embedding":
        return 4 * op.output.num_elements
    if op.op_type == "elementwise":
        arity = max(1, len(op.inputs))
        cost_per_element = int(op.attrs.get("flops_per_element", arity))
        return cost_per_element * op.output.num_elements
    if op.op_type == "reduce":
        return sum(t.num_elements for t in op.inputs)
    if op.op_type in ("embedding", "transpose", "concat"):
        return op.output.num_elements
    raise UnknownOperatorError(f"no FLOP model for op type {op.op_type!r}")


# --------------------------------------------------------------------------- #
# Convenience constructors used by the model builders.
# --------------------------------------------------------------------------- #


def make_matmul(
    name: str,
    activation: TensorSpec,
    weight: TensorSpec,
    *,
    label: str = "",
    out_kind: str = "activation",
) -> Operator:
    """Create a ``matmul`` operator ``activation @ weight``."""
    out_shape = activation.shape[:-1] + (weight.shape[-1],)
    out = TensorSpec(f"{name}.out", out_shape, activation.dtype, out_kind)
    return Operator(name, "matmul", [activation, weight], [out], label=label or name)


def make_batch_matmul(
    name: str,
    lhs: TensorSpec,
    rhs: TensorSpec,
    *,
    label: str = "",
) -> Operator:
    """Create a ``batch_matmul`` operator over matching leading batch dims."""
    if lhs.rank < 2 or rhs.rank < 2:
        raise ShapeError(f"batch_matmul {name!r} operands must be >=2-D")
    batch = lhs.shape[:-2]
    out_shape = batch + (lhs.shape[-2], rhs.shape[-1])
    out = TensorSpec(f"{name}.out", out_shape, lhs.dtype)
    return Operator(name, "batch_matmul", [lhs, rhs], [out], label=label or name)


def make_elementwise(
    name: str,
    inputs: Sequence[TensorSpec],
    *,
    function: str = "add",
    label: str = "",
) -> Operator:
    """Create an elementwise operator (add/mul/gelu/silu/...)."""
    if not inputs:
        raise ShapeError(f"elementwise {name!r} needs at least one input")
    out = TensorSpec(f"{name}.out", inputs[0].shape, inputs[0].dtype)
    return Operator(
        name,
        "elementwise",
        list(inputs),
        [out],
        attrs={"function": function},
        label=label or name,
    )


def make_softmax(name: str, scores: TensorSpec, *, label: str = "") -> Operator:
    """Create a softmax over the last dimension."""
    out = TensorSpec(f"{name}.out", scores.shape, scores.dtype)
    return Operator(name, "softmax", [scores], [out], label=label or name)


def make_norm(
    name: str,
    activation: TensorSpec,
    weight: TensorSpec | None = None,
    *,
    norm_type: str = "layer_norm",
    label: str = "",
) -> Operator:
    """Create a layer-norm or RMS-norm operator."""
    inputs = [activation] + ([weight] if weight is not None else [])
    out = TensorSpec(f"{name}.out", activation.shape, activation.dtype)
    return Operator(name, norm_type, inputs, [out], label=label or name)


def make_rotary(name: str, activation: TensorSpec, *, label: str = "") -> Operator:
    """Create a rotary positional embedding operator."""
    out = TensorSpec(f"{name}.out", activation.shape, activation.dtype)
    return Operator(name, "rotary_embedding", [activation], [out], label=label or name)
