"""Tensor-operator intermediate representation (IR).

The IR is deliberately small: symbolic tensors (shape + dtype + origin kind),
operators (type + tensors + attributes), and operator graphs in execution
order.  Everything the Elk compiler needs — FLOPs, HBM load volume, iteration
spaces for partitioning, layer structure for preload-order pruning — is
derived from these three concepts.
"""

from repro.ir.dtypes import BF16, FP8, FP16, FP32, INT8, INT32, DType, dtype_from_name
from repro.ir.graph import GraphBuilder, LayerSpan, OperatorGraph
from repro.ir.operators import (
    OP_TYPES,
    VECTOR_OP_TYPES,
    Operator,
    make_batch_matmul,
    make_elementwise,
    make_matmul,
    make_norm,
    make_rotary,
    make_softmax,
    operator_flops,
)
from repro.ir.tensor import TENSOR_KINDS, TensorSpec, TensorUsage

__all__ = [
    "BF16",
    "FP8",
    "FP16",
    "FP32",
    "INT8",
    "INT32",
    "DType",
    "dtype_from_name",
    "GraphBuilder",
    "LayerSpan",
    "OperatorGraph",
    "OP_TYPES",
    "VECTOR_OP_TYPES",
    "Operator",
    "make_batch_matmul",
    "make_elementwise",
    "make_matmul",
    "make_norm",
    "make_rotary",
    "make_softmax",
    "operator_flops",
    "TENSOR_KINDS",
    "TensorSpec",
    "TensorUsage",
]
