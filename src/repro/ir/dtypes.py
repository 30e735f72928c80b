"""Element data types for tensors.

The compiler only needs to know the byte width of each element to size
tiles, SRAM footprints and HBM transfers, so the dtype model is a small
enum-like registry rather than a full numpy dtype wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ShapeError


@dataclass(frozen=True)
class DType:
    """An element type with a fixed byte width.

    Attributes:
        name: Canonical lower-case name, e.g. ``"fp16"``.
        itemsize: Size of one element in bytes.
        is_float: Whether the type is a floating-point format.
    """

    name: str
    itemsize: int
    is_float: bool = True

    def __post_init__(self) -> None:
        if self.itemsize <= 0:
            raise ShapeError(f"dtype {self.name!r} must have positive itemsize")

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


FP32 = DType("fp32", 4)
FP16 = DType("fp16", 2)
BF16 = DType("bf16", 2)
FP8 = DType("fp8", 1)
INT8 = DType("int8", 1, is_float=False)
INT32 = DType("int32", 4, is_float=False)

_REGISTRY: dict[str, DType] = {
    dt.name: dt for dt in (FP32, FP16, BF16, FP8, INT8, INT32)
}


def dtype_from_name(name: str) -> DType:
    """Look up a dtype by name.

    Args:
        name: Case-insensitive dtype name such as ``"fp16"``.

    Returns:
        The registered :class:`DType`.

    Raises:
        ShapeError: If the name is not registered.
    """
    key = name.lower()
    if key not in _REGISTRY:
        raise ShapeError(f"unknown dtype {name!r}; known: {sorted(_REGISTRY)}")
    return _REGISTRY[key]
