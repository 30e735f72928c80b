"""Operator graphs.

Elk consumes models as a *sequential* operator list: operators in a
transformer execute in data-dependency order, and the scheduler's inductive
algorithm exploits that order (§4.2 of the paper).  :class:`OperatorGraph`
therefore stores operators in execution order and additionally keeps the
producer/consumer relation (a DAG) so the frontend can validate dependency
consistency and identify layer boundaries for the preload-order pruning rules
(§4.4: reorder within a layer, reuse across identical layers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import networkx as nx

from repro.errors import GraphError
from repro.ir.operators import Operator


@dataclass
class LayerSpan:
    """A contiguous span of operators belonging to one model layer.

    Attributes:
        name: Layer name, e.g. ``"layer3"`` or ``"lm_head"``.
        start: Index of the first operator of the layer (inclusive).
        stop: Index one past the last operator of the layer (exclusive).
        template: Name of the layer this one is structurally identical to
            (used to share preload orders across identical transformer layers).
    """

    name: str
    start: int
    stop: int
    template: str = ""

    @property
    def length(self) -> int:
        """Number of operators in the layer."""
        return self.stop - self.start

    def indices(self) -> range:
        """Operator indices covered by this layer."""
        return range(self.start, self.stop)


class OperatorGraph:
    """A model represented as an ordered operator list plus a dependency DAG.

    Args:
        name: Model name (e.g. ``"llama2-13b"``).
        operators: Operators in execution order.
        layers: Optional layer spans covering the operator list.
        metadata: Free-form model metadata (batch size, sequence length, ...).
    """

    def __init__(
        self,
        name: str,
        operators: Sequence[Operator],
        layers: Sequence[LayerSpan] | None = None,
        metadata: Mapping[str, object] | None = None,
    ) -> None:
        self.name = name
        self.operators: list[Operator] = list(operators)
        self.layers: list[LayerSpan] = list(layers or [])
        self.metadata: dict[str, object] = dict(metadata or {})
        self._index_by_name: dict[str, int] = {}
        for idx, op in enumerate(self.operators):
            if op.name in self._index_by_name:
                raise GraphError(f"duplicate operator name {op.name!r} in {name!r}")
            self._index_by_name[op.name] = idx
        self._validate_layers()

    # ------------------------------------------------------------------ basics
    def __len__(self) -> int:
        return len(self.operators)

    def __iter__(self) -> Iterator[Operator]:
        return iter(self.operators)

    def __getitem__(self, index: int) -> Operator:
        return self.operators[index]

    def index_of(self, name: str) -> int:
        """Return the execution index of the operator with the given name."""
        if name not in self._index_by_name:
            raise GraphError(f"no operator named {name!r} in graph {self.name!r}")
        return self._index_by_name[name]

    def operator(self, name: str) -> Operator:
        """Return the operator with the given name."""
        return self.operators[self.index_of(name)]

    # ------------------------------------------------------------------ layers
    def _validate_layers(self) -> None:
        covered: set[int] = set()
        for span in self.layers:
            if span.start < 0 or span.stop > len(self.operators) or span.start >= span.stop:
                raise GraphError(
                    f"layer {span.name!r} span [{span.start}, {span.stop}) is out of "
                    f"range for {len(self.operators)} operators"
                )
            overlap = covered.intersection(span.indices())
            if overlap:
                raise GraphError(
                    f"layer {span.name!r} overlaps previously covered indices {sorted(overlap)[:4]}"
                )
            covered.update(span.indices())

    def identical_layer_groups(self) -> dict[str, list[LayerSpan]]:
        """Group layers by their structural template.

        Layers produced from the same template (e.g. all decoder layers of an
        LLM) can reuse a single preload order, which is the basis of the §4.4
        search-space pruning.
        """
        groups: dict[str, list[LayerSpan]] = {}
        for span in self.layers:
            key = span.template or span.name
            groups.setdefault(key, []).append(span)
        return groups

    # ------------------------------------------------------------------ stats
    @property
    def total_flops(self) -> int:
        """Total FLOPs of the model."""
        return sum(op.flops for op in self.operators)

    @property
    def total_hbm_load_bytes(self) -> int:
        """Total bytes loaded from HBM across the model."""
        return sum(op.hbm_load_bytes for op in self.operators)

    @property
    def total_weight_bytes(self) -> int:
        """Total parameter bytes of the model."""
        return sum(op.usage.weight_bytes for op in self.operators)

    def hbm_heavy_threshold(self) -> float:
        """The average HBM load per operator, the paper's HBM-heavy cutoff.

        §4.4: "we only reorder the preload of operators whose tensor sizes are
        above average (for LLM decoding, the average size is model size divided
        by operator count)".
        """
        if not self.operators:
            return 0.0
        return self.total_hbm_load_bytes / len(self.operators)

    def hbm_heavy_indices(self, threshold: float | None = None) -> list[int]:
        """Indices of operators whose HBM load exceeds the threshold."""
        cutoff = self.hbm_heavy_threshold() if threshold is None else threshold
        return [
            idx
            for idx, op in enumerate(self.operators)
            if op.hbm_load_bytes > cutoff
        ]

    def summary(self) -> dict[str, object]:
        """Return headline statistics used by Table 2 and the README."""
        heavy = self.hbm_heavy_indices()
        return {
            "name": self.name,
            "num_operators": len(self.operators),
            "num_layers": len(self.layers),
            "total_flops": self.total_flops,
            "total_hbm_load_bytes": self.total_hbm_load_bytes,
            "total_weight_bytes": self.total_weight_bytes,
            "num_hbm_heavy_operators": len(heavy),
            "metadata": dict(self.metadata),
        }

    # -------------------------------------------------------------- dependency
    def dependency_dag(self) -> nx.DiGraph:
        """Build the producer→consumer DAG over operators.

        Edges connect the producer of a tensor to every operator consuming it.
        Weight / KV-cache / input tensors have no on-chip producer.
        """
        dag = nx.DiGraph()
        dag.add_nodes_from(range(len(self.operators)))
        producer: dict[str, int] = {}
        for idx, op in enumerate(self.operators):
            for out in op.outputs:
                producer[out.name] = idx
        for idx, op in enumerate(self.operators):
            for inp in op.inputs:
                src = producer.get(inp.name)
                if src is not None and src != idx:
                    dag.add_edge(src, idx)
        return dag

    def validate(self) -> None:
        """Check that the execution order is a valid topological order.

        Raises:
            GraphError: If any operator consumes a tensor produced later, or
                the dependency relation contains a cycle.
        """
        dag = self.dependency_dag()
        if not nx.is_directed_acyclic_graph(dag):
            raise GraphError(f"graph {self.name!r} has a dependency cycle")
        for src, dst in dag.edges:
            if src > dst:
                raise GraphError(
                    f"graph {self.name!r}: operator {self.operators[dst].name!r} "
                    f"(index {dst}) consumes a tensor produced by "
                    f"{self.operators[src].name!r} (index {src}) which executes later"
                )

    # ------------------------------------------------------------ construction
    def slice(self, start: int, stop: int, name: str | None = None) -> "OperatorGraph":
        """Return a sub-graph covering operators ``[start, stop)``.

        Layer spans fully contained in the range are preserved (re-based).
        """
        ops = self.operators[start:stop]
        layers = [
            LayerSpan(s.name, s.start - start, s.stop - start, s.template)
            for s in self.layers
            if s.start >= start and s.stop <= stop
        ]
        return OperatorGraph(
            name or f"{self.name}[{start}:{stop}]",
            ops,
            layers,
            dict(self.metadata),
        )

    # ------------------------------------------------------------ serialization
    def to_dict(self) -> dict:
        """Serialize the graph to a JSON-compatible dictionary."""
        return {
            "name": self.name,
            "metadata": dict(self.metadata),
            "operators": [op.to_dict() for op in self.operators],
            "layers": [
                {
                    "name": s.name,
                    "start": s.start,
                    "stop": s.stop,
                    "template": s.template,
                }
                for s in self.layers
            ],
        }

    @staticmethod
    def from_dict(data: dict) -> "OperatorGraph":
        """Deserialize from :meth:`to_dict` output."""
        return OperatorGraph(
            name=data["name"],
            operators=[Operator.from_dict(o) for o in data["operators"]],
            layers=[
                LayerSpan(s["name"], s["start"], s["stop"], s.get("template", ""))
                for s in data.get("layers", [])
            ],
            metadata=data.get("metadata", {}),
        )


class GraphBuilder:
    """Incremental builder for :class:`OperatorGraph` used by the model zoo.

    The builder appends operators in execution order, tracks open layer spans,
    and hands out unique tensor/operator names scoped by the current layer.
    """

    def __init__(self, name: str, metadata: Mapping[str, object] | None = None) -> None:
        self.name = name
        self.metadata = dict(metadata or {})
        self._operators: list[Operator] = []
        self._layers: list[LayerSpan] = []
        self._open_layer: tuple[str, int, str] | None = None

    # ------------------------------------------------------------------ layers
    def begin_layer(self, name: str, template: str = "") -> None:
        """Open a new layer span; subsequent operators belong to it."""
        if self._open_layer is not None:
            raise GraphError(f"layer {self._open_layer[0]!r} is still open")
        self._open_layer = (name, len(self._operators), template)

    def end_layer(self) -> LayerSpan:
        """Close the currently open layer span."""
        if self._open_layer is None:
            raise GraphError("no layer is open")
        name, start, template = self._open_layer
        span = LayerSpan(name, start, len(self._operators), template)
        if span.length == 0:
            raise GraphError(f"layer {name!r} closed without operators")
        self._layers.append(span)
        self._open_layer = None
        return span

    # --------------------------------------------------------------- operators
    def add(self, op: Operator) -> Operator:
        """Append an operator and return it (for chaining its output tensor)."""
        self._operators.append(op)
        return op

    def build(self) -> OperatorGraph:
        """Finalize and validate the graph."""
        if self._open_layer is not None:
            raise GraphError(f"layer {self._open_layer[0]!r} was never closed")
        graph = OperatorGraph(self.name, self._operators, self._layers, self.metadata)
        graph.validate()
        return graph
