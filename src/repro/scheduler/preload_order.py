"""Preload-order permutation (§4.4).

Elk may preload operators in a different order than they execute, which (1)
spreads HBM-delivery traffic away from interconnect "rush hours" and (2)
shortens the on-chip lifespan of large operators' preload footprints so the
currently executing operator gets a larger execution space (Fig. 13).

Enumerating all ``N!`` orders is hopeless, so the search space is pruned with
the paper's two LLM-specific rules: only operators with above-average HBM load
volume are reordered (softmax-style operators preload almost nothing), and the
reordering is searched within a single representative layer and replicated
across structurally identical layers.  Within a layer the candidate
permutations are additionally bounded by an edit-distance limit derived from
the available SRAM capacity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from repro.errors import SchedulingError
from repro.ir.graph import LayerSpan, OperatorGraph
from repro.scheduler.profiles import OperatorProfile


@dataclass(frozen=True)
class OrderSearchConfig:
    """Bounds on the preload-order search.

    Attributes:
        max_candidates: Cap on the number of candidate orders evaluated
            (the identity order is always included and always first).
        max_edit_distance: Maximum displacement (in heavy-operator slots) any
            operator may move from its execution-order position; ``None``
            derives the limit from the SRAM capacity.
        max_heavy_per_layer: Safety cap on the number of heavy operators
            permuted per layer (keeps the factorial base small, like the
            paper's ``H <= 6`` observation).
    """

    max_candidates: int = 64
    max_edit_distance: int | None = None
    max_heavy_per_layer: int = 6


@dataclass
class OrderSearchStats:
    """Search-space statistics (the factors of Table 2).

    Attributes:
        num_operators: ``N`` — total operators in the model.
        max_plans_per_operator: ``P`` — max Pareto plans per operator.
        max_operators_on_chip: ``K`` — max operators whose smallest preload
            footprints fit on chip simultaneously.
        heavy_per_layer: ``H`` — HBM-heavy operators per representative layer.
        max_heavy_on_chip: ``C`` — max HBM-heavy operators per layer that fit
            on chip simultaneously.
        num_candidate_orders: Candidate orders actually generated.
    """

    num_operators: int
    max_plans_per_operator: int
    max_operators_on_chip: int
    heavy_per_layer: int
    max_heavy_on_chip: int
    num_candidate_orders: int


class PreloadOrderGenerator:
    """Generates pruned candidate preload orders for one model.

    Args:
        graph: The model graph (provides layer structure and HBM volumes).
        profiles: Per-operator planning profiles (provide footprints).
        sram_budget_bytes: Per-core SRAM budget.
        config: Search bounds.
    """

    def __init__(
        self,
        graph: OperatorGraph,
        profiles: Sequence[OperatorProfile],
        sram_budget_bytes: int,
        config: OrderSearchConfig | None = None,
    ) -> None:
        if len(graph) != len(profiles):
            raise SchedulingError("graph and profiles must describe the same operators")
        self.graph = graph
        self.profiles = list(profiles)
        self.sram_budget = sram_budget_bytes
        self.config = config or OrderSearchConfig()

    # ------------------------------------------------------------------ helpers
    def _min_preload_footprint(self, index: int) -> int:
        """Smallest per-core footprint operator ``index`` can occupy on chip."""
        profile = self.profiles[index]
        smallest = profile.smallest
        return min(
            smallest.plan.exec_space_bytes,
            smallest.plan.hbm_unique_bytes_per_core or smallest.plan.exec_space_bytes,
        )

    def heavy_indices(self) -> list[int]:
        """Indices of HBM-heavy operators (above-average HBM load volume)."""
        return self.graph.hbm_heavy_indices()

    def representative_layer(self) -> LayerSpan | None:
        """The first layer of the largest group of identical layers."""
        groups = self.graph.identical_layer_groups()
        if not groups:
            return None
        best = max(groups.values(), key=len)
        return best[0]

    def heavy_in_layer(self, span: LayerSpan) -> list[int]:
        """HBM-heavy operator indices inside one layer, in execution order."""
        heavy = set(self.heavy_indices())
        indices = [i for i in span.indices() if i in heavy]
        return indices[: self.config.max_heavy_per_layer]

    def max_operators_on_chip(self) -> int:
        """``K``: operators whose smallest footprints fit per-core SRAM together."""
        footprints = sorted(self._min_preload_footprint(i) for i in range(len(self.profiles)))
        total = 0
        count = 0
        for footprint in footprints:
            if total + footprint > self.sram_budget:
                break
            total += footprint
            count += 1
        return max(1, count)

    def max_heavy_on_chip(self, heavy: Sequence[int]) -> int:
        """``C``: heavy operators of one layer that fit per-core SRAM together."""
        footprints = sorted(self._min_preload_footprint(i) for i in heavy)
        total = 0
        count = 0
        for footprint in footprints:
            if total + footprint > self.sram_budget:
                break
            total += footprint
            count += 1
        return max(1, count)

    def edit_distance_limit(self, heavy: Sequence[int]) -> int:
        """Displacement limit derived from the available SRAM slack.

        Delaying an operator's preload forces the operators it is delayed past
        to stay on chip together with it, so the furthest useful displacement
        is bounded by how many heavy operators fit on chip at once.
        """
        if self.config.max_edit_distance is not None:
            return self.config.max_edit_distance
        if not heavy:
            return 0
        return max(1, self.max_heavy_on_chip(heavy) - 1)

    # -------------------------------------------------------------- enumeration
    def layer_permutations(self, heavy: Sequence[int]) -> list[tuple[int, ...]]:
        """Bounded permutations of one layer's heavy operators.

        Returns permutations of ``heavy`` (global indices) whose maximum slot
        displacement does not exceed the edit-distance limit, identity first,
        capped at ``max_candidates``.
        """
        heavy = list(heavy)
        if len(heavy) <= 1:
            return [tuple(heavy)]
        limit = self.edit_distance_limit(heavy)
        candidates: list[tuple[int, ...]] = [tuple(heavy)]
        for permutation in itertools.permutations(heavy):
            if permutation == tuple(heavy):
                continue
            displacement = max(
                abs(permutation.index(op) - heavy.index(op)) for op in heavy
            )
            if displacement <= limit:
                candidates.append(permutation)
            if len(candidates) >= self.config.max_candidates:
                break
        return candidates

    def candidate_orders(self) -> list[tuple[int, ...]]:
        """Full-model candidate preload orders (identity first).

        The permutation found for the representative layer is applied to every
        structurally identical layer; heavy operators swap places only with
        other heavy operators of the same layer, and all other operators keep
        their execution-order preload slots.
        """
        n = len(self.profiles)
        identity = tuple(range(n))
        span = self.representative_layer()
        if span is None:
            return [identity]
        heavy = self.heavy_in_layer(span)
        if len(heavy) <= 1:
            return [identity]

        template = span.template or span.name
        same_layers = [
            s for s in self.graph.layers if (s.template or s.name) == template
        ]
        heavy_set = set(self.heavy_indices())
        offsets = [i - span.start for i in heavy]

        orders: list[tuple[int, ...]] = []
        for permutation in self.layer_permutations(heavy):
            order = list(range(n))
            perm_offsets = [op - span.start for op in permutation]
            for layer in same_layers:
                slots = [layer.start + off for off in offsets]
                occupants = [layer.start + off for off in perm_offsets]
                if any(s >= layer.stop for s in slots + occupants):
                    continue
                if not all(o in heavy_set for o in occupants):
                    # A structurally different layer (e.g. truncated); skip it.
                    continue
                for slot, occupant in zip(slots, occupants):
                    order[slot] = occupant
            if sorted(order) == list(range(n)):
                orders.append(tuple(order))
        if identity in orders:
            orders.remove(identity)
        return [identity] + orders[: max(0, self.config.max_candidates - 1)]

    # ------------------------------------------------------------------- stats
    def stats(self, orders: Sequence[tuple[int, ...]] | None = None) -> OrderSearchStats:
        """Search-space statistics (Table 2 factors); ``orders``: :meth:`candidate_orders`, if at hand."""
        span = self.representative_layer()
        heavy = self.heavy_in_layer(span) if span else []
        return OrderSearchStats(
            num_operators=len(self.profiles),
            max_plans_per_operator=max(p.num_plans for p in self.profiles),
            max_operators_on_chip=self.max_operators_on_chip(),
            heavy_per_layer=len(heavy),
            max_heavy_on_chip=self.max_heavy_on_chip(heavy) if heavy else 0,
            num_candidate_orders=len(self.candidate_orders() if orders is None else orders),
        )
