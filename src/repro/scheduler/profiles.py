"""Per-operator planning profiles.

Before scheduling, Elk enumerates every operator's execute-state plans, costs
them, and keeps only the Pareto-optimal memory/time frontier (§4.3).  Work is
spent only on plans that can still reach it: a plan is costed only if its
execution floor (one per split group) beats the frontier's best over smaller
plans, its setup overhead, a search over all its preload plans, only if its
execution time beats that best too (see :func:`preload_overhead`), and an
:class:`ExecuteOption` is built only for a frontier point.  The scheduler and
allocator then never touch raw plans again — they walk these frontiers.
Preload-state frontiers are derived lazily per chosen execute plan and cached
on the profile, since the same execute plan is examined many times across
preload numbers and candidate preload orders.

Within one :func:`build_operator_profiles` call, operators with the same
structure — type, input and output shapes, dtypes and kinds, and attributes;
everything but names — share one enumeration: a later layer's operator takes
the first one's frontier with its own operator and tensor names.  Enumeration
and costing never read names, so the frontier is the one it would have
enumerated itself.  Nothing outlives the call.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import groupby
from operator import attrgetter

from repro.arch.chip import ChipConfig
from repro.cost.model import CostModel, ExecutionCost
from repro.errors import SchedulingError
from repro.ir.graph import OperatorGraph
from repro.ir.operators import Operator
from repro.partition.enumerate import EnumerationLimits, enumerate_execute_plans
from repro.partition.pareto import frontier_from_plans
from repro.partition.plan import ExecutePlan, PreloadPlan, enumerate_preload_plans


@dataclass(frozen=True)
class ExecuteOption:
    """One point on an operator's execute-state Pareto frontier.

    Attributes:
        plan: The execute-state plan.
        cost: Its execution-cost breakdown.
        setup_overhead: The cheapest :func:`preload_overhead` of this plan's
            preload plans, searched only for plans that can reach the frontier.
            It lets the frontier trade execution space against total inter-core
            data movement: replicated working sets execute fast but cost much to
            materialize (Table 1, execution-space row).
    """

    plan: ExecutePlan
    cost: ExecutionCost
    setup_overhead: float = 0.0

    @property
    def memory_bytes(self) -> int:
        """Per-core execution-space footprint."""
        return self.plan.exec_space_bytes

    @property
    def time_seconds(self) -> float:
        """Time cost traded against memory: execution plus setup overhead."""
        return self.cost.total_time + self.setup_overhead


def preload_overhead(distribution_time: float, noc_time: float, hbm_time: float) -> float:
    """Total time overhead of a preload-state plan; never negative.

    The distribution phase delays the operator's execution start, and any
    interconnect delivery slower than the HBM read stretches the preload
    itself (broadcast amplification).  Both are paid on the timeline, so the
    Pareto trade-off uses their sum.  As no cost-model time is negative, an
    execute plan's execution time bounds its total from below.
    """
    return distribution_time + max(0.0, noc_time - hbm_time)


@dataclass(frozen=True)
class PreloadOption:
    """One point on a preload-state Pareto frontier.

    Attributes:
        plan: The preload-state plan.
        distribution_time: Data-distribution time this plan incurs at execution
            start.
        noc_time: Interconnect time to deliver the preload to the cores.
        hbm_time: HBM roofline time of the operator's unique bytes (delivery
            slower than this serializes the preload engine beyond the HBM cost).
    """

    plan: PreloadPlan
    distribution_time: float
    noc_time: float
    hbm_time: float = 0.0

    @property
    def memory_bytes(self) -> int:
        """Per-core preload-space footprint."""
        return self.plan.preload_space_bytes

    @cached_property
    def overhead_time(self) -> float:
        """Total time overhead of this preload-state plan (:func:`preload_overhead`)."""
        return preload_overhead(self.distribution_time, self.noc_time, self.hbm_time)

    @property
    def time_seconds(self) -> float:
        """Time cost traded against memory in the Pareto frontier."""
        return self.overhead_time


@dataclass
class OperatorProfile:
    """All planning information of one operator.

    Attributes:
        index: Execution index of the operator in the model graph.
        op: The operator.
        execute_frontier: Pareto-optimal execute options, fastest (largest) first.
        hbm_bytes: Unique bytes this operator loads from HBM.
        hbm_time: Roofline HBM load time of those bytes.
    """

    index: int
    op: Operator
    execute_frontier: list[ExecuteOption]
    hbm_bytes: int
    hbm_time: float
    _preload_cache: dict[int, list[PreloadOption]] = field(default_factory=dict)

    @property
    def fastest(self) -> ExecuteOption:
        """The fastest (largest-memory) execute option."""
        return self.execute_frontier[0]

    @property
    def smallest(self) -> ExecuteOption:
        """The smallest-memory (slowest) execute option."""
        return self.execute_frontier[-1]

    @property
    def num_plans(self) -> int:
        """Number of Pareto-optimal execute plans (the paper's P factor)."""
        return len(self.execute_frontier)

    def preload_frontier(
        self, execute_plan: ExecutePlan, cost_model: CostModel
    ) -> list[PreloadOption]:
        """Pareto-optimal preload options for a chosen execute plan.

        Ordered from the largest preload space (MaxPreload — no distribution)
        to the smallest (MinPreload — every core only gets its unique share).
        """
        key = id(execute_plan)
        if key not in self._preload_cache:
            options = [
                PreloadOption(
                    plan=p,
                    distribution_time=cost_model.distribution_time(p),
                    noc_time=cost_model.preload_noc_time(p),
                    hbm_time=self.hbm_time,
                )
                for p in enumerate_preload_plans(execute_plan)
            ]
            frontier = frontier_from_plans(
                options, lambda o: o.memory_bytes, lambda o: o.time_seconds
            )
            self._preload_cache[key] = [point.plan for point in frontier]
        return self._preload_cache[key]


def _structure(op: Operator) -> tuple:
    """Everything enumeration and costing read from an operator: all but names.

    Which inputs are one tensor stays in, so renaming by tensor name is exact.
    """
    names = [t.name for t in op.inputs]
    return (
        op.op_type,
        tuple((t.shape, t.dtype, t.kind, names.index(t.name)) for t in op.inputs),
        tuple((t.shape, t.dtype, t.kind) for t in op.outputs),
        repr(sorted(op.attrs.items())),
    )


def _renamed(option: ExecuteOption, op: Operator, names: dict[str, str]) -> ExecuteOption:
    """``option`` of a structurally identical operator, under ``op``'s names."""
    plan = option.plan
    operands = tuple(replace(s, tensor_name=names[s.tensor_name]) for s in plan.operands)
    return replace(option, plan=replace(plan, op_name=op.name, operands=operands))


def build_operator_profiles(
    graph: OperatorGraph,
    chip: ChipConfig,
    cost_model: CostModel,
    limits: EnumerationLimits | None = None,
) -> list[OperatorProfile]:
    """Enumerate, cost, and Pareto-filter every operator's execute plans.

    Args:
        graph: The model graph.
        chip: Target chip (one chip's share of a model-parallel system).
        cost_model: Cost model used for execution times and HBM roofline.
        limits: Optional enumeration limits.

    Returns:
        One :class:`OperatorProfile` per operator, in execution order.

    Raises:
        SchedulingError: If any operator ends up with an empty frontier.
    """
    profiles: list[OperatorProfile] = []
    enumerated: dict[tuple, tuple[Operator, list[ExecuteOption]]] = {}
    for index, op in enumerate(graph):
        key = _structure(op)
        hbm_time = cost_model.hbm_load_time(op.hbm_load_bytes)
        if key in enumerated:
            first, shared = enumerated[key]
            names = {a.name: b.name for a, b in zip(first.inputs, op.inputs)}
            frontier = [_renamed(option, op, names) for option in shared]
        else:
            plans = enumerate_execute_plans(op, chip, limits)
            group_of = attrgetter("factors", "reduction_split")
            # A group's plans are enumerated in one run and share its floor.
            floors = {g: cost_model.execution_floor(op, next(run)) for g, run in groupby(plans, group_of)}
            costs: dict[int, ExecutionCost] = {}
            setups: dict[int, float] = {}

            def execution_time(plan: ExecutePlan) -> float:
                costs[id(plan)] = cost = cost_model.execution_cost(op, plan)
                return cost.total_time

            def time_of(plan: ExecutePlan) -> float:
                setups[id(plan)] = setup = min(
                    preload_overhead(
                        cost_model.distribution_time(p), cost_model.preload_noc_time(p), hbm_time
                    )
                    for p in enumerate_preload_plans(plan)
                )
                return costs[id(plan)].total_time + setup

            bounds = (lambda plan: floors[group_of(plan)], execution_time)
            frontier = [
                ExecuteOption(p.plan, costs[id(p.plan)], setups[id(p.plan)])
                for p in frontier_from_plans(plans, attrgetter("exec_space_bytes"), time_of, bounds)
            ]
            if not frontier:
                raise SchedulingError(f"operator {op.name!r} has an empty plan frontier")
            enumerated[key] = (op, frontier)
        profiles.append(
            OperatorProfile(
                index=index,
                op=op,
                execute_frontier=frontier,
                hbm_bytes=op.hbm_load_bytes,
                hbm_time=hbm_time,
            )
        )
    return profiles
