"""Execution-plan data structures produced by the scheduler.

An :class:`ExecutionPlan` is the compiler's final artifact for one chip: per
operator, the chosen execute-state plan, preload-state plan and preload
number, plus the preload order across the model.  The forward timeline
evaluator (:mod:`repro.scheduler.timeline`) and the event-driven simulator
(:mod:`repro.sim`) both consume this structure; the code generator
(:mod:`repro.codegen`) lowers it to the abstract device program of §4.5.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SchedulingError
from repro.ir.graph import OperatorGraph
from repro.partition.plan import ExecutePlan, PreloadPlan
from repro.scheduler.profiles import ExecuteOption, PreloadOption


@dataclass
class OperatorSchedule:
    """The compiler's decisions for one operator.

    Attributes:
        index: Execution index of the operator.
        op_name: Operator name.
        execute_plan: Chosen execute-state partition plan.
        execution_time: Estimated per-core execution time under that plan.
        exchange_bytes: Per-core inter-core exchange bytes during execution.
        preload_plan: Chosen preload-state plan.
        distribution_time: Data-distribution time paid at execution start.
        preload_noc_time: Interconnect time of the preload delivery.
        hbm_bytes: Unique HBM bytes loaded for this operator.
        hbm_time: Roofline HBM load time of those bytes.
        preload_number: Number of future operators whose preload overlaps this
            operator's execution (the §4.2 decision).
        exec_space_bytes: Per-core execution-space footprint.
        preload_space_bytes: Per-core preload-space footprint.
    """

    index: int
    op_name: str
    execute_plan: ExecutePlan
    execution_time: float
    exchange_bytes: int
    preload_plan: PreloadPlan
    distribution_time: float
    preload_noc_time: float
    hbm_bytes: int
    hbm_time: float
    preload_number: int
    exec_space_bytes: int
    preload_space_bytes: int
    op_type: str = ""

    @property
    def preload_time(self) -> float:
        """Duration of this operator's preload (max of HBM and NoC delivery)."""
        return max(self.hbm_time, self.preload_noc_time)


@dataclass
class ExecutionPlan:
    """A complete, per-chip execution plan for one model.

    Attributes:
        model_name: Name of the compiled model graph.
        policy: Name of the compiler policy that produced the plan
            (``"elk-full"``, ``"elk-dyn"``, ``"static"``, ``"basic"``, ...).
        schedules: Per-operator decisions, in execution order.
        preload_order: Operator indices in the order their preloads are issued.
        sram_budget_bytes: Per-core SRAM budget the plan was compiled against.
        metadata: Free-form compile metadata (model/system description, knobs).
    """

    model_name: str
    policy: str
    schedules: list[OperatorSchedule]
    preload_order: tuple[int, ...]
    sram_budget_bytes: int
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = len(self.schedules)
        if sorted(self.preload_order) != list(range(n)):
            raise SchedulingError(
                f"preload order must be a permutation of 0..{n - 1}"
            )
        for expected, schedule in enumerate(self.schedules):
            if schedule.index != expected:
                raise SchedulingError(
                    f"schedule at position {expected} has index {schedule.index}"
                )

    def __len__(self) -> int:
        return len(self.schedules)

    def __iter__(self):
        return iter(self.schedules)

    @property
    def total_hbm_bytes(self) -> int:
        """Total unique HBM bytes loaded by the plan."""
        return sum(s.hbm_bytes for s in self.schedules)

    @property
    def total_execution_time(self) -> float:
        """Sum of per-operator execution times (no overlap accounting)."""
        return sum(s.execution_time for s in self.schedules)

    @property
    def reorder_edit_distance(self) -> float:
        """Average displacement of operators between preload and execution order."""
        if not self.schedules:
            return 0.0
        displacement = sum(
            abs(position - op_index)
            for position, op_index in enumerate(self.preload_order)
        )
        return displacement / len(self.schedules)

    def validate_against(self, graph: OperatorGraph) -> None:
        """Check the plan covers exactly the operators of ``graph`` in order."""
        if len(graph) != len(self.schedules):
            raise SchedulingError(
                f"plan has {len(self.schedules)} operators, graph has {len(graph)}"
            )
        for op, schedule in zip(graph, self.schedules):
            if op.name != schedule.op_name:
                raise SchedulingError(
                    f"plan operator {schedule.op_name!r} does not match graph "
                    f"operator {op.name!r} at index {schedule.index}"
                )

    def summary(self) -> dict[str, object]:
        """Headline statistics for reports."""
        return {
            "model": self.model_name,
            "policy": self.policy,
            "num_operators": len(self.schedules),
            "total_hbm_bytes": self.total_hbm_bytes,
            "sum_execution_time": self.total_execution_time,
            "avg_preload_number": (
                sum(s.preload_number for s in self.schedules) / len(self.schedules)
                if self.schedules
                else 0.0
            ),
            "reorder_edit_distance": self.reorder_edit_distance,
        }


def make_schedule(
    index: int,
    op_name: str,
    execute_option: ExecuteOption,
    preload_option: PreloadOption,
    hbm_bytes: int,
    hbm_time: float,
    preload_number: int,
    op_type: str = "",
) -> OperatorSchedule:
    """Assemble an :class:`OperatorSchedule` from chosen options."""
    return OperatorSchedule(
        index=index,
        op_name=op_name,
        execute_plan=execute_option.plan,
        execution_time=execute_option.cost.total_time,
        exchange_bytes=execute_option.cost.exchange_bytes,
        preload_plan=preload_option.plan,
        distribution_time=preload_option.distribution_time,
        preload_noc_time=preload_option.noc_time,
        hbm_bytes=hbm_bytes,
        hbm_time=hbm_time,
        preload_number=preload_number,
        exec_space_bytes=execute_option.plan.exec_space_bytes,
        preload_space_bytes=preload_option.plan.preload_space_bytes,
        op_type=op_type,
    )
