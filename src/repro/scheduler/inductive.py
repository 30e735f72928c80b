"""Two-level inductive operator scheduling (§4.2).

The scheduler decides, for every operator, how many future operators' preloads
overlap its execution (the *preload number*), and — through the cost-aware
allocator — which execute-state and preload-state plans they use.  It walks
the model backwards: the last operator trivially overlaps nothing (Lemma 4.1),
and each preceding operator enumerates all feasible preload numbers, invoking
the allocator for each, and keeps the one that lets it start executing as late
as possible, i.e. that minimizes the current-to-end time (Theorem 4.2).

The induction is parameterized by a *preload order* (a permutation of the
operators): the operators overlapped with operator ``i``'s execution are the
next ones in preload order that are not yet on chip, which is how the §4.4
preload-order permutation plugs into the same scheduling pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import SchedulingError
from repro.scheduler.allocation import MemoryAllocator, PreloadAssignment
from repro.scheduler.plan import ExecutionPlan, OperatorSchedule, make_schedule
from repro.scheduler.profiles import ExecuteOption, OperatorProfile, PreloadOption


@dataclass
class SchedulerOptions:
    """Knobs of the inductive scheduler.

    Attributes:
        max_preload_ahead: Hard cap on the preload number examined per operator
            (``None`` lets the SRAM capacity bound it naturally).
        policy_name: Name recorded in the produced :class:`ExecutionPlan`.
    """

    max_preload_ahead: int | None = None
    policy_name: str = "elk-dyn"


@dataclass
class _Decision:
    """Internal per-operator scheduling state."""

    preload_number: int = 0
    execute_option: ExecuteOption | None = None
    exec_start: float = 0.0
    exec_end: float = 0.0
    preload_start: float = 0.0
    preload_end: float = 0.0


class InductiveScheduler:
    """Backward-induction scheduler over a fixed preload order.

    Args:
        profiles: Per-operator planning profiles, in execution order.
        allocator: The §4.3 allocator of ``profiles`` (its memo is keyed by
            their cost objects; see :mod:`repro.scheduler.allocation`).
        options: Scheduler knobs.
    """

    def __init__(
        self,
        profiles: Sequence[OperatorProfile],
        allocator: MemoryAllocator,
        options: SchedulerOptions | None = None,
    ) -> None:
        if not profiles:
            raise SchedulingError("cannot schedule an empty model")
        self.profiles = list(profiles)
        self.allocator = allocator
        self.options = options or SchedulerOptions()

    # ------------------------------------------------------------------ helpers
    def _position_frontiers(self, order: Sequence[int]) -> tuple[list[int], list[int]]:
        """Per-operator preload positions and frontier indices.

        Returns ``(pos, q)`` where ``pos[i]`` is operator ``i``'s position in
        the preload order and ``q[i]`` is one past the largest preload position
        among operators executing at or before ``i`` — i.e. the first preload
        that may still be outstanding when operator ``i`` starts executing.
        """
        n = len(self.profiles)
        pos = [0] * n
        for position, op_index in enumerate(order):
            pos[op_index] = position
        q: list[int] = [0] * n
        running = -1
        for i in range(n):
            running = max(running, pos[i])
            q[i] = running + 1
        return pos, q

    def _default_preload_option(
        self, profile: OperatorProfile, execute_option: ExecuteOption
    ) -> PreloadOption:
        """MaxPreload option used when no allocation constrained this operator."""
        return profile.preload_frontier(execute_option.plan, self.allocator.cost_model)[0]

    # ---------------------------------------------------------------- scheduling
    def schedule(self, preload_order: Sequence[int] | None = None) -> ExecutionPlan:
        """Produce an execution plan for the given preload order.

        Args:
            preload_order: Operator indices in preload-issue order.  ``None``
                uses the execution order (no reordering — Elk-Dyn).

        Returns:
            The per-chip :class:`ExecutionPlan`.

        Raises:
            SchedulingError: If some operator cannot fit on the chip even with
                its smallest plan and no overlapped preloads.
        """
        n = len(self.profiles)
        order = list(preload_order) if preload_order is not None else list(range(n))
        if sorted(order) != list(range(n)):
            raise SchedulingError("preload order must be a permutation of the operators")
        pos, q = self._position_frontiers(order)

        decisions: list[_Decision] = [_Decision() for _ in range(n)]
        preload_assignments: dict[int, PreloadAssignment] = {}
        max_ahead = (
            n if self.options.max_preload_ahead is None else self.options.max_preload_ahead
        )
        profiles, allocator, memo = self.profiles, self.allocator, self.allocator.memo
        # Each scheduled operator's part of the allocator's key: the id of its
        # chosen execution cost (see repro.scheduler.allocation).
        cost_ids = [0] * n

        for i in range(n - 1, -1, -1):
            profile = profiles[i]
            first = q[i]
            resident_base = [j for j in order[:first] if j > i]
            key = (id(profile.fastest.cost), *map(cost_ids.__getitem__, resident_base))
            limit = min(max_ahead, n - first)
            # Every operator that may be on chip with its chosen plan: the
            # question for preload number p is the first len(resident_base) + p.
            preloads = resident_base + order[first: first + limit]
            question = [(profiles[j], decisions[j].execute_option) for j in preloads]

            best: tuple[float, int, tuple, float] | None = None
            for p in range(0, limit + 1):
                if p:
                    key += (cost_ids[order[first + p - 1]],)
                answer = memo.get(key)
                if answer is None:
                    asked = question[: len(resident_base) + p]
                    answer = memo.setdefault(key, allocator.answer(profile, asked))
                if not answer:
                    if p == 0:
                        raise SchedulingError(
                            f"operator {profile.op.name!r} cannot fit per-core SRAM "
                            f"({allocator.sram_budget} bytes) even without overlapped "
                            "preloads"
                        )
                    break  # adding more preloads only increases the footprint
                window_time, overhead_penalty = answer[:2]

                # Latest feasible end of operator i's execution (Theorem 4.2).
                end_candidates = [0.0 if i + 1 >= n else decisions[i + 1].exec_start]
                boundary = first + p
                if boundary < n:
                    end_candidates.append(decisions[order[boundary]].preload_start)
                exec_end = min(end_candidates)
                exec_start = exec_end - window_time
                # The score penalizes preload numbers that only fit by pushing
                # the overlapped operators (or this one) onto slower plans;
                # that overhead is paid later on the timeline even though it
                # does not delay this operator's own start.
                score = exec_start - overhead_penalty
                # Ties favour the larger preload number: the backward model's
                # preload times are as-late-as-possible estimates, so when two
                # preload numbers look equal the larger one keeps the HBM
                # busier in the forward replay at no estimated cost.
                if best is None or score >= best[0] - 1e-12:
                    best = (score, p, answer, exec_start)

            if best is None:
                raise SchedulingError(
                    f"operator {profile.op.name!r}: no preload number examined "
                    f"(max_preload_ahead={self.options.max_preload_ahead})"
                )
            _, p, answer, exec_start = best
            asked = question[: len(resident_base) + p]
            allocation = allocator.build(answer, profile, asked)
            cost_ids[i] = id(allocation.execute_option.cost)
            decision = decisions[i]
            decision.preload_number = p
            decision.execute_option = allocation.execute_option
            decision.exec_start = exec_start
            decision.exec_end = exec_start + allocation.window_time
            for op_index, assignment in allocation.preload_assignments.items():
                preload_assignments[op_index] = assignment

            # Schedule operator i's preload to finish right before whichever
            # comes first: its own execution or the next preload in order.
            preload_option = (
                preload_assignments[i].option
                if i in preload_assignments
                else self._default_preload_option(profile, allocation.execute_option)
            )
            preload_duration = max(profile.hbm_time, preload_option.noc_time)
            end_candidates = [decision.exec_start]
            if pos[i] + 1 < n:
                successor = order[pos[i] + 1]
                if successor > i:  # already scheduled in the backward pass
                    end_candidates.append(decisions[successor].preload_start)
            decision.preload_end = min(end_candidates)
            decision.preload_start = decision.preload_end - preload_duration

        return self._build_plan(order, decisions, preload_assignments)

    # ------------------------------------------------------------------ assembly
    def _build_plan(
        self,
        order: list[int],
        decisions: list[_Decision],
        preload_assignments: dict[int, PreloadAssignment],
    ) -> ExecutionPlan:
        schedules: list[OperatorSchedule] = []
        for i, profile in enumerate(self.profiles):
            decision = decisions[i]
            if decision.execute_option is None:
                raise SchedulingError(f"operator {profile.op.name!r} was never scheduled")
            if i in preload_assignments:
                preload_option = preload_assignments[i].option
            else:
                preload_option = self._default_preload_option(
                    profile, decision.execute_option
                )
            schedules.append(
                make_schedule(
                    index=i,
                    op_name=profile.op.name,
                    execute_option=decision.execute_option,
                    preload_option=preload_option,
                    hbm_bytes=profile.hbm_bytes,
                    hbm_time=profile.hbm_time,
                    preload_number=decision.preload_number,
                    op_type=profile.op.op_type,
                )
            )
        return ExecutionPlan(
            model_name=self.profiles[0].op.name.split(".")[0] if self.profiles else "",
            policy=self.options.policy_name,
            schedules=schedules,
            preload_order=tuple(order),
            sram_budget_bytes=self.allocator.sram_budget,
        )
