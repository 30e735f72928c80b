"""Flow-level discrete-event simulation engine.

Jobs demand work from shared resources (HBM channels, interconnect, per-core
ports, SRAM ports, compute pipelines) and are linked by precedence edges.  At
every instant the engine splits each resource's capacity equally among the
active jobs that still need it; a job's progress rate is set by its bottleneck
resource, and the next event is the earliest job completion.  Contention
therefore emerges from overlapping jobs rather than being estimated with a
closed-form penalty, which is exactly what distinguishes the simulator from
the analytic timeline evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.sim.resources import Resource

#: Slack (in seconds and in progress fraction) under which a job counts as done.
TIME_STEP_EPSILON = 1e-12


@dataclass
class Job:
    """One unit of work in the simulation.

    Attributes:
        job_id: Unique identifier.
        demands: Total demand per resource name (bytes or FLOPs).
        predecessors: Job ids that must complete before this job starts.
        min_duration: Lower bound on the job's duration (fixed latencies).
        kind: Free-form label (``"preload"``, ``"execute"``, ...) for metrics.
        payload: Arbitrary metadata (e.g. operator index).
    """

    job_id: str
    demands: dict[str, float]
    predecessors: set[str] = field(default_factory=set)
    min_duration: float = 0.0
    kind: str = "job"
    payload: dict = field(default_factory=dict)

    # Filled by the engine.
    start_time: float = -1.0
    end_time: float = -1.0
    progress: float = 0.0

    def uncontended_duration(self, resources: dict[str, Resource]) -> float:
        """Duration with exclusive access to every resource it uses."""
        duration = self.min_duration
        for name, amount in self.demands.items():
            if amount <= 0:
                continue
            duration = max(duration, amount / resources[name].capacity)
        return duration


class FluidSimulator:
    """Runs a set of jobs over shared resources until all complete.

    Args:
        resources: Resource table (name -> :class:`Resource`).
    """

    def __init__(self, resources: dict[str, Resource]) -> None:
        self.resources = dict(resources)
        self.jobs: dict[str, Job] = {}

    def add_job(self, job: Job) -> Job:
        """Register a job (ids must be unique; predecessors may be forward refs)."""
        if job.job_id in self.jobs:
            raise SimulationError(f"duplicate job id {job.job_id!r}")
        for name in job.demands:
            if name not in self.resources:
                raise SimulationError(f"job {job.job_id!r} uses unknown resource {name!r}")
        self.jobs[job.job_id] = job
        return job

    # ----------------------------------------------------------------- running
    def run(self) -> float:
        """Simulate until every job completes and return the makespan."""
        for job in self.jobs.values():
            for pred in job.predecessors:
                if pred not in self.jobs:
                    raise SimulationError(
                        f"job {job.job_id!r} depends on unknown job {pred!r}"
                    )

        # Insertion-ordered dicts, not sets: the loops below accumulate float
        # resource counters, and set order would tie their last bits to the
        # interpreter's string-hash seed.
        pending = dict.fromkeys(self.jobs)
        completed: set[str] = set()
        active: dict[str, None] = {}
        now = 0.0

        def activate_ready() -> None:
            for job_id in list(pending):
                job = self.jobs[job_id]
                if job.predecessors <= completed:
                    del pending[job_id]
                    active[job_id] = None
                    job.start_time = now

        activate_ready()
        if not active and pending:
            raise SimulationError("no job is ready to start; dependency cycle?")

        max_iterations = 20 * len(self.jobs) + 100
        iterations = 0
        while active or pending:
            iterations += 1
            if iterations > max_iterations:
                raise SimulationError("simulation did not converge (possible deadlock)")
            if not active:
                raise SimulationError("deadlock: pending jobs but none active")

            # Per-resource fair shares.
            users: dict[str, int] = {}
            for job_id in active:
                for name, amount in self.jobs[job_id].demands.items():
                    remaining = amount * (1.0 - self.jobs[job_id].progress)
                    if remaining > 0:
                        users[name] = users.get(name, 0) + 1

            # Per-job completion-time candidates under current rates.
            finish_times: list[tuple[float, str]] = []
            rates: dict[str, float] = {}
            for job_id in active:
                job = self.jobs[job_id]
                rate = float("inf")
                for name, amount in job.demands.items():
                    remaining = amount * (1.0 - job.progress)
                    if remaining <= 0:
                        continue
                    share = self.resources[name].capacity / users[name]
                    rate = min(rate, share / remaining)
                rates[job_id] = rate
                if rate == float("inf"):
                    work_done_at = now
                else:
                    work_done_at = now + 1.0 / rate
                finish_times.append((max(work_done_at, job.start_time + job.min_duration), job_id))

            next_time, _ = min(finish_times)
            next_time = max(next_time, now)
            dt = next_time - now

            # Advance progress and resource accounting.
            for job_id in active:
                job = self.jobs[job_id]
                rate = rates[job_id]
                if rate == float("inf"):
                    delta = 1.0 - job.progress
                else:
                    delta = min(1.0 - job.progress, rate * dt)
                if delta > 0:
                    for name, amount in job.demands.items():
                        self.resources[name].served += amount * delta
                    job.progress += delta
            for name, count in users.items():
                if count > 0 and dt > 0:
                    self.resources[name].busy_time += dt

            now = next_time

            # Complete jobs whose work is done and min duration elapsed.
            newly_done = []
            for job_id in list(active):
                job = self.jobs[job_id]
                if job.progress >= 1.0 - TIME_STEP_EPSILON and now >= job.start_time + job.min_duration - TIME_STEP_EPSILON:
                    job.progress = 1.0
                    job.end_time = now
                    newly_done.append(job_id)
            if not newly_done and dt <= TIME_STEP_EPSILON:
                # Force completion of the job chosen by the event to avoid stalling.
                _, forced = min(finish_times)
                job = self.jobs[forced]
                job.progress = 1.0
                job.end_time = now
                newly_done.append(forced)
            for job_id in newly_done:
                del active[job_id]
                completed.add(job_id)
            activate_ready()

        return now

    # ----------------------------------------------------------------- metrics
    def busy_intervals(self, kinds: set[str]) -> list[tuple[float, float]]:
        """Merged busy intervals of all jobs whose kind is in ``kinds``."""
        intervals = sorted(
            (job.start_time, job.end_time)
            for job in self.jobs.values()
            if job.kind in kinds and job.end_time > job.start_time
        )
        merged: list[tuple[float, float]] = []
        for start, end in intervals:
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        return merged
