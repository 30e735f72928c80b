"""Persistent compilation artifacts.

A :class:`CompileArtifact` is the one record of one compilation: the metrics
every report consumes (latency, utilizations, breakdown, compile time, the
plan's simulation) plus enough identity (workload, system, policy) to key a
cache or a result table.  :meth:`CompileArtifact.from_output` derives all of
them from a policy's :class:`~repro.compiler.registry.PolicyOutput`.  The
record is JSON-(de)serializable, so results persist across runs; the
in-memory references to the policy output, frontend, and system ride along
but are dropped on serialization.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import TYPE_CHECKING, Sequence

from repro.errors import ConfigurationError
from repro.jsonfile import check_schema, read_json, write_json
from repro.sim.multichip import simulate_system

if TYPE_CHECKING:
    from repro.arch.chip import SystemConfig
    from repro.compiler.frontend import FrontendResult
    from repro.compiler.pipeline import ModelCompiler
    from repro.compiler.registry import PolicyOutput

#: Bumped whenever the serialized artifact layout changes incompatibly.
ARTIFACT_SCHEMA_VERSION = 2


@dataclass
class SimulatedMetrics:
    """The :func:`~repro.sim.multichip.simulate_system` result of a plan.

    ``total_time`` is the simulated per-step latency in seconds; the other
    fields mean what they do on :class:`CompileArtifact`.
    """

    total_time: float
    hbm_utilization: float
    noc_utilization: float
    noc_preload_fraction: float
    achieved_tflops: float
    breakdown: dict[str, float]


@dataclass
class CompileArtifact:
    """Serializable outcome of compiling one workload/system/policy triple.

    Attributes:
        model: Canonical model name.
        batch_size: Batch size of the workload.
        seq_len: Sequence length of the workload.
        phase: Workload phase (``"decode"``, ``"prefill"``, ...).
        num_layers: Layer-count override of the workload, if any.
        system_name: Name of the target system.
        policy: Compiler policy used.
        latency: End-to-end per-step latency, seconds.
        interchip_time: Per-step inter-chip all-reduce time, seconds.
        breakdown: Fig. 18a-style latency categories, seconds.
        hbm_utilization: Average HBM bandwidth utilization.
        noc_utilization: Average interconnect utilization.
        noc_preload_fraction: Fraction of NoC traffic due to preload delivery.
        achieved_tflops: System-wide achieved TFLOP/s.
        compile_seconds: Wall-clock time of the compilation, including any
            shared-artifact (frontend / profile) builds it triggered.
        plan_summary: Headline plan statistics (``None`` for rooflines).
        search_stats: Search-space statistics as a dict (Elk policies only).
        simulation: Event-driven simulation of the plan (``None`` for
            plan-less artifacts such as the ``ideal`` roofline).
        schema_version: Serialization schema version.
        result: In-memory :class:`~repro.compiler.registry.PolicyOutput`
            (plan, timeline, roofline, search stats; not serialized).
        frontend: In-memory :class:`FrontendResult` (not serialized).
        system: In-memory :class:`SystemConfig` (not serialized).
    """

    model: str
    batch_size: int
    seq_len: int
    phase: str
    num_layers: int | None
    system_name: str
    policy: str
    latency: float
    interchip_time: float
    breakdown: dict[str, float]
    hbm_utilization: float
    noc_utilization: float
    noc_preload_fraction: float
    achieved_tflops: float
    compile_seconds: float
    plan_summary: dict[str, object] | None = None
    search_stats: dict[str, int] | None = None
    simulation: SimulatedMetrics | None = None
    schema_version: int = ARTIFACT_SCHEMA_VERSION
    result: "PolicyOutput | None" = field(default=None, repr=False, compare=False)
    frontend: "FrontendResult | None" = field(default=None, repr=False, compare=False)
    system: "SystemConfig | None" = field(default=None, repr=False, compare=False)

    #: Fields that exist only in memory and are excluded from serialization.
    _RUNTIME_FIELDS = ("result", "frontend", "system")

    # ----------------------------------------------------------- construction
    @classmethod
    def from_output(
        cls,
        output: "PolicyOutput",
        compiler: "ModelCompiler",
        policy: str,
        compile_seconds: float,
    ) -> "CompileArtifact":
        """Derive every metric of one policy's output; the only place that does.

        The estimate is the output's analytic timeline, or its roofline for
        plan-less policies; the latency adds the system's inter-chip
        all-reduce time to it.  A plan is simulated here, once, and the
        simulation persists with the rest of the artifact.

        Args:
            output: What the policy returned from :meth:`ModelCompiler.compile`.
            compiler: The compiler the policy planned in (workload, system,
                frontend).
            policy: Registered name of the policy.
            compile_seconds: Wall-clock compile time, including any shared
                frontend/profile builds it triggered.
        """
        workload, system, frontend = (
            compiler.workload, compiler.system, compiler.frontend
        )
        interchip = system.interchip_time(frontend.interchip_bytes_per_step)
        if output.timeline is not None:
            estimate = output.timeline
            noc_utilization = estimate.noc_utilization
            noc_preload_fraction = estimate.noc_preload_fraction
        else:
            estimate = output.ideal
            noc_utilization = noc_preload_fraction = 0.0
        latency = estimate.total_time + interchip
        plan = output.plan
        simulation = None
        if plan is not None:
            sim = simulate_system(
                plan,
                system,
                frontend.per_chip_graph.total_flops,
                frontend.full_graph_flops,
                frontend.interchip_bytes_per_step,
            )
            chip = sim.chip_result
            simulation = SimulatedMetrics(
                sim.total_time,
                chip.hbm_utilization,
                chip.noc_utilization,
                chip.noc_preload_fraction,
                sim.achieved_tflops,
                sim.breakdown(),
            )
        return cls(
            model=workload.model_name,
            batch_size=workload.batch_size,
            seq_len=workload.seq_len,
            phase=workload.phase,
            num_layers=workload.num_layers,
            system_name=system.name,
            policy=policy,
            latency=latency,
            interchip_time=interchip,
            breakdown=estimate.breakdown(),
            hbm_utilization=estimate.hbm_utilization,
            noc_utilization=noc_utilization,
            noc_preload_fraction=noc_preload_fraction,
            achieved_tflops=(
                frontend.full_graph_flops / latency / 1e12 if latency > 0 else 0.0
            ),
            compile_seconds=compile_seconds,
            plan_summary=dict(plan.summary()) if plan is not None else None,
            search_stats=asdict(output.search_stats) if output.search_stats else None,
            simulation=simulation,
            result=output,
            frontend=frontend,
            system=system,
        )

    # ---------------------------------------------------------- serialization
    def to_dict(self) -> dict[str, object]:
        """Serializable dictionary (runtime references dropped)."""
        data = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in self._RUNTIME_FIELDS
        }
        data["breakdown"] = dict(self.breakdown)
        if self.plan_summary is not None:
            data["plan_summary"] = dict(self.plan_summary)
        if self.search_stats is not None:
            data["search_stats"] = dict(self.search_stats)
        if self.simulation is not None:
            data["simulation"] = asdict(self.simulation)
        return data

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "CompileArtifact":
        """Rebuild an artifact from :meth:`to_dict` output."""
        check_schema(data, ARTIFACT_SCHEMA_VERSION, "artifact")
        known = {f.name for f in fields(cls)} - set(cls._RUNTIME_FIELDS)
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown artifact fields {sorted(unknown)}; corrupt file?"
            )
        try:
            artifact = cls(**data)
            if artifact.simulation is not None:
                artifact.simulation = SimulatedMetrics(**artifact.simulation)
            return artifact
        except TypeError as error:
            raise ConfigurationError(
                f"incomplete artifact record: {error}"
            ) from None


def save_artifacts(artifacts: Sequence[CompileArtifact], path: str) -> str:
    """Persist a batch of artifacts (one sweep) as a JSON file.

    Returns the path written, creating parent directories as needed.
    """
    payload = {
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        "artifacts": [artifact.to_dict() for artifact in artifacts],
    }
    # Unsorted, like the store: loaded breakdowns keep the compile's order.
    return write_json(path, payload, indent=2)


def load_artifacts(path: str) -> list[CompileArtifact]:
    """Load a batch of artifacts saved by :func:`save_artifacts`.

    A missing, malformed or corrupt file, or one stamped with a foreign
    ``schema_version``, raises :class:`ConfigurationError`.
    """
    payload = read_json(path, "artifact batch")
    check_schema(payload, ARTIFACT_SCHEMA_VERSION, "artifact batch")
    if not isinstance(payload.get("artifacts"), list):
        raise ConfigurationError(f"{path} is not an artifact batch file")
    return [CompileArtifact.from_dict(entry) for entry in payload["artifacts"]]
