"""Experiment runners for the paper's tables and non-grid figures.

Each function reproduces the data behind one artifact (Table 2, Figs. 5-8,
12, 16) and returns plain result rows (``list[dict]``) that the benchmark
harness prints and persists.  The default configurations are *scaled*: a
representative number of identical transformer layers and a bounded search,
so a full figure regenerates in seconds-to-minutes on a laptop while
preserving the relative behaviour of the designs (who wins, by how much,
and where the crossovers are).

The compile grids of Figs. 17-24 and the design-space study are not
runners: they are :class:`~repro.sweep.SweepSpec` grids over the
``compile-grid`` sweep adapter, whose rows come from
:func:`evaluate_artifact`.

Every runner compiles through a :class:`repro.api.Session`, so frontend
results and per-operator profiles are shared across the grid points of a
study; pass your own ``session=`` to share those caches across runners (the
benchmark harness does).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.api import CompileArtifact, CompileRequest, Session
from repro.arch.chip import SystemConfig
from repro.arch.presets import ipu_pod4
from repro.baselines.static import StaticCompiler, StaticOptions
from repro.compiler.frontend import WorkloadSpec
from repro.cost.fitted import FittedCostModel
from repro.errors import ElkError
from repro.eval.traces import hbm_demand_trace, intercore_demand_trace
from repro.ir.models.registry import PAPER_LLM_NAMES, get_config
from repro.partition.enumerate import enumerate_execute_plans
from repro.partition.pareto import frontier_from_plans
from repro.scheduler.elk import ElkOptions
from repro.scheduler.preload_order import OrderSearchConfig
from repro.scheduler.timeline import TimelineEvaluator
from repro.units import KiB


@dataclass
class ExperimentConfig:
    """Shared knobs of the experiment runners.

    Attributes:
        num_layers: Transformer layers compiled per model (scaled runs).
        batch_size: Default batch size.
        seq_len: Default sequence length.
        max_preload_ahead: Cap on the preload number.
        max_order_candidates: Cap on evaluated preload orders for Elk-Full.
    """

    num_layers: int = 2
    batch_size: int = 32
    seq_len: int = 2048
    max_preload_ahead: int | None = 12
    max_order_candidates: int = 24

    def elk_options(self) -> ElkOptions:
        """Elk options derived from this configuration."""
        return ElkOptions(
            max_preload_ahead=self.max_preload_ahead,
            order_search=OrderSearchConfig(max_candidates=self.max_order_candidates),
        )


DEFAULT_CONFIG = ExperimentConfig()


def make_session(config: ExperimentConfig, **session_kwargs) -> Session:
    """A compile session whose defaults come from an experiment config."""
    return Session(elk_options=config.elk_options(), **session_kwargs)


def make_request(
    workload: WorkloadSpec, system: SystemConfig, policy: str, config: ExperimentConfig
) -> CompileRequest:
    """A request pinning the config's Elk options explicitly.

    Runners accept externally-built sessions; carrying the options on the
    request (rather than relying on the session's defaults) keeps every row
    consistent with the config it is labeled with, whatever session compiles
    it.
    """
    return CompileRequest(workload, system, policy, elk_options=config.elk_options())


# --------------------------------------------------------------------------- #
# Core helper: evaluate one compiled artifact into a flat result row.
# --------------------------------------------------------------------------- #
def evaluate_artifact(artifact: CompileArtifact) -> dict[str, object]:
    """Turn one compile artifact into a flat result row.

    Plan-bearing artifacts report the event-driven simulation persisted on
    the artifact (:attr:`CompileArtifact.simulation`) plus the analytic
    latency as ``analytic_latency_ms``; plan-less ones (the ``ideal``
    roofline) report the analytic numbers.  A fresh compile, a store hit,
    and a process-backend artifact give the same row.
    """
    row: dict[str, object] = {
        "model": artifact.model,
        "batch_size": artifact.batch_size,
        "seq_len": artifact.seq_len,
        "policy": artifact.policy,
        "compile_seconds": round(artifact.compile_seconds, 3),
    }
    sim = artifact.simulation
    if sim is None:
        row.update(
            {
                "latency_ms": artifact.latency * 1e3,
                "hbm_utilization": artifact.hbm_utilization,
                "noc_utilization": artifact.noc_utilization,
                "achieved_tflops": artifact.achieved_tflops,
                **{f"breakdown_{k}_ms": v * 1e3 for k, v in artifact.breakdown.items()},
            }
        )
        return row

    row.update(
        {
            "latency_ms": sim.total_time * 1e3,
            "hbm_utilization": sim.hbm_utilization,
            "noc_utilization": sim.noc_utilization,
            "noc_preload_fraction": sim.noc_preload_fraction,
            "achieved_tflops": sim.achieved_tflops,
            **{f"breakdown_{k}_ms": v * 1e3 for k, v in sim.breakdown.items()},
            "analytic_latency_ms": artifact.latency * 1e3,
        }
    )
    return row


# --------------------------------------------------------------------------- #
# Figure 5: execution time vs execution space for representative operators.
# --------------------------------------------------------------------------- #
def execution_space_profile(
    models: Sequence[str] = ("llama2-13b", "gemma2-27b", "opt-30b"),
    labels: Sequence[str] = ("Attention_QKV", "Attention_Head", "Layer_Norm", "Output_FFN"),
    config: ExperimentConfig = DEFAULT_CONFIG,
    session: Session | None = None,
) -> list[dict[str, object]]:
    """Pareto points (execution space, execution time) of representative operators."""
    system = ipu_pod4()
    session = session or make_session(config)
    chip = system.chip
    rows: list[dict[str, object]] = []
    for model in models:
        workload = WorkloadSpec(
            model, batch_size=config.batch_size, seq_len=config.seq_len, num_layers=1
        )
        graph = session.frontend(workload, system).per_chip_graph
        cost_model = session.cost_model(chip)
        seen_labels: set[str] = set()
        for op in graph:
            if op.label not in labels or op.label in seen_labels:
                continue
            seen_labels.add(op.label)
            plans = enumerate_execute_plans(op, chip)
            frontier = frontier_from_plans(
                plans,
                memory_of=lambda p: p.exec_space_bytes,
                time_of=lambda p: cost_model.execution_cost(op, p).total_time,
            )
            for point in frontier:
                rows.append(
                    {
                        "model": model,
                        "operator": op.label,
                        "op_name": op.name,
                        "exec_space_KB": point.memory_bytes / KiB,
                        "exec_time_us": point.time_seconds * 1e6,
                    }
                )
    return rows


# --------------------------------------------------------------------------- #
# Figure 6: HBM bandwidth demand vs per-core preload space.
# --------------------------------------------------------------------------- #
def preload_space_hbm_demand(
    models: Sequence[str] = ("llama2-13b", "gemma2-27b", "opt-30b"),
    preload_space_kib: Sequence[int] = (128, 256, 384),
    config: ExperimentConfig = DEFAULT_CONFIG,
    session: Session | None = None,
) -> list[dict[str, object]]:
    """HBM bandwidth demand statistics for different fixed preload spaces."""
    system = ipu_pod4()
    session = session or make_session(config)
    chip = system.chip
    rows: list[dict[str, object]] = []
    for model in models:
        workload = WorkloadSpec(
            model,
            batch_size=config.batch_size,
            seq_len=config.seq_len,
            num_layers=config.num_layers,
        )
        frontend = session.frontend(workload, system)
        profiles = session.profiles(workload, system)
        evaluator = TimelineEvaluator(
            chip, total_flops=frontend.per_chip_graph.total_flops
        )
        budget = chip.per_core_usable_sram
        for space_kib in preload_space_kib:
            fraction = min(0.9, (space_kib * KiB) / budget)
            static = StaticCompiler(
                profiles,
                session.cost_model(chip),
                chip,
                total_flops=frontend.per_chip_graph.total_flops,
                options=StaticOptions(preload_fractions=(fraction,)),
            )
            plan, _ = static.plan(model_name=model)
            timeline = evaluator.evaluate(plan)
            trace = hbm_demand_trace(timeline, label=f"{space_kib}KB")
            rows.append(
                {
                    "model": model,
                    "preload_space_KB": space_kib,
                    "mean_demand_TBps": trace.mean / 1e12,
                    "peak_demand_TBps": trace.peak / 1e12,
                    "demand_cv": trace.coefficient_of_variation,
                    "latency_ms": timeline.total_time * 1e3,
                }
            )
    return rows


# --------------------------------------------------------------------------- #
# Figures 7/8: inter-core bandwidth demand, MinPreload vs MaxPreload.
# --------------------------------------------------------------------------- #
def min_max_preload_demand(
    models: Sequence[str] = ("llama2-13b", "gemma2-27b", "opt-30b"),
    config: ExperimentConfig = DEFAULT_CONFIG,
    session: Session | None = None,
) -> list[dict[str, object]]:
    """Inter-core and total NoC demand for MinPreload vs MaxPreload plans."""
    system = ipu_pod4()
    session = session or make_session(config)
    chip = system.chip
    rows: list[dict[str, object]] = []
    for model in models:
        workload = WorkloadSpec(
            model,
            batch_size=config.batch_size,
            seq_len=config.seq_len,
            num_layers=config.num_layers,
        )
        frontend = session.frontend(workload, system)
        evaluator = TimelineEvaluator(
            chip, total_flops=frontend.per_chip_graph.total_flops
        )
        for mode, use_max in (("MinPreload", False), ("MaxPreload", True)):
            static = StaticCompiler(
                session.profiles(workload, system),
                session.cost_model(chip),
                chip,
                total_flops=frontend.per_chip_graph.total_flops,
                options=StaticOptions(preload_fractions=(0.5,)),
            )
            plan = static._build_plan(0.5, use_max, model)
            timeline = evaluator.evaluate(plan)
            intercore = intercore_demand_trace(timeline, label=mode, include_preload=False)
            total = intercore_demand_trace(timeline, label=mode, include_preload=True)
            rows.append(
                {
                    "model": model,
                    "mode": mode,
                    "intercore_mean_GBps": intercore.mean / 1e9,
                    "intercore_peak_GBps": intercore.peak / 1e9,
                    "total_mean_GBps": total.mean / 1e9,
                    "total_peak_GBps": total.peak / 1e9,
                    "total_cv": total.coefficient_of_variation,
                }
            )
    return rows


# --------------------------------------------------------------------------- #
# Figure 12: cost-model accuracy.
# --------------------------------------------------------------------------- #
def make_fitted_session(
    fit_samples_per_op: int = 200, seed: int = 7, **session_kwargs
) -> Session:
    """A session whose cost models are fitted (linear-tree) models.

    Routing the fitted models through :meth:`Session.cost_model` caches one
    fitted model per distinct chip, so accuracy reports and any compilation
    sharing the session fit each chip once.
    """
    return Session(
        cost_model_factory=lambda chip: FittedCostModel(
            chip, samples_per_op=fit_samples_per_op, seed=seed
        ),
        **session_kwargs,
    )


def cost_model_accuracy(
    samples_per_op: int = 120, seed: int = 7, session: Session | None = None
) -> list[dict[str, object]]:
    """Predicted-vs-measured accuracy of the fitted linear-tree cost model.

    Args:
        samples_per_op: Held-out measurement samples per operator target.
        seed: Seed for both fitting and measurement sampling.
        session: Session supplying the fitted cost model via its
            ``cost_model_factory`` (default: a fresh
            :func:`make_fitted_session`).  Sessions whose factory does not
            produce fitted models are rejected.
    """
    chip = ipu_pod4().chip
    session = session or make_fitted_session(seed=seed)
    fitted = session.cost_model(chip)
    if not isinstance(fitted, FittedCostModel):
        raise ElkError(
            "cost_model_accuracy needs a session built by make_fitted_session "
            f"(got a {type(fitted).__name__} from the session factory)"
        )
    rows = []
    for report in fitted.accuracy_reports(samples_per_op=samples_per_op, seed=seed + 1):
        rows.append(
            {
                "target": report.name,
                "samples": len(report.measured),
                "mape_percent": report.mean_absolute_percentage_error,
                "r_squared": report.r_squared,
            }
        )
    return rows


# --------------------------------------------------------------------------- #
# Figure 16: compile time vs model / batch size.
# --------------------------------------------------------------------------- #
def compile_time_report(
    models: Sequence[str] = PAPER_LLM_NAMES,
    batch_sizes: Sequence[int] = (2, 8, 32, 64),
    config: ExperimentConfig = DEFAULT_CONFIG,
    session_factory: Callable[[], Session] | None = None,
) -> list[dict[str, object]]:
    """Elk-Full compile time for varied models and batch sizes.

    Unlike the other runners this one does *not* accept a shared session:
    the measured quantity is COLD compile time, so ``session_factory`` is
    invoked per workload (default: ``make_session(config)``) and the
    artifact's ``compile_seconds`` covers the full frontend + profile +
    scheduling work.  Factories returning a shared or pre-warmed session
    would report cache-hit times and are the caller's responsibility to
    avoid.
    """
    system = ipu_pod4()
    if session_factory is None:
        session_factory = lambda: make_session(config)  # noqa: E731
    rows: list[dict[str, object]] = []
    for model in models:
        for batch in batch_sizes:
            workload = WorkloadSpec(
                model, batch_size=batch, seq_len=config.seq_len, num_layers=config.num_layers
            )
            artifact = session_factory().compile(
                make_request(workload, system, "elk-full", config)
            )
            elapsed = artifact.compile_seconds
            layers = get_config(model).num_layers if not model.startswith("tiny") else config.num_layers
            scale = layers / max(1, config.num_layers)
            rows.append(
                {
                    "model": model,
                    "batch_size": batch,
                    "layers_compiled": config.num_layers,
                    "compile_seconds": elapsed,
                    "projected_full_model_seconds": elapsed * scale,
                    "orders_evaluated": artifact.search_stats["num_candidate_orders"]
                    if artifact.search_stats
                    else 1,
                }
            )
    return rows


# --------------------------------------------------------------------------- #
# Table 2: model / search-space statistics.
# --------------------------------------------------------------------------- #
def model_stats_table(
    models: Sequence[str] = PAPER_LLM_NAMES + ("dit-xl",),
    config: ExperimentConfig = DEFAULT_CONFIG,
    session: Session | None = None,
) -> list[dict[str, object]]:
    """The C / H / P / K / N factors of Table 2 for every evaluation model."""
    system = ipu_pod4()
    session = session or make_session(config)
    rows: list[dict[str, object]] = []
    for model in models:
        is_dit = model.startswith("dit") or model.startswith("tiny-dit")
        workload = WorkloadSpec(
            model,
            batch_size=config.batch_size if not is_dit else 8,
            seq_len=config.seq_len,
            num_layers=config.num_layers,
        )
        stats = (
            session.compile(make_request(workload, system, "elk-full", config)).search_stats
            or {}
        )
        model_config = get_config(model)
        full_layers = model_config.num_layers
        ops_per_layer = (
            len(session.frontend(workload, system).per_chip_graph)
            / max(1, config.num_layers)
        )
        rows.append(
            {
                "model": model,
                "C_heavy_on_chip": stats.get("max_heavy_on_chip", 0),
                "H_heavy_per_layer": stats.get("heavy_per_layer", 0),
                "P_max_plans": stats.get("max_plans_per_operator", 0),
                "K_ops_on_chip": stats.get("max_operators_on_chip", 0),
                "N_total_ops_full_model": int(ops_per_layer * full_layers),
                "N_ops_compiled": stats.get("num_operators", 0),
            }
        )
    return rows
