"""Sweep adapters: how one expanded point becomes one result row.

An adapter is the thin translation layer between a declarative point
configuration (plain JSON values from a :class:`~repro.sweep.spec.SweepSpec`)
and one of the repo's execution paths — the serving simulator, the cluster
fleet, the chaos harness, cold compile timing, or the compile grid behind
Figs. 17–24 and design-space exploration.  Adapters register by name in a
:class:`repro.registry.Registry`, so new sweep families plug in without
touching the runner:

>>> @register_adapter("my-study")
... class MyStudy(SweepAdapter):
...     description = "one row per point"
...     def run_point(self, config, ctx):
...         return {"value": config["x"] * config["seed"]}

:meth:`SweepAdapter.prefetch` may return :class:`CompileRequest`\\ s for
the whole grid; the runner batches them through ONE
``Session.compile_many`` fan-out (thread or process backend) before any
point runs, so every point then resolves its artifacts from the shared
caches.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import ClassVar, Mapping, Sequence

from repro.api.service import CompileRequest, Session
from repro.api.store import ArtifactStore
from repro.arch.chip import SystemConfig
from repro.cluster import (
    DisaggregationConfig,
    RetryPolicy,
    random_faults,
    simulate_cluster_scenario,
)
from repro.dse.explorer import DesignPoint
from repro.errors import ConfigurationError, ElkError
from repro.registry import Registry
from repro.serve.scenarios import make_serving_session, simulate_scenario
from repro.sweep.journal import config_digest


@dataclass
class RunContext:
    """Shared state one sweep run threads through every adapter call.

    Attributes:
        session: The sweep-wide compile session (store-backed when the run
            has a store); every point's compiles dedupe through it.
        backend: ``compile_many`` backend of the run (thread/process).
        compiled_shapes: Distinct compiled shapes observed across points —
            serving/cluster adapters record ``(policy, *shape)`` tuples so
            benches can assert "compiles + store hits == distinct shapes".
        cold_sessions: Extra sessions created by adapters that must compile
            cold (e.g. compile-time measurement); the runner folds their
            stats into the result.
    """

    session: Session
    backend: str
    compiled_shapes: set = field(default_factory=set)
    cold_sessions: list[Session] = field(default_factory=list)

    @property
    def store(self) -> ArtifactStore | None:
        """The run's artifact store (``None`` for a store-less run)."""
        return self.session.store


class SweepAdapter(abc.ABC):
    """One registered execution path for sweep points.

    Subclasses are instantiated fresh per run, so they may keep state on
    ``self``.
    """

    name: ClassVar[str] = ""
    description: ClassVar[str] = ""

    def build_session(self, store: ArtifactStore | None, backend: str) -> Session:
        """The sweep-wide session (default: serving-tuned search bounds)."""
        return make_serving_session(store=store, backend=backend)

    def prefetch(
        self, configs: Sequence[Mapping[str, object]], ctx: RunContext
    ) -> Sequence[CompileRequest]:
        """Compile requests to batch through ``compile_many`` before points run.

        A config whose request cannot even be built is skipped here — its
        error surfaces as that point's typed error row when
        :meth:`run_point` hits the same problem.
        """
        return ()

    @abc.abstractmethod
    def run_point(self, config: dict, ctx: RunContext) -> dict:
        """Execute one point; return its flat result row."""


_ADAPTERS: Registry[SweepAdapter] = Registry("sweep adapter", SweepAdapter)

register_adapter = _ADAPTERS.register
unregister_adapter = _ADAPTERS.unregister
get_adapter = _ADAPTERS.get
available_adapters = _ADAPTERS.available
adapter_descriptions = _ADAPTERS.descriptions


# --------------------------------------------------------------------------- #
# Shared config plumbing.
# --------------------------------------------------------------------------- #
def _scenario_system(config: Mapping[str, object]) -> SystemConfig | None:
    """The point's design-point system; ``None`` keeps the scenario default."""
    if config.get("system") is None:
        return None
    return DesignPoint.from_config(config).build_system()


def _experiment_config(config: Mapping[str, object]):
    """An :class:`~repro.eval.experiments.ExperimentConfig` from point keys."""
    from repro.eval.experiments import ExperimentConfig

    kwargs = {}
    for key in (
        "num_layers",
        "batch_size",
        "seq_len",
        "max_preload_ahead",
        "max_order_candidates",
    ):
        if key in config:
            kwargs[key] = config[key]
    return ExperimentConfig(**kwargs)


# --------------------------------------------------------------------------- #
# probe: deterministic arithmetic, for harness tests and CLI smoke runs.
# --------------------------------------------------------------------------- #
@register_adapter("probe")
class ProbeAdapter(SweepAdapter):
    """Deterministic no-compile adapter exercising the harness itself."""

    description = "pure-arithmetic rows (x*y + seed); harness/CI self-test"

    def build_session(self, store, backend):
        return Session(store=store, backend=backend)

    def run_point(self, config, ctx):
        x = config.get("x", 1)
        y = config.get("y", 1)
        if not isinstance(x, (int, float)) or not isinstance(y, (int, float)):
            raise ConfigurationError(f"probe needs numeric x/y, got {x!r}, {y!r}")
        return {
            "value": x * y + config["seed"],
            "config_digest": config_digest(config),
        }


# --------------------------------------------------------------------------- #
# compile-grid: (workload, policy, design point) grid through compile_many.
# --------------------------------------------------------------------------- #
@register_adapter("compile-grid")
class CompileGridAdapter(SweepAdapter):
    """Compile each point's workload on its design point; report its metrics.

    Config keys: the workload (``model`` (required), ``batch_size``,
    ``seq_len``, ``phase``, ``num_layers``, ``max_preload_ahead``,
    ``max_order_candidates``; absent ones take
    :class:`~repro.eval.ExperimentConfig`'s defaults), ``policy`` (default
    ``elk-full``), and the system: a preset name plus the
    :class:`~repro.dse.DesignPoint` overrides (see
    :meth:`~repro.dse.DesignPoint.from_config`).

    The whole grid is prefetched through one ``compile_many`` fan-out (the
    run's thread or process backend), so points only read cached artifacts.
    Rows carry the metrics persisted on the artifact (simulated for
    plan-bearing policies, see :func:`~repro.eval.evaluate_artifact`) —
    never wall times — which keeps same-seed rows bit-identical across
    backends and across cold/warm stores.
    """

    description = "workload x policy x design-point compile grid (Figs. 17-24, DSE)"

    def build_session(self, store, backend):
        return Session(store=store, backend=backend)

    def _request(self, config: Mapping[str, object]) -> CompileRequest:
        from repro.compiler.frontend import WorkloadSpec
        from repro.eval.experiments import make_request

        exp = _experiment_config(config)
        workload = WorkloadSpec(
            str(config["model"]),
            batch_size=int(exp.batch_size),
            seq_len=int(exp.seq_len),
            phase=str(config.get("phase", "decode")),
            num_layers=exp.num_layers,
        )
        system = DesignPoint.from_config(config).build_system()
        return make_request(workload, system, str(config.get("policy", "elk-full")), exp)

    def prefetch(self, configs, ctx):
        requests = []
        for config in configs:
            try:
                requests.append(self._request(config))
            except Exception:
                continue  # the point's own run records the typed error row
        return requests

    def run_point(self, config, ctx):
        from repro.eval.experiments import evaluate_artifact

        row = evaluate_artifact(ctx.session.compile(self._request(config)))
        row.pop("compile_seconds", None)  # wall time would break bit-identity
        return row


# --------------------------------------------------------------------------- #
# serving, cluster, chaos: one registered ServingScenario per point.
# --------------------------------------------------------------------------- #
def _simulate_point(adapter: str, config, ctx: RunContext, simulate, **overrides):
    """Run the point's scenario through ``simulate``; return (row, result).

    The row starts with the scenario and policy; the point's compiled
    shapes are recorded on ``ctx``.
    """
    scenario = config.get("scenario")
    if not isinstance(scenario, str):
        raise ConfigurationError(
            f"{adapter} points need a scenario name, got {scenario!r}"
        )
    policy = str(config.get("policy", "elk-full"))
    result = simulate(
        scenario,
        system=_scenario_system(config),
        policy=policy,
        num_requests=int(config.get("num_requests", 64)),
        seed=config["seed"],
        rate_scale=float(config.get("rate_scale", 1.0)),
        session=ctx.session,
        num_layers=config.get("num_layers", 1),
        prewarm=bool(config.get("prewarm", False)),
        **overrides,
    )
    ctx.compiled_shapes.update((policy, *shape) for shape in result.compiled_shapes)
    return {"scenario": scenario, "policy": policy}, result


@register_adapter("serving")
class ServingAdapter(SweepAdapter):
    """Run one serving scenario per point through the shared session.

    Config keys: ``scenario`` (required), ``policy``, ``num_requests``,
    ``rate_scale``, ``num_layers``, ``system`` (preset name), ``prewarm``
    (route the bucket grid through ``compile_many`` before serving).
    """

    description = "rate/policy serving studies via simulate_scenario"

    def run_point(self, config, ctx):
        row, result = _simulate_point(self.name, config, ctx, simulate_scenario)
        row["rate_scale"] = float(config.get("rate_scale", 1.0))
        row["iterations"] = result.num_iterations
        row.update(result.metrics().summary())
        return row


def _fleet_overrides(config: Mapping[str, object]) -> dict:
    """:class:`~repro.cluster.FleetConfig` overrides from a point's keys.

    The cluster and chaos adapters document the keys; absent ones keep the
    scenario's settings.
    """
    overrides: dict = {}
    if config.get("router") is not None:
        overrides["router"] = config["router"]
    if config.get("num_engines") is not None:
        overrides["num_engines"] = int(config["num_engines"])
    if "disaggregation" in config:
        pools = config["disaggregation"]
        overrides["disaggregation"] = (
            None if pools is None else DisaggregationConfig(**dict(pools))
        )
    if "crash_rate" in config:
        crash_rate = float(config["crash_rate"])
        overrides["faults"] = random_faults(
            float(config.get("fault_window", 0.25)),
            crash_rate=crash_rate,
            slowdown_rate=crash_rate * float(config.get("slowdown_fraction", 0.25)),
            seed=config["seed"],
            name=f"chaos@{crash_rate:g}",
        )
    retry = config.get("retry_policy")
    if retry is not None:
        if not isinstance(retry, Mapping):
            raise ConfigurationError(
                f"retry_policy must be a mapping of RetryPolicy fields, got {retry!r}"
            )
        fields = {k: v for k, v in retry.items() if k != "label"}
        overrides["retry_policy"] = RetryPolicy(**fields)
    return overrides


@register_adapter("cluster")
class ClusterAdapter(SweepAdapter):
    """Run one cluster scenario per point through the shared session.

    Config keys: ``scenario`` (required), ``policy``, ``num_requests``,
    ``rate_scale``, ``router``, ``num_engines`` (``null`` keeps the
    scenario's), ``disaggregation`` (a ``{"prefill_engines": N,
    "decode_engines": M}`` mapping, or explicit ``null`` to force the
    colocated baseline; absent keeps the scenario's default), ``variant``
    (label suffix for comparison rows), ``prewarm``, ``num_layers``,
    ``system``, and the chaos adapter's fault keys.
    """

    description = "fleet sweeps (router x engines x disaggregation) via simulate_cluster_scenario"

    def run_point(self, config, ctx):
        return self._fleet_row(config, ctx, _fleet_overrides(config))[0]

    def _fleet_row(self, config, ctx, overrides):
        row, result = _simulate_point(
            self.name, config, ctx, simulate_cluster_scenario, **overrides
        )
        variant = config.get("variant")
        if isinstance(variant, str):
            row["scenario"] = f"{row['scenario']}:{variant}"
        row["router"] = result.router
        row["num_engines"] = len(result.engines)
        row["iterations"] = result.num_iterations
        row.update(result.metrics().summary())
        row.update(result.counters())
        return row, result


@register_adapter("chaos")
class ChaosAdapter(ClusterAdapter):
    """Cluster points with a seeded fault schedule and retry policy per cell.

    Fault keys over the cluster adapter's: ``crash_rate`` (faults/s of
    the random schedule, seeded by the point's seed), ``fault_window``
    (seconds the schedule spans), ``slowdown_fraction`` (slowdown rate as a
    fraction of the crash rate), ``retry_policy`` (a mapping of
    :class:`~repro.cluster.RetryPolicy` fields, plus an optional ``label``
    used for the row).  Rows add the crash rate, the number of scheduled
    faults, and the availability metrics.  Request accounting must balance
    in every cell; an unbalanced cell raises — and therefore records a
    typed error row — instead of journaling bad rows.
    """

    description = "crash-rate x retry-policy chaos sweeps with seeded fault schedules"

    def run_point(self, config, ctx):
        overrides = _fleet_overrides(config)
        row, result = self._fleet_row(config, ctx, overrides)
        if not result.accounting_balanced:
            raise ElkError(
                f"request accounting unbalanced in chaos cell: {result.accounting()}"
            )
        if "crash_rate" in config:
            row["crash_rate"] = float(config["crash_rate"])
        row["scheduled_faults"] = len(overrides.get("faults") or ())
        row.update(result.availability.summary())
        return row


# --------------------------------------------------------------------------- #
# compile-time: cold compile measurement (fig16), store-backed across runs.
# --------------------------------------------------------------------------- #
@register_adapter("compile-time")
class CompileTimeAdapter(SweepAdapter):
    """Measure COLD compile time per point (the fig16 study).

    Deliberately bypasses the sweep-wide shared session: compile time must
    cover the full frontend + profile + scheduling work, so each point gets
    a fresh session — all of them backed by the run's shared store, which is
    what lets a warm run resolve every workload from disk (reporting the
    *recorded* cold ``compile_seconds``) with zero fresh compiles.
    """

    description = "cold compile-time grid (model x batch), store-backed warm runs"

    def build_session(self, store, backend):
        return Session(store=store, backend=backend)

    def run_point(self, config, ctx):
        from repro.eval.experiments import compile_time_report, make_session

        exp = _experiment_config(config)

        def cold_session() -> Session:
            session = make_session(exp, store=ctx.store)
            ctx.cold_sessions.append(session)
            return session

        rows = compile_time_report(
            models=[str(config["model"])],
            batch_sizes=[int(config["batch_size"])],
            config=exp,
            session_factory=cold_session,
        )
        return rows[0]
