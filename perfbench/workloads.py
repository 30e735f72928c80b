"""The benchmark's three workloads and the two runs made of them.

Each workload owns its inputs (generated here from the workload seed; the
program receives only the generated requests and traces), a set-up step,
one timed repeat, a warm-store resolution of the plans it compiled, and one
traced repeat.  Every repeat checks the program's outputs and records the
operations it covered in a :class:`~harness.Tally`.

:func:`measure` is the timed run (``--trace 0``): end-to-end metrics with
tracing and profiling off.  :func:`profile` is the separate profiled run
(``--trace 1``): cProfile self time by ``repro`` subpackage plus
benchmark-side spans around the public calls into each layer.
"""

from __future__ import annotations

import cProfile
import dataclasses
import math
import os
import random
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro import (
    ArtifactStore,
    CompileRequest,
    ElkError,
    ElkOptions,
    Session,
    Tracer,
    WorkloadSpec,
    get_scenario,
    ipu_pod4,
    make_serving_session,
    simulate_cluster_scenario,
    simulate_scenario,
    simulate_system,
    to_chrome_trace,
    to_jsonl,
)
from repro.codegen import generate_device_program
from repro.ir.models.registry import PAPER_LLM_NAMES
from repro.scheduler.preload_order import OrderSearchConfig

from harness import (
    LAYERS,
    ReferenceClock,
    Samples,
    SpanRecorder,
    Tally,
    call_count,
    peak_rss_mb,
    self_seconds_by_layer,
    timed,
)

#: Compiler policies of the paper's Fig. 16/17 comparison.
POLICIES = ("basic", "static", "elk-dyn", "elk-full", "ideal")

#: The figure benchmarks' scheduler bounds (``benchmarks/_common.py``).
PAPER_ELK = ElkOptions(
    max_preload_ahead=12, order_search=OrderSearchConfig(max_candidates=16)
)


@dataclass(frozen=True)
class Size:
    """Input sizes and repeat counts of one benchmark size."""

    paper_models: tuple[str, ...]
    paper_batch: int
    paper_seq_len: int
    paper_layers: int
    requests: int  # serving and fleet trace length
    setups: int  # set-ups per run; setup_s is their median
    min_repeats: int  # timed repeats even if --seconds runs out first


SIZES = {
    "full": Size(PAPER_LLM_NAMES, 32, 2048, 2, 4096, 3, 4),
    # Same code paths in seconds, for the self-test.
    "tiny": Size(("tiny-llm",), 4, 256, 1, 64, 2, 2),
}


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def signature(artifact) -> dict[str, Any]:
    """An artifact's serialized form minus its wall-clock compile time."""
    data = artifact.to_dict()
    del data["compile_seconds"]
    return data


class TimedStore(ArtifactStore):
    """An :class:`ArtifactStore` whose reads and writes are recorded as spans."""

    def __init__(self, root: str, recorder: SpanRecorder) -> None:
        super().__init__(root)
        self.recorder = recorder

    def get(self, digest):
        with self.recorder.span("api.store_get") as attrs:
            artifact = super().get(digest)
            attrs["hit"] = artifact is not None
        return artifact

    def put(self, digest, artifact):
        with self.recorder.span("api.store_put"):
            return super().put(digest, artifact)


class Workload:
    """Inputs, checks, and repeatable steps of one benchmark workload.

    Attributes:
        name: Workload name, as ``--workload`` takes it.
        ops: Operations in one timed repeat, the base of ``host_us_per_op``:
            compile requests (compile-paper) or engine iterations of the
            replay (serving workloads; known after the first set-up).
        requests: The plan set — the compile requests this workload's
            repeats depend on — known after the first set-up.
    """

    name = ""

    def __init__(self, seed: int, size: Size, workdir: str, tally: Tally) -> None:
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.tally = tally
        self.ops = 0
        self.requests: list[CompileRequest] = []
        self.store_dir = ""
        self.session: Session | None = None
        self._stores = 0

    def fresh_store_dir(self) -> str:
        self._stores += 1
        path = os.path.join(self.workdir, f"store-{self._stores}")
        os.makedirs(path)
        return path

    def make_session(self, store: ArtifactStore | None = None, **kwargs) -> Session:
        """A fresh session configured like the workload's own."""
        raise NotImplementedError

    # Steps; each checks its outputs into the tally.
    def setup(self) -> None:
        raise NotImplementedError

    def repeat(self) -> Any:
        raise NotImplementedError

    def traced(self, tracer: Tracer) -> None:
        raise NotImplementedError

    def resolve_warm(self) -> None:
        """Resolve the plan set through a fresh session from the populated store.

        Each store-resolved artifact must equal its cold twin, the one the
        session that filled the store compiled.
        """
        session = self.make_session(ArtifactStore(self.store_dir))
        problems = []
        for request in self.requests:
            warm, cold = session.compile(request), self.session.compile(request)
            if signature(warm) != signature(cold):
                problems.append(
                    f"{cold.model}/{cold.policy}: warm-store artifact differs "
                    "from its cold twin"
                )
        if session.stats.compiles or session.stats.store_hits != len(self.requests):
            problems.append(f"warm resolve: {session.stats.snapshot()}")
        self.tally.record(len(self.requests), problems)

    def roofline_fraction(self) -> float:
        """Geomean over the plan set of ideal latency / elk-full latency."""
        session = self.session
        ratios = []
        for request in self.requests:
            if request.policy != "elk-full":
                continue
            ideal = dataclasses.replace(request, policy="ideal")
            ratios.append(
                session.compile(ideal).latency / session.compile(request).latency
            )
        return geomean(ratios)

    def serving_metrics(self, samples: Samples, result, prof, untraced_s: float) -> None:
        """Per-layer serve/cluster numbers of a profiled repeat (zero if none)."""
        for name, unit in SERVING_LAYER_METRICS:
            samples.add(name, 0.0, unit)

    def defect_metrics(self, samples: Samples) -> None:
        samples.add("api.warm_store_tpot_drift", 0.0, "ratio")
        samples.add("serve.prewarm_failures", 0, "count")


SERVING_LAYER_METRICS = (
    ("serve.iterations", "count"),
    ("serve.us_per_request", "us"),
    ("serve.latency_lookups", "count"),
    ("serve.latency_hit_ratio", "ratio"),
    ("serve.ttft_p50_ms", "ms"),
    ("serve.ttft_p99_ms", "ms"),
    ("serve.tpot_p50_ms", "ms"),
    ("serve.tpot_p99_ms", "ms"),
    ("serve.goodput_fraction", "ratio"),
    ("cluster.retries", "count"),
    ("cluster.requeues", "count"),
    ("cluster.crashes", "count"),
    ("cluster.fallback_serves", "count"),
)


# --------------------------------------------------------------------------- #
# compile-paper
# --------------------------------------------------------------------------- #
class CompilePaper(Workload):
    """Cold compiles of the paper LLMs under every policy, then warm resolves.

    The seed permutes the order the requests are compiled in, which must not
    change any artifact.
    """

    name = "compile-paper"

    def __init__(self, seed, size, workdir, tally):
        super().__init__(seed, size, workdir, tally)
        system = ipu_pod4()
        self.requests = [
            CompileRequest(
                WorkloadSpec(
                    model,
                    batch_size=size.paper_batch,
                    seq_len=size.paper_seq_len,
                    num_layers=size.paper_layers,
                ),
                system,
                policy,
            )
            for model in size.paper_models
            for policy in POLICIES
        ]
        random.Random(seed).shuffle(self.requests)
        self.ops = len(self.requests)
        self.reference: list[dict[str, Any]] | None = None

    def make_session(self, store=None, **kwargs):
        return Session(elk_options=PAPER_ELK, store=store, **kwargs)

    def _compile_cold(self, tracer: Tracer | None = None) -> list:
        self.store_dir = self.fresh_store_dir()
        session = self.session = self.make_session(
            ArtifactStore(self.store_dir), tracer=tracer
        )
        artifacts = [session.compile(request) for request in self.requests]
        problems = []
        if session.stats.compiles != self.ops or session.stats.store_puts != self.ops:
            problems.append(f"cold compile: {session.stats.snapshot()}")
        if self.reference is None:
            self.reference = [signature(a) for a in artifacts]
        self._check(artifacts, problems)
        return artifacts

    def _check(self, artifacts, shared_problems: list[str]) -> None:
        latency = {(a.model, a.policy): a.latency for a in artifacts}
        for artifact, expected in zip(artifacts, self.reference):
            label = f"{artifact.model}/{artifact.policy}"
            problems = list(shared_problems)
            if signature(artifact) != expected:
                problems.append(f"{label}: differs from the run's first compile")
            if artifact.latency < latency[(artifact.model, "ideal")]:
                problems.append(f"{label}: latency below the ideal roofline")
            if (
                artifact.policy == "elk-full"
                and artifact.latency > latency[(artifact.model, "basic")]
            ):
                problems.append(f"{label}: elk-full slower than basic")
            self.tally.record(1, problems)

    def setup(self):
        self._compile_cold()

    def repeat(self):
        return self._compile_cold()

    def traced(self, tracer):
        self._compile_cold(tracer)


# --------------------------------------------------------------------------- #
# serve-chat and fleet-chaos
# --------------------------------------------------------------------------- #
def replay_scenario(scenario, trace):
    """``scenario`` with its trace generator replaced by a pre-generated trace."""

    class Replay(type(scenario)):
        def trace(self, num_requests=64, seed=0, rate_scale=1.0):
            return trace

    return Replay()


def outcome(result) -> dict[str, Any]:
    """Everything a run reports in simulated time or as counts."""
    data = {
        "summary": result.metrics().summary(),
        "num_iterations": result.num_iterations,
        "busy_time": result.busy_time,
        "compiled_shapes": result.compiled_shapes,
        "completed": len(result.records),
    }
    if hasattr(result, "accounting"):
        data["accounting"] = result.accounting()
        data["counters"] = result.counters()
        data["crashes"] = result.availability.num_crashes
    return data


class Serving(Workload):
    """A trace replayed on a warm in-process session.

    Set-up runs the trace once on a fresh session over an empty store, which
    compiles the bucket plans the trace touches (the process-cold first
    repeat); timed repeats replay it on that session and compile nothing.
    Host time is normalized per engine iteration: the fleet's autoscaler
    makes the iteration count of a 4096-request trace swing by half between
    seeds, and the event loop's cost follows iterations.
    """

    scenario_name = ""
    simulate: Callable[..., Any] = staticmethod(simulate_scenario)

    def __init__(self, seed, size, workdir, tally):
        super().__init__(seed, size, workdir, tally)
        base = get_scenario(self.scenario_name)
        trace = base.trace(num_requests=size.requests, seed=seed)
        self.scenario = replay_scenario(base, trace)
        self.num_requests = len(trace.requests)
        self.reference: dict[str, Any] | None = None

    def make_session(self, store=None, **kwargs):
        return make_serving_session(store=store, **kwargs)

    def _run(self, session: Session, cold: bool = False, **kwargs):
        compiles = session.stats.compiles
        result = self.simulate(self.scenario, session=session, **kwargs)
        observed = outcome(result)
        problems = []
        if self.reference is None:
            self.reference = observed
            self.ops = result.num_iterations
            self.requests = [
                CompileRequest(
                    WorkloadSpec(
                        a.model,
                        batch_size=a.batch_size,
                        seq_len=a.seq_len,
                        phase=a.phase,
                        num_layers=a.num_layers,
                    ),
                    a.system,
                    a.policy,
                )
                for a in session.artifacts()
            ]
        else:
            if not cold and session.stats.compiles != compiles:
                problems.append(
                    f"{session.stats.compiles - compiles} compiles in a warm repeat"
                )
            if observed != self.reference:
                problems.append("simulated outcome differs from the set-up run")
        accounting = observed.get("accounting")
        if accounting is not None:
            if accounting["completed"] + accounting["rejected"] + accounting[
                "failed"
            ] != accounting["arrivals"] or accounting["arrivals"] != self.num_requests:
                problems.append(f"unbalanced accounting {accounting}")
        elif observed["completed"] != self.num_requests:
            problems.append(
                f"{observed['completed']} of {self.num_requests} requests completed"
            )
        self.tally.record(self.num_requests, problems)
        return result

    def setup(self):
        self.store_dir = self.fresh_store_dir()
        self.session = self.make_session(ArtifactStore(self.store_dir))
        self._run(self.session, cold=True)

    def repeat(self):
        return self._run(self.session)

    def traced(self, tracer):
        self._run(self.session, tracer=tracer)

    def serving_metrics(self, samples, result, prof, untraced_s):
        summary = result.metrics().summary()
        counters = result.counters() if hasattr(result, "counters") else {}
        lookups = call_count(prof, "_step_latency", "repro/serve/batching.py")
        misses = len(result.compiled_shapes) + counters.get("fallback_serves", 0)
        values = {
            "serve.iterations": result.num_iterations,
            "serve.us_per_request": untraced_s / self.num_requests * 1e6,
            "serve.latency_lookups": lookups,
            "serve.latency_hit_ratio": (lookups - misses) / lookups,
            "serve.ttft_p50_ms": summary["ttft_p50_ms"],
            "serve.ttft_p99_ms": summary["ttft_p99_ms"],
            "serve.tpot_p50_ms": summary["tpot_p50_ms"],
            "serve.tpot_p99_ms": summary["tpot_p99_ms"],
            "serve.goodput_fraction": summary["goodput_fraction"],
            "cluster.retries": counters.get("retries", 0),
            "cluster.requeues": counters.get("requeues", 0),
            "cluster.crashes": (
                result.availability.num_crashes if hasattr(result, "availability") else 0
            ),
            "cluster.fallback_serves": counters.get("fallback_serves", 0),
        }
        for name, unit in SERVING_LAYER_METRICS:
            samples.add(name, values[name], unit)

    def defect_metrics(self, samples):
        # A fresh session over the set-up's store resolves every bucket plan
        # from disk; it should replay to the same numbers (known defect).
        warm = self.simulate(
            self.scenario, session=self.make_session(ArtifactStore(self.store_dir))
        )
        cold_tpot = self.reference["summary"]["tpot_p50_ms"]
        drift = warm.metrics().summary()["tpot_p50_ms"] / cold_tpot - 1.0
        samples.add("api.warm_store_tpot_drift", drift, "ratio")
        try:
            self.simulate(
                self.scenario, session=self.make_session(max_workers=1), prewarm=True
            )
            failures = 0
        except ElkError:
            failures = 1
        samples.add("serve.prewarm_failures", failures, "count")


class ServeChat(Serving):
    name = "serve-chat"
    scenario_name = "interactive-chat"


class FleetChaos(Serving):
    name = "fleet-chaos"
    scenario_name = "cluster-chaos-crashes"
    simulate = staticmethod(simulate_cluster_scenario)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (CompilePaper, ServeChat, FleetChaos)
}


# --------------------------------------------------------------------------- #
# The two runs
# --------------------------------------------------------------------------- #
def export_trace(tracer: Tracer, workdir: str) -> tuple[float, float, int]:
    """Export to Chrome JSON and JSONL files; return (chrome s, jsonl s, bytes)."""
    chrome = os.path.join(workdir, "trace.json")
    jsonl = os.path.join(workdir, "trace.jsonl")
    chrome_s, _ = timed(to_chrome_trace, tracer, chrome)
    jsonl_s, _ = timed(to_jsonl, tracer, jsonl)
    size = os.path.getsize(chrome) + os.path.getsize(jsonl)
    os.remove(chrome)
    os.remove(jsonl)
    return chrome_s, jsonl_s, size


def measure(workload: Workload, seconds: float, import_s: float) -> Samples:
    """The timed run: end-to-end metrics, profiling off.

    Set-ups and untraced repeats are timed on a :class:`ReferenceClock`;
    their wall times and the reference kernel's are reported too, under
    ``wall.*`` names outside the declared metrics.  Every second untraced
    repeat is followed by a traced one; the tracing overhead is the ratio of
    their scaled medians.
    """
    size = workload.size
    samples = Samples()
    clock = ReferenceClock()
    for _ in range(size.setups):
        wall, scaled, _ = clock.timed(workload.setup)
        samples.add("setup_s", (import_s + wall) * scaled / wall, "s")
        samples.add("wall.setup_s", import_s + wall, "s")
    samples.add("peak_rss_mb", peak_rss_mb(), "MB")
    deadline = time.perf_counter() + seconds
    untraced, traced = [], []
    while len(untraced) < size.min_repeats or time.perf_counter() < deadline:
        wall, scaled, _ = clock.timed(workload.repeat)
        untraced.append(scaled)
        samples.add("host_us_per_op", scaled / workload.ops * 1e6, "us")
        samples.add("wall.host_us_per_op", wall / workload.ops * 1e6, "us")
        if len(untraced) % 2 == 0:
            _, scaled, _ = clock.timed(lambda: workload.traced(Tracer()))
            traced.append(scaled)
    samples.add(
        "trace_overhead", statistics.median(traced) / statistics.median(untraced), "ratio"
    )
    samples.add("traced_peak_rss_mb", peak_rss_mb(), "MB")
    workload.resolve_warm()
    samples.add("roofline_fraction", workload.roofline_fraction(), "ratio")
    samples.add("success_fraction", workload.tally.success_fraction, "ratio")
    for seconds_taken in clock.kernel_seconds:
        samples.add("wall.reference_kernel_ms", seconds_taken * 1e3, "ms")
    return samples


def stage_metrics(workload: Workload, recorder: SpanRecorder, samples: Samples) -> None:
    """Compile the plan set stage by stage under benchmark-side spans.

    A fresh session builds each (workload, system)'s frontend and partition
    profiles, then compiles every request with both cached (the span's self
    time excludes the store write nested in it), lowers and simulates each
    elk-full plan, and finally a second fresh session reads the plan set
    back from the store.
    """
    store_dir = workload.fresh_store_dir()
    session = workload.make_session(TimedStore(store_dir, recorder))
    profiles = 0
    seen = set()
    for request in workload.requests:
        key = (request.workload_spec, request.system.name)
        if key in seen:
            continue
        seen.add(key)
        with recorder.span("compiler.frontend"):
            session.frontend(request.workload_spec, request.system)
        with recorder.span("partition.enumerate"):
            profiles += len(session.profiles(request.workload_spec, request.system))
    artifacts = []
    for request in workload.requests:
        with recorder.span("scheduler.schedule", policy=request.policy):
            artifacts.append(session.compile(request))
    elk_full = [a for a in artifacts if a.policy == "elk-full"]
    for artifact in elk_full:
        plan, frontend = artifact.result.plan, artifact.frontend
        with recorder.span("codegen.lower"):
            generate_device_program(plan)
        with recorder.span("sim.simulate"):
            simulate_system(
                plan,
                artifact.system,
                frontend.per_chip_graph.total_flops,
                frontend.full_graph_flops,
                frontend.interchip_bytes_per_step,
            )
    warm = workload.make_session(TimedStore(store_dir, recorder))
    with recorder.span("api.warm_resolve"):
        for request in workload.requests:
            warm.compile(request)
    artifact_bytes = sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, _, names in os.walk(store_dir)
        for name in names
    )
    ms = 1e3
    samples.add("compiler.frontend_ms", recorder.seconds("compiler.frontend") * ms, "ms")
    samples.add(
        "partition.enumerate_ms", recorder.seconds("partition.enumerate") * ms, "ms"
    )
    samples.add("partition.profiles", profiles, "count")
    samples.add(
        "scheduler.schedule_ms", recorder.self_seconds("scheduler.schedule") * ms, "ms"
    )
    samples.add(
        "scheduler.num_candidate_orders",
        sum((a.search_stats or {}).get("num_candidate_orders", 0) for a in artifacts),
        "count",
    )
    samples.add("codegen.lower_ms", recorder.seconds("codegen.lower") * ms, "ms")
    samples.add("sim.simulate_ms", recorder.seconds("sim.simulate") * ms, "ms")
    samples.add("api.store_put_ms", recorder.seconds("api.store_put") * ms, "ms")
    samples.add(
        "api.store_get_ms", recorder.seconds("api.store_get", hit=True) * ms, "ms"
    )
    samples.add(
        "api.warm_resolve_us_per_plan",
        recorder.seconds("api.warm_resolve") / len(workload.requests) * 1e6,
        "us",
    )
    samples.add("api.artifact_bytes", artifact_bytes, "bytes")
    samples.add("api.compiles", session.stats.compiles, "count")
    samples.add("api.store_hits", warm.stats.store_hits, "count")
    samples.add(
        "compiler.plan_latency_ms", geomean([a.latency for a in elk_full]) * ms, "ms"
    )
    problems = []
    if warm.stats.compiles or warm.stats.store_hits != len(workload.requests):
        problems.append(f"staged warm resolve: {warm.stats.snapshot()}")
    workload.tally.record(len(workload.requests), problems)


def profile(workload: Workload, recorder: SpanRecorder) -> tuple[Samples, dict]:
    """The profiled run: per-layer metrics and each layer's self-time share."""
    samples = Samples()
    workload.setup()
    untraced_s, _ = timed(workload.repeat)
    prof = cProfile.Profile()
    profiled_s, result = timed(prof.runcall, workload.repeat)
    layers = self_seconds_by_layer(prof)
    for layer in LAYERS:
        if layer != "obs":
            samples.add(f"{layer}.self_s", layers[layer], "s")
    samples.add("repro.self_s", layers["total"], "s")
    samples.add("profile_overhead", profiled_s / untraced_s, "ratio")
    workload.serving_metrics(samples, result, prof, untraced_s)
    stage_metrics(workload, recorder, samples)

    tracer = Tracer()
    traced_prof = cProfile.Profile()
    timed(traced_prof.runcall, workload.traced, tracer)
    samples.add("obs.self_s", self_seconds_by_layer(traced_prof)["obs"], "s")
    samples.add("obs.spans", len(tracer), "count")
    chrome_s, jsonl_s, nbytes = export_trace(tracer, workload.workdir)
    samples.add("obs.chrome_export_s", chrome_s, "s")
    samples.add("obs.jsonl_export_s", jsonl_s, "s")
    samples.add("obs.export_bytes", nbytes, "bytes")
    del tracer
    workload.defect_metrics(samples)
    shares = {layer: layers[layer] / layers["total"] for layer in LAYERS}
    return samples, shares
