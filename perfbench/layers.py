"""Per-layer record: timed calls into each layer's public functions.

Runs only with ``--trace 1``, after the traced end-to-end loop.  Each
probe wraps its call in a span, so the span file shows where the
probe's time went; the metric is taken from the span's duration.  The
probes run on the workload's own systems: the solo systems for
``solo``, one representative point per structural group for the
sweeps.  Sums are over those systems; times are medians over
``REPEATS`` fresh designs.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from .endtoend import SOLO_ENGINE, RunState, run_campaign, sweep_points
from .systems import SOLO_SYSTEMS, SWEEPS, SweepDef

REPEATS = 5
#: Steps per system for the engine x opt rows (solo systems that
#: finish sooner stop at completion).
ENGINE_STEPS = 120
BATCH_LANES = (1, 64, 256)
#: Each batch row times one run() sized to take about this long.
BATCH_SECONDS = 1.0
#: Cycles per point of the solo campaign probe.
SOLO_CAMPAIGN_CYCLES = 100

clock = time.perf_counter


class Probe:
    """One system a layer probe runs on."""

    def __init__(self, label: str, build: Callable[[], Tuple[Any, dict]],
                 done: Optional[Callable] = None):
        self.label = label
        self.build = build
        self.done = done

    def spec(self):
        return self.build()[0]


def probes_for(state: RunState) -> List[Probe]:
    if state.workload == "solo":
        return [Probe(s.name, s.build, s.done) for s in SOLO_SYSTEMS]
    sweep = SWEEPS[state.workload]
    builder = sweep.builder()
    _, groups = sweep_points(sweep, state.seed)
    return [Probe(f"{sweep.structure}={g[0].params[sweep.structure]}",
                  lambda p=g[0].params: builder(**p))
            for g in groups]


def batch_params(state: RunState):
    """``(builder, params list)`` of 256 lanes of one structure."""
    if state.workload == "solo":
        # The solo fig2d system: detailed, so nothing vectorizes.
        fig2d = next(s for s in SOLO_SYSTEMS if s.name == "fig2d")
        return fig2d.build, [{}] * max(BATCH_LANES)
    sweep = SWEEPS[state.workload]
    return sweep.builder(), sweep.grid(sweep.structures[0])


class Recorder:
    def __init__(self, state: RunState):
        self.state = state
        self.metrics: Dict[str, float] = {}
        self.report: Dict[str, Any] = {}

    def timed(self, name: str, fn: Callable, *args, **kw):
        """Call ``fn`` inside a span; returns ``(result, seconds)``."""
        with self.state.tracer.span(name, name.split(".")[0]) as span:
            result = fn(*args, **kw)
        return result, span.dur


def _median_ms(samples: List[float]) -> float:
    return statistics.median(samples) * 1e3


def measure_layers(state: RunState, e2e_cache_counts: Dict[str, int]):
    from repro.core.opt import MAX_OPT_LEVEL
    rec = Recorder(state)
    probes = probes_for(state)
    rec.report["systems"] = [p.label for p in probes]
    rec.report["opt_level"] = MAX_OPT_LEVEL
    constructor_layer(rec, probes)
    compile_cache_layer(rec, probes, e2e_cache_counts)
    optimize_and_opt_layers(rec, probes)
    vec_layer(rec, probes)
    engine_layer(rec, probes)
    batch_layer(rec)
    result, points, target, cycles = campaign_layer(rec)
    fabric_layer(rec, result, points, target, cycles)
    return rec.metrics, rec.report


# ----------------------------------------------------------------------
def constructor_layer(rec: Recorder, probes: List[Probe]) -> None:
    from repro.core.constructor import build_design, elaborate
    elab, build = [], []
    for _ in range(REPEATS):
        e_total = b_total = 0.0
        for probe in probes:
            spec = probe.spec()
            e_total += rec.timed("constructor.elaborate", elaborate, spec)[1]
            b_total += rec.timed("constructor.build_design", build_design,
                                 spec)[1]
        elab.append(e_total)
        build.append(b_total)
    designs = _fresh_designs(probes)
    rec.metrics.update({
        "constructor.elaborate_ms": _median_ms(elab),
        "constructor.build_design_ms": _median_ms(build),
        "constructor.instances": sum(len(d.leaves) for d in designs),
        "constructor.wires": sum(len(d.wires) for d in designs)})


def _fresh_designs(probes: List[Probe]):
    from repro.core.constructor import build_design
    return [build_design(p.spec()) for p in probes]


def compile_cache_layer(rec: Recorder, probes: List[Probe],
                        e2e_cache_counts: Dict[str, int]) -> None:
    """Fingerprint, memory-hit bind and disk-hit bind of the artifact
    the end-to-end path uses (codegen at the maximum opt level)."""
    from repro.core import compile_cache
    from repro.core.compile_cache import design_fingerprint
    from repro.core.ir import CompileOptions, compile_model
    from repro.core.opt import MAX_OPT_LEVEL
    options = CompileOptions(opt_level=MAX_OPT_LEVEL, need_stepper=True)
    cache = rec.state.fresh_cache()
    fingerprint, bind, disk_bind = [], [], []
    for _ in range(REPEATS):
        fingerprint.append(sum(
            rec.timed("compile_cache.fingerprint", design_fingerprint, d)[1]
            for d in _fresh_designs(probes)))
    for design in _fresh_designs(probes):
        compile_model(design, options)  # the miss that fills the cache
    for _ in range(REPEATS):
        designs = _fresh_designs(probes)
        for d in designs:
            design_fingerprint(d)
        bind.append(sum(rec.timed("compile_cache.bind", compile_model,
                                  d, options)[1] for d in designs))
    for _ in range(REPEATS):
        compile_cache.configure(disk_dir=cache.disk_dir)  # memory empty
        designs = _fresh_designs(probes)
        for d in designs:
            design_fingerprint(d)
        disk_bind.append(sum(rec.timed("compile_cache.disk_bind",
                                       compile_model, d, options)[1]
                             for d in designs))
    rec.metrics.update({
        "compile_cache.fingerprint_ms": _median_ms(fingerprint),
        "compile_cache.bind_ms": _median_ms(bind),
        "compile_cache.disk_bind_ms": _median_ms(disk_bind),
        "compile_cache.hits.memory": e2e_cache_counts["memory_hits"],
        "compile_cache.hits.disk": e2e_cache_counts["disk_hits"],
        "compile_cache.misses": e2e_cache_counts["misses"]})


def optimize_and_opt_layers(rec: Recorder, probes: List[Probe]) -> None:
    """Signal graph, base schedule, each opt pass via its ``run(ctx)``
    in ``PASS_TABLE`` order, and the stepper over the optimized
    schedule."""
    from repro.core.codegen import generate_stepper_source
    from repro.core.opt import MAX_OPT_LEVEL
    from repro.core.opt.pipeline import PASS_TABLE, OptContext, react_calls
    from repro.core.optimize import build_schedule, build_signal_graph
    passes = [(name, module) for name, min_level, module in PASS_TABLE
              if min_level <= MAX_OPT_LEVEL]
    graph_t, sched_t, stepper_t = [], [], []
    pass_t = {name: [] for name, _ in passes}
    removed = {name: 0 for name, _ in passes}
    fired: Dict[str, List[str]] = {}
    entries = reacts_after = 0
    for repeat in range(REPEATS):
        g_total = s_total = c_total = 0.0
        p_total = {name: 0.0 for name, _ in passes}
        last = repeat == REPEATS - 1
        for probe, design in zip(probes, _fresh_designs(probes)):
            graph, elapsed = rec.timed("optimize.build_signal_graph",
                                       build_signal_graph, design)
            g_total += elapsed
            schedule, elapsed = rec.timed("optimize.build_schedule",
                                          build_schedule, design, graph=graph)
            s_total += elapsed
            ctx = OptContext(design, graph, schedule, MAX_OPT_LEVEL)
            if last:
                entries += len(schedule)
                fired[probe.label] = []
            for name, module in passes:
                before = (len(ctx.entries), react_calls(ctx.entries))
                detail, elapsed = rec.timed(f"opt.{name}", module.run, ctx)
                p_total[name] += elapsed
                after = (len(ctx.entries), react_calls(ctx.entries))
                if last:
                    removed[name] += before[1] - after[1]
                    if before != after or any(detail.values()
                                              if detail else ()):
                        fired[probe.label].append(name)
            _, elapsed = rec.timed(
                "codegen.generate_stepper", _compile_stepper,
                generate_stepper_source, ctx.entries, design.name)
            c_total += elapsed
            if last:
                reacts_after += react_calls(ctx.entries)
        graph_t.append(g_total)
        sched_t.append(s_total)
        stepper_t.append(c_total)
        for name in p_total:
            pass_t[name].append(p_total[name])
    rec.metrics.update({
        "optimize.signal_graph_ms": _median_ms(graph_t),
        "optimize.schedule_ms": _median_ms(sched_t),
        "optimize.schedule_entries": entries,
        "opt.reacts_per_step": reacts_after,
        "codegen.stepper_ms": _median_ms(stepper_t)})
    for name, _ in passes:
        rec.metrics[f"opt.{name}.ms"] = _median_ms(pass_t[name])
        rec.metrics[f"opt.{name}.reacts_removed"] = removed[name]
    rec.report["passes_fired"] = fired


def _compile_stepper(generate, schedule, name: str):
    source = generate(schedule, name)
    return compile(source, f"<generated stepper {name!r}>", "exec")


def vec_layer(rec: Recorder, probes: List[Probe]) -> None:
    from repro.core.ir import CompileOptions, compile_model
    from repro.core.opt import MAX_OPT_LEVEL
    from repro.core.vec import plan_vec_structure
    plan_t = []
    counts = {"total": 0, "vectorized": 0, "demoted": 0}
    for repeat in range(REPEATS):
        total = 0.0
        for design in _fresh_designs(probes):
            bound = compile_model(design, CompileOptions(
                opt_level=MAX_OPT_LEVEL))
            payload, elapsed = rec.timed(
                "vec.plan_vec_structure", plan_vec_structure, design,
                bound.schedule, opt=bound.model.opt)
            total += elapsed
            if repeat == 0:
                for key in counts:
                    counts[key] += payload["counts"][key]
        plan_t.append(total)
    rec.metrics.update({
        "vec.plan_ms": _median_ms(plan_t),
        "vec.wires_vectorized": counts["vectorized"],
        "vec.wires_total": counts["total"],
        "vec.demoted": counts["demoted"]})


# ----------------------------------------------------------------------
def engine_classes():
    """``(single-design engine names, batch engine names)`` registered."""
    from repro.core.backends import engine_names, resolve_engine
    single, batch = [], []
    for name in engine_names():
        (batch if hasattr(resolve_engine(name), "lane") else single) \
            .append(name)
    return single, batch


def engine_layer(rec: Recorder, probes: List[Probe]) -> None:
    """µs per step for every single-design engine x opt level over the
    first ``ENGINE_STEPS`` steps of each system."""
    from repro.core.constructor import build_simulator
    from repro.core.opt import MAX_OPT_LEVEL
    single, _ = engine_classes()
    table: Dict[str, Dict[str, Any]] = {}
    for name in single:
        for level in range(MAX_OPT_LEVEL + 1):
            row = f"engine.{name}.opt{level}"
            total_t, total_steps = 0.0, 0
            per_system = {}
            for probe in probes:
                spec, info = probe.build()
                sim = build_simulator(spec, engine=name, opt=level)
                try:
                    done = (probe.done(sim, info) if probe.done
                            else (lambda: False))
                    with rec.state.tracer.span(row, "engine",
                                               system=probe.label):
                        t0 = clock()
                        n = 0
                        while n < ENGINE_STEPS and not done():
                            sim.step()
                            n += 1
                        elapsed = clock() - t0
                    per_system[probe.label] = {
                        "step_us": elapsed / n * 1e6, "steps": n,
                        "fallback_steps": getattr(sim, "fallback_steps",
                                                  None)}
                finally:
                    sim.close()
                total_t += elapsed
                total_steps += n
            rec.metrics[f"{row}.step_us"] = total_t / total_steps * 1e6
            table[row] = per_system
    rec.report["engine_x_opt_x_system"] = table


def batch_layer(rec: Recorder) -> None:
    """Per-lane µs per step at 1, 64 and 256 lanes for every batch engine."""
    from repro.core.backends import resolve_engine
    from repro.core.constructor import build_design
    from repro.core.opt import MAX_OPT_LEVEL
    builder, params = batch_params(rec.state)
    _, batch = engine_classes()
    table = {}
    for name in batch:
        cls = resolve_engine(name)
        for lanes in BATCH_LANES:
            row = f"batch.{name}.lanes{lanes}"
            designs = [build_design(builder(**p)[0])
                       for p in params[:lanes]]
            sim = cls(designs, seeds=list(range(lanes)), opt=MAX_OPT_LEVEL)
            try:
                # run(n), not n step() calls: batched-vec gathers and
                # scatters its lane state once per run() call.  The first
                # run() also builds the vec plan; the second sizes n.
                sim.run(2)
                t0 = clock()
                sim.run(2)
                n = max(3, min(1000, int(BATCH_SECONDS * 2
                                         / (clock() - t0))))
                with rec.state.tracer.span(row, "batch", lanes=lanes):
                    t0 = clock()
                    sim.run(n)
                    elapsed = clock() - t0
            finally:
                sim.close()
            rec.metrics[f"{row}.lane_step_us"] = elapsed / (n * lanes) * 1e6
            table[row] = {"steps": n, "step_us": elapsed / n * 1e6}
    rec.report["batch_lanes"] = table


# ----------------------------------------------------------------------
def campaign_layer(rec: Recorder):
    """Grouping time, and the overhead and ledger size of one
    ``Campaign.run()`` over the workload's points (for ``solo``: the
    solo systems as singleton-group points on codegen)."""
    from repro.campaign import fingerprint_groups
    from repro.core.opt import MAX_OPT_LEVEL
    state = rec.state
    if state.workload == "solo":
        sweep = SweepDef("solo", "perfbench.systems:solo_spec", "system",
                         tuple(s.name for s in SOLO_SYSTEMS), {}, {}, 1,
                         SOLO_CAMPAIGN_CYCLES)
    else:
        sweep = SWEEPS[state.workload]
    campaign_sweep, _ = sweep_points(sweep, state.seed)
    points = campaign_sweep.points()
    group_t = []
    for _ in range(REPEATS):
        group_t.append(rec.timed(
            "campaign.fingerprint_groups", fingerprint_groups, "spec",
            sweep.target, None, points, opt_level=MAX_OPT_LEVEL,
            vec=True)[1])
    with state.tracer.span("campaign.run", "campaign"):
        # Singleton groups (all of solo's) run on the solo engine.
        result, wall, ledger = run_campaign(state, sweep, campaign_sweep,
                                            engine=SOLO_ENGINE)
    longest = max((row.duration or 0.0) for row in result.rows)
    for row in result.rows:
        state.record(row.status == "done", f"campaign probe point "
                     f"{row.run_id}: {row.status} {row.error}")
    rec.metrics.update({
        "campaign.group_ms": _median_ms(group_t),
        "campaign.overhead_s": wall - longest,
        "campaign.lane_cycles_per_s": len(points) * sweep.cycles / wall,
        "campaign.ledger_bytes": os.path.getsize(ledger)})
    return result, points, sweep.target, sweep.cycles


def fabric_layer(rec: Recorder, result, points, target: str,
                 cycles: int) -> None:
    """Shard planning, artifact export/verify+install, and one shard's
    result rows through the wire codec."""
    from repro.core import compile_cache
    from repro.core.opt import MAX_OPT_LEVEL
    from repro.fabric.artifacts import export_artifact, install_artifact
    from repro.fabric.protocol import decode_body, encode_message
    from repro.fabric.shards import JobSpec, plan_shards
    job = JobSpec(
        name=rec.state.workload, kind="spec", target=target,
        points=[{"run_id": p.run_id, "index": p.index, "params": p.params,
                 "seed": p.seed} for p in points],
        opt=MAX_OPT_LEVEL, cycles=cycles, batch_max=len(points)).validate()
    plan_t = []
    for _ in range(REPEATS):
        plan, elapsed = rec.timed("fabric.plan_shards", plan_shards, job,
                                  "perfbench")
        plan_t.append(elapsed)
    artifacts, export_t = [], 0.0
    for key in plan.fingerprints:
        artifact, elapsed = rec.timed("fabric.export_artifact",
                                      export_artifact, key)
        artifacts.append(artifact)
        export_t += elapsed
    source = compile_cache.get_cache()
    compile_cache.configure(disk_dir=rec.state.new_dir("worker-cache"))
    try:
        install_t = sum(rec.timed("fabric.install_artifact",
                                  install_artifact, a)[1] for a in artifacts)
    finally:
        compile_cache.configure(disk_dir=source.disk_dir)
    shard = plan.shards[0]
    rows = {row.run_id: row.result for row in result.rows}
    message = {"type": "complete", "lease_id": "perfbench",
               "shard_id": shard.shard_id, "job_id": "perfbench",
               "lanes": {p["run_id"]: rows[p["run_id"]]
                         for p in shard.points},
               "elapsed": 0.0}
    encode_t, decode_t = [], []
    for _ in range(REPEATS):
        frame, elapsed = rec.timed("fabric.encode_message", encode_message,
                                   message)
        encode_t.append(elapsed)
        decode_t.append(rec.timed("fabric.decode_body", decode_body,
                                  frame[4:])[1])
    rec.metrics.update({
        "fabric.plan_shards_ms": _median_ms(plan_t),
        "fabric.artifact_export_ms": export_t * 1e3,
        "fabric.artifact_install_ms": install_t * 1e3,
        "fabric.artifact_bytes": sum(len(a["blob"]) for a in artifacts),
        "fabric.encode_ms": _median_ms(encode_t),
        "fabric.decode_ms": _median_ms(decode_t),
        "fabric.result_bytes": len(frame)})
