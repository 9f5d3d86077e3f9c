"""End-to-end measurement: one closed loop per workload.

One client in this process issues the next operation only after the
previous one completed and was checked.  In ``solo`` an operation is
one system built and run to completion on ``codegen`` at the maximum
optimizer level; in the sweeps it is one sweep point, run either as a
lane of an in-process lockstep simulator or through
``Campaign(kind="spec", batch=True)``, whose ``workers=2`` children
are the only other processes.

Every timed sample is bracketed by calibration kernels and reported at
the reference host speed (see ``calibrate``); the figures as measured
are kept beside them for printing.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import tempfile
import time
from collections import defaultdict
from typing import Any, Dict, List, Tuple

from .calibrate import REFERENCE_S, HostSpeed
from .systems import (SWEEPS, digest, params_key, run_solo, sim_digest,
                      solo_order)

#: The single-design engine the end-to-end path measures (§2.3's
#: compiled simulator).
SOLO_ENGINE = "codegen"
#: Cold set-ups (fresh compile cache) timed per run; setup_s is their median.
SETUP_REPEATS = 7
#: Warm rebuilds timed before the measured loop (the loop adds one each
#: round); rebuild_s sums each system's (or group's) median over all
#: of them.
REBUILD_REPEATS = 3

# Each timed phase starts with gc.collect(), so garbage left by the
# previous phase is not collected inside the next one's timing.
clock = time.perf_counter


class RunState:
    """What one benchmark invocation carries between its phases."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 workdir: str, reference: Dict[str, Any], tracer):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.reference = reference
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: Hit/miss counts of the compile caches this run replaced.
        self.cache_stats: Dict[str, int] = {}
        self._cache = None
        self.speed = HostSpeed()

    def new_dir(self, stem: str) -> str:
        return tempfile.mkdtemp(prefix=f"{stem}-", dir=self.workdir)

    def fresh_cache(self):
        """Point the process-wide compile cache at an empty directory.

        The replaced cache is dropped (only its counts are kept), so the
        heap does not grow with every cold set-up.
        """
        from repro.core import compile_cache
        self.cache_stats = self.cache_counts()
        os.environ["REPRO_CACHE_DIR"] = self.new_dir("cache")
        self._cache = compile_cache.configure()
        return self._cache

    def cache_counts(self) -> Dict[str, int]:
        """Memory hits, disk hits and misses over every cache this run
        has configured."""
        current = self._cache.stats if self._cache else {}
        return {k: self.cache_stats.get(k, 0) + current.get(k, 0)
                for k in ("memory_hits", "disk_hits", "misses")}

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0  # ru_maxrss is in KiB on Linux


class Samples:
    """Timed samples of one quantity, keyed by system or group.

    Each sample keeps the times of the calibration kernels that bracket
    it (see ``calibrate``).  ``median`` is a key's median sample at the
    reference host speed, over the samples ``HostSpeed.select`` keeps,
    or over all samples as measured for the printed raw figures;
    ``total`` sums it over the keys.
    """

    def __init__(self):
        self.by_key: Dict[Any, List[Tuple[float, List[float]]]] = \
            defaultdict(list)

    def add(self, key, seconds: float, kernels: List[float]) -> None:
        self.by_key[key].append((seconds, list(kernels)))

    def median(self, key, scaled: bool = True) -> float:
        samples = self.by_key[key]
        if not scaled:
            return statistics.median(t for t, _ in samples)
        return statistics.median(t * REFERENCE_S / statistics.median(ks)
                                 for t, ks in HostSpeed.select(samples))

    def total(self, scaled: bool = True) -> float:
        return sum(self.median(key, scaled) for key in self.by_key)


def step_quantiles(steps: List[float]) -> Tuple[float, float]:
    """p50 and p99 of ``steps`` (seconds), in µs."""
    pcts = statistics.quantiles(steps, n=100, method="inclusive")
    return pcts[49] * 1e6, pcts[98] * 1e6


def both(compute) -> Dict[str, Dict[str, float]]:
    """``compute(scaled)`` for the reported (scaled) and the raw
    figures."""
    return {"metrics": compute(True), "raw": compute(False)}


def run_result(figures: Dict[str, Dict[str, float]], samples: Dict[str, int],
               speed: HostSpeed) -> Dict[str, Any]:
    """One run's end-to-end result: scaled metrics, the same figures as
    measured, and the sample counts."""
    rss = peak_rss_mb()
    for values in figures.values():
        values["peak_rss_mb"] = rss
    return dict(figures, samples=dict(samples, calibrations=len(speed.times)),
                host_speed=speed.factor())


def measure(state: RunState) -> Dict[str, Any]:
    """Run the workload's closed loop; returns metrics and sample counts."""
    if state.workload == "solo":
        return measure_solo(state)
    return measure_sweep(state, SWEEPS[state.workload])


# ----------------------------------------------------------------------
def measure_solo(state: RunState) -> Dict[str, Any]:
    """Solo loop.  Each system's warm build, stepping time and whole
    operation (build, run, check) are sampled once per round; the
    metrics sum the systems' medians."""
    from repro.core.constructor import build_simulator
    from repro.core.opt import MAX_OPT_LEVEL
    order = solo_order(state.seed)
    reference = state.reference["solo"]
    span = state.tracer.span
    measure_kernel = state.speed.measure

    def build(system):
        with span(f"build {system.name}", "constructor"):
            t0 = clock()
            spec, info = system.build()
            sim = build_simulator(spec, engine=SOLO_ENGINE, opt=MAX_OPT_LEVEL)
            return sim, info, clock() - t0

    setups = Samples()
    builds, runs, ops = Samples(), Samples(), Samples()
    for _ in range(SETUP_REPEATS):
        state.fresh_cache()
        gc.collect()
        before = measure_kernel()
        with span("cold setup", "workload"):
            total = 0.0
            for system in order:
                sim, _, elapsed = build(system)
                sim.close()
                total += elapsed
        setups.add("all", total, (before, measure_kernel()))
    with span("warm rebuild", "workload"):
        for _ in range(REBUILD_REPEATS):
            gc.collect()
            before = measure_kernel()
            for system in order:
                sim, _, elapsed = build(system)
                sim.close()
                after = measure_kernel()
                builds.add(system.name, elapsed, (before, after))
                before = after

    # Per round: its step quantiles, as measured and with each system's
    # steps scaled by its own brackets, and all the round's kernels.
    rounds: List[Tuple[Dict[bool, Tuple[float, float]], List[float]]] = []
    cycles_of: Dict[str, int] = {}
    n_rounds = n_steps = 0
    deadline = clock() + state.seconds
    while not n_rounds or clock() < deadline:
        gc.collect()
        round_steps: List[float] = []
        scaled_steps: List[float] = []
        round_kernels = [measure_kernel()]
        with span("round", "workload"):
            for system in order:
                t0 = clock()
                sim, info, built = build(system)
                steps: List[float] = []
                try:
                    with span(f"run {system.name}", "engine"):
                        run_solo(system, sim, info, steps, clock)
                    with span(f"check {system.name}", "check"):
                        ok = (system.check(sim, info)
                              and sim_digest(sim) == reference[system.name])
                    state.record(ok, f"{system.name}: result differs from "
                                     f"its reference")
                    cycles_of[system.name] = sim.now
                finally:
                    sim.close()
                elapsed = clock() - t0
                bracket = (round_kernels[-1], measure_kernel())
                builds.add(system.name, built, bracket)
                runs.add(system.name, sum(steps), bracket)
                ops.add(system.name, elapsed, bracket)
                round_steps += steps
                scale = REFERENCE_S / statistics.median(bracket)
                scaled_steps += [t * scale for t in steps]
                round_kernels.append(bracket[1])
        rounds.append(({False: step_quantiles(round_steps),
                        True: step_quantiles(scaled_steps)}, round_kernels))
        n_rounds += 1
        n_steps += len(round_steps)
    total_cycles = sum(cycles_of.values())

    def step_us(which: int, scaled: bool) -> float:
        """Median over rounds of one step quantile (``which``: 0 for
        p50, 1 for p99): scaled, over the rounds ``HostSpeed.select``
        keeps, or as measured over all rounds."""
        rows = HostSpeed.select(rounds) if scaled else rounds
        return statistics.median(q[scaled][which] for q, _ in rows)

    def compute(scaled: bool) -> Dict[str, float]:
        return {
            "setup_s": setups.total(scaled),
            "rebuild_s": builds.total(scaled),
            "cycles_per_s": total_cycles / runs.total(scaled),
            "step_us.p50": step_us(0, scaled),
            "step_us.p99": step_us(1, scaled),
            "lane_cycles_per_s": total_cycles / ops.total(scaled),
        }
    return run_result(both(compute), {"rounds": n_rounds, "steps": n_steps},
                      state.speed)


# ----------------------------------------------------------------------
def sweep_points(sweep, seed: int):
    """The run's sweep points, grouped by structure, as campaign points."""
    from repro.campaign.sweep import Sweep

    class PointList(Sweep):
        def __init__(self, param_sets, base_seed):
            super().__init__(base_seed)
            self.param_sets = param_sets

        def _param_sets(self):
            return [dict(p) for p in self.param_sets]

    groups = sweep.groups(seed)
    campaign_sweep = PointList([p for g in groups for p in g], seed)
    points = campaign_sweep.points()
    grouped, k = [], 0
    for group in groups:
        grouped.append(points[k:k + len(group)])
        k += len(group)
    return campaign_sweep, grouped


def run_campaign(state: RunState, sweep, campaign_sweep, *,
                 engine: str = "levelized"):
    """One ``Campaign.run()`` of ``sweep`` with one lockstep task per
    structural group; ``engine`` runs singleton groups.  Returns
    ``(result, wall seconds, ledger path)``."""
    from repro.campaign import Campaign
    from repro.core.opt import MAX_OPT_LEVEL
    ledger = os.path.join(state.new_dir("campaign"), "ledger.jsonl")
    campaign = Campaign(
        f"{state.workload}-s{state.seed}", campaign_sweep, sweep.target,
        kind="spec", engine=engine, opt=MAX_OPT_LEVEL, cycles=sweep.cycles,
        workers=2, retries=0, batch=True, batch_max=sweep.per_group,
        ledger_path=ledger)
    t0 = clock()
    result = campaign.run()
    return result, clock() - t0, ledger


def measure_sweep(state: RunState, sweep) -> Dict[str, Any]:
    from repro.core.backends import default_batch_engine, resolve_engine
    from repro.core.constructor import build_design
    from repro.core.opt import MAX_OPT_LEVEL
    ref = state.reference["sweeps"][sweep.name]
    if ref["cycles"] != sweep.cycles:
        raise RuntimeError(f"reference digests for {sweep.name} are for "
                           f"{ref['cycles']} cycles, the sweep runs "
                           f"{sweep.cycles}")
    digests = ref["digests"]
    builder = sweep.builder()
    engine = resolve_engine(default_batch_engine())
    campaign_sweep, groups = sweep_points(sweep, state.seed)
    n_points = sum(len(g) for g in groups)
    span = state.tracer.span
    measure_kernel = state.speed.measure

    def build_groups(per_group=None):
        """Each structural group's lockstep simulator, from spec builder
        call to ready to step; returns ``(sims, seconds)``.  With
        ``per_group``, each group's build time is added to it."""
        start = clock()
        sims = []
        kernels = [measure_kernel()] if per_group is not None else []
        for k, group in enumerate(groups):
            with span("build lockstep group", "constructor",
                      lanes=len(group)):
                t0 = clock()
                designs = [build_design(builder(**p.params)[0])
                           for p in group]
                sim = engine(designs, seeds=[p.seed for p in group],
                             opt=MAX_OPT_LEVEL)
                sim.run(0)  # lane init and vec planning happen here
                sims.append(sim)
                elapsed = clock() - t0
            if per_group is not None:
                kernels.append(measure_kernel())
                per_group.add(k, elapsed, kernels[-2:])
        return sims, clock() - start

    setups, builds, runs, checks = (Samples(), Samples(), Samples(),
                                    Samples())
    for _ in range(SETUP_REPEATS):
        state.fresh_cache()
        gc.collect()
        before = measure_kernel()
        with span("cold setup", "workload"):
            sims, elapsed = build_groups()
            for sim in sims:
                sim.close()
        setups.add("all", elapsed, (before, measure_kernel()))
    with span("warm rebuild", "workload"):
        for _ in range(REBUILD_REPEATS):
            gc.collect()
            for sim in build_groups(builds)[0]:
                sim.close()

    n_rounds = 0
    deadline = clock() + state.seconds
    while not n_rounds or clock() < deadline:
        gc.collect()
        with span("round", "workload"):
            sims, _ = build_groups(builds)
            for k, (sim, group) in enumerate(zip(sims, groups)):
                try:
                    # One run() per group, as a campaign worker does:
                    # step() per call would add a gather/scatter of the
                    # vec lane state to every step.
                    before = measure_kernel()
                    with span("lockstep run", "engine", lanes=len(group)):
                        t0 = clock()
                        sim.run(sweep.cycles)
                        ran = clock() - t0
                    with span("check lanes", "check"):
                        t0 = clock()
                        for i, point in enumerate(group):
                            lane = sim.lane(i)
                            state.record(
                                sim_digest(lane)
                                == digests[params_key(point.params)],
                                f"lane {point.run_id} {point.params}: "
                                f"result differs from its reference")
                        checked = clock() - t0
                finally:
                    sim.close()
                after = measure_kernel()
                runs.add(k, ran, (before, after))
                checks.add(k, checked, (before, after))

            # The campaign's rows are checked every round; its speed is
            # a per-layer metric (campaign.lane_cycles_per_s), because
            # its workers keep both CPUs busy and its time does not
            # follow the kernel this process times.
            with span("Campaign.run", "campaign", points=n_points):
                result, _, _ = run_campaign(state, sweep, campaign_sweep)
            with span("check campaign rows", "check"):
                check_rows(state, result, digests)
        n_rounds += 1
    lane_cycles = n_points * sweep.cycles

    def compute(scaled: bool) -> Dict[str, float]:
        # µs per lockstep step of each group, from its median run().
        step_us = [runs.median(k, scaled) / sweep.cycles * 1e6
                   for k in range(len(groups))]
        pcts = statistics.quantiles(step_us, n=100, method="inclusive")
        return {
            "setup_s": setups.total(scaled),
            "rebuild_s": builds.total(scaled),
            "cycles_per_s": lane_cycles / runs.total(scaled),
            "step_us.p50": pcts[49],
            "step_us.p99": pcts[98],
            # A whole in-process operation: its parts' medians summed.
            "lane_cycles_per_s": lane_cycles / (
                builds.total(scaled) + runs.total(scaled)
                + checks.total(scaled)),
        }
    return run_result(both(compute), {"rounds": n_rounds}, state.speed)


def check_rows(state: RunState, result, digests: Dict[str, str]) -> None:
    """Record each campaign row: done, and equal to its reference digest."""
    for row in result.rows:
        if row.status != "done":
            state.record(False, f"campaign point {row.run_id}: {row.status} "
                                f"{row.error}")
            continue
        ok = (digest(row.result["cycles"], row.result["stats"])
              == digests[params_key(row.params)])
        state.record(ok, f"campaign point {row.run_id} {row.params}: "
                         f"result differs from its reference")
