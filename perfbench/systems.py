"""Workload inputs: the solo systems, the sweep grids and result digests.

Shared by ``run.py`` (measurement) and ``reference.py`` (which
regenerates the committed reference digests with the ``worklist``
reference interpreter).  Everything a run simulates is derived from the
workload seed through the functions here, and every input they can
produce has a reference digest in ``reference.json``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from typing import Any, Callable, Dict, List, Optional, Tuple


def digest(now: int, stats: Dict[str, Any]) -> str:
    """Digest of one simulator's observable result: ``now`` plus
    ``stats.summary_dict()``.  Bit-identical engines give equal digests."""
    text = json.dumps({"now": now, "stats": stats}, sort_keys=True,
                      default=repr, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sim_digest(sim) -> str:
    return digest(sim.now, sim.stats.summary_dict())


# ----------------------------------------------------------------------
# solo: detailed single-design systems run to completion
# ----------------------------------------------------------------------
class SoloSystem:
    """One shipped system at benchmark size.

    ``build()`` returns ``(spec, info)``; ``done(sim, info)`` returns
    a predicate that is true once the run is complete; ``check(sim,
    info)`` returns the system's own expected-result verdict.
    """

    def __init__(self, name: str, build: Callable[[], Tuple[Any, dict]],
                 done: Callable, check: Callable, max_cycles: int):
        self.name = name
        self.build = build
        self.done = done
        self.check = check
        self.max_cycles = max_cycles


def _fig2a_build():
    from repro.systems import build_fig2a_cmp
    return build_fig2a_cmp(3, 3, seg_words=16)


def _fig2a_done(sim, info):
    cores = [sim.instance(f"core_{x}_{y}") for x, y in info["mesh"].nodes()]
    return lambda: all(core.halted for core in cores)


def _fig2a_check(sim, info) -> bool:
    from repro.systems.fig2a import read_results
    results, flags = read_results(sim, info["mesh"])
    return results == info["expected"] and all(flags)


def _fig2c_build():
    from repro.systems import build_fig2c_grid
    return build_fig2c_grid(8, k_words=32)


def _fig2c_done(sim, info):
    core = sim.instance(f"g{info['n_nodes'] - 1}/core")
    return lambda: core.halted


def _fig2c_check(sim, info) -> bool:
    from repro.systems.fig2c import RESULT_ADDR
    mem = sim.instance(f"g{info['n_nodes'] - 1}/mem")
    return mem.peek(RESULT_ADDR) == info["expected_total"]


def _fig2d_build():
    # 4x the default readings.  aggregate_every=8 keeps the summary
    # count at 8: beyond that the gateway delivers fewer summaries than
    # expected_summaries and the system fails its own check.
    from repro.systems import build_fig2d
    return build_fig2d(2, readings_per_node=32, aggregate_every=8,
                       field="detailed", backend="detailed")


def _fig2d_done(sim, info):
    # Same completion rule as run_fig2d: every field core halted, then
    # 600 drain cycles so in-flight summaries reach the base camp.
    cores = [sim.instance(f"node{k}/core")
             for k in range(1, info["n_sensors"] + 1)]
    drained = [0]

    def done() -> bool:
        if all(core.halted for core in cores):
            drained[0] += 1
        return drained[0] > 600
    return done


def _fig2d_check(sim, info) -> bool:
    delivered = sim.instance("camp_mem").peek(0)
    return (delivered == info["expected_summaries"]
            and sim.instance("gateway/core").halted)


def _stage_build(stage: int):
    def build():
        from repro.systems import build_stage
        return build_stage(stage)
    return build


def _stage1_done(sim, info):
    return lambda: sim.now >= 60


def _stage1_check(sim, info) -> bool:
    return sim.stats.counter("fetch", "fetched") > 0


def _stage_done(sim, info):
    shared = info["shared"]
    return lambda: shared.halted


def _stage_check(sim, info) -> bool:
    return sim.instance("rf").read_reg(10) == info["expected_a0"]


SOLO_SYSTEMS: Tuple[SoloSystem, ...] = (
    SoloSystem("fig2a", _fig2a_build, _fig2a_done, _fig2a_check, 60_000),
    SoloSystem("fig2c", _fig2c_build, _fig2c_done, _fig2c_check, 100_000),
    SoloSystem("fig2d", _fig2d_build, _fig2d_done, _fig2d_check, 20_000),
    SoloSystem("stage1", _stage_build(1), _stage1_done, _stage1_check, 60),
) + tuple(
    SoloSystem(f"stage{s}", _stage_build(s), _stage_done, _stage_check,
               5_000)
    for s in range(2, 6))

SOLO_BY_NAME = {system.name: system for system in SOLO_SYSTEMS}


def solo_order(seed: int) -> List[SoloSystem]:
    """The solo systems in the order the seed gives them (the solo
    inputs are fixed sizes; the seed varies only their order)."""
    systems = list(SOLO_SYSTEMS)
    random.Random(seed).shuffle(systems)
    return systems


def solo_spec(system: str):
    """Campaign target: the named solo system's ``(spec, info)``."""
    return SOLO_BY_NAME[system].build()


def run_solo(system: SoloSystem, sim, info, step_times: Optional[list] = None,
             clock=None) -> None:
    """Step ``sim`` until ``system`` completes, appending each step's
    host time to ``step_times`` when given."""
    done = system.done(sim, info)
    step = sim.step
    limit = system.max_cycles
    if step_times is None:
        while not done() and sim.now < limit:
            step()
        return
    append = step_times.append
    while not done() and sim.now < limit:
        t0 = clock()
        step()
        append(clock() - t0)


# ----------------------------------------------------------------------
# sweeps: lockstep campaigns over a committed parameter grid
# ----------------------------------------------------------------------
class SweepDef:
    """A campaign workload: a builder, two structures and a lane grid.

    ``structure`` names the builder parameter whose values give the
    structural groups; ``axes`` vary per lane inside a group.  The
    per-run points are ``per_group`` points of the full grid per
    structure, drawn by the workload seed; every grid point has a
    reference digest at ``cycles``.
    """

    def __init__(self, name: str, target: str, structure: str,
                 structures: Tuple[int, ...], axes: Dict[str, Tuple],
                 fixed: Dict[str, Any], per_group: int, cycles: int):
        self.name = name
        self.target = target
        self.structure = structure
        self.structures = structures
        self.axes = axes
        self.fixed = fixed
        self.per_group = per_group
        self.cycles = cycles

    def builder(self):
        from repro.campaign.executor import resolve_target
        return resolve_target(self.target)

    def grid(self, structure: int) -> List[Dict[str, Any]]:
        names = list(self.axes)
        return [dict(self.fixed, **{self.structure: structure},
                     **dict(zip(names, combo)))
                for combo in itertools.product(*self.axes.values())]

    def full_grid(self) -> List[Dict[str, Any]]:
        return [p for s in self.structures for p in self.grid(s)]

    def groups(self, seed: int) -> List[List[Dict[str, Any]]]:
        """The run's points, one list per structural group.

        The draw is balanced: within a group every axis value appears
        equally often (``per_group`` is a multiple of each axis length),
        and the seed only shuffles how values combine.  So each seed
        asks for about the same simulated work.
        """
        rng = random.Random(seed)
        names = list(self.axes)
        out = []
        for structure in self.structures:
            columns = []
            for values in self.axes.values():
                column = list(values) * (self.per_group // len(values))
                rng.shuffle(column)
                columns.append(column)
            combos = zip(*columns) if columns else [()] * self.per_group
            out.append([dict(self.fixed, **{self.structure: structure},
                             **dict(zip(names, combo)))
                        for combo in combos])
        return out


def params_key(params: Dict[str, Any]) -> str:
    return json.dumps(params, sort_keys=True, separators=(",", ":"))


SWEEPS: Dict[str, SweepDef] = {
    "sweep-vec": SweepDef(
        "sweep-vec", "repro.systems.fig2d:build_fig2d",
        structure="n_sensors", structures=(4, 8),
        axes={"aggregate_every": (2, 3, 4, 5),
              "backend_rate": (0.25, 0.5, 0.75, 1.0),
              "seed": tuple(range(16))},
        fixed={"field": "statistical", "backend": "statistical"},
        per_group=64, cycles=300),
}
