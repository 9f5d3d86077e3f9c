"""Regenerate ``perfbench/reference.json`` with the worklist interpreter.

Usage, from the repository root::

    python3 perfbench/reference.py

Every input the benchmark can simulate — each solo system and every
point of each sweep grid — is
run on ``worklist`` at the default optimizer level, and the digest of
its ``now`` and ``stats.summary_dict()`` is stored.  The benchmark then
requires every engine it measures to reproduce these digests exactly.
Regenerate only when a model's behaviour is meant to change.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import env  # noqa: E402

REFERENCE_PATH = os.path.join(env.ROOT, "perfbench", "reference.json")
ENGINE = "worklist"
#: Worker processes that generate the digests.
JOBS = 2


def _solo(job):
    from repro.core.constructor import build_simulator

    from perfbench.systems import SOLO_BY_NAME, run_solo, sim_digest
    system = SOLO_BY_NAME[job]
    spec, info = system.build()
    sim = build_simulator(spec, engine=ENGINE)
    run_solo(system, sim, info)
    if not system.check(sim, info):
        raise SystemExit(f"{job} fails its own check on {ENGINE}")
    return job, sim_digest(sim)


def _sweep_point(job):
    from repro.core.constructor import build_simulator

    from perfbench.systems import SWEEPS, params_key, sim_digest
    name, params = job
    sweep = SWEEPS[name]
    sim = build_simulator(sweep.builder()(**params)[0], engine=ENGINE)
    sim.run(sweep.cycles)
    return name, params_key(params), sim_digest(sim)


def main() -> int:
    env.prepare()
    os.environ["REPRO_COMPILE_CACHE"] = "0"  # worklist needs no cache
    from perfbench.systems import SOLO_SYSTEMS, SWEEPS

    solo_jobs = [system.name for system in SOLO_SYSTEMS]
    sweep_jobs = [(name, params) for name, sweep in SWEEPS.items()
                  for params in sweep.full_grid()]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(JOBS) as pool:
        solo = dict(pool.map(_solo, solo_jobs))
        swept = pool.map(_sweep_point, sweep_jobs, chunksize=8)
    reference = {"engine": ENGINE, "solo": solo,
                 "sweeps": {name: {"cycles": sweep.cycles, "digests": {}}
                            for name, sweep in SWEEPS.items()}}
    for name, key, value in swept:
        reference["sweeps"][name]["digests"][key] = value
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(solo)} solo and {len(swept)} sweep digests to "
          f"{os.path.relpath(REFERENCE_PATH, env.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
