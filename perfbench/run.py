"""Benchmark entry point.

Usage, from the repository root::

    python3 perfbench/run.py --workload {solo,sweep-vec} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the same loop untraced and then traced, each for
half of ``--seconds`` (their difference is the tracing overhead), then
the per-layer probes; it
writes the span file and the engine x opt x system report to
``perfbench/out/``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (every
end-to-end metric of ``BENCHMARK.json`` with ``--trace 0``, every
per-layer metric with ``--trace 1``).  The exit code is 0 only when
every output matched its reference.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import env  # noqa: E402

WORKLOADS = ("solo", "sweep-vec")


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="End-to-end and per-layer benchmark of the simulator.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_json(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def declared(kind: str) -> dict:
    """``{metric name: declaration}`` for ``kind`` (``end_to_end`` or
    ``per_layer``) from ``BENCHMARK.json``, in its order."""
    spec = load_json(os.path.join(env.ROOT, "BENCHMARK.json"))
    return {decl["name"]: decl for decl in spec[kind]}


def warm_up() -> None:
    """Import every engine and subsystem before anything is timed, so
    the first cold set-up does not also pay module import."""
    import repro.campaign  # noqa: F401
    import repro.fabric.shards  # noqa: F401
    import repro.systems  # noqa: F401
    from repro.core.backends import engine_names, resolve_engine
    for name in engine_names():
        resolve_engine(name)


def resolved_config() -> str:
    from repro.core.backends import default_batch_engine
    from repro.core.opt import MAX_OPT_LEVEL

    from perfbench.endtoend import SOLO_ENGINE
    return (f"engine={SOLO_ENGINE} opt={MAX_OPT_LEVEL} "
            f"batch_engine={default_batch_engine()} "
            f"compile cache: fresh directory per run")


def overhead_pct(untraced: dict, traced: dict, decls: dict) -> dict:
    """Per metric, how much worse the traced run read, in percent."""
    out = {}
    for name, base in untraced.items():
        change = (traced[name] - base) / base * 100.0
        out[name] = change if decls[name]["better"] == "lower" else -change
    return out


def run(args) -> int:
    from perfbench.endtoend import RunState, measure
    from perfbench.trace import Tracer
    reference = load_json(os.path.join(env.ROOT, "perfbench",
                                       "reference.json"))
    e2e = declared("end_to_end")
    per_layer = declared("per_layer")
    wanted = per_layer if args.trace else e2e
    # Units and directions of every metric a run prints, whichever list
    # declares it.
    decls = dict(per_layer, **e2e)
    os.makedirs(env.OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=env.OUT)
    states = []

    # A traced run splits --seconds between its untraced and traced loops.
    seconds = args.seconds / 2 if args.trace else args.seconds

    def new_state(tracer):
        state = RunState(args.workload, args.seed, seconds, workdir,
                         reference, tracer)
        states.append(state)
        return state

    try:
        warm_up()
        print(f"workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace} "
              f"{resolved_config()}")
        untraced = measure(new_state(Tracer(enabled=False)))
        print_e2e("untraced" if args.trace else "end-to-end", untraced,
                  decls)
        metrics = untraced["metrics"]
        if args.trace:
            metrics = traced_run(args, new_state(Tracer(enabled=True)),
                                 untraced, decls)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(s.attempted for s in states)
    failed = sum(s.failed for s in states)
    for state in states:
        for failure in state.failures[:20]:
            print(f"FAILED: {failure}")
    out = {}
    for name, decl in wanted.items():
        if name in metrics:
            out[name] = {"value": metrics[name], "unit": decl["unit"]}
        else:
            print(f"warning: {name} was not measured", file=sys.stderr)
    correct = failed == 0 and attempted > 0
    print(f"operations: {attempted} attempted, {failed} failed; "
          f"outputs {'match' if correct else 'DO NOT match'} the references")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0 if correct else 1


def print_e2e(label: str, result: dict, decls: dict) -> None:
    samples = ", ".join(f"{k}={v}" for k, v in result["samples"].items())
    print(f"{label} ({samples}; host speed x{result['host_speed']:.3f} "
          f"of the reference):")
    print(f"  {'metric':20s} {'at ref. speed':>14s} {'as measured':>14s}")
    for name, value in result["metrics"].items():
        print(f"  {name:20s} {value:14.6g} {result['raw'][name]:14.6g} "
              f"{decls[name]['unit']}")


def traced_run(args, state, untraced: dict, decls: dict) -> dict:
    from perfbench.endtoend import measure
    from perfbench.layers import measure_layers
    traced = measure(state)
    print_e2e("traced", traced, decls)
    overhead = overhead_pct(untraced["metrics"], traced["metrics"], decls)
    print("tracing overhead (traced worse than untraced, %): "
          + ", ".join(f"{k}={v:+.2f}" for k, v in overhead.items()))
    counts = state.cache_counts()
    layers, report = measure_layers(state, counts)
    layers["trace.overhead_pct"] = overhead["cycles_per_s"]
    layers["step_us.p99"] = untraced["metrics"]["step_us.p99"]
    report.update(workload=args.workload, seed=args.seed,
                  config=resolved_config(), trace_overhead_pct=overhead,
                  end_to_end={"untraced": untraced, "traced": traced},
                  per_layer=layers)
    stem = os.path.join(env.OUT, f"{args.workload}-s{args.seed}")
    state.tracer.write(f"{stem}.trace.json",
                       {"workload": args.workload, "seed": args.seed})
    with open(f"{stem}.report.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True, default=repr)
    print_report(report)
    print(f"spans: {os.path.relpath(stem, env.ROOT)}.trace.json; "
          f"report: {os.path.relpath(stem, env.ROOT)}.report.json")
    return layers


def print_report(report: dict) -> None:
    print("engine x opt x system (us/step over the first steps; "
          "fallback steps):")
    for row, systems in report["engine_x_opt_x_system"].items():
        cells = "  ".join(
            f"{name}={cell['step_us']:.0f}"
            + (f"/fb{cell['fallback_steps']}"
               if cell["fallback_steps"] else "")
            for name, cell in systems.items())
        print(f"  {row:24s} {cells}")
    print("passes fired per system: " + "; ".join(
        f"{name}: {','.join(passes) or '-'}"
        for name, passes in report["passes_fired"].items()))
    print("lane-count crossover (us per step / us per lane-step):")
    for row, cell in report["batch_lanes"].items():
        lanes = int(row.rsplit("lanes", 1)[1])
        print(f"  {row:28s} {cell['step_us']:12.1f} "
              f"{cell['step_us'] / lanes:10.2f}  ({cell['steps']} steps)")
    print("per-layer:")
    for name, value in sorted(report["per_layer"].items()):
        print(f"  {name:44s} {value:14.6g}")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        env.prepare()
    except env.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
