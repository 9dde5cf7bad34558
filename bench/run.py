"""driftlab benchmark: run one workload for a fixed time and print its metrics.

Usage, from the root of a checkout::

    python3 bench/run.py --workload <oracle-grid9|learned-1d|sweep-grid9>
        --seed <n> --seconds <s> --trace <0|1>

A run starts ``REPS`` processes (``bench/rep.py``) one after another and
gives each an equal share of ``--seconds``.  Each process imports driftlab,
generates the workload's inputs, then runs cycles of the workload's CLI
commands until its share is used up; every cycle's outputs are checked.
``setup_s`` and ``peak_rss_mb`` are medians over the processes, so they
belong to this workload alone; ``wall_s`` and the other times are medians
over the cycles of all processes.  Times are scaled to the reference host
speed by calibrations taken around them (``bench/calibrate.py``); the
detail line also gives them as measured.  With ``--trace 1`` untraced and traced
processes alternate: the untraced ones give the end-to-end figures, the
traced ones the per-layer figures, and the ratio of their median cycle wall
times the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).  The line before it,
``{"detail": ...}``, adds the workload-specific metrics (train, sample,
eval and sweep rates and times, ``failed_frac``), the per-process and
per-cycle figures and the machine.  An operation is one CLI command or one
output check; it fails on a non-zero exit or a failed check.  Without
``src/driftlab`` in the checkout the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from calibrate import REFERENCE_S, calibrate  # the script's directory is on sys.path

WORKLOADS = ("oracle-grid9", "learned-1d", "sweep-grid9")

#: Metrics printed with --trace 0: (name, unit).  They exist on every workload.
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

#: Processes per run; a traced run alternates untraced and traced ones.
REPS = 3
TRACE_REPS = 4
#: No process may run past this many seconds of the run, which keeps a run
#: well inside its three-minute limit even when one cycle is slow.
HARD_LIMIT_S = 150.0


def clock() -> float:
    """System-wide monotonic clock, the same one ``rep.py`` reports."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_rep(root: str, run_dir: str, index: int, args, traced: bool, until: float,
            deadline: float) -> dict:
    """Start one process, wait for it, and read its result.

    The process runs cycles until ``until``; it is killed at ``deadline``.
    """
    here = os.path.dirname(os.path.abspath(__file__))
    workdir = os.path.join(run_dir, f"rep{index}")
    result_path = os.path.join(run_dir, f"rep{index}.json")
    argv = [sys.executable, os.path.join(here, "rep.py"), "--root", root,
            "--workload", args.workload, "--seed", str(args.seed),
            "--workdir", workdir, "--result", result_path, "--until", repr(until)]
    if traced:
        argv.append("--trace")
    rep = {"traced": traced, "exit": None, "cycles": []}
    with open(os.path.join(run_dir, f"rep{index}.log"), "w") as log:
        setup_calibration = calibrate("python_loop")
        launch = clock()
        try:
            proc = subprocess.run(argv, stdout=log, stderr=subprocess.STDOUT, cwd=root,
                                  timeout=max(1.0, deadline - launch))
            rep["exit"] = proc.returncode
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            rep["exit"] = "timeout"
    if rep["exit"] == 0 and os.path.exists(result_path):
        with open(result_path) as handle:
            result = json.load(handle)
        rep.update(result)
        # Times at the reference host speed; see calibrate.py.
        rep["setup_raw_s"] = result["ready"] - launch
        rep["setup_s"] = (rep["setup_raw_s"] * REFERENCE_S["python_loop"]
                          / ((setup_calibration + result["setup_calibration_s"]) / 2.0))
        for cycle in rep["cycles"]:
            for command in cycle["commands"]:
                command["scaled_s"] = (command["seconds"] * result["reference_s"]
                                       / command["calibration_s"])
            cycle["wall_raw_s"] = sum(c["seconds"] for c in cycle["commands"])
            cycle["wall_s"] = sum(c["scaled_s"] for c in cycle["commands"])
            cycle["speed"] = cycle["wall_s"] / cycle["wall_raw_s"]
        rep["attempted"] = sum(len(c["commands"]) + len(c["checks"]) for c in rep["cycles"])
        rep["failed"] = sum(sum(c["exit"] != 0 for c in cycle["commands"])
                            + sum(not c["ok"] for c in cycle["checks"])
                            for cycle in rep["cycles"])
    else:
        # The process died before it could report: count it as one failed operation.
        rep["attempted"] = rep["failed"] = 1
    spans = os.path.join(workdir, "spans.json")
    if os.path.exists(spans):
        os.replace(spans, os.path.join(run_dir, f"spans-rep{index}.json"))
    shutil.rmtree(workdir, ignore_errors=True)
    return rep


def command_seconds(cycle: dict, name: str) -> float:
    """Time of the cycle's ``name`` commands, at the reference host speed."""
    return sum(c["scaled_s"] for c in cycle["commands"] if c["command"] == name)


def workload_metrics(reps: list[dict]) -> dict[str, tuple[float, str]]:
    """Every end-to-end metric that the workload has, as (median, unit)."""
    med = statistics.median
    cycles = [cycle for r in reps for cycle in r["cycles"]]
    out = {"wall_s": (med(c["wall_s"] for c in cycles), "s"),
           "setup_s": (med(r["setup_s"] for r in reps), "s"),
           "peak_rss_mb": (med(r["peak_rss_mb"] for r in reps), "MB"),
           "wall_raw_s": (med(c["wall_raw_s"] for c in cycles), "s"),
           "setup_raw_s": (med(r["setup_raw_s"] for r in reps), "s"),
           "speed": (med(c["speed"] for c in cycles), "ratio")}
    first = reps[0]
    names = {c["command"] for c in first["cycles"][0]["commands"]}
    if first["train_steps"]:
        out["train_steps_per_s"] = (
            med(first["train_steps"] / command_seconds(c, "train") for c in cycles), "1/s")
    if first["traj_steps"]:
        out["sample_traj_steps_per_s"] = (
            med(first["traj_steps"] / command_seconds(c, "sample") for c in cycles), "1/s")
    for command in ("eval", "sweep"):
        if command in names:
            out[f"{command}_s"] = (med(command_seconds(c, command) for c in cycles), "s")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description="driftlab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "driftlab", "__init__.py")):
        print(f"no driftlab sources under {root}/src; nothing to measure", file=sys.stderr)
        return 2
    run_dir = os.path.join(root, ".bench_run",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)

    start = clock()
    count = TRACE_REPS if args.trace else REPS
    seconds = min(args.seconds, HARD_LIMIT_S)
    reps = [run_rep(root, run_dir, i, args, bool(args.trace) and i % 2 == 1,
                    start + seconds * (i + 1) / count, start + HARD_LIMIT_S + 10.0)
            for i in range(count)]

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    plain = [r for r in reps if r["cycles"] and not r["traced"]]
    traced = [r for r in reps if r["cycles"] and r["traced"]]
    if not plain or (args.trace and not traced):
        print(f"no process completed; logs in {run_dir}", file=sys.stderr)
        return 1

    e2e = workload_metrics(plain)
    e2e["failed_frac"] = (failed / attempted, "ratio")
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "reps": len(plain), "traced_reps": len(traced),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "per_rep": {key: [r.get(key) for r in reps]
                    for key in ("traced", "setup_s", "setup_raw_s", "peak_rss_mb", "exit")},
        "per_cycle": {key: [[c[key] for c in r["cycles"]] for r in reps]
                      for key in ("wall_s", "wall_raw_s", "speed")},
        "failed_checks": sorted({c["name"] + ": " + c["detail"] for r in reps
                                 for cycle in r["cycles"] for c in cycle["checks"]
                                 if not c["ok"]}),
        "machine": plain[0]["machine"],
    }
    if args.trace:
        from spans import PER_LAYER  # the script's directory is first on sys.path

        traced_cycles = [c for r in traced for c in r["cycles"]]
        layers = {name: statistics.median(c["layers"][name] for c in traced_cycles)
                  for name, _, _ in PER_LAYER if name != "trace.overhead_frac"}
        layers["trace.overhead_frac"] = (statistics.median(c["wall_s"] for c in traced_cycles)
                                         / e2e["wall_s"][0] - 1.0)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name][0], "unit": unit} for name, unit in END_TO_END}
    with open(os.path.join(run_dir, "summary.json"), "w") as handle:
        json.dump({"detail": detail, "metrics": metrics}, handle, indent=1)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
