"""One process of a benchmark run: set-up, then cycles of one workload.

Usage (``run.py`` starts it; it is not meant to be run by hand)::

    python3 bench/rep.py --root <checkout> --workload <name> --seed <n>
        --workdir <dir> --result <file.json> --until <t> [--trace]

The process imports numpy and driftlab from ``<root>/src`` and generates the
workload's inputs.  Then it runs cycles: one cycle runs each CLI command of
the workload once through ``driftlab.cli.main(argv)``, timing each command,
and then checks the cycle's outputs outside every timed region.  Every cycle
gets the same inputs in a fresh directory.  Cycles go on while the next one
is expected to end before ``--until`` (a ``CLOCK_MONOTONIC`` time); the first
always runs.  The workload's calibration (``calibrate.py``) is timed once
after set-up and once after each command, so every command lies between two
calibrations; ``python_loop`` is timed once right after set-up.  With ``--trace`` the layer wrappers are installed around each
cycle's commands, and each cycle gets its own per-layer figures.

Peak RSS is read after the first cycle's commands, before its checks, so it
is the workload's own peak and not that of the checks.  The result file holds
the monotonic-clock time at which set-up ended, so the parent can compute
set-up time from its own launch time.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback


def clock() -> float:
    """System-wide monotonic clock, comparable between parent and child."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def machine_info() -> dict:
    """Core count, numpy and BLAS versions, and the BLAS thread settings as inherited."""
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    info = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": None,
        "blas_config": None,
        "env": {key: os.environ.get(key) for key in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS")},
    }
    # The runtime thread count comes from the OpenBLAS that numpy loaded.
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if getter is not None and info["blas_threads"] is None:
                    getter.restype = ctypes.c_int
                    info["blas_threads"] = int(getter())
                if config is not None and info["blas_config"] is None:
                    config.restype = ctypes.c_char_p
                    info["blas_config"] = config().decode()
    return info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--until", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    import driftlab.cli

    if not os.path.abspath(driftlab.__file__).startswith(src + os.sep):
        print(f"driftlab was imported from {driftlab.__file__}, not {src}", file=sys.stderr)
        return 2
    from calibrate import REFERENCE_S, calibrate
    from spans import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    cycles = []
    ready = peak_rss_kb = spans = None
    while True:
        workdir = os.path.join(args.workdir, f"cycle{len(cycles)}")
        os.makedirs(workdir, exist_ok=True)
        commands = workload.prepare(workdir, args.seed)
        tracer = Tracer() if args.trace else None
        if ready is None:
            ready = clock()
            setup_calibration = calibrate("python_loop")
            before = calibrate(workload.calibration)
        begin = clock()
        if tracer is not None:
            tracer.install()
        timings = []
        for index, argv in enumerate(commands):
            if tracer is not None:
                tracer.command = index
            start = clock()
            try:
                code = driftlab.cli.main(argv)  # looked up per call: traced or not
            except SystemExit as exc:  # argparse rejects a command line this way
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a traceback is a failed command, not a failed run
                traceback.print_exc()
                code = 1
            seconds = clock() - start
            after = calibrate(workload.calibration)
            timings.append({"command": argv[0], "seconds": seconds, "exit": code,
                            "calibration_s": (before + after) / 2.0})
            before = after
        if tracer is not None:
            tracer.restore()
        if peak_rss_kb is None:
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        checks = workload.check(workdir, args.seed)
        cycle = {"commands": timings,
                 "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks]}
        if tracer is not None:
            cycle["layers"] = tracer.layer_metrics([argv[0] for argv in commands])
            spans = tracer.span_table()
        shutil.rmtree(workdir, ignore_errors=True)
        cycle["span_s"] = clock() - begin
        cycles.append(cycle)
        upcoming = statistics.median(c["span_s"] for c in cycles)
        if clock() + upcoming > args.until:
            break
    result = {
        "ready": ready,
        "setup_calibration_s": setup_calibration,
        "reference_s": REFERENCE_S[workload.calibration],
        "cycles": cycles,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "train_steps": workload.train_steps,
        "traj_steps": workload.traj_steps,
        "machine": machine_info(),
    }
    if spans is not None:  # the last traced cycle's spans
        with open(os.path.join(args.workdir, "spans.json"), "w") as handle:
            json.dump(spans, handle)
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
