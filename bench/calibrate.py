"""Host-speed calibration: a small fixed kernel timed between commands.

The benchmark runs on a shared host whose speed changes while it runs.  The
same code, with nothing else running in the VM, flips between a fast and a
slow state, about 1.7 times apart, every few seconds, and the share of time
spent slow drifts over minutes.  CPU time moves with wall time, so the
program is not waiting: it runs slower.  A 36-s run can sit mostly in one
state, so medians over a run do not remove it.

So every command of a workload is bracketed by two timings of a kernel
written here, in the benchmark's own files, that does the same kind of
arithmetic as the workload's dominant layer.  The program never runs it, so
a change to the program cannot change its time.  A command's time is
reported at the reference speed::

    reported = measured * REFERENCE_S[kernel] / calibration_s

where ``calibration_s`` is the mean of the two timings around the command.
A slow stretch slows the command and the kernel alike, and the ratio stays
put.  The measured seconds are reported beside the scaled ones.

Set-up time (interpreter start, imports, input files) is scaled the same
way with ``python_loop``: the parent times it just before it launches a
process, and the process just after its set-up ends.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: The kernel runs this many times per calibration; the median time counts,
#: so one preempted pass does not move it.
PASSES = 3

_RNG = np.random.default_rng(20240116)
#: Small batched solves, as in the exact mixture field (n points, 9 modes, d = 2).
_POINTS = _RNG.standard_normal((512, 9, 2))
_COV = np.eye(2) + 0.1
#: A 256-row batch through one 128-wide layer, as in the MLP learner.
_BATCH = _RNG.standard_normal((256, 128))
_WEIGHTS = _RNG.standard_normal((128, 128)) / np.sqrt(128.0)
#: Two 256-point 2-D samples, as in the energy-distance statistic.
_SAMPLE_A = _RNG.standard_normal((256, 2))
_SAMPLE_B = _RNG.standard_normal((256, 2))


def python_loop() -> int:
    """Interpreter dispatch: a loop of small-integer arithmetic."""
    total = 0
    for i in range(80000):
        total += (i * i) % 7
    return total


def small_solves() -> float:
    """Batched 2x2 solves, an einsum and an exp over (512, 9) points."""
    total = 0.0
    for _ in range(12):
        solved = np.linalg.solve(_COV, _POINTS[..., None])[..., 0]
        quad = np.einsum("nkd,nkd->nk", _POINTS, solved)
        total += float(np.exp(-0.5 * quad).sum())
    return total


def matmul() -> float:
    """One dense layer forward and its tanh derivative, through BLAS."""
    total = 0.0
    for _ in range(40):
        hidden = np.tanh(_BATCH @ _WEIGHTS)
        total += float(((1.0 - hidden * hidden) @ _WEIGHTS.T).sum())
    return total


def pairwise() -> float:
    """Full pairwise Euclidean distance matrix between two 2-D samples."""
    total = 0.0
    for _ in range(10):
        diff = _SAMPLE_A[:, None, :] - _SAMPLE_B[None, :, :]
        total += float(np.sqrt(np.sum(diff * diff, axis=2)).mean())
    return total


KERNELS = {"python_loop": python_loop, "small_solves": small_solves, "matmul": matmul,
           "pairwise": pairwise}

#: Time of each kernel in the host's fast state on the reference machine (the
#: 10th percentile of 80 calibrations; for ``python_loop``, the fast level of
#: 60 calibrations taken between commands over 150 s): 2 vCPUs of a Firecracker VM
#: (Skylake-X), Python 3.11.7, numpy 2.4.6 with scipy-openblas 0.3.31 and its
#: default 2 threads.  So a reported time is the time the command would take
#: with the host in its fast state.  These constants set the scale only;
#: every commit is measured against the same ones.
REFERENCE_S = {"python_loop": 0.0065, "small_solves": 0.0090, "matmul": 0.0160,
               "pairwise": 0.0245}


def calibrate(kernel: str) -> float:
    """Seconds for one pass of ``kernel``: the median of ``PASSES`` passes."""
    times = []
    for _ in range(PASSES):
        start = time.perf_counter()
        KERNELS[kernel]()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
