"""Independent jobs on every usable core: the first job runs in this process
and each of the others in a forked child, which sends its result back,
pickled, through a pipe.

While a run forks, numpy's bundled OpenBLAS computes on one thread in every
process and gets its thread count back afterwards.  On a 2-core host an MLP
Heun run of 2,048 trajectories x 100 steps took 1.10-1.15 s serially,
0.64-0.73 s forked with one thread per process, and 2.9-6.8 s forked while
both processes ran OpenBLAS's full thread pool on the same cores.  The count
is set through the library's own ``scipy_openblas_set_num_threads64_``,
reached with ``ctypes`` in the ``numpy.libs`` directory beside the numpy
package on first use; where that library or its symbols are missing, work
in BLAS products is not forked (:func:`workers`).
"""

from __future__ import annotations

import functools
import os
import pickle
import signal
import threading
from typing import Callable, NamedTuple

import numpy as np


class _Threads(NamedTuple):
    """OpenBLAS's thread-count getter and setter."""

    get: Callable[[], int]
    set: Callable[[int], None]


@functools.cache
def _blas_threads() -> _Threads | None:
    """The thread-count functions of the OpenBLAS that numpy loaded from its
    ``numpy.libs`` directory, or None where there is no such library (another
    numpy build or another BLAS) or it lacks the symbols."""
    import ctypes

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        names = sorted(name for name in os.listdir(libs) if name.startswith("libscipy_openblas"))
    except OSError:
        return None
    for name in names:
        try:  # only a library that is loaded already: the one numpy uses
            library = ctypes.CDLL(os.path.join(libs, name), mode=os.RTLD_NOLOAD)
            get = library.scipy_openblas_get_num_threads64_
            put = library.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return _Threads(get, put)
    return None


def workers(work: int, per_worker: int, most: int, *, blas: bool) -> int:
    """The number of processes to split ``work`` across: one per usable core,
    as many as give each at least ``per_worker`` of it, at most ``most``.
    One unless the platform reports its CPU affinity and no other Python
    thread is alive (a fork copies only the calling thread), and, for work
    done in BLAS products (``blas``), unless OpenBLAS's thread count can be
    set, which is looked up here the first time a run would fork."""
    if not (hasattr(os, "sched_getaffinity") and threading.active_count() == 1):
        return 1
    count = max(1, min(len(os.sched_getaffinity(0)), work // per_worker, most))
    if count > 1 and blas and _blas_threads() is None:
        return 1
    return count


def _result(job):
    """``job()``, or the :class:`Exception` it raised."""
    try:
        return job()
    except Exception as error:
        return error


def run(jobs: list) -> list:
    """``[job() for job in jobs]``, where a job that raised an
    :class:`Exception` has it in its place, for the caller to order.

    ``jobs[0]`` runs here and every other job in a forked child that sends
    its result through a pipe; a child that exits without a result has its
    job run here instead.  For the length of a run that forks, OpenBLAS
    computes on one thread where its count can be set, and the previous
    count is restored after.  Every child is reaped; one still running when
    an exception leaves is killed first.
    """
    if len(jobs) == 1:
        return [_result(jobs[0])]
    threads = _blas_threads()
    previous = threads.get() if threads is not None else None
    children = []  # (pid, pipe) of each child not yet reaped, in job order
    try:
        if threads is not None:
            threads.set(1)
        for job in jobs[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _serve(job, read, write)
            os.close(write)
            children.append((pid, os.fdopen(read, "rb")))
        results = [_result(jobs[0])]
        for job in jobs[1:]:
            pid, pipe = children[0]
            payload = pipe.read()
            pipe.close()
            status = os.waitpid(pid, 0)[1]
            del children[0]
            ok = payload and os.waitstatus_to_exitcode(status) == 0
            results.append(pickle.loads(payload) if ok else _result(job))
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if threads is not None:
            threads.set(previous)
    return results


def _serve(job, read: int, write: int) -> None:
    """In a forked child: write the job's result to the pipe and exit, with
    status 0 only when the whole result was written.  Never returns."""
    try:
        os.close(read)
        with os.fdopen(write, "wb") as pipe:
            pipe.write(pickle.dumps(_result(job), pickle.HIGHEST_PROTOCOL))
        os._exit(0)
    finally:
        os._exit(1)
