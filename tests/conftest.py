import os

import numpy as np
import pytest

from driftlab import make_schedule


@pytest.fixture
def linear():
    return make_schedule("linear")


@pytest.fixture
def gvp():
    return make_schedule("gvp")


@pytest.fixture
def vp():
    return make_schedule("sbdm-vp")


@pytest.fixture
def all_schedules(linear, gvp, vp):
    return [linear, gvp, vp]


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


@pytest.fixture(autouse=True)
def no_child_process_left_behind():
    """Fail a test that leaves a child process behind, running or unreaped:
    the forked sampler reaps every worker, and so must everything else."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"a child process was left behind ({'running' if pid == 0 else f'pid {pid}'})")
