"""Integrators: grids, windows, NFE accounting, determinism, convergence."""

import math
import os
import pickle
import subprocess
import sys
import threading

import numpy as np
import pytest

from driftlab import (
    AnalyticMixtureField,
    ConfigError,
    DomainError,
    GaussianMixture,
    InterpolantSchedule,
    MLPField,
    NonFiniteError,
    Prediction,
    SamplerSpec,
    SingularityError,
    default_time_window,
    default_window,
    euler_maruyama_sample,
    get_preset,
    heun_sample,
    make_schedule,
    mode_occupancy,
    time_grid,
    velocity_from_score,
)
import driftlab
from driftlab import _fork, sampler
from driftlab.field import FieldModel, gmm_marginal_score
from driftlab.sampler import _chunk_noise, _stream_states
from driftlab.schedule import (
    ConstantCoefficient,
    DiffusionCoefficient,
    KLCoefficient,
    SigmaCoefficient,
    ZeroCoefficient,
)

from helpers import count_calls, log_slope, relative_error, tracemalloc_peak


@pytest.fixture
def two_gauss():
    return get_preset("two-gauss-1d")


@pytest.fixture
def score_model(two_gauss, linear):
    return AnalyticMixtureField(two_gauss, linear,
                                prediction=Prediction.SCORE, conditional=True)


# ---------------------------------------------------------------------------
# Spec validation and grids
# ---------------------------------------------------------------------------


def test_time_grid_is_uniform_descending():
    spec = SamplerSpec(kind="heun", t_start=1.0, t_end=0.0, steps=4)
    grid = time_grid(spec)
    assert np.allclose(grid, [1.0, 0.75, 0.5, 0.25, 0.0])
    diffs = np.diff(grid)
    assert np.allclose(diffs, diffs[0])


def test_spec_validation(linear):
    with pytest.raises(ConfigError):  # must integrate downward
        SamplerSpec(kind="heun", t_start=0.2, t_end=0.8, steps=10)
    with pytest.raises(ConfigError):
        SamplerSpec(kind="heun", t_start=1.0, t_end=0.0, steps=0)
    with pytest.raises(ConfigError):
        SamplerSpec(kind="heun", t_start=1.5, t_end=0.0, steps=10)
    with pytest.raises(ConfigError):  # deterministic sampler takes no diffusion
        SamplerSpec(kind="heun", t_start=1.0, t_end=0.0, steps=10,
                    diffusion=ZeroCoefficient())
    with pytest.raises(ConfigError):
        SamplerSpec(kind="heun", t_start=1.0, t_end=0.0, steps=10,
                    last_step_to=0.0)
    with pytest.raises(ConfigError):  # final target beyond t_end
        SamplerSpec(kind="em", t_start=1.0, t_end=0.1, steps=10,
                    diffusion=ZeroCoefficient(), last_step_to=0.2)
    with pytest.raises(ConfigError):
        SamplerSpec(kind="em", t_start=1.0, t_end=0.1, steps=10,
                    diffusion=ZeroCoefficient(), guidance_zeta=-1.0)
    with pytest.raises(ConfigError):  # stochastic sampler needs a coefficient
        euler_maruyama_sample(
            None, SamplerSpec(kind="em", t_start=1.0, t_end=0.1, steps=2), 1)


def test_each_sampler_refuses_the_other_kind_of_spec(score_model):
    heun = SamplerSpec(kind="heun", t_start=1.0, t_end=0.1, steps=2)
    em = SamplerSpec(kind="em", t_start=1.0, t_end=0.1, steps=2,
                     diffusion=ZeroCoefficient())
    with pytest.raises(ConfigError):
        heun_sample(score_model, em, 1)
    with pytest.raises(ConfigError):
        euler_maruyama_sample(score_model, heun, 1)


def test_negative_seed_is_a_config_error():
    # SeedSequence takes no negative entropy; the spec refuses it up front.
    with pytest.raises(ConfigError):
        SamplerSpec(kind="heun", t_start=1.0, t_end=0.0, steps=2, seed=-1)
    with pytest.raises(ConfigError):
        SamplerSpec(kind="em", t_start=1.0, t_end=0.1, steps=2,
                    diffusion=ZeroCoefficient(), seed=-(2 ** 40))


def test_default_window_table():
    table = {
        ("linear", "velocity", "heun"): (1.0, 0.0, None),
        ("gvp", "velocity", "heun"): (1.0, 0.0, None),
        ("linear", "score", "heun"): (1.0 - 1e-5, 0.0, None),
        ("gvp", "score", "heun"): (1.0 - 1e-5, 0.0, None),
        ("sbdm-vp", "velocity", "heun"): (1.0, 1e-5, None),
        ("sbdm-vp", "score", "heun"): (1.0, 1e-5, None),
        ("linear", "velocity", "em"): (1.0, 4e-2, 0.0),
        ("gvp", "velocity", "em"): (1.0, 4e-2, 0.0),
        ("linear", "score", "em"): (1.0 - 1e-3, 4e-2, 0.0),
        ("gvp", "score", "em"): (1.0 - 1e-3, 4e-2, 0.0),
        ("sbdm-vp", "velocity", "em"): (1.0, 4e-2, 0.0),
        ("sbdm-vp", "score", "em"): (1.0, 4e-2, 0.0),
    }
    for (schedule, prediction, kind), expected in table.items():
        assert default_window(schedule, prediction, kind) == expected
    with pytest.raises(ConfigError):
        default_window("nope", "score", "em")


class _SqrtSchedule(InterpolantSchedule):
    """alpha = 1 - t, sigma = sqrt(t): in no registry, and its sigma_dot is
    refused where sigma(t) = 0."""

    name = "sqrt"

    def _alpha(self, t):
        return 1.0 - t

    def _sigma(self, t):
        return np.sqrt(t)

    def _alpha_dot(self, t, alpha, sigma):
        return np.full_like(t, -1.0)

    def _sigma_dot(self, t, alpha, sigma):
        if np.any(sigma == 0.0):
            raise SingularityError("sigma_dot is singular where sigma(t) = 0")
        return 0.5 / sigma


def test_default_windows_follow_the_refusals_of_an_unregistered_schedule():
    # No table names this schedule: each end moves inward exactly where it
    # refuses what the run or the objective reads (lambda at both ends,
    # sigma_dot at t = 0, w_kl at t = 1).
    sqrt = _SqrtSchedule()
    assert default_window(sqrt, "velocity", "heun") == (1.0, 1e-5, None)
    assert default_window(sqrt, "score", "heun") == (1.0 - 1e-5, 1e-5, None)
    assert default_window(sqrt, "velocity", "em") == (1.0, 4e-2, 0.0)
    assert default_window(sqrt, "score", "em") == (1.0 - 1e-3, 4e-2, 0.0)
    assert default_window(sqrt, "velocity", "em", KLCoefficient(sqrt)) \
        == (1.0 - 1e-3, 4e-2, 0.0)
    assert default_window(sqrt, "velocity", "em", SigmaCoefficient(sqrt)) \
        == (1.0, 4e-2, 0.0)
    assert default_time_window("velocity", sqrt) == (1e-5, 1.0)
    assert default_time_window("score", sqrt) == (0.0, 1.0)
    assert default_time_window("weighted-score", sqrt) == (1e-5, 1.0 - 1e-5)
    # The exact field integrates over its default window without a refusal.
    field = AnalyticMixtureField(get_preset("two-gauss-1d"), sqrt)
    for kind, diffusion in (("heun", None), ("em", KLCoefficient(sqrt))):
        t_start, t_end, last = default_window(sqrt, "score", kind, diffusion)
        spec = SamplerSpec(kind=kind, t_start=t_start, t_end=t_end, steps=20,
                           diffusion=diffusion, last_step_to=last)
        samples = (heun_sample if kind == "heun" else euler_maruyama_sample)(field, spec, 16)
        assert np.all(np.isfinite(samples.samples))


# ---------------------------------------------------------------------------
# Function-evaluation accounting
# ---------------------------------------------------------------------------


def test_heun_nfe_two_per_step(score_model):
    spec = SamplerSpec(kind="heun", t_start=0.999, t_end=0.0, steps=25)
    assert heun_sample(score_model, spec, 8).nfe == 50


def test_em_nfe_steps_plus_final(score_model, linear):
    base = dict(kind="em", t_start=0.999, t_end=0.04,
                diffusion=SigmaCoefficient(linear))
    with_final = SamplerSpec(steps=25, last_step_to=0.0, **base)
    assert euler_maruyama_sample(score_model, with_final, 8).nfe == 26
    without = SamplerSpec(steps=25, **base)
    assert euler_maruyama_sample(score_model, without, 8).nfe == 25
    degenerate = SamplerSpec(steps=25, last_step_to=0.04, **base)
    assert euler_maruyama_sample(score_model, degenerate, 8).nfe == 25


def test_guidance_doubles_nfe_except_edge_weights(score_model, linear):
    for zeta, factor in [(2.0, 2), (0.5, 2), (0.0, 1), (1.0, 1)]:
        spec = SamplerSpec(kind="heun", t_start=0.999, t_end=0.0, steps=10,
                           guidance_zeta=zeta)
        assert heun_sample(score_model, spec, 4, y=0).nfe == 20 * factor
        em_spec = SamplerSpec(kind="em", t_start=0.999, t_end=0.04, steps=10,
                              diffusion=SigmaCoefficient(linear),
                              last_step_to=0.0, guidance_zeta=zeta)
        assert euler_maruyama_sample(score_model, em_spec, 4, y=0).nfe == 11 * factor


def test_guided_sampling_requires_label_and_conditioning(two_gauss, linear,
                                                         score_model):
    spec = SamplerSpec(kind="heun", t_start=0.999, t_end=0.0, steps=5,
                       guidance_zeta=2.0)
    with pytest.raises(ConfigError):
        heun_sample(score_model, spec, 4)  # no label
    unconditional = AnalyticMixtureField(two_gauss, linear,
                                         prediction=Prediction.SCORE,
                                         conditional=False)
    with pytest.raises(ConfigError):
        heun_sample(unconditional, spec, 4, y=0)


def test_each_drift_call_checks_its_inputs_once(two_gauss, linear, monkeypatch):
    # One points/time check per model evaluation, one label check per
    # conditional evaluation and no zeta check: the conversion reuses the
    # rows the model call accepted, the spec checked zeta and the run the label.
    points = count_calls(monkeypatch, driftlab.field, "_points")
    labels = count_calls(monkeypatch, driftlab.field.Conditioning, "validate")
    reals = count_calls(monkeypatch, driftlab.field, "_real")
    x = np.linspace(-2.0, 2.0, 12)[:, None]
    for prediction in Prediction:
        model = AnalyticMixtureField(two_gauss, linear, prediction, conditional=True)
        for zeta, evaluations in ((None, 1), (4.0, 2)):
            spec = SamplerSpec(kind="heun", t_start=0.999, t_end=0.0, steps=4,
                               guidance_zeta=zeta)
            drift = sampler._CountingField(model, spec, 1)
            for w in (0.0, 0.5):
                for calls in (points, labels, reals):
                    calls.clear()
                drift.drift(x, 0.5, w)
                assert (len(points), len(labels), len(reals)) == (evaluations, 1, 0), (
                    prediction, zeta, w)


def test_a_guided_run_checks_its_label_once(score_model, linear, monkeypatch):
    checks = count_calls(monkeypatch, driftlab.field, "_real_class")
    checks_here = count_calls(monkeypatch, sampler, "_real_class")
    heun = SamplerSpec(kind="heun", t_start=0.999, t_end=0.0, steps=6, guidance_zeta=4.0)
    em = SamplerSpec(kind="em", t_start=0.999, t_end=0.04, steps=6, last_step_to=0.0,
                     diffusion=SigmaCoefficient(linear), guidance_zeta=4.0)
    for run, spec in ((heun_sample, heun), (euler_maruyama_sample, em)):
        before = len(checks) + len(checks_here)
        run(score_model, spec, 10, y=1, chunk_size=4)  # three chunks
        assert len(checks) + len(checks_here) == before + 1


# ---------------------------------------------------------------------------
# Bitwise reconstruction against straight-line reference implementations
# ---------------------------------------------------------------------------


def _trajectory_noise(seed: int, index: int, rows: int, dim: int) -> np.ndarray:
    stream = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(index,)))
    return stream.standard_normal((rows, dim))


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**70, 2**200])
def test_stream_seeding_matches_seed_sequence(seed):
    # The one-pass seeding of a chunk gives each trajectory the PCG64 state of
    # SeedSequence(seed, spawn_key=(index,)): one- and two-word spawn keys,
    # and seeds longer than the four-word pool.
    for lo, hi in ((0, 24), (4096, 4104), (2**32 - 2, 2**32 + 1), (2**40, 2**40 + 1)):
        states = list(_stream_states(seed, lo, hi))
        noise = _chunk_noise(seed, lo, hi, 3, 2)
        assert len(states) == hi - lo
        for i in range(lo, hi):
            expected = np.random.PCG64(
                np.random.SeedSequence(seed, spawn_key=(i,))).state["state"]
            assert states[i - lo] == (expected["state"], expected["inc"]), (lo, i)
            assert np.array_equal(noise[i - lo], _trajectory_noise(seed, i, 3, 2))


def test_heun_matches_manual_reference(score_model, linear, two_gauss):
    spec = SamplerSpec(kind="heun", t_start=0.99, t_end=0.2, steps=5, seed=21)
    result = heun_sample(score_model, spec, 3)
    grid = np.linspace(0.99, 0.2, 6)
    dt = (0.2 - 0.99) / 5

    def velocity(x, t):
        s = gmm_marginal_score(two_gauss, linear, x, t)
        return velocity_from_score(linear, s, x, t)

    for i in range(3):
        x = _trajectory_noise(21, i, 1, 1)[0][None, :]
        for j in range(5):
            slope_here = velocity(x, float(grid[j]))
            predicted = x + dt * slope_here
            slope_next = velocity(predicted, float(grid[j + 1]))
            x = x + 0.5 * dt * (slope_here + slope_next)
        assert np.array_equal(result.samples[i], x[0])


def test_em_matches_manual_reference(score_model, linear, two_gauss):
    # Locks in the drift (velocity minus half the coefficient times the
    # score), the sqrt(w)*sqrt(|dt|) noise scale, the per-trajectory noise
    # layout, and the final noiseless step.
    w = SigmaCoefficient(linear)
    spec = SamplerSpec(kind="em", t_start=0.99, t_end=0.2, steps=4,
                       diffusion=w, last_step_to=0.1, seed=33)
    result = euler_maruyama_sample(score_model, spec, 2)
    grid = np.linspace(0.99, 0.2, 5)
    dt = (0.2 - 0.99) / 4

    def velocity_and_score(x, t):
        s = gmm_marginal_score(two_gauss, linear, x, t)
        return velocity_from_score(linear, s, x, t), s

    for i in range(2):
        noise = _trajectory_noise(33, i, 5, 1)
        x = noise[0][None, :]
        for j in range(4):
            t = float(grid[j])
            v, s = velocity_and_score(x, t)
            drift = v - 0.5 * w(t) * s
            x = x + dt * drift + math.sqrt(w(t)) * math.sqrt(abs(dt)) * noise[j + 1][None, :]
        v, s = velocity_and_score(x, 0.2)
        x = x + (0.1 - 0.2) * (v - 0.5 * w(0.2) * s)
        assert np.array_equal(result.samples[i], x[0])


def test_em_zero_coefficient_is_euler_ode(score_model, linear, two_gauss):
    spec = SamplerSpec(kind="em", t_start=0.99, t_end=0.2, steps=6,
                       diffusion=ZeroCoefficient(), seed=5)
    result = euler_maruyama_sample(score_model, spec, 2)
    grid = np.linspace(0.99, 0.2, 7)
    dt = (0.2 - 0.99) / 6
    for i in range(2):
        x = _trajectory_noise(5, i, 7, 1)[0][None, :]
        for j in range(6):
            s = gmm_marginal_score(two_gauss, linear, x, float(grid[j]))
            x = x + dt * velocity_from_score(linear, s, x, float(grid[j]))
        assert np.array_equal(result.samples[i], x[0])


# ---------------------------------------------------------------------------
# Determinism, chunking, prefix stability
# ---------------------------------------------------------------------------


def test_results_do_not_depend_on_chunking(score_model, linear):
    heun_spec = SamplerSpec(kind="heun", t_start=0.999, t_end=0.0, steps=12,
                            seed=9)
    a = heun_sample(score_model, heun_spec, 30)
    b = heun_sample(score_model, heun_spec, 30, chunk_size=7)
    assert np.array_equal(a.samples, b.samples)
    assert a.nfe == b.nfe
    em_spec = SamplerSpec(kind="em", t_start=0.999, t_end=0.04, steps=12,
                          diffusion=SigmaCoefficient(linear),
                          last_step_to=0.0, seed=9)
    c = euler_maruyama_sample(score_model, em_spec, 30)
    d = euler_maruyama_sample(score_model, em_spec, 30, chunk_size=11)
    assert np.array_equal(c.samples, d.samples)
    assert c.nfe == d.nfe


def test_learned_model_samples_agree_across_chunk_sizes(linear):
    # Only the exact field is bitwise chunk-invariant: the MLP's matrix
    # products go to BLAS, whose rounding may depend on the number of rows,
    # so learned-model samples agree across chunkings to rounding only.
    model = MLPField(1, linear, seed=3)
    heun_spec = SamplerSpec(kind="heun", t_start=1.0, t_end=0.0, steps=10, seed=2)
    t_start, t_end, last = default_window("linear", "velocity", "em")
    em_spec = SamplerSpec(kind="em", t_start=t_start, t_end=t_end, steps=10,
                          diffusion=SigmaCoefficient(linear), last_step_to=last,
                          seed=2)
    for sample, spec in ((heun_sample, heun_spec), (euler_maruyama_sample, em_spec)):
        whole = sample(model, spec, 64)
        for chunk_size in (1, 7, 16, 33):
            part = sample(model, spec, 64, chunk_size=chunk_size)
            assert part.nfe == whole.nfe
            assert np.max(relative_error(part.samples, whole.samples)) <= 1e-12, \
                (spec.kind, chunk_size)


def test_batch_extension_is_prefix_stable(score_model, linear):
    em_spec = SamplerSpec(kind="em", t_start=0.999, t_end=0.04, steps=10,
                          diffusion=SigmaCoefficient(linear),
                          last_step_to=0.0, seed=4)
    small = euler_maruyama_sample(score_model, em_spec, 16)
    large = euler_maruyama_sample(score_model, em_spec, 48)
    assert np.array_equal(large.samples[:16], small.samples)


# ---------------------------------------------------------------------------
# Worker processes: the bits, NFE and errors of the serial loop
# ---------------------------------------------------------------------------


def _set_workers(monkeypatch, workers):
    monkeypatch.setattr(sampler, "_workers", lambda model, n_samples, steps: workers)


class _FakeThreads:
    """Stands in for OpenBLAS's thread-count functions and records each count set."""

    def __init__(self, count=4):
        self.count, self.counts = count, []

    def get(self):
        return self.count

    def set(self, count):
        self.count = count
        self.counts.append(count)


def _pin_blas(monkeypatch, threads):
    """Make ``threads`` (or None: no settable OpenBLAS) what the fork helper finds."""
    monkeypatch.setattr(_fork, "_blas_threads", lambda: threads)


def _forbid_fork(monkeypatch):
    def fork():
        raise AssertionError("os.fork was called")

    monkeypatch.setattr(os, "fork", fork)


def _worker_runs(linear):
    """(sample, model, spec, n_samples, y, chunk_size) covering both samplers,
    EM with and without its final step, guidance, score and velocity fields,
    1-D and 2-D, and runs above DEFAULT_CHUNK."""
    two_gauss, grid = get_preset("two-gauss-1d"), get_preset("grid-9")
    score_1d = AnalyticMixtureField(two_gauss, linear, Prediction.SCORE, conditional=True)
    velocity_1d = AnalyticMixtureField(two_gauss, linear, Prediction.VELOCITY)
    score_2d = AnalyticMixtureField(grid, linear, Prediction.SCORE, conditional=True)
    velocity_2d = AnalyticMixtureField(grid, linear, Prediction.VELOCITY, conditional=True)
    sigma = SigmaCoefficient(linear)

    def heun(zeta=None):
        return SamplerSpec(kind="heun", t_start=0.999, t_end=0.0, steps=5,
                           guidance_zeta=zeta, seed=8)

    def em(last_step_to, zeta=None):
        return SamplerSpec(kind="em", t_start=0.999, t_end=0.04, steps=5, diffusion=sigma,
                           last_step_to=last_step_to, guidance_zeta=zeta, seed=8)

    return [
        (heun_sample, score_1d, heun(), 31, None, None),
        (heun_sample, velocity_2d, heun(), 29, None, None),
        (euler_maruyama_sample, velocity_2d, em(0.0), 29, None, None),
        (euler_maruyama_sample, velocity_1d, em(None), 17, None, None),
        (euler_maruyama_sample, score_2d, em(0.0, zeta=4.0), 23, 0, None),
        (heun_sample, velocity_2d, heun(zeta=4.0), 22, 3, None),
        (heun_sample, score_1d, heun(), sampler.DEFAULT_CHUNK + 5, None, None),
        (euler_maruyama_sample, score_1d, em(0.0), 61, None, 7),
    ]


@pytest.mark.parametrize("workers", [2, 3])
def test_worker_processes_give_the_serial_bits(linear, monkeypatch, workers):
    forks = count_calls(monkeypatch, os, "fork")
    for sample, model, spec, n, y, chunk_size in _worker_runs(linear):
        _set_workers(monkeypatch, 1)
        serial = sample(model, spec, n, y=y, chunk_size=chunk_size)
        _set_workers(monkeypatch, workers)
        forks.clear()
        forked = sample(model, spec, n, y=y, chunk_size=chunk_size)
        assert len(forks) == workers - 1
        assert forked.samples.tobytes() == serial.samples.tobytes(), (spec, n)
        assert forked.samples.shape == serial.samples.shape
        assert forked.nfe == serial.nfe


def _mlp(dimension, linear, prediction=Prediction.VELOCITY, num_classes=None):
    """A default-width MLP (256-row `evaluate` blocks) moved off its
    initialization, so that every product of every layer carries bits."""
    model = MLPField(dimension, linear, prediction, num_classes=num_classes, seed=3)
    model.parameters += 0.05 * np.random.default_rng(4).standard_normal(model.n_parameters)
    return model


def _mlp_worker_runs(linear):
    """(sample, model, spec, n_samples, y, chunk_size) covering MLP runs of
    both samplers, EM with and without its final step, a labelled and two
    guided runs, score and velocity networks, n off the 256-row block grid and
    chunks below n, one of them below a block."""
    velocity, score = _mlp(1, linear), _mlp(1, linear, Prediction.SCORE)
    conditional = _mlp(2, linear, num_classes=3)
    sigma = SigmaCoefficient(linear)

    def heun(zeta=None):
        return SamplerSpec(kind="heun", t_start=0.999, t_end=0.01, steps=3,
                           guidance_zeta=zeta, seed=8)

    def em(last_step_to, zeta=None):
        return SamplerSpec(kind="em", t_start=0.999, t_end=0.04, steps=3, diffusion=sigma,
                           last_step_to=last_step_to, guidance_zeta=zeta, seed=8)

    return [
        (heun_sample, velocity, heun(), 777, None, None),
        (heun_sample, score, heun(), 1001, None, 300),
        (euler_maruyama_sample, velocity, em(0.0), 1001, None, None),
        (euler_maruyama_sample, score, em(None), 777, None, 100),
        (heun_sample, conditional, heun(), 777, 2, None),
        (heun_sample, conditional, heun(zeta=4.0), 1001, 1, None),
        (euler_maruyama_sample, conditional, em(0.0, zeta=4.0), 1001, 0, 600),
    ]


@pytest.mark.parametrize("workers", [2, 3])
def test_mlp_worker_processes_give_the_serial_bits(linear, monkeypatch, workers):
    forks = count_calls(monkeypatch, os, "fork")
    for sample, model, spec, n, y, chunk_size in _mlp_worker_runs(linear):
        _set_workers(monkeypatch, 1)
        serial = sample(model, spec, n, y=y, chunk_size=chunk_size)
        _set_workers(monkeypatch, workers)
        forks.clear()
        forked = sample(model, spec, n, y=y, chunk_size=chunk_size)
        assert len(forks) == workers - 1
        assert forked.samples.tobytes() == serial.samples.tobytes(), (spec, n, chunk_size)
        assert forked.samples.shape == serial.samples.shape
        assert forked.nfe == serial.nfe


def test_mlp_groups_start_where_the_serial_evaluate_blocks_start():
    for n, chunk, workers, rows in ((777, 4096, 3, 256), (1001, 300, 3, 256),
                                    (777, 100, 2, 256), (5000, 4096, 3, 992)):
        groups = sampler._groups(n, chunk, workers, rows)
        ranges = [pair for group in groups for pair in group]
        assert len(groups) == workers
        assert [lo for lo, _ in ranges] == [0] + [hi for _, hi in ranges[:-1]]
        assert ranges[-1][1] == n
        assert all(lo < hi and lo // chunk == (hi - 1) // chunk for lo, hi in ranges)
        assert all(group[0][0] % chunk % rows == 0 for group in groups)
    # Nearest allowed starts: 256 and 512 for 259 and 518; a start that
    # would leave a group empty drops it.
    assert sampler._groups(777, 4096, 3, 256) == [[(0, 256)], [(256, 512)], [(512, 777)]]
    assert sampler._groups(300, 4096, 3, 256) == [[(0, 256)], [(256, 300)]]
    assert sampler._groups(200, 4096, 2, 256) == [[(0, 200)]]


@pytest.fixture
def blas_threads():
    """numpy's OpenBLAS set to 3 threads for the test, and restored after."""
    threads = _fork._blas_threads()
    if threads is None:
        pytest.skip("numpy's bundled OpenBLAS has no settable thread count here")
    before = threads.get()
    threads.set(3)
    yield threads
    threads.set(before)


def test_a_forked_run_computes_on_one_blas_thread_and_restores_the_count(blas_threads,
                                                                        monkeypatch):
    model = AnalyticMixtureField(get_preset("two-gauss-1d"), make_schedule("linear"),
                                 Prediction.SCORE)
    spec = SamplerSpec(kind="heun", t_start=0.999, t_end=0.0, steps=3, seed=3)

    def step(field, x, i, noise):  # every trajectory reads its process's count
        return np.full_like(x, blas_threads.get())

    _set_workers(monkeypatch, 2)
    result = sampler._integrate(model, spec, 30, None, None, step)
    assert np.all(result.samples == 1.0)
    assert blas_threads.get() == 3
    with pytest.raises(NonFiniteError):  # in the worker's group only
        _blow_up_run({30: 2}, 40)
    assert blas_threads.get() == 3
    monkeypatch.setattr(_fork, "_serve", lambda *args: os._exit(1))
    forks = count_calls(monkeypatch, os, "fork")
    result = sampler._integrate(model, spec, 30, None, None, step)
    assert len(forks) == 1
    assert np.all(result.samples == 1.0)  # the dead worker's group, run here
    assert blas_threads.get() == 3


def test_mlp_runs_fork_when_blas_threads_can_be_set(linear, monkeypatch):
    # Beside the runs that never fork: with a settable OpenBLAS the same
    # learned run forks once and sets one thread for the run, and a small
    # run or one while another thread is alive still never forks.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    threads = _FakeThreads()
    _pin_blas(monkeypatch, threads)
    forks = count_calls(monkeypatch, os, "fork")
    learned = MLPField(1, linear, widths=(8,), seed=3)
    spec = SamplerSpec(kind="heun", t_start=0.999, t_end=0.0, steps=64, seed=1)
    n = 2 * sampler._STEPS_PER_WORKER // spec.steps
    assert sampler._workers(learned, n, spec.steps) == 2
    forked = heun_sample(learned, spec, n)
    assert len(forks) == 1
    assert threads.counts == [1, 4]
    small = SamplerSpec(kind="heun", t_start=0.999, t_end=0.0, steps=50, seed=1)
    heun_sample(learned, small, 128)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    try:
        threaded = heun_sample(learned, spec, n)
    finally:
        release.set()
        thread.join(timeout=60)
    assert len(forks) == 1
    assert threaded.samples.tobytes() == forked.samples.tobytes()


def test_without_settable_blas_threads_only_exact_field_runs_fork(linear, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    _pin_blas(monkeypatch, None)
    forks = count_calls(monkeypatch, os, "fork")
    learned = MLPField(1, linear, widths=(8,), seed=3)
    exact = AnalyticMixtureField(get_preset("two-gauss-1d"), linear, Prediction.SCORE)
    spec = SamplerSpec(kind="heun", t_start=0.999, t_end=0.0, steps=64, seed=1)
    n = 2 * sampler._STEPS_PER_WORKER // spec.steps
    assert sampler._workers(learned, n, spec.steps) == 1
    heun_sample(learned, spec, n)
    assert forks == []
    forked = heun_sample(exact, spec, n)
    assert len(forks) == 1
    _set_workers(monkeypatch, 1)
    assert forked.samples.tobytes() == heun_sample(exact, spec, n).samples.tobytes()


def test_groups_cover_the_run_in_ranges_within_serial_chunks():
    for n, chunk, workers in ((29, 4096, 2), (4101, 4096, 2), (40, 16, 3), (5, 1, 5)):
        groups = sampler._groups(n, chunk, workers)
        ranges = [pair for group in groups for pair in group]
        assert len(groups) == workers
        assert [lo for lo, _ in ranges] == [0] + [hi for _, hi in ranges[:-1]]
        assert ranges[-1][1] == n
        assert all(lo < hi and lo // chunk == (hi - 1) // chunk for lo, hi in ranges)
        sizes = [group[-1][1] - group[0][0] for group in groups]
        assert max(sizes) - min(sizes) <= 1


def test_worker_count_follows_the_cores_the_work_and_the_model(linear, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    exact = AnalyticMixtureField(get_preset("grid-9"), linear, Prediction.SCORE)
    learned = MLPField(1, linear, widths=(8,), seed=3)
    work = sampler._STEPS_PER_WORKER
    assert sampler._workers(exact, 2048, 250) == 3
    assert sampler._workers(exact, 2 * work, 1) == 2
    assert sampler._workers(exact, 2, work) == 2
    assert sampler._workers(exact, 128, 50) == 1
    _pin_blas(monkeypatch, None)
    assert sampler._workers(learned, 2048, 250) == 1
    assert sampler._workers(exact, 2048, 250) == 3
    _pin_blas(monkeypatch, _FakeThreads())
    assert sampler._workers(learned, 2048, 250) == 3
    assert sampler._workers(learned, 128, 50) == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert sampler._workers(exact, 2048, 250) == 1


def test_learned_small_and_threaded_runs_never_fork(linear, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    _pin_blas(monkeypatch, None)
    _forbid_fork(monkeypatch)
    exact = AnalyticMixtureField(get_preset("two-gauss-1d"), linear, Prediction.SCORE)
    learned = MLPField(1, linear, widths=(8,), seed=3)
    spec = SamplerSpec(kind="heun", t_start=0.999, t_end=0.0, steps=64, seed=1)
    n = 2 * sampler._STEPS_PER_WORKER // spec.steps
    assert sampler._workers(exact, n, spec.steps) == 2  # would fork on its own
    heun_sample(learned, spec, n)
    small = SamplerSpec(kind="heun", t_start=0.999, t_end=0.0, steps=50, seed=1)
    heun_sample(exact, small, 128)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    try:
        heun_sample(exact, spec, n)
    finally:
        release.set()
        thread.join(timeout=60)


class _Interrupt(BaseException):
    """Stands in for a KeyboardInterrupt."""


def _blow_up_run(fail_at: dict, n_samples: int, chunk_size=None):
    """An exact-field run whose step leaves trajectory ``i`` in place until
    step ``fail_at[i]``, where it becomes NaN; trajectories are told apart by
    their initial states."""
    model = AnalyticMixtureField(get_preset("two-gauss-1d"), make_schedule("linear"),
                                 Prediction.SCORE)
    spec = SamplerSpec(kind="heun", t_start=0.999, t_end=0.0, steps=8, seed=3)
    initial = _chunk_noise(3, 0, n_samples, 1, 1)[:, 0, 0]
    fails = {value: fail_at.get(index, math.inf) for index, value in enumerate(initial)}

    def step(field, x, i, noise):
        field.drift(x, 0.5)
        failed = np.array([fails[value] <= i for value in x[:, 0]])
        return np.where(failed[:, None], np.nan, x)

    return sampler._integrate(model, spec, n_samples, None, chunk_size, step)


@pytest.mark.parametrize("fail_at, chunk_size, step", [
    ({30: 4, 35: 2}, None, 2),  # in the second group only
    ({3: 5}, None, 5),  # in the first group, which the parent runs
    ({7: 6, 33: 2}, None, 2),  # both groups, one serial chunk: the smallest step
    ({18: 6, 25: 3, 36: 1}, 16, 3),  # the earliest failing chunk, then its smallest step
    ({5: 6, 36: 1}, 16, 6),
])
@pytest.mark.parametrize("workers", [2, 3])
def test_worker_failures_raise_the_serial_error(monkeypatch, fail_at, chunk_size, step,
                                                workers):
    _set_workers(monkeypatch, 1)
    with pytest.raises(NonFiniteError) as serial:
        _blow_up_run(fail_at, 40, chunk_size)
    _set_workers(monkeypatch, workers)
    with pytest.raises(NonFiniteError) as forked:
        _blow_up_run(fail_at, 40, chunk_size)
    assert type(forked.value) is NonFiniteError
    assert (str(forked.value), forked.value.step) == (str(serial.value), serial.value.step)
    assert serial.value.step == step


def test_every_error_survives_a_pickle_round_trip():
    # A worker's error reaches the parent pickled.
    classes = [value for value in vars(driftlab.errors).values()
               if isinstance(value, type) and issubclass(value, driftlab.errors.DriftlabError)]
    assert len(classes) == 7
    errors = [cls("went wrong") for cls in classes]
    errors += [NonFiniteError("blew up", step=3), NonFiniteError("blew up", t_bin=2),
               NonFiniteError("blew up", step=0, t_bin=5)]
    for error in errors:
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is type(error)
        assert str(copy) == str(error)
        assert getattr(copy, "step", None) == getattr(error, "step", None)
        assert getattr(copy, "t_bin", None) == getattr(error, "t_bin", None)


def test_a_worker_that_dies_has_its_ranges_run_by_the_parent(linear, monkeypatch):
    model = AnalyticMixtureField(get_preset("grid-9"), linear, Prediction.SCORE)
    spec = SamplerSpec(kind="em", t_start=0.999, t_end=0.04, steps=6,
                       diffusion=SigmaCoefficient(linear), last_step_to=0.0, seed=2)
    serial = euler_maruyama_sample(model, spec, 50, chunk_size=9)
    _set_workers(monkeypatch, 3)
    monkeypatch.setattr(_fork, "_serve", lambda *args: os._exit(1))
    forks = count_calls(monkeypatch, os, "fork")
    forked = euler_maruyama_sample(model, spec, 50, chunk_size=9)
    assert len(forks) == 2
    assert forked.samples.tobytes() == serial.samples.tobytes()
    assert forked.nfe == serial.nfe


def test_an_interrupted_run_kills_and_reaps_its_workers(monkeypatch):
    parent = os.getpid()
    model = AnalyticMixtureField(get_preset("two-gauss-1d"), make_schedule("linear"),
                                 Prediction.SCORE)
    spec = SamplerSpec(kind="heun", t_start=0.999, t_end=0.0, steps=4, seed=3)

    def step(field, x, i, noise):
        if os.getpid() == parent:
            raise _Interrupt
        threading.Event().wait(30)  # a worker still running when the parent stops
        return x

    _set_workers(monkeypatch, 3)
    with pytest.raises(_Interrupt):
        sampler._integrate(model, spec, 30, None, None, step)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_em_samples_do_not_depend_on_the_noise_block_width(score_model, linear,
                                                            monkeypatch):
    # Twelve noise rows (the initial state and eleven increments) for six
    # one-dimensional trajectories, drawn in one block by default, then in
    # blocks of 4 rows (the last ending at the final step's row), of 5, 5
    # and 2, one row at a time, and in chunks whose widths differ.
    spec = SamplerSpec(kind="em", t_start=0.999, t_end=0.04, steps=11,
                       diffusion=SigmaCoefficient(linear), last_step_to=0.0, seed=12)
    whole = euler_maruyama_sample(score_model, spec, 6)
    monkeypatch.setattr(sampler, "_NOISE_BLOCK_MIN_ROWS", 1)
    for values, chunk_size, width in ((24, None, 4), (30, None, 5), (1, None, 1),
                                      (24, 4, 6), (8, 3, 2)):
        monkeypatch.setattr(sampler, "_NOISE_BLOCK_VALUES", values)
        first = min(chunk_size or 6, 6)
        assert sampler._NoiseStream(12, 0, first, 12, 1).buffer.shape[1] == width
        result = euler_maruyama_sample(score_model, spec, 6, chunk_size=chunk_size)
        assert np.array_equal(result.samples, whole.samples), (values, chunk_size)
        assert result.nfe == whole.nfe


def test_noise_rows_are_read_in_order(monkeypatch):
    monkeypatch.setattr(sampler, "_NOISE_BLOCK_MIN_ROWS", 2)
    monkeypatch.setattr(sampler, "_NOISE_BLOCK_VALUES", 1)
    stream = sampler._NoiseStream(3, 0, 4, 5, 2)
    expected = _chunk_noise(3, 0, 4, 5, 2)
    for index in range(5):
        assert np.array_equal(stream.row(index), expected[:, index])
        assert np.array_equal(stream.row(index), expected[:, index])
    for index in (0, 3, 5):
        with pytest.raises(IndexError):
            stream.row(index)


def test_initial_state_outlives_its_noise_block(score_model, linear, monkeypatch):
    # One-row blocks: the step reads the next increment, which refills the
    # buffer that drew the initial state, before it reads the state.
    monkeypatch.setattr(sampler, "_NOISE_BLOCK_MIN_ROWS", 1)
    monkeypatch.setattr(sampler, "_NOISE_BLOCK_VALUES", 1)
    spec = SamplerSpec(kind="em", t_start=0.999, t_end=0.04, steps=3,
                       diffusion=SigmaCoefficient(linear), seed=2)

    def step(field, x, i, noise):
        increment = noise.row(i + 1)
        return x + increment

    result = sampler._integrate(score_model, spec, 4, None, None, step, noise_rows=4)
    noise = _chunk_noise(2, 0, 4, 4, 1)
    assert np.array_equal(result.samples,
                          noise[:, 0] + noise[:, 1] + noise[:, 2] + noise[:, 3])


def test_importing_the_package_leaves_numpy_random_unloaded():
    # The stream seeding imports numpy.random on first use; loading it with
    # the package would add about 2.6 MB of RSS to every command.
    source = os.path.dirname(os.path.dirname(os.path.abspath(driftlab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [source, os.environ.get("PYTHONPATH")])))
    script = "import sys, driftlab.cli; print('numpy.random' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                            capture_output=True, text=True, timeout=120)
    assert result.stdout.strip() == "False"


def test_em_memory_does_not_grow_with_the_step_count(linear):
    # Noise is drawn a block of steps at a time; the whole run's noise
    # would be 16 MB at 1,000 steps against 0.8 MB at 50.
    model = AnalyticMixtureField(GaussianMixture([1.0], [[0.0]], [np.ones(1)]), linear,
                                 prediction=Prediction.SCORE)

    def peak(steps):
        spec = SamplerSpec(kind="em", t_start=0.999, t_end=0.04, steps=steps,
                           diffusion=SigmaCoefficient(linear), seed=6)
        return tracemalloc_peak(euler_maruyama_sample, model, spec, 2048)

    assert peak(1000) <= 1.5 * peak(50)


def _chunk_specs(linear):
    heun_spec = SamplerSpec(kind="heun", t_start=0.999, t_end=0.0, steps=3, seed=1)
    em_spec = SamplerSpec(kind="em", t_start=0.999, t_end=0.04, steps=3,
                          diffusion=SigmaCoefficient(linear), last_step_to=0.0, seed=1)
    return ((heun_sample, heun_spec), (euler_maruyama_sample, em_spec))


@pytest.mark.parametrize("chunk_size", [-1, 0, 2.5, 1.0, "3", True])
def test_chunk_size_must_be_none_or_a_positive_integer(score_model, linear, chunk_size):
    for sample, spec in _chunk_specs(linear):
        with pytest.raises(ConfigError, match="chunk_size must be None or a positive integer"):
            sample(score_model, spec, 9, chunk_size=chunk_size)


def test_numpy_integer_chunk_size_is_accepted(score_model, linear):
    for sample, spec in _chunk_specs(linear):
        assert np.array_equal(sample(score_model, spec, 9, chunk_size=np.int64(4)).samples,
                              sample(score_model, spec, 9).samples)


def test_threads_sharing_one_field_match_serial_runs(linear):
    # Schedules and fields keep no state, so concurrent samplers that share
    # them must each give the bits of a run on its own.  More threads than
    # cores, switching often.
    model = AnalyticMixtureField(get_preset("grid-9"), linear,
                                 prediction=Prediction.SCORE, conditional=True)
    t_start, t_end, last = default_window(linear, "score", "em")
    runs = []
    for seed in range(4):
        if seed % 2 == 0:
            spec = SamplerSpec(kind="heun", t_start=0.999, t_end=0.0, steps=15, seed=seed)
            runs.append((heun_sample, spec, None))
        else:
            spec = SamplerSpec(kind="em", t_start=t_start, t_end=t_end, steps=15,
                               diffusion=SigmaCoefficient(linear), last_step_to=last,
                               guidance_zeta=4.0, seed=seed)
            runs.append((euler_maruyama_sample, spec, seed % 9))
    serial = [sample(model, spec, 48, y=y).samples for sample, spec, y in runs]
    results = [None] * len(runs)

    def work(i):
        sample, spec, y = runs[i]
        for _ in range(4):
            results[i] = sample(model, spec, 48, y=y).samples
            if not np.array_equal(results[i], serial[i]):
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(runs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for got, expected in zip(results, serial):
        assert np.array_equal(got, expected)


def test_same_seed_same_samples_different_seed_differs(score_model):
    spec_a = SamplerSpec(kind="heun", t_start=0.999, t_end=0.0, steps=8, seed=1)
    spec_b = SamplerSpec(kind="heun", t_start=0.999, t_end=0.0, steps=8, seed=2)
    one = heun_sample(score_model, spec_a, 10)
    two = heun_sample(score_model, spec_a, 10)
    other = heun_sample(score_model, spec_b, 10)
    assert np.array_equal(one.samples, two.samples)
    assert not np.array_equal(one.samples, other.samples)


def test_guidance_edge_weights_match_plain_evaluation(score_model):
    # zeta = 1 is exactly conditional sampling; zeta = 0 exactly unguided.
    base = dict(kind="heun", t_start=0.999, t_end=0.0, steps=10, seed=2)
    guided_one = heun_sample(score_model, SamplerSpec(guidance_zeta=1.0, **base),
                             12, y=1)
    plain_cond = heun_sample(score_model, SamplerSpec(**base), 12, y=1)
    assert np.array_equal(guided_one.samples, plain_cond.samples)
    guided_zero = heun_sample(score_model, SamplerSpec(guidance_zeta=0.0, **base),
                              12, y=1)
    plain_marginal = heun_sample(score_model, SamplerSpec(**base), 12)
    assert np.array_equal(guided_zero.samples, plain_marginal.samples)


# ---------------------------------------------------------------------------
# Dual-route check: score-parameterized and velocity-parameterized fields
# drive the same flow
# ---------------------------------------------------------------------------


def test_score_and_velocity_models_integrate_the_same_ode(two_gauss, linear):
    score_model = AnalyticMixtureField(two_gauss, linear,
                                       prediction=Prediction.SCORE)
    velocity_model = AnalyticMixtureField(two_gauss, linear,
                                          prediction=Prediction.VELOCITY)
    spec = SamplerSpec(kind="heun", t_start=0.99, t_end=0.0, steps=50, seed=6)
    from_score = heun_sample(score_model, spec, 64)
    from_velocity = heun_sample(velocity_model, spec, 64)
    assert np.max(np.abs(from_score.samples - from_velocity.samples)) < 1e-9


# ---------------------------------------------------------------------------
# Statistical correctness
# ---------------------------------------------------------------------------


def test_em_terminal_occupancy_matches_binomial_oracle(score_model, linear,
                                                       two_gauss):
    spec = SamplerSpec(kind="em", t_start=0.999, t_end=0.04, steps=250,
                       diffusion=SigmaCoefficient(linear), last_step_to=0.0,
                       seed=12)
    result = euler_maruyama_sample(score_model, spec, 4000)
    occupancy = mode_occupancy(result.samples, two_gauss)
    margin = 3.0 * math.sqrt(0.25 / 4000)
    assert abs(occupancy[0] - 0.5) < margin
    assert abs(occupancy[1] - 0.5) < margin


def test_heun_error_shrinks_at_second_order(linear):
    # Single anisotropic Gaussian: the flow is exactly
    # x_j(t) = x_j(start) * sqrt(V_j(t) / V_j(start)) with
    # V_j(t) = alpha^2 Sigma_j + sigma^2, giving a closed-form endpoint.
    variances = np.array([0.25, 4.0])
    gmm = GaussianMixture([1.0], [[0.0, 0.0]], [variances])
    model = AnalyticMixtureField(gmm, linear, prediction=Prediction.SCORE)
    t_start, t_end = 1.0 - 1e-5, 0.0

    def v_of(t):
        a, s = linear.alpha(t), linear.sigma(t)
        return a * a * variances + s * s

    ratio = np.sqrt(v_of(t_end) / v_of(t_start))
    errors = []
    for steps in (16, 64):
        spec = SamplerSpec(kind="heun", t_start=t_start, t_end=t_end,
                           steps=steps, seed=8)
        result = heun_sample(model, spec, 256)
        start = np.stack([
            _trajectory_noise(8, i, 1, 2)[0] for i in range(256)])
        exact = start * ratio[None, :]
        errors.append(float(np.sqrt(np.mean((result.samples - exact) ** 2))))
    # Fourfold step refinement should cut the error by about 16.
    assert errors[1] < errors[0] / 6.0


def test_em_statistic_error_shrinks_at_first_order(score_model, linear,
                                                   two_gauss):
    # Weak-convergence oracle: the exact marginal second moment at the
    # stopping time is known in closed form; the discretization bias should
    # scale like 1/N (measured slope in [-1.4, -0.6] on a log-log fit).
    t_end = 0.04
    a, s = linear.alpha(t_end), linear.sigma(t_end)
    exact_second_moment = a * a * 5.0 + s * s
    errors = []
    step_counts = (4, 8, 16, 32)
    for steps in step_counts:
        spec = SamplerSpec(kind="em", t_start=1.0 - 1e-3, t_end=t_end,
                           steps=steps, diffusion=ConstantCoefficient(1.0),
                           seed=100 + steps)
        result = euler_maruyama_sample(score_model, spec, 100_000)
        moment = float(np.mean(result.samples ** 2))
        errors.append(abs(moment - exact_second_moment))
    slope = log_slope(step_counts, errors)
    assert -1.4 < slope < -0.6


# ---------------------------------------------------------------------------
# Failure modes
# ---------------------------------------------------------------------------


class _BlowUpField(FieldModel):
    """Velocity field that returns non-finite values below a threshold time."""

    prediction = Prediction.VELOCITY
    source = "test-stub"
    conditioning = None
    dimension = 1

    def __init__(self, schedule):
        self.schedule = schedule

    def evaluate(self, x, t, y=None):
        out = np.zeros_like(np.atleast_2d(x))
        if t < 0.5:
            out += np.inf
        return out


def test_non_finite_state_reports_step_index(linear):
    model = _BlowUpField(linear)
    spec = SamplerSpec(kind="heun", t_start=1.0, t_end=0.0, steps=10, seed=0)
    with pytest.raises(NonFiniteError) as excinfo:
        heun_sample(model, spec, 4)
    assert isinstance(excinfo.value.step, int)
    assert "step=" in str(excinfo.value)


class _NegativeCoefficient(DiffusionCoefficient):
    spec = "test-negative"

    def __call__(self, t):
        return np.full_like(np.asarray(t, dtype=np.float64), -1.0)


def test_em_rejects_invalid_coefficient_values(score_model):
    spec = SamplerSpec(kind="em", t_start=0.999, t_end=0.04, steps=5,
                       diffusion=_NegativeCoefficient(), seed=0)
    with pytest.raises(DomainError):
        euler_maruyama_sample(score_model, spec, 4)


class _ValueCoefficient(DiffusionCoefficient):
    spec = "test-value"

    def __init__(self, value):
        self.value = value

    def __call__(self, t):
        return np.full_like(np.asarray(t, dtype=np.float64), self.value)


class _RecordingField(FieldModel):
    """Zero velocity field that records every evaluation."""

    prediction = Prediction.VELOCITY
    conditioning = None
    dimension = 1

    def __init__(self, schedule):
        self.schedule = schedule
        self.calls = []

    def evaluate(self, x, t, y=None):
        self.calls.append(t)
        return np.zeros_like(np.atleast_2d(x))


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_em_rejects_non_finite_coefficient_values_before_any_model_call(linear, value):
    model = _RecordingField(linear)
    spec = SamplerSpec(kind="em", t_start=0.999, t_end=0.04, steps=5,
                       diffusion=_ValueCoefficient(value), seed=0)
    with pytest.raises(DomainError):
        euler_maruyama_sample(model, spec, 4)
    assert model.calls == []


def test_em_with_unclipped_bound_minimizer_is_singular(score_model, linear):
    # w_kl diverges at the noise end; a window that touches t = 1 must fail
    # loudly rather than integrate garbage.
    spec = SamplerSpec(kind="em", t_start=1.0, t_end=0.04, steps=5,
                       diffusion=KLCoefficient(linear), seed=0)
    with pytest.raises(SingularityError):
        euler_maruyama_sample(score_model, spec, 4)


def test_sample_count_validation(score_model):
    spec = SamplerSpec(kind="heun", t_start=0.999, t_end=0.0, steps=5)
    with pytest.raises(DomainError):
        heun_sample(score_model, spec, 0)
    with pytest.raises(ConfigError):  # wrong entry point for the sampler kind
        euler_maruyama_sample(score_model, spec, 4)
