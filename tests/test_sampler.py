"""Integrators: grids, windows, NFE accounting, determinism, convergence."""

import math
import sys
import threading

import numpy as np
import pytest

from driftlab import (
    AnalyticMixtureField,
    ConfigError,
    DomainError,
    GaussianMixture,
    MLPField,
    NonFiniteError,
    Prediction,
    SamplerSpec,
    SingularityError,
    default_window,
    euler_maruyama_sample,
    get_preset,
    heun_sample,
    mode_occupancy,
    time_grid,
    velocity_from_score,
)
from driftlab.field import FieldModel, gmm_marginal_score
from driftlab.sampler import _chunk_noise, _stream_states
from driftlab.schedule import (
    ConstantCoefficient,
    DiffusionCoefficient,
    KLCoefficient,
    SigmaCoefficient,
    ZeroCoefficient,
)

from helpers import log_slope, relative_error


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
