"""Sample-quality metrics, transport cost, and the diffusion-choice bound."""

import json
import math

import numpy as np
import pytest

from driftlab import (
    AnalyticMixtureField,
    ConfigError,
    ConstantCoefficient,
    DomainError,
    GaussianMixture,
    KLCoefficient,
    KLEtaCoefficient,
    LossProfile,
    MetricReport,
    Prediction,
    SigmaCoefficient,
    ZeroCoefficient,
    draw,
    energy_distance,
    energy_distance_permutation_test,
    get_preset,
    kl_bound,
    kl_cost_integrand,
    kl_cost_minimizer,
    kl_cost_minimum,
    kl_integrand,
    ks_per_axis,
    make_schedule,
    mode_occupancy,
    path_length,
)
from driftlab import metrics
from driftlab.metrics import DEFAULT_PATH_GRID

from helpers import ks_statistic_uniform


# ---------------------------------------------------------------------------
# Energy distance
# ---------------------------------------------------------------------------


def test_energy_distance_identical_sets_is_zero(rng):
    a1 = rng.standard_normal((200, 1))
    assert abs(energy_distance(a1, a1)) < 1e-12
    a3 = rng.standard_normal((150, 3))
    assert abs(energy_distance(a3, a3)) < 1e-12


def test_energy_distance_symmetry_and_nonnegativity(rng):
    a = rng.standard_normal((300, 2))
    b = rng.standard_normal((200, 2)) + 0.3
    ab = energy_distance(a, b)
    ba = energy_distance(b, a)
    assert math.isclose(ab, ba, rel_tol=1e-12)
    assert ab > -1e-12


def test_energy_distance_matches_gaussian_closed_form(rng):
    # For X ~ N(0,1), Y ~ N(mu,1):  E|X-Y| has the folded-normal closed form,
    # E|X-X'| = 2/sqrt(pi); both are exact, so the V-statistic must land on
    # the population value within sampling error.
    n = 10_000
    mu = 4.0
    a = rng.standard_normal((n, 1))
    b = rng.standard_normal((n, 1)) + mu

    def folded_mean(mean, var):
        sd = math.sqrt(var)
        phi = math.exp(-mean * mean / (2 * var)) / math.sqrt(2 * math.pi)
        cdf = 0.5 * (1.0 + math.erf(-mean / (sd * math.sqrt(2.0))))
        return 2.0 * sd * phi + mean * (1.0 - 2.0 * cdf)

    exact = 2.0 * folded_mean(mu, 2.0) - 2.0 * folded_mean(0.0, 2.0)
    observed = energy_distance(a, b)
    assert abs(observed - exact) < 0.2
    floor = energy_distance(rng.standard_normal((n, 1)),
                            rng.standard_normal((n, 1)))
    assert observed > 10.0 * abs(floor)


def test_energy_distance_1d_fast_path_equals_generic_path(rng):
    a = rng.standard_normal(400)[:, None]
    b = (rng.standard_normal(300) * 1.4 + 0.2)[:, None]
    fast = energy_distance(a, b)
    padded_a = np.concatenate([a, np.zeros_like(a)], axis=1)
    padded_b = np.concatenate([b, np.zeros_like(b)], axis=1)
    generic = energy_distance(padded_a, padded_b)
    assert math.isclose(fast, generic, rel_tol=1e-10)


def test_energy_distance_input_validation(rng):
    with pytest.raises(DomainError):
        energy_distance(rng.standard_normal((10, 2)),
                        rng.standard_normal((10, 3)))
    with pytest.raises(DomainError):
        energy_distance(np.empty((0, 1)), rng.standard_normal((10, 1)))
    with pytest.raises(DomainError):
        energy_distance(np.array([[np.nan]]), rng.standard_normal((10, 1)))


def test_permutation_test_pvalues_are_uniform_under_the_null(rng):
    p_values = []
    for _ in range(200):
        a = rng.standard_normal((60, 1))
        b = rng.standard_normal((60, 1))
        _, p = energy_distance_permutation_test(
            a, b, n_permutations=99, seed=int(rng.integers(2**31)))
        p_values.append(p)
    # Kolmogorov-Smirnov against U(0,1) at the 1% level for 200 draws.
    assert ks_statistic_uniform(np.array(p_values)) < 1.628 / math.sqrt(200)


def test_permutation_test_pvalues_are_uniform_under_the_null_in_2d(rng):
    p_values = []
    for _ in range(200):
        a = rng.standard_normal((60, 2))
        b = rng.standard_normal((60, 2))
        _, p = energy_distance_permutation_test(
            a, b, n_permutations=99, seed=int(rng.integers(2**31)))
        p_values.append(p)
    # Kolmogorov-Smirnov against U(0,1) at the 1% level for 200 draws.
    assert ks_statistic_uniform(np.array(p_values)) < 1.628 / math.sqrt(200)


def _mean_pooled_distance(pooled):
    diff = pooled[:, None, :] - pooled[None, :, :]
    return float(np.mean(np.sqrt(np.sum(diff * diff, axis=2))))


def _direct_permutation_statistics(a, b, n_permutations, seed):
    """Reference: each split drawn as the test draws it, scored on its own."""
    pooled = np.concatenate([a, b], axis=0)
    n = a.shape[0]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    stats = []
    for _ in range(n_permutations):
        order = rng.permutation(pooled.shape[0])
        stats.append(energy_distance(pooled[order[:n]], pooled[order[n:]]))
    return np.array(stats)


@pytest.mark.parametrize("d, n, m, budgets", [
    (2, 48, 48, None),
    (3, 41, 67, None),
    (2, 53, 38, (700, 400)),  # 3 rows per distance block, 4 splits per block
    (3, 45, 30, (1000, 500)),  # 4 rows per distance block, 6 splits per block
])
def test_one_pass_permutation_statistics_match_a_direct_loop(
        monkeypatch, rng, d, n, m, budgets):
    if budgets is not None:
        monkeypatch.setattr(metrics, "_DISTANCE_BUDGET", budgets[0])
        monkeypatch.setattr(metrics, "_SPLIT_BUDGET", budgets[1])
    recorded = []
    one_pass = metrics._split_statistics

    def recording(*args):
        recorded.append(one_pass(*args))
        return recorded[-1]

    monkeypatch.setattr(metrics, "_split_statistics", recording)
    permutations = 60
    p_values = set()
    for seed in range(6):
        a = rng.standard_normal((n, d))
        b = rng.standard_normal((m, d)) + 0.1 * seed
        recorded.clear()
        observed, p = energy_distance_permutation_test(
            a, b, n_permutations=permutations, seed=seed)
        direct = _direct_permutation_statistics(a, b, permutations, seed)
        stats = np.concatenate(recorded)
        scale = _mean_pooled_distance(np.concatenate([a, b], axis=0))
        # Absolute bar: under the null the statistic itself is near 0.
        assert np.max(np.abs(stats - direct)) <= 1e-12 * scale
        assert p == (1 + np.count_nonzero(direct >= observed)) / (permutations + 1)
        p_values.add(p)
        if budgets is not None:
            width = budgets[1] // (n + m)
            assert len(recorded) == -(-permutations // width) > 1
            assert budgets[0] // ((n + m) * d) < n + m  # several row blocks
    assert len(p_values) > 2


@pytest.mark.parametrize("n, m", [(40, 40), (37, 55)])
def test_one_dimensional_permutation_pvalues_match_a_direct_loop(rng, n, m):
    permutations = 80
    p_values = set()
    for seed in range(6):
        a = rng.standard_normal((n, 1))
        b = rng.standard_normal((m, 1)) + 0.15 * seed
        observed, p = energy_distance_permutation_test(
            a, b, n_permutations=permutations, seed=seed)
        direct = _direct_permutation_statistics(a, b, permutations, seed)
        assert observed == energy_distance(a, b)
        assert p == (1 + np.count_nonzero(direct >= observed)) / (permutations + 1)
        p_values.add(p)
    assert len(p_values) > 2


def test_one_pass_permutation_statistics_keep_their_precision_beside_a_far_point(rng):
    # The far point sets the grid the pooled distances are sliced on, and
    # the distances between the two tight clusters all round the same way.
    n = 150
    pooled = np.zeros((2 * n, 2))
    pooled[1::2, 0] = 0.1
    pooled[0, 0] = 1e9
    orders = [rng.permutation(2 * n) for _ in range(40)]
    stats = metrics._split_statistics(pooled, n, orders)
    direct = np.array([energy_distance(pooled[order[:n]], pooled[order[n:]])
                       for order in orders])
    assert np.max(np.abs(stats - direct)) <= 1e-12 * _mean_pooled_distance(pooled)


def test_permutation_test_on_identical_points_gives_p_one():
    a = np.tile([1.5, -2.0], (20, 1))
    b = np.tile([1.5, -2.0], (30, 1))
    stat, p = energy_distance_permutation_test(a, b, n_permutations=50, seed=4)
    assert stat == 0.0
    assert p == 1.0
    assert np.all(_direct_permutation_statistics(a, b, 50, 4) == 0.0)


def test_permutation_test_detects_a_clear_shift(rng):
    a = rng.standard_normal((100, 1))
    b = rng.standard_normal((100, 1)) + 3.0
    stat, p = energy_distance_permutation_test(a, b, n_permutations=99, seed=0)
    assert stat > 1.0
    assert p == pytest.approx(1.0 / 100.0)


# ---------------------------------------------------------------------------
# Per-axis KS and mode occupancy
# ---------------------------------------------------------------------------


def test_ks_per_axis_hand_checked_values():
    a = np.array([[0.0], [1.0], [2.0]])
    b = np.array([[0.5], [1.5]])
    assert ks_per_axis(a, b)[0] == pytest.approx(1.0 / 3.0)
    assert ks_per_axis(a, a)[0] == 0.0
    low = np.zeros((5, 1))
    high = np.ones((5, 1))
    assert ks_per_axis(low, high)[0] == 1.0


def test_ks_per_axis_is_per_coordinate(rng):
    n = 2000
    shared = rng.standard_normal((n, 1))
    a = np.concatenate([shared, rng.standard_normal((n, 1))], axis=1)
    b = np.concatenate([shared, rng.standard_normal((n, 1)) + 5.0], axis=1)
    stats = ks_per_axis(a, b)
    assert stats.shape == (2,)
    assert stats[0] == 0.0
    assert stats[1] > 0.9


def test_mode_occupancy_counts_nearest_means(rng):
    gmm = get_preset("two-gauss-1d")
    points = np.array([[-2.1], [-1.9], [-0.4], [1.8], [2.2], [2.0]])
    occupancy = mode_occupancy(points, gmm)
    assert np.array_equal(occupancy, [0.5, 0.5])
    samples, _ = draw(gmm, 20_000, seed=7)
    occupancy = mode_occupancy(samples, gmm)
    assert np.all(np.abs(occupancy - 0.5) < 3.0 * math.sqrt(0.25 / 20_000))
    with pytest.raises(DomainError):
        mode_occupancy(rng.standard_normal((10, 2)), gmm)


# ---------------------------------------------------------------------------
# Transport cost of a velocity field
# ---------------------------------------------------------------------------


def test_path_length_is_zero_for_the_stationary_flow(gvp):
    # A standard Gaussian is invariant under the variance-preserving
    # interpolation, so its exact velocity field vanishes identically.
    gmm = GaussianMixture([1.0], [[0.0]], [[1.0]])
    field = AnalyticMixtureField(gmm, gvp, prediction=Prediction.VELOCITY)
    assert path_length(field, gmm, n_mc=2000, seed=1) < 1e-12


def test_path_length_matches_closed_form_for_offset_gaussian(linear):
    # Unit Gaussian at mean mu under the linear schedule: the exact velocity
    # is linear in x with known mean and variance, so the expected squared
    # speed is mu^2 + (2t-1)^2 / ((1-t)^2 + t^2) pointwise in t.
    mu = 5.0
    gmm = GaussianMixture([1.0], [[mu]], [[1.0]])
    field = AnalyticMixtureField(gmm, linear, prediction=Prediction.VELOCITY)
    value, se = path_length(field, gmm, n_mc=20_000, seed=3, return_se=True)
    grid = DEFAULT_PATH_GRID
    speed = mu * mu + (2 * grid - 1) ** 2 / ((1 - grid) ** 2 + grid ** 2)
    exact_on_grid = float(np.trapezoid(speed, grid))
    assert abs(value - exact_on_grid) < 4.0 * se


def test_path_length_validation(linear, gvp):
    gmm = get_preset("two-gauss-1d")
    score_field = AnalyticMixtureField(gmm, linear, prediction=Prediction.SCORE)
    with pytest.raises(ConfigError):
        path_length(score_field, gmm)
    velocity_field = AnalyticMixtureField(gmm, gvp,
                                          prediction=Prediction.VELOCITY)
    with pytest.raises(ConfigError):
        path_length(velocity_field, gmm, t_grid=np.array([0.5]))
    with pytest.raises(ConfigError):
        path_length(velocity_field, gmm, t_grid=np.array([0.9, 0.1]))
    with pytest.raises(ConfigError):
        path_length(velocity_field, "not-a-dataset")


# ---------------------------------------------------------------------------
# Diffusion-choice bound: integrand, minimizers, integral
# ---------------------------------------------------------------------------


def test_integrand_is_minimized_at_the_kl_coefficient(linear):
    t, loss = 0.6, 0.37
    a = linear.lambda_weight(t) * linear.sigma(t)
    w_star = 2.0 * a
    at_star = kl_integrand(w_star, loss, t, linear)
    assert math.isclose(at_star, 2.0 * loss / a, rel_tol=1e-12)
    assert kl_integrand(0.5 * w_star, loss, t, linear) > at_star
    assert kl_integrand(2.0 * w_star, loss, t, linear) > at_star
    assert kl_integrand(0.0, loss, t, linear) == np.inf
    with pytest.raises(DomainError):
        kl_integrand(-1.0, loss, t, linear)
    with pytest.raises(DomainError):
        kl_integrand(1.0, -loss, t, linear)
    vector = kl_integrand(np.array([w_star, 0.0]), np.array([loss, loss]),
                          np.array([t, t]), linear)
    assert vector[0] == pytest.approx(at_star)
    assert vector[1] == np.inf


@pytest.mark.parametrize("eta", [0.0, 0.3, 2.0])
def test_cost_minimizer_matches_numeric_argmin(linear, eta):
    t, loss = 0.55, 0.8
    w_grid = np.linspace(1e-4, 6.0, 200_001)
    values = kl_cost_integrand(w_grid, loss, t, linear, eta)
    numeric = float(w_grid[int(np.argmin(values))])
    closed = kl_cost_minimizer(loss, t, linear, eta)
    assert abs(closed - numeric) < 2 * (w_grid[1] - w_grid[0])
    if eta == 0.0:
        a = linear.lambda_weight(t) * linear.sigma(t)
        assert math.isclose(closed, 2.0 * a, rel_tol=1e-12)


def test_cost_minimum_equals_integrand_at_the_minimizer(linear):
    for eta in (0.0, 0.25, 1.5):
        for t in (0.2, 0.5, 0.8):
            loss = 0.4 + t
            w_star = kl_cost_minimizer(loss, t, linear, eta)
            value = kl_cost_integrand(w_star, loss, t, linear, eta)
            closed = kl_cost_minimum(loss, t, linear, eta)
            assert math.isclose(value, closed, rel_tol=1e-10)
            assert kl_cost_integrand(w_star * 1.01, loss, t, linear, eta) > closed
            assert kl_cost_integrand(w_star * 0.99, loss, t, linear, eta) > closed


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", ["linear", "gvp"])
def test_cost_minimum_at_zero_and_subnormal_times(name):
    schedule = make_schedule(name)
    for eta in (0.0, 0.5):
        assert kl_cost_minimum(0.3, 0.0, schedule, eta) == math.inf
        assert kl_cost_minimum(0.3, -0.0, schedule, eta) == math.inf
        assert kl_cost_minimum(0.3, 5e-324, schedule, eta) == math.inf
        both = kl_cost_minimum(np.array([0.3, 0.3]), np.array([-0.0, 0.0]),
                               schedule, eta)
        assert np.array_equal(both, [math.inf, math.inf])


def test_regularized_coefficient_beats_unregularized_on_the_full_objective(linear):
    # Under both normalizations of the bound-plus-cost objective, the
    # eta-aware coefficient must not lose to the plain KL minimizer.
    eta = 0.8
    profile = LossProfile(np.array([0.0, 1.0]), np.array([0.6]))
    coefficient = KLEtaCoefficient(linear, profile, eta)
    for t in (0.3, 0.6, 0.9):
        loss = profile(t)
        w_plain = 2.0 * linear.lambda_weight(t) * linear.sigma(t)
        w_reg = coefficient(t)
        half_objective = lambda w: (0.5 * kl_integrand(w, loss, t, linear)
                                    + eta * w)
        assert half_objective(w_reg) <= half_objective(w_plain) + 1e-12
        doubled = lambda w: kl_cost_integrand(w, loss, t, linear, eta)
        w_doubled = kl_cost_minimizer(loss, t, linear, eta)
        assert doubled(w_doubled) <= doubled(w_plain) + 1e-12


def test_kl_eta_coefficient_is_the_cost_minimizer_at_twice_its_eta(all_schedules):
    # kl_bound and kl-eta weigh the cost as eta ∫ w; kl_cost_* double the
    # whole integrand, so their eta is twice as large.
    profile = LossProfile(np.linspace(0.05, 0.95, 5), np.array([0.7, 0.2, 0.05, 0.4]))
    t = np.linspace(0.06, 0.94, 23)
    for schedule in all_schedules:
        for eta in (0.1, 0.8, 3.0):
            coefficient = KLEtaCoefficient(schedule, profile, eta)(t)
            minimizer = kl_cost_minimizer(profile(t), t, schedule, 2.0 * eta)
            assert np.allclose(coefficient, minimizer, rtol=1e-12, atol=0.0)
            same_eta = kl_cost_minimizer(profile(t), t, schedule, eta)
            assert not np.allclose(coefficient, same_eta, rtol=1e-3, atol=0.0)


def test_bound_integral_matches_antiderivative(linear):
    # Constant loss, constant w, linear schedule: the integrand
    # (L/W)(1 + W(1-t)/(2t))^2 has an elementary antiderivative, giving an
    # independent check on the quadrature.
    L, W, eta = 0.3, 0.7, 0.25
    lo, hi = 0.1, 0.9

    def antiderivative(t):
        # of (L/W) * (1 + W(1-t)/t + W^2 (1-t)^2 / (4 t^2))
        return (L / W) * (t + W * (math.log(t) - t)
                          + 0.25 * W * W * (-1.0 / t - 2.0 * math.log(t) + t))

    exact = 0.5 * (antiderivative(hi) - antiderivative(lo)) + eta * W * (hi - lo)
    profile = lambda t: np.full_like(np.asarray(t, dtype=np.float64), L)
    value = kl_bound(profile, linear, ConstantCoefficient(W), eta=eta,
                     window=(lo, hi), grid_points=4097)
    assert math.isclose(value, exact, rel_tol=1e-5)


def test_bound_is_infinite_when_the_integrand_is_singular(linear):
    profile = LossProfile(np.array([0.1, 0.9]), np.array([0.5]))
    assert kl_bound(profile, linear, ZeroCoefficient()) == np.inf
    # Window touching t = 1 hits the schedule's refused point.
    assert kl_bound(profile, linear, SigmaCoefficient(linear),
                    window=(0.1, 1.0)) == np.inf
    finite = kl_bound(profile, linear, SigmaCoefficient(linear))
    assert np.isfinite(finite)
    assert finite > 0.0


def test_bound_window_defaults_to_the_profile_window(linear):
    profile = LossProfile(np.array([0.2, 0.5, 0.8]), np.array([0.5, 0.3]))
    implicit = kl_bound(profile, linear, SigmaCoefficient(linear))
    explicit = kl_bound(profile, linear, SigmaCoefficient(linear),
                        window=(0.2, 0.8))
    assert implicit == explicit
    with pytest.raises(ConfigError):
        kl_bound(lambda t: np.ones_like(np.asarray(t)), linear,
                 SigmaCoefficient(linear))  # bare callable: window required


def test_kl_coefficient_minimizes_the_bound_among_presets(linear):
    # The bound evaluated at its own pointwise minimizer cannot exceed the
    # bound at any other admissible coefficient.
    profile = LossProfile(np.linspace(0.05, 0.9, 6),
                          np.array([0.8, 0.5, 0.4, 0.45, 0.6]))
    at_kl = kl_bound(profile, linear, KLCoefficient(linear))
    for other in (SigmaCoefficient(linear), ConstantCoefficient(0.8),
                  ConstantCoefficient(2.0)):
        assert at_kl <= kl_bound(profile, linear, other) + 1e-12


# ---------------------------------------------------------------------------
# Report container
# ---------------------------------------------------------------------------


def test_metric_report_text_and_json_are_deterministic():
    def build():
        report = MetricReport()
        report.set("energy_distance", 0.00123)
        report.set("nfe", 500)
        report.set("occupancy", np.array([0.5, 0.5]))
        report.set("sampler", "heun")
        report.set("passed", True)
        return report

    one, two = build(), build()
    assert one.to_text() == two.to_text()
    assert one.to_json() == two.to_json()
    text = one.to_text()
    first_line = text.splitlines()[0]
    assert first_line == f"note {MetricReport.NOTE}"
    assert "energy_distance 0.00123" in text
    assert "nfe 500" in text
    assert "occupancy 0.5 0.5" in text
    assert "passed true" in text
    payload = json.loads(one.to_json())
    assert payload["note"] == MetricReport.NOTE
    assert payload["energy_distance"] == 0.00123
    assert payload["occupancy"] == [0.5, 0.5]
    assert payload["passed"] is True


def test_metric_report_rejects_blank_or_spaced_names():
    report = MetricReport()
    with pytest.raises(ConfigError):
        report.set("", 1.0)
    with pytest.raises(ConfigError):
        report.set("two words", 1.0)
