"""Sample-quality metrics, transport cost, and the diffusion-choice bound."""

import json
import math
import tracemalloc

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

from helpers import count_calls, ks_statistic_uniform


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


def _one_dimensional_pools(rng):
    """(a, b) pairs of 1-D samples: continuous, rounded to 0.1 (ties), and
    all-equal pools, signed zeros among them."""
    pools = []
    for n, m in [(1, 1), (1, 6), (9, 14), (40, 33)]:
        pools.append((rng.standard_normal(n), rng.standard_normal(m) + 0.3))
        pools.append((np.round(rng.standard_normal(n), 1), np.round(rng.standard_normal(m), 1)))
        pools.append((rng.choice([-0.0, 0.0], n), rng.choice([-0.0, 0.0], m)))
        pools.append((np.full(n, 1.5), np.full(m, 1.5)))
    return pools


def test_one_dimensional_energy_distance_is_the_unpermuted_split_score(rng):
    for a, b in _one_dimensional_pools(rng):
        pooled = np.concatenate([a, b])
        unpermuted = np.arange(pooled.shape[0])[None, :]
        score = metrics._grouped_split_statistics(metrics._value_groups(pooled), a.shape[0],
                                                  unpermuted)[0]
        assert np.float64(energy_distance(a[:, None], b[:, None])).tobytes() == score.tobytes()


def test_value_groups_match_unique_searchsorted_and_bincount(rng):
    for a, b in _one_dimensional_pools(rng):
        values = np.concatenate([a, b])
        u, group, counts, _ = metrics._value_groups(values)
        expected_u = np.unique(values)
        expected_group = np.searchsorted(expected_u, values).astype(np.int32)
        expected_counts = np.bincount(expected_group, minlength=len(expected_u)).astype(np.int32)
        for got, expected in [(u, expected_u), (group, expected_group),
                              (counts, expected_counts)]:
            assert got.dtype == expected.dtype and np.array_equal(got, expected)


def _full_matrix_energy(a, b):
    def mean_distance(x, y):
        return float(np.mean(np.sqrt(np.sum((x[:, None, :] - y[None, :, :]) ** 2, axis=2))))
    return 2.0 * mean_distance(a, b) - mean_distance(a, a) - mean_distance(b, b)


@pytest.mark.parametrize("budget", [1, 3 * 53, None])  # one row, 3-4 rows, the default
def test_energy_distance_in_distance_blocks_matches_the_full_matrix(monkeypatch, rng, budget):
    if budget is not None:
        monkeypatch.setattr(metrics, "_DISTANCE_BUDGET", budget)
    for d in (2, 3):
        a, b = rng.standard_normal((53, d)), rng.standard_normal((38, d)) + 0.2
        scale = _mean_pooled_distance(np.concatenate([a, b]))
        assert abs(energy_distance(a, b) - _full_matrix_energy(a, b)) <= 1e-12 * scale


def test_energy_distance_memory_is_bounded_by_one_distance_block(rng):
    a, b = rng.standard_normal((2000, 2)), rng.standard_normal((2000, 2))
    tracemalloc.start()
    try:
        energy_distance(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


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


@pytest.mark.parametrize("count", [2.5, 0, -3, "3"])
def test_permutation_count_must_be_a_positive_integer(rng, count):
    # A fractional count would put p off its (1 + k) / (P + 1) support.
    a, b = rng.standard_normal((8, 1)), rng.standard_normal((8, 1))
    with pytest.raises(ConfigError, match="n_permutations"):
        energy_distance_permutation_test(a, b, n_permutations=count)


@pytest.mark.parametrize("count", [float("nan"), float("inf"), float("-inf"), None,
                                   True, False, np.True_])
def test_permutation_count_must_be_a_number_and_not_a_bool(rng, count):
    # Neither a raw ValueError/OverflowError/TypeError from int() nor a
    # boolean read as one permutation.
    a, b = rng.standard_normal((4, 1)), rng.standard_normal((4, 1))
    with pytest.raises(ConfigError, match="n_permutations"):
        energy_distance_permutation_test(a, b, n_permutations=count)


def test_integral_permutation_counts_agree(rng):
    a, b = rng.standard_normal((8, 2)), rng.standard_normal((8, 2))
    expected = energy_distance_permutation_test(a, b, n_permutations=7, seed=1)
    for count in (np.int64(7), 7.0):
        assert energy_distance_permutation_test(a, b, n_permutations=count,
                                                seed=1) == expected


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
    (2, 53, 38, (700, 400)),  # 18 rows per a-b distance block, 4 splits per block
    (3, 45, 30, (1000, 500)),  # 33 rows per a-b distance block, 6 splits per block
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
            assert budgets[0] // m < n  # the direct loop's a-b pass: several row blocks
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


@pytest.mark.parametrize("d", [1, 2])
def test_permutation_test_checks_and_scores_its_pair_once(monkeypatch, rng, d):
    pairs = count_calls(monkeypatch, metrics, "_sample_pair")
    groups = count_calls(monkeypatch, metrics, "_value_groups")
    a, b = rng.standard_normal((30, d)), rng.standard_normal((45, d)) + 0.2
    observed, _ = energy_distance_permutation_test(a, b, n_permutations=25, seed=4)
    assert (len(pairs), len(groups)) == (1, 1 if d == 1 else 0)
    assert observed == energy_distance(a, b)


def _recording(monkeypatch, name):
    """Replace ``metrics.<name>`` with a wrapper that keeps a copy of every
    call's orders and the statistics it returned."""
    calls = []
    scorer = getattr(metrics, name)

    def recording(data, n, orders):
        calls.append((np.array(orders), scorer(data, n, orders)))
        return calls[-1][1]

    monkeypatch.setattr(metrics, name, recording)
    return calls


@pytest.mark.parametrize("d, budget, name, widths", [
    (1, ("_COUNT_BUDGET", 7 * 50), "_grouped_split_statistics", [7] * 5 + [5]),
    (2, ("_SPLIT_BUDGET", 9 * 50), "_split_statistics", [9] * 4 + [4]),
])
def test_block_draws_equal_sequential_permutations(monkeypatch, rng, d, budget, name, widths):
    monkeypatch.setattr(metrics, *budget)
    calls = _recording(monkeypatch, name)
    generators = []

    def kept_rng(seed):
        generators.append(np.random.default_rng(np.random.SeedSequence(seed)))
        return generators[-1]

    monkeypatch.setattr(metrics, "_rng", kept_rng)
    a, b = rng.standard_normal((20, d)), rng.standard_normal((30, d))
    energy_distance_permutation_test(a, b, n_permutations=40, seed=3)
    if d == 1:  # first the unpermuted split, the threshold
        assert np.array_equal(calls.pop(0)[0], np.arange(50)[None, :])
    assert [len(orders) for orders, _ in calls] == widths
    sequential = np.random.default_rng(np.random.SeedSequence(3))
    expected = np.stack([sequential.permutation(50) for _ in range(40)])
    assert np.array_equal(np.concatenate([orders for orders, _ in calls]), expected)
    assert generators[0].random() == sequential.random()


@pytest.mark.parametrize("width", [1, 2, 25])
def test_split_statistics_do_not_depend_on_the_row_block(monkeypatch, rng, width):
    pooled = rng.standard_normal((70, 3))
    orders = [rng.permutation(70) for _ in range(width)]
    results = []
    for rows in (1, 3, metrics._SPLIT_ROWS):
        monkeypatch.setattr(metrics, "_SPLIT_ROWS", rows)
        results.append(metrics._split_statistics(pooled, 31, orders).tobytes())
    assert len(set(results)) == 1
    direct = np.array([energy_distance(pooled[order[:31]], pooled[order[31:]])
                       for order in orders])
    stats = np.frombuffer(results[0])
    assert np.max(np.abs(stats - direct)) <= 1e-12 * _mean_pooled_distance(pooled)


@pytest.mark.parametrize("n, m, budget", [
    (40, 40, None),
    (37, 55, 92 * 7),  # 7 splits per block: several blocks and a remainder
    (300, 420, 720 * 13),  # 13 splits per block
])
def test_one_dimensional_permutation_statistics_match_a_direct_loop(
        monkeypatch, rng, n, m, budget):
    if budget is not None:
        monkeypatch.setattr(metrics, "_COUNT_BUDGET", budget)
    calls = _recording(monkeypatch, "_grouped_split_statistics")
    permutations = 60
    p_values = set()
    for seed in range(5):
        a = rng.standard_normal((n, 1))
        b = rng.standard_normal((m, 1)) + 0.1 * seed
        calls.clear()
        observed, p = energy_distance_permutation_test(
            a, b, n_permutations=permutations, seed=seed)
        direct = _direct_permutation_statistics(a, b, permutations, seed)
        scale = _mean_pooled_distance(np.concatenate([a, b], axis=0))
        (_, unpermuted), *blocks = calls
        stats = np.concatenate([block for _, block in blocks])
        assert observed == energy_distance(a, b)
        assert abs(unpermuted[0] - observed) <= 1e-12 * scale
        assert np.max(np.abs(stats - direct)) <= 1e-12 * scale
        assert p == (1 + np.count_nonzero(direct >= observed)) / (permutations + 1)
        if budget is not None:
            assert len(blocks) == -(-permutations // (budget // (n + m))) > 2
            assert permutations % (budget // (n + m)) != 0
        p_values.add(p)
    assert len(p_values) > 2


def test_one_dimensional_permutation_statistics_equal_energy_distance_exactly(
        monkeypatch, rng):
    calls = _recording(monkeypatch, "_grouped_split_statistics")
    for a, b in _one_dimensional_pools(rng):
        calls.clear()
        energy_distance_permutation_test(a, b, n_permutations=30, seed=2)
        pooled = np.concatenate([a, b])
        for orders, stats in calls:
            direct = [energy_distance(pooled[order[:a.shape[0]]], pooled[order[a.shape[0]:]])
                      for order in orders]
            assert list(stats) == direct


@pytest.mark.parametrize("values", [[1.5], [0.1], [-2.7], [0.1, -2.7]])
def test_one_dimensional_permutation_test_on_equal_shares_gives_p_one(values):
    # a and b hold each value in the same share, so the observed statistic
    # is 0 and every split reaches it: a split that holds a's multiset must
    # score the same bits, however its copies are labelled.
    a = np.repeat(values, 20 // len(values))[:, None]
    b = np.repeat(values, 30 // len(values))[:, None]
    _, p = energy_distance_permutation_test(a, b, n_permutations=200, seed=4)
    assert p == 1.0


def test_one_dimensional_permutation_test_on_rounded_values_matches_a_direct_loop(rng):
    permutations = 99
    for seed in range(4):
        a = np.round(rng.standard_normal((25, 1)), 1)
        b = np.round(rng.standard_normal((35, 1)) + 0.1 * seed, 1)
        observed, p = energy_distance_permutation_test(
            a, b, n_permutations=permutations, seed=seed)
        direct = _direct_permutation_statistics(a, b, permutations, seed)
        assert p == (1 + np.count_nonzero(direct >= observed)) / (permutations + 1)


def test_one_dimensional_permutation_test_memory_does_not_grow_with_permutations(rng):
    a, b = rng.standard_normal((2048, 1)), rng.standard_normal((2048, 1))
    peaks = []
    for permutations in (200, 2000):
        tracemalloc.start()
        try:
            energy_distance_permutation_test(a, b, n_permutations=permutations, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0]
    assert peaks[0] <= 8 * 8 * metrics._COUNT_BUDGET  # eight float arrays of one block


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


def test_kl_functions_double_lambda_sigma_after_rounding_it():
    # Where lambda*sigma is subnormal (gvp, t = 1e-323), 2.0 * (lambda*sigma)
    # and w_kl = (2 lambda) * sigma are different doubles; the bound's
    # integrand and cost minimum use the first.
    gvp = make_schedule("gvp")
    t = 1e-323
    a = gvp.lambda_weight(t) * gvp.sigma(t)
    assert 2.0 * a != gvp.w_kl(t)
    w, loss = 1e-320, 1e-310
    assert kl_integrand(w, loss, t, gvp) == (loss / w) * (1.0 + w / (2.0 * a)) ** 2
    assert kl_cost_minimum(loss, t, gvp, 0.0) == (2.0 * loss / a) * 2.0


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


def test_kl_eta_coefficient_and_cost_minimizer_are_one_computation(all_schedules):
    # Bit for bit at every eta, including alpha(t) = 0 (t = 1 on linear and
    # gvp), sigma(t) = 0 (t = 0) and a zero-loss bin.  sbdm-vp refuses
    # sigma_dot, and so both, at t = 0.
    profile = LossProfile(np.linspace(0.0, 1.0, 5), np.array([0.7, 0.0, 0.05, 0.4]))
    for schedule in all_schedules:
        t = np.linspace(0.01 if schedule.name == "sbdm-vp" else 0.0, 1.0, 41)
        for eta in (0.3, 2.0):
            coefficient = KLEtaCoefficient(schedule, profile, eta)
            minimizer = kl_cost_minimizer(profile(t), t, schedule, 2.0 * eta)
            assert np.array_equal(coefficient(t), minimizer)
            assert np.all(minimizer[(t > 0.25) & (t < 0.5)] == 0.0)  # the zero-loss bin
            if schedule.name != "sbdm-vp":  # alpha(1) = 0: the sqrt(L/(2 eta)) limit
                assert coefficient(1.0) == math.sqrt(0.4 / (2.0 * eta))
                assert kl_cost_minimizer(0.4, 1.0, schedule, 2.0 * eta) == coefficient(1.0)
        below = t[t < 1.0]  # w_kl is singular at alpha(t) = 0
        at_zero = kl_cost_minimizer(profile(below), below, schedule, 0.0)
        assert np.array_equal(KLEtaCoefficient(schedule, profile, 0.0)(below), at_zero)
        assert np.array_equal(at_zero, schedule.w_kl(below))  # L = 0 included


def test_an_infinite_eta_is_refused_everywhere(linear):
    profile = LossProfile(np.array([0.1, 0.9]), np.array([0.5]))
    inf = float("inf")
    calls = [
        lambda: KLEtaCoefficient(linear, profile, inf),
        lambda: kl_bound(profile, linear, SigmaCoefficient(linear), eta=inf),
        lambda: kl_bound(profile, linear, ZeroCoefficient(), eta=inf),
        lambda: kl_cost_integrand(0.5, 0.5, 0.5, linear, inf),
        lambda: kl_cost_minimizer(0.5, 0.5, linear, inf),
        lambda: kl_cost_minimum(0.5, 0.5, linear, inf),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="eta"):
            call()


def test_bound_refuses_a_nan_profile_value_as_kl_eta_does(linear):
    nan_profile = lambda t: np.full_like(np.asarray(t, dtype=np.float64), np.nan)
    with pytest.raises(DomainError, match="loss"):
        KLEtaCoefficient(linear, nan_profile, 0.5)(0.5)
    # Refused before the integrand, so a singular one does not turn it into inf.
    for coefficient in (SigmaCoefficient(linear), ZeroCoefficient()):
        with pytest.raises(DomainError, match="loss"):
            kl_bound(nan_profile, linear, coefficient, window=(0.1, 0.9))


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


def test_bound_refuses_a_negative_eta_with_any_coefficient(linear):
    # eta is checked before the integrand, so a singular one (w = 0) does
    # not turn a refused weight into inf.
    profile = LossProfile(np.array([0.1, 0.9]), np.array([0.5]))
    for coefficient in (ZeroCoefficient(), SigmaCoefficient(linear)):
        with pytest.raises(DomainError, match="eta"):
            kl_bound(profile, linear, coefficient, eta=-1.0)


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
