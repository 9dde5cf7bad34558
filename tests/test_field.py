"""Velocity/score fields, exact mixture fields, conversions, guidance."""

import math

import numpy as np
import pytest

from driftlab import (
    PRESET_NAMES,
    AnalyticMixtureField,
    Conditioning,
    DomainError,
    GaussianMixture,
    InterpolantSchedule,
    MLPField,
    Prediction,
    SingularityError,
    UnconditionalModelError,
    get_preset,
    gmm_class_posterior,
    gmm_conditional_score,
    gmm_conditional_velocity,
    gmm_marginal_score,
    gmm_marginal_velocity,
    gmm_posterior_means,
    guided_field,
    interpolant_derivative,
    interpolate,
    make_schedule,
    mixture_log_density,
    score_from_velocity,
    velocity_from_score,
)

from driftlab.field import Conditioning, _pairwise_sum
from helpers import count_calls, gradient_fd, relative_error

TIME_FORMS = {"float": float, "np.float64": np.float64}


@pytest.fixture
def two_gauss():
    return get_preset("two-gauss-1d")


@pytest.fixture
def grid9():
    return get_preset("grid-9")


# ---------------------------------------------------------------------------
# Interpolation map
# ---------------------------------------------------------------------------


def test_interpolate_is_the_stated_combination(linear):
    x_star = np.array([[1.0, 2.0], [3.0, -1.0]])
    eps = np.array([[0.5, 0.5], [-0.5, 0.25]])
    t = 0.3
    out = interpolate(linear, x_star, eps, t)
    assert np.allclose(out, 0.7 * x_star + 0.3 * eps, atol=1e-15)
    dot = interpolant_derivative(linear, x_star, eps, t)
    assert np.allclose(dot, -x_star + eps, atol=1e-15)


def test_interpolate_endpoints(linear):
    x_star = np.array([[2.0], [-1.0]])
    eps = np.array([[0.1], [0.4]])
    assert np.allclose(interpolate(linear, x_star, eps, 0.0), x_star)
    assert np.allclose(interpolate(linear, x_star, eps, 1.0), eps)


def test_interpolate_per_sample_times(gvp):
    x_star = np.array([[1.0], [1.0], [1.0]])
    eps = np.zeros((3, 1))
    t = np.array([0.0, 0.5, 1.0])
    out = interpolate(gvp, x_star, eps, t)
    assert np.allclose(out[:, 0], gvp.alpha(t), atol=1e-15)


# ---------------------------------------------------------------------------
# Score <-> velocity conversions
# ---------------------------------------------------------------------------


def test_conversion_round_trip(all_schedules, rng):
    for schedule in all_schedules:
        x = rng.normal(size=(1000, 3))
        v = rng.normal(size=(1000, 3))
        t = rng.uniform(0.05, 0.95, size=1000)
        s = score_from_velocity(schedule, v, x, t)
        v_back = velocity_from_score(schedule, s, x, t)
        assert np.max(relative_error(v, v_back)) < 1e-10
        s_back = score_from_velocity(
            schedule, velocity_from_score(schedule, s, x, t), x, t)
        assert np.max(relative_error(s, s_back)) < 1e-10


def test_conversion_refusals(linear, gvp, vp):
    x = np.array([[1.0]])
    value = np.array([[0.5]])
    for schedule in (linear, gvp):
        with pytest.raises(SingularityError):
            score_from_velocity(schedule, value, x, 0.0)  # sigma = 0
        with pytest.raises(SingularityError):
            velocity_from_score(schedule, value, x, 1.0)  # alpha = 0
    with pytest.raises(SingularityError):
        velocity_from_score(vp, value, x, 0.0)  # sigma_dot singular
    # The variance-preserving path never loses alpha, so t=1 is regular.
    velocity_from_score(vp, value, x, 1.0)


class _EqualWeightsSchedule(InterpolantSchedule):
    """alpha = sigma = 1 - t/2: in no registry, and its conversion
    denominator alpha_dot*sigma - alpha*sigma_dot is 0 at every t."""

    name = "equal-weights"

    def _alpha(self, t):
        return 1.0 - 0.5 * t

    def _sigma(self, t):
        return 1.0 - 0.5 * t

    def _alpha_dot(self, t, alpha, sigma):
        return np.full_like(t, -0.5)

    def _sigma_dot(self, t, alpha, sigma):
        return np.full_like(t, -0.5)


def test_score_from_velocity_refuses_a_vanishing_denominator():
    # sigma(0.5) = 0.75, so only the denominator refuses.
    with pytest.raises(SingularityError, match="denominator vanished"):
        score_from_velocity(_EqualWeightsSchedule(), np.array([[0.5]]), np.array([[1.0]]), 0.5)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("form", ["float", "np.float64", "per-row"])
def test_conversions_keep_their_expressions_bitwise(all_schedules, rng, form):
    # The two conversions written out from the public accessors, in their
    # order of operations.  The samplers' manual references call the
    # conversions themselves, so only this test sees their arithmetic move.
    n = 257
    x = rng.normal(scale=3.0, size=(n, 2))
    value = rng.normal(scale=3.0, size=(n, 2))
    x[::5] *= -0.0  # signed zeros
    value[::7] = -0.0
    if form == "per-row":
        per_row = rng.uniform(0.0, 1.0, size=n)
        per_row[:3] = (1e-6, 0.5, 1.0 - 1e-6)
        times = [per_row]
    else:
        times = [TIME_FORMS[form](t) for t in (1e-6, 0.04, 0.35, 0.5, 0.999)]
    for schedule in all_schedules:
        for t in times:
            column = (lambda q: q[:, None]) if form == "per-row" else (lambda q: q)
            a, s = schedule.alpha(t), schedule.sigma(t)
            a_dot, s_dot = schedule.alpha_dot(t), schedule.sigma_dot(t)
            lam = schedule.lambda_weight(t)
            velocity = column(a_dot / a) * x - column(lam * s) * value
            score = (column(a) * value - column(a_dot) * x) / column(s * (a_dot * s - a * s_dot))
            assert np.array_equal(_bits(velocity_from_score(schedule, value, x, t)),
                                  _bits(velocity)), (schedule.name, t)
            assert np.array_equal(_bits(score_from_velocity(schedule, value, x, t)),
                                  _bits(score)), (schedule.name, t)
            if form != "per-row":  # a bare d-vector is one row
                assert np.array_equal(_bits(velocity_from_score(schedule, value[0], x[0], t)),
                                      _bits(velocity[0]))
                assert np.array_equal(_bits(score_from_velocity(schedule, value[0], x[0], t)),
                                      _bits(score[0]))


# ---------------------------------------------------------------------------
# Mixture container
# ---------------------------------------------------------------------------


def test_mixture_validation():
    with pytest.raises(DomainError):
        GaussianMixture([0.6, 0.6], [[0.0], [1.0]])
    with pytest.raises(DomainError):
        GaussianMixture([1.2, -0.2], [[0.0], [1.0]])
    with pytest.raises(DomainError):  # not positive definite
        GaussianMixture([1.0], [[0.0, 0.0]],
                        [[[1.0, 2.0], [2.0, 1.0]]])


UNUSABLE_MIXTURES = {
    "nan-mean": ([[np.nan]], None),
    "inf-mean": ([[np.inf]], None),
    "inf-variance": ([[0.0]], [np.inf]),
    "nan-off-diagonal": ([[0.0, 0.0]], [[[1.0, np.nan], [0.0, 1.0]]]),
    "zero-dimensions": (np.zeros((1, 0)), None),
}


@pytest.mark.parametrize("case", sorted(UNUSABLE_MIXTURES))
def test_mixture_refuses_non_finite_or_dimensionless_parameters(case):
    # Accepted, each would make every exact-field value NaN, or (d = 0) fail
    # inside a sampler.
    means, covariances = UNUSABLE_MIXTURES[case]
    with pytest.raises(DomainError):
        GaussianMixture([1.0], means, covariances)


def test_mixture_refuses_covariances_of_another_shape():
    # Neither (K,), (K, d) nor (K, d, d).
    with pytest.raises(DomainError, match="covariances must be"):
        GaussianMixture([1.0], [[0.0, 0.0]], np.ones((1, 3)))


def test_mixture_covariance_forms_agree(rng):
    means = [[0.0, 0.0], [3.0, 1.0]]
    weights = [0.4, 0.6]
    iso = GaussianMixture(weights, means, [0.25, 0.25])
    diag = GaussianMixture(weights, means, [[0.25, 0.25], [0.25, 0.25]])
    full = GaussianMixture(weights, means,
                           [np.eye(2) * 0.25, np.eye(2) * 0.25])
    x = rng.normal(size=(50, 2))
    lin = make_schedule("linear")
    for other in (diag, full):
        assert np.allclose(mixture_log_density(iso, lin, x, 0.5),
                           mixture_log_density(other, lin, x, 0.5), atol=1e-12)


def test_mixture_scalar_means_coerced():
    gmm = GaussianMixture([0.5, 0.5], [-2.0, 2.0])
    assert gmm.dimension == 1
    assert gmm.means.shape == (2, 1)


# ---------------------------------------------------------------------------
# Exact mixture score: finite-difference-of-log-density oracle
# ---------------------------------------------------------------------------


def test_score_matches_log_density_gradient(all_schedules, two_gauss, grid9, rng):
    for gmm in (two_gauss, grid9):
        for schedule in all_schedules:
            xs = rng.normal(scale=2.0, size=(50, gmm.dimension))
            ts = rng.uniform(0.05, 0.95, size=50)
            scores = gmm_marginal_score(gmm, schedule, xs, ts)
            for i in range(50):
                fd = gradient_fd(
                    lambda p: mixture_log_density(
                        gmm, schedule, p[None, :], float(ts[i]))[0],
                    xs[i], h=1e-5)
                assert np.max(np.abs(scores[i] - fd)) < 1e-5


def test_single_gaussian_closed_form_score(linear):
    # Independent hand-derived form for one anisotropic Gaussian.
    variances = np.array([0.5, 2.0])
    gmm = GaussianMixture([1.0], [[0.0, 0.0]], [variances])
    x = np.array([[1.0, -2.0], [0.3, 0.7]])
    t = 0.4
    a, s = linear.alpha(t), linear.sigma(t)
    expected = -x / (a * a * variances + s * s)
    assert np.allclose(gmm_marginal_score(gmm, linear, x, t), expected,
                       atol=1e-12)


# ---------------------------------------------------------------------------
# Diagonal and full covariances against a per-point reference; row independence
# ---------------------------------------------------------------------------


def _correlated_2d():
    return GaussianMixture([0.3, 0.5, 0.2], [[0.0, 1.0], [2.0, -1.0], [-1.5, -0.5]],
                           [[[1.0, 0.6], [0.6, 0.8]],
                            [[0.5, -0.2], [-0.2, 0.3]],
                            [[0.2, 0.15], [0.15, 0.4]]])


def _mixture_4d(correlated):
    """Three 4-D components with full or diagonal covariances.  In 4-D a BLAS
    product over the row axis can round a lone row (a matrix-vector kernel)
    differently from the same row in a batch (a matrix-matrix kernel)."""
    draw = np.random.default_rng(4)
    factors = draw.normal(size=(3, 4, 4))
    covariances = factors @ factors.transpose(0, 2, 1) + 0.2 * np.eye(4)
    if not correlated:
        covariances = np.diagonal(covariances, axis1=1, axis2=2)
    return GaussianMixture([0.3, 0.5, 0.2], draw.normal(scale=2.0, size=(3, 4)), covariances)


MIXTURES = {
    **{name: (lambda name=name: get_preset(name)) for name in PRESET_NAMES},
    "correlated-2d": _correlated_2d,
    "correlated-4d": lambda: _mixture_4d(correlated=True),
    "diagonal-4d": lambda: _mixture_4d(correlated=False),
}


def _reference_parts(gmm, schedule, x, t):
    """Log density and score of the time-t mixture, one point and one
    component at a time: ``C = alpha^2 Sigma_k + sigma^2 I`` is solved with
    ``np.linalg.solve`` and its log-determinant taken by ``slogdet``."""
    n, d = x.shape
    ts = np.broadcast_to(np.asarray(t, dtype=np.float64), (n,))
    log_density = np.empty(n)
    score = np.empty((n, d))
    for i in range(n):
        a, s = float(schedule.alpha(ts[i])), float(schedule.sigma(ts[i]))
        logs, solved = [], []
        for w, mu, cov in zip(gmm.weights, gmm.means, gmm.covariances):
            c = a * a * cov + s * s * np.eye(d)
            r = x[i] - a * mu
            z = np.linalg.solve(c, r)
            _, logdet = np.linalg.slogdet(c)
            logs.append(math.log(w) - 0.5 * (d * math.log(2.0 * math.pi) + logdet + r @ z))
            solved.append(z)
        logs = np.array(logs)
        peak = logs.max()
        log_density[i] = peak + math.log(np.sum(np.exp(logs - peak)))
        resp = np.exp(logs - log_density[i])
        score[i] = -resp @ np.array(solved)
    return log_density, score


def test_full_covariance_log_density_matches_scipy(all_schedules, rng):
    stats = pytest.importorskip("scipy.stats")
    special = pytest.importorskip("scipy.special")
    gmm = _correlated_2d()
    x = rng.normal(scale=2.0, size=(40, 2))
    for schedule in all_schedules:
        for t in (0.0, 0.35, 1.0):
            a, s = schedule.alpha(t), schedule.sigma(t)
            expected = special.logsumexp(
                [math.log(w) + stats.multivariate_normal(
                    a * mu, a * a * c + s * s * np.eye(2)).logpdf(x)
                 for w, mu, c in zip(gmm.weights, gmm.means, gmm.covariances)], axis=0)
            assert np.max(relative_error(mixture_log_density(gmm, schedule, x, t),
                                         expected)) < 1e-12


@pytest.mark.parametrize("name", sorted(MIXTURES))
def test_exact_field_matches_per_point_reference(name, all_schedules, rng):
    # Presets and diagonal-4d take the closed-form diagonal path, the
    # correlated mixtures the per-point solve.
    gmm = MIXTURES[name]()
    x = rng.normal(scale=3.0, size=(40, gmm.dimension))
    for schedule in all_schedules:
        for t in (0.0, 0.35, 1.0, rng.uniform(0.0, 1.0, size=40)):
            ref_log, ref_score = _reference_parts(gmm, schedule, x, t)
            assert np.max(relative_error(mixture_log_density(gmm, schedule, x, t),
                                         ref_log)) < 1e-12
            assert np.max(relative_error(gmm_marginal_score(gmm, schedule, x, t),
                                         ref_score)) < 1e-12
        for k in range(gmm.n_components):
            single = GaussianMixture([1.0], gmm.means[k:k + 1], gmm.covariances[k:k + 1])
            _, expected = _reference_parts(single, schedule, x, t)
            got = gmm_conditional_score(gmm, schedule, x, t, k)
            assert np.max(relative_error(got, expected)) < 1e-12


def _batched_reference(gmm, schedule, x, t, component=None):
    """Log density, score, class posterior and posterior means of the time-t
    mixture from the batched (n, K, d) expressions: a broadcast residual,
    einsum reductions and ``np.sum`` along rows.  The field must match them
    bit for bit."""
    n, d = x.shape
    a = np.asarray(schedule.alpha(t), dtype=np.float64)
    s = np.asarray(schedule.sigma(t), dtype=np.float64)
    picked = slice(None) if component is None else slice(component, component + 1)
    log_weights = np.log(gmm.weights) if component is None else np.zeros(1)
    covariances = gmm.covariances[picked]
    variances = np.diagonal(covariances, axis1=1, axis2=2)
    diff = x[:, None, :] - a[..., None, None] * gmm.means[picked]
    if np.array_equal(covariances, variances[:, :, None] * np.eye(d)):
        var = (a * a)[..., None, None] * variances + (s * s)[..., None, None]
        solved = diff / var
        logdet = np.sum(np.log(var), axis=-1)
    else:
        cov = ((a * a)[..., None, None, None] * covariances
               + (s * s)[..., None, None, None] * np.eye(d))
        solved = np.linalg.solve(cov[None] if cov.ndim == 3 else cov, diff[..., None])[..., 0]
        _, logdet = np.linalg.slogdet(cov)
    quad = np.einsum("nkd,nkd->nk", diff, solved)
    weighted = log_weights + -0.5 * (d * np.log(2.0 * np.pi) + logdet + quad)
    peak = np.max(weighted, axis=1, keepdims=True)
    log_density = peak[:, 0] + np.log(np.sum(np.exp(weighted - peak), axis=1))
    resp = np.exp(weighted - log_density[:, None])
    score = -np.einsum("nk,nkd->nd", resp, solved)
    post_x = gmm.means[picked] + a[..., None, None] * np.einsum(
        "kde,nke->nkd", covariances, solved)
    post_e = s[..., None, None] * solved
    return (log_density, score, resp, np.einsum("nk,nkd->nd", resp, post_x),
            np.einsum("nk,nkd->nd", resp, post_e))


def _wide_mixture(dimension, components, correlated):
    """A mixture whose sums over d or K run past numpy's 8-term blocks."""
    draw = np.random.default_rng(dimension + components)
    means = draw.normal(scale=2.0, size=(components, dimension))
    variances = draw.uniform(0.2, 2.0, size=(components, dimension))
    if not correlated:
        return GaussianMixture(np.full(components, 1.0 / components), means, variances)
    factors = draw.normal(size=(components, dimension, dimension))
    covariances = factors @ factors.transpose(0, 2, 1) + np.eye(dimension)
    return GaussianMixture(np.full(components, 1.0 / components), means, covariances)


BITWISE_MIXTURES = {
    **MIXTURES,
    "eleven-gauss-1d": lambda: _wide_mixture(1, 11, correlated=False),
    "diagonal-9d": lambda: _wide_mixture(9, 3, correlated=False),
    "correlated-9d": lambda: _wide_mixture(9, 2, correlated=True),
}


@pytest.mark.parametrize("count", [*range(1, 41), 127, 128, 129, 130, 256, 257, 1000])
def test_pairwise_sum_is_numpys_row_sum(count, rng):
    # Past 8 rows numpy adds in eight interleaved partial sums, and past 128
    # it splits the run in two; mixed magnitudes make every order show.
    rows = rng.normal(size=(count, 5)) * 10.0 ** rng.uniform(-8, 8, size=(count, 5))
    expected = np.add.reduce(np.ascontiguousarray(np.moveaxis(rows, 0, -1)), axis=-1)
    assert np.array_equal(_pairwise_sum(rows), expected)


@pytest.mark.parametrize("name", sorted(BITWISE_MIXTURES))
def test_exact_field_matches_batched_reference_bitwise(name, all_schedules, rng):
    # The per-component kernel keeps every summation order of the batched
    # expressions, so its bits are theirs at any batch size, at scalar and
    # per-row t (the endpoints included), and far from every mean.
    gmm = BITWISE_MIXTURES[name]()
    d = gmm.dimension
    for n in (1, 7, 2048):
        x = rng.normal(scale=3.0, size=(n, d))
        x[::3] += rng.choice([-60.0, 45.0], size=(len(x[::3]), d))
        per_row = rng.uniform(0.0, 1.0, size=n)
        per_row[:2] = (0.0, 1.0)[:n]
        for schedule in all_schedules:
            for t in (0.0, 0.35, 1.0, per_row[:n]):
                log_density, score, resp, e_x, e_e = _batched_reference(gmm, schedule, x, t)
                assert np.array_equal(mixture_log_density(gmm, schedule, x, t), log_density)
                assert np.array_equal(gmm_marginal_score(gmm, schedule, x, t), score)
                assert np.array_equal(gmm_class_posterior(gmm, schedule, x, t), resp)
                got_x, got_e = gmm_posterior_means(gmm, schedule, x, t)
                assert np.array_equal(got_x, e_x) and np.array_equal(got_e, e_e)
                for k in range(gmm.n_components):
                    expected = _batched_reference(gmm, schedule, x, t, component=k)[1]
                    assert np.array_equal(gmm_conditional_score(gmm, schedule, x, t, k),
                                          expected), (schedule.name, n, k)


@pytest.mark.parametrize("per_row_t", [False, True], ids=["scalar-t", "per-row-t"])
@pytest.mark.parametrize("name", ["grid-9", "two-gauss-1d", "correlated-2d",
                                  "correlated-4d", "diagonal-4d"])
def test_exact_field_rows_do_not_depend_on_their_batch(name, per_row_t, gvp, rng):
    # The contract behind chunk-invariant sampling: each row of the exact
    # field is computed on its own, bit for bit, whatever batch it is in.
    gmm = MIXTURES[name]()
    n = 97
    x = rng.normal(scale=3.0, size=(n, gmm.dimension))
    t = rng.uniform(0.0, 1.0, size=n) if per_row_t else 0.35

    def rows(lo, hi):
        return x[lo:hi], (t[lo:hi] if per_row_t else t)

    whole = gmm_marginal_score(gmm, gvp, x, t)
    for i in range(n):
        assert np.array_equal(gmm_marginal_score(gmm, gvp, *rows(i, i + 1)), whole[i:i + 1])
    cuts = [0, 1, 8, 31, 57, n]
    pieces = [gmm_marginal_score(gmm, gvp, *rows(lo, hi)) for lo, hi in zip(cuts, cuts[1:])]
    assert np.array_equal(np.concatenate(pieces), whole)


# ---------------------------------------------------------------------------
# Posterior means and the reconstruction identity
# ---------------------------------------------------------------------------


def test_posterior_reconstruction_identity(all_schedules, two_gauss, grid9, rng):
    for gmm in (two_gauss, grid9):
        for schedule in all_schedules:
            x = rng.normal(scale=2.0, size=(200, gmm.dimension))
            t = rng.uniform(0.05, 0.95, size=200)
            post_x, post_e = gmm_posterior_means(gmm, schedule, x, t)
            alpha = schedule.alpha(t)[:, None]
            sigma = schedule.sigma(t)[:, None]
            assert np.max(np.abs(alpha * post_x + sigma * post_e - x)) < 1e-10


def test_posterior_means_scalar_time(two_gauss, linear):
    x = np.array([[0.5], [-0.25]])
    post_x, post_e = gmm_posterior_means(two_gauss, linear, x, 0.3)
    assert post_x.shape == x.shape and post_e.shape == x.shape
    assert np.max(np.abs(0.7 * post_x + 0.3 * post_e - x)) < 1e-12


# ---------------------------------------------------------------------------
# Exact mixture velocity: self-normalized importance-sampling oracle
# ---------------------------------------------------------------------------


def test_velocity_matches_importance_sampling_oracle(two_gauss, linear):
    # E[alpha_dot x* + sigma_dot eps | x_t = x] by direct Monte Carlo over the
    # data distribution, weighting draws by the Gaussian transition density.
    t, x = 0.3, 1.0
    a, s = linear.alpha(t), linear.sigma(t)
    a_dot, s_dot = linear.alpha_dot(t), linear.sigma_dot(t)
    rng = np.random.default_rng(777)
    component = rng.random(1_000_000) < 0.5
    draws = np.where(component, -2.0, 2.0) + rng.standard_normal(1_000_000)
    log_w = -0.5 * ((x - a * draws) / s) ** 2
    w = np.exp(log_w - log_w.max())
    eps_given = (x - a * draws) / s
    values = a_dot * draws + s_dot * eps_given
    estimate = float(np.sum(w * values) / np.sum(w))
    # Delta-method standard error of the self-normalized statistic.
    resid = values - estimate
    se = math.sqrt(float(np.sum((w * resid) ** 2))) / float(np.sum(w))
    exact = gmm_marginal_velocity(two_gauss, linear,
                                  np.array([[x]]), t)[0, 0]
    assert abs(exact - estimate) < max(4.0 * se, 1e-4)


def test_marginal_velocity_is_converted_score(two_gauss, all_schedules, rng):
    # Single code path: the velocity is literally the converted score.
    x = rng.normal(size=(64, 1), scale=2.0)
    for schedule in all_schedules:
        t = rng.uniform(0.05, 0.95, size=64)
        via_conversion = velocity_from_score(
            schedule, gmm_marginal_score(two_gauss, schedule, x, t), x, t)
        direct = gmm_marginal_velocity(two_gauss, schedule, x, t)
        assert np.array_equal(direct, via_conversion)


def test_vp_velocity_score_relation(two_gauss, vp, rng):
    # For the variance-preserving schedule the velocity collapses to
    # -(beta/2) * (x + score).
    x = rng.normal(size=(100, 1), scale=2.0)
    t = rng.uniform(0.05, 0.999, size=100)
    v = gmm_marginal_velocity(two_gauss, vp, x, t)
    s = gmm_marginal_score(two_gauss, vp, x, t)
    beta = vp.beta(t)[:, None]
    assert np.max(np.abs(v - (-0.5 * beta * x - 0.5 * beta * s))) < 1e-10


# ---------------------------------------------------------------------------
# Class posteriors, conditional fields, guidance
# ---------------------------------------------------------------------------


def test_class_posterior_normalizes_and_localizes(grid9, linear):
    x = np.array([[4.0, 4.0], [-4.0, -4.0]])
    post = gmm_class_posterior(grid9, linear, x, 0.2)
    assert post.shape == (2, 9)
    assert np.allclose(post.sum(axis=1), 1.0, atol=1e-12)
    # Component means are laid out x-fastest from (-4,-4); (4,4) is the last.
    assert np.argmax(post[0]) == 8
    assert np.argmax(post[1]) == 0
    assert post[0, 8] > 0.999


def test_conditional_score_matches_component_density_gradient(grid9, linear, rng):
    k = 4
    xs = rng.normal(size=(10, 2))
    single = GaussianMixture([1.0], grid9.means[k:k + 1],
                             grid9.covariances[k:k + 1])
    for i in range(10):
        expected = gradient_fd(
            lambda p: mixture_log_density(single, linear, p[None, :], 0.3)[0],
            xs[i], h=1e-5)
        got = gmm_conditional_score(grid9, linear, xs[i][None, :], 0.3, k)[0]
        assert np.max(np.abs(got - expected)) < 1e-5


def test_guided_field_is_the_stated_mixture(grid9, linear, rng):
    model = AnalyticMixtureField(grid9, linear, prediction=Prediction.SCORE,
                                 conditional=True)
    x = rng.normal(size=(20, 2))
    t = 0.35
    zeta = 2.5
    cond = model.evaluate(x, t, y=3)
    uncond = model.evaluate(x, t, y=None)
    expected = zeta * cond + (1.0 - zeta) * uncond
    got = guided_field(model, zeta, x, t, y=3)
    assert np.allclose(got, expected, atol=1e-12)


def test_guided_field_edge_weights_bitwise(grid9, linear, rng):
    model = AnalyticMixtureField(grid9, linear, prediction=Prediction.SCORE,
                                 conditional=True)
    x = rng.normal(size=(16, 2))
    assert np.array_equal(guided_field(model, 1.0, x, 0.4, y=2),
                          model.evaluate(x, 0.4, y=2))
    assert np.array_equal(guided_field(model, 0.0, x, 0.4, y=2),
                          model.evaluate(x, 0.4, y=None))


def test_guided_score_matches_tempered_density_gradient(grid9, linear, rng):
    # Guidance at strength zeta steers along the gradient of
    # zeta*log p(x|k) + (1-zeta)*log p(x).
    model = AnalyticMixtureField(grid9, linear, prediction=Prediction.SCORE,
                                 conditional=True)
    k, zeta, t = 6, 4.0, 0.3
    single = GaussianMixture([1.0], grid9.means[k:k + 1],
                             grid9.covariances[k:k + 1])
    xs = rng.normal(size=(10, 2), scale=2.0)
    got = guided_field(model, zeta, xs, t, y=k)
    for i in range(10):
        def tempered(p):
            cond = mixture_log_density(single, linear, p[None, :], t)[0]
            marg = mixture_log_density(grid9, linear, p[None, :], t)[0]
            return zeta * cond + (1.0 - zeta) * marg
        fd = gradient_fd(tempered, xs[i], h=1e-5)
        assert np.max(np.abs(got[i] - fd)) < 1e-5


def test_guidance_commutes_with_conversion(grid9, linear, rng):
    # The score->velocity map is affine in the field value with
    # x-and-t-dependent coefficients, so guiding scores then converting
    # equals converting then guiding velocities.
    score_model = AnalyticMixtureField(grid9, linear,
                                       prediction=Prediction.SCORE,
                                       conditional=True)
    velocity_model = AnalyticMixtureField(grid9, linear,
                                          prediction=Prediction.VELOCITY,
                                          conditional=True)
    x = rng.normal(size=(30, 2))
    t = rng.uniform(0.1, 0.9, size=30)
    zeta = 3.0
    guided_scores = guided_field(score_model, zeta, x, t, y=1)
    route_a = velocity_from_score(linear, guided_scores, x, t)
    route_b = guided_field(velocity_model, zeta, x, t, y=1)
    assert np.max(np.abs(route_a - route_b)) < 1e-10


def test_guided_field_validation(grid9, two_gauss, linear, rng):
    x = rng.normal(size=(4, 2))
    conditional = AnalyticMixtureField(grid9, linear,
                                       prediction=Prediction.SCORE,
                                       conditional=True)
    unconditional = AnalyticMixtureField(grid9, linear,
                                         prediction=Prediction.SCORE,
                                         conditional=False)
    with pytest.raises(UnconditionalModelError):
        guided_field(unconditional, 2.0, x, 0.4, y=1)
    with pytest.raises(DomainError):
        guided_field(conditional, -1.0, x, 0.4, y=1)
    with pytest.raises(DomainError):
        guided_field(conditional, 2.0, x, 0.4, y=None)
    with pytest.raises(DomainError):  # the null token is not a real class
        guided_field(conditional, 2.0, x, 0.4,
                     y=conditional.conditioning.null_id)


def test_conditional_wrappers_and_guided_field_check_a_label_once(grid9, linear, rng,
                                                                 monkeypatch):
    labels = count_calls(monkeypatch, Conditioning, "validate")
    x = rng.normal(size=(4, 2))
    for wrapper in (gmm_conditional_score, gmm_conditional_velocity):
        labels.clear()
        wrapper(grid9, linear, x, 0.4, 2)
        assert len(labels) == 1, wrapper
    for prediction in Prediction:
        model = AnalyticMixtureField(grid9, linear, prediction, conditional=True)
        for zeta in (0.0, 1.0, 2.5):
            for y in (3, np.array([0, 8, 3, 3])):
                labels.clear()
                guided_field(model, zeta, x, 0.4, y)
                assert len(labels) == 1, (prediction, zeta, y)
        with pytest.raises(DomainError, match="labels must be scalar or shape"):
            guided_field(model, 2.5, x, 0.4, np.array([1, 2]))


def test_analytic_field_label_dispatch(grid9, linear, rng):
    model = AnalyticMixtureField(grid9, linear, prediction=Prediction.SCORE,
                                 conditional=True)
    x = rng.normal(size=(12, 2))
    t = rng.uniform(0.1, 0.9, size=12)
    labels = np.array([0, 3, 3, 8, 0, 1, 2, 8, 5, 9, 9, 4])  # 9 = null
    batched = model.evaluate(x, t, y=labels)
    for i in range(12):
        y = None if labels[i] == 9 else int(labels[i])
        single = model.evaluate(x[i], float(t[i]), y=y)
        assert np.allclose(batched[i], single, atol=1e-12)


def test_field_shape_contract(two_gauss, linear):
    model = AnalyticMixtureField(two_gauss, linear,
                                 prediction=Prediction.SCORE)
    vector = model.evaluate(np.array([0.5]), 0.4)
    assert vector.shape == (1,)
    batch = model.evaluate(np.array([[0.5], [1.0]]), 0.4)
    assert batch.shape == (2, 1)


def test_field_calls_refuse_points_of_three_axes(two_gauss, linear):
    model = AnalyticMixtureField(two_gauss, linear)
    with pytest.raises(DomainError, match=r"points must have shape \(d,\) or \(n, d\)"):
        model.evaluate(np.zeros((2, 1, 1)), 0.4)


def test_conditioning_validation():
    cond = Conditioning(9)
    assert cond.null_id == 9
    cond.validate(np.array([0, 8, 9]))
    with pytest.raises(DomainError):
        cond.validate(10)
    with pytest.raises(DomainError):
        cond.validate(-1)


def test_conditioning_checks_single_labels_and_rows_alike():
    # A single label and an array of labels pass and fail alike, with the
    # same message.
    cond = Conditioning(9)
    message = "label out of range: valid ids are 0..8 plus the null token 9"
    for good in (0, 9, np.int64(4), np.uint8(9), np.array(3), 2.0, True):
        assert cond.validate(good) == int(good)
        assert np.array_equal(cond.validate(np.array([good])), [int(good)])
    for bad in (-1, 10, np.int64(-3), np.uint64(10), np.array(12), 10.0, -0.5 - 1.0):
        with pytest.raises(DomainError) as excinfo:
            cond.validate(bad)
        assert str(excinfo.value) == message
        with pytest.raises(DomainError) as excinfo:
            cond.validate(np.array([0, bad]))
        assert str(excinfo.value) == message


def test_score_consumes_the_solved_array_it_overwrites(rng):
    # The score's component sum writes its products into parts["solved"];
    # taking the array out of parts keeps anyone from reading it afterwards.
    from driftlab.field import _component_sum, _mixture_parts, _score
    gmm = get_preset("grid-9")
    schedule = make_schedule("gvp")
    x = rng.normal(scale=3.0, size=(33, 2))
    parts = _mixture_parts(gmm, schedule, x, 0.4)
    solved = parts["solved"].copy()
    score = _score(parts)
    assert "solved" not in parts
    expected = -_component_sum(parts["responsibilities"], solved).T  # (n, d)
    assert np.array_equal(_bits(score), _bits(expected))
    assert np.array_equal(_bits(score), _bits(gmm_marginal_score(gmm, schedule, x, 0.4)))


def test_unconditional_field_rejects_labels(two_gauss, linear):
    model = AnalyticMixtureField(two_gauss, linear,
                                 prediction=Prediction.SCORE,
                                 conditional=False)
    with pytest.raises(UnconditionalModelError):
        model.evaluate(np.array([[0.5]]), 0.4, y=0)


FIELD_MODELS = {
    "mlp": lambda schedule, conditional: MLPField(
        2, schedule, widths=(8,), num_classes=9 if conditional else None, seed=3),
    "analytic": lambda schedule, conditional: AnalyticMixtureField(
        get_preset("grid-9"), schedule, conditional=conditional),
}


@pytest.mark.parametrize("kind", sorted(FIELD_MODELS))
def test_both_field_models_take_the_same_calls(kind, linear, rng):
    # The learned and the exact field check a call's points, time and labels
    # alike, so either can stand in for the other under a sampler.
    model = FIELD_MODELS[kind](linear, True)
    x, rows = rng.normal(size=(3, 2)), np.array([0, 4, 9])
    with pytest.raises(DomainError):
        model.evaluate(rng.normal(size=(3, 3)), 0.4)
    for y in (None, rows):
        with pytest.raises(DomainError):
            model.evaluate(x, np.array([0.3, 0.5]), y)
    with pytest.raises(DomainError):
        model.evaluate(x, 0.4, rows[:, None])
    with pytest.raises(UnconditionalModelError):
        FIELD_MODELS[kind](linear, False).evaluate(x, 0.4, 2)
    null = model.evaluate(x, 0.4, model.conditioning.null_id)
    assert np.array_equal(null.view(np.uint64), model.evaluate(x, 0.4).view(np.uint64))
    point = model.evaluate(x[0], 0.4, np.array([3]))
    assert point.shape == (2,)
    assert np.array_equal(point, model.evaluate(x[:1], 0.4, np.array([3]))[0])
    assert model.evaluate(np.empty((0, 2)), np.empty(0), np.empty(0, dtype=int)).shape == (0, 2)


@pytest.mark.parametrize("kind", sorted(FIELD_MODELS))
def test_guided_field_mixes_with_the_null_token_bitwise(kind, linear, rng):
    # The unconditional half is the call without a label, which is the null
    # token's call bit for bit.
    model = FIELD_MODELS[kind](linear, True)
    x, null = rng.normal(size=(6, 2)), model.conditioning.null_id
    assert np.array_equal(_bits(guided_field(model, 0.0, x, 0.4, 3)),
                          _bits(model.evaluate(x, 0.4, null)))
    expected = 2.5 * model.evaluate(x, 0.4, 3) - 1.5 * model.evaluate(x, 0.4, null)
    assert np.array_equal(_bits(guided_field(model, 2.5, x, 0.4, 3)), _bits(expected))


# ---------------------------------------------------------------------------
# The field call's points/time rule in the schedule maps and exact quantities
# ---------------------------------------------------------------------------


def test_conversions_refuse_a_value_and_points_of_different_shapes(linear):
    # A value and its points are batches of one shape, as interpolate's x_star
    # and eps are: one row is not spread over five, nor five cut to one.
    for convert in (velocity_from_score, score_from_velocity, interpolate):
        with pytest.raises(DomainError):
            convert(linear, np.ones(2), np.ones((5, 2)), 0.5)
        with pytest.raises(DomainError):
            convert(linear, np.ones((5, 2)), np.ones(2), 0.5)


SCHEDULE_MAPS = {f.__name__: f for f in (interpolate, interpolant_derivative,
                                         score_from_velocity, velocity_from_score)}
EXACT_QUANTITIES = {f.__name__: f for f in (mixture_log_density, gmm_marginal_score,
                                            gmm_posterior_means, gmm_marginal_velocity,
                                            gmm_class_posterior)}
EXACT_QUANTITIES.update({f.__name__: lambda gmm, schedule, x, t, f=f: f(gmm, schedule, x, t, 4)
                         for f in (gmm_conditional_score, gmm_conditional_velocity)})


@pytest.mark.parametrize("name", sorted(SCHEDULE_MAPS) + sorted(EXACT_QUANTITIES))
def test_maps_and_exact_quantities_take_times_as_a_field_call_does(name, grid9, linear):
    # t is a scalar or one time per row: a (1, n) row of times and a per-row
    # t of the wrong length raise DomainError, as FieldModel.evaluate does.
    x = np.zeros((2, 2))
    if name in SCHEDULE_MAPS:
        def call(t):
            return SCHEDULE_MAPS[name](linear, np.ones((2, 2)), x, t)
    else:
        def call(t):
            return EXACT_QUANTITIES[name](grid9, linear, x, t)
    for t in ([[0.5, 0.2]], [0.5], [0.5, 0.2, 0.3]):
        with pytest.raises(DomainError):
            call(np.array(t))
    call(np.array([0.5, 0.2]))  # one time per row


@pytest.mark.parametrize("wrapper", [gmm_conditional_score, gmm_conditional_velocity])
def test_conditional_wrappers_take_a_real_class_id(wrapper, grid9, linear, rng):
    # component is checked as guidance checks its label: a whole number in
    # range and not the null token, never truncated.
    x = rng.normal(size=(3, 2))
    for bad in (2.7, "2", None, -1, 9, 10):
        with pytest.raises(DomainError):
            wrapper(grid9, linear, x, 0.4, bad)
    assert np.array_equal(_bits(wrapper(grid9, linear, x, 0.4, 2.0)),
                          _bits(wrapper(grid9, linear, x, 0.4, np.int64(2))))


def test_conditional_velocity_is_the_converted_conditional_score(grid9, all_schedules, rng):
    x = rng.normal(scale=2.0, size=(33, 2))
    per_row = rng.uniform(0.05, 0.95, size=33)
    for schedule in all_schedules:
        for points, t in ((x, 0.35), (x, per_row), (x[0], 0.6)):
            for k in (0, 4, 8):
                score = gmm_conditional_score(grid9, schedule, points, t, k)
                assert np.array_equal(
                    _bits(gmm_conditional_velocity(grid9, schedule, points, t, k)),
                    _bits(velocity_from_score(schedule, score, points, t))), (schedule.name, k)


def test_conditional_velocity_field_matches_the_wrappers_row_by_row(grid9, all_schedules,
                                                                    rng):
    # Per-row labels (the null token among them) with per-row times: each row
    # is the one-row wrapper call of its own label, bit for bit.
    n = 30
    x = rng.normal(scale=2.0, size=(n, 2))
    t = rng.uniform(0.05, 0.95, size=n)
    labels = rng.permutation(np.arange(n) % 10)  # 9 = null
    for schedule in all_schedules:
        model = AnalyticMixtureField(grid9, schedule, Prediction.VELOCITY, conditional=True)
        batched = model.evaluate(x, t, labels)
        for i, k in enumerate(labels):
            row = slice(i, i + 1)
            expected = (gmm_marginal_velocity(grid9, schedule, x[row], t[row]) if k == 9
                        else gmm_conditional_velocity(grid9, schedule, x[row], t[row], k))
            assert np.array_equal(_bits(batched[row]), _bits(expected)), (schedule.name, i)
