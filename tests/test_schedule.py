"""Interpolation schedules and diffusion coefficients."""

import math

import numpy as np
import pytest

from driftlab import (
    ConfigError,
    ConstantCoefficient,
    DomainError,
    KLCoefficient,
    KLEtaCoefficient,
    MissingProfileError,
    SBDMVPSchedule,
    SigmaCoefficient,
    SineSquaredCoefficient,
    SingularityError,
    ZeroCoefficient,
    kl_cost_minimizer,
    make_schedule,
    parse_coefficient,
    schedule_from_config,
)
from driftlab.schedule import SCHEDULE_NAMES

from helpers import central_difference


# ---------------------------------------------------------------------------
# Closed-form values
# ---------------------------------------------------------------------------


def test_linear_values_at_interior_point(linear):
    assert linear.alpha(0.3) == pytest.approx(0.7, abs=1e-15)
    assert linear.sigma(0.3) == pytest.approx(0.3, abs=1e-15)
    assert linear.alpha_dot(0.3) == pytest.approx(-1.0, abs=1e-15)
    assert linear.sigma_dot(0.3) == pytest.approx(1.0, abs=1e-15)


def test_gvp_values_and_unit_amplitude(gvp):
    assert gvp.alpha(0.5) == pytest.approx(math.cos(math.pi / 4), abs=1e-15)
    assert gvp.sigma(0.5) == pytest.approx(math.sin(math.pi / 4), abs=1e-15)
    t = np.linspace(0.0, 1.0, 101)
    amplitude = gvp.alpha(t) ** 2 + gvp.sigma(t) ** 2
    assert np.max(np.abs(amplitude - 1.0)) < 1e-14


@pytest.mark.parametrize("name", ["linear", "gvp"])
def test_boundary_identities(name):
    schedule = make_schedule(name)
    assert abs(schedule.alpha(0.0) - 1.0) < 1e-12
    assert abs(schedule.sigma(0.0)) < 1e-12
    assert abs(schedule.alpha(1.0)) < 1e-12
    assert abs(schedule.sigma(1.0) - 1.0) < 1e-12


def test_vp_is_noise_dominated_at_the_far_end_but_never_degenerate(vp):
    # alpha stays strictly positive on all of [0, 1]; it is merely tiny at 1.
    t = np.linspace(0.0, 1.0, 101)
    assert np.all(vp.alpha(t) > 0.0)
    assert vp.alpha(1.0) == pytest.approx(math.exp(-5.025), rel=1e-12)
    assert vp.sigma(1.0) == pytest.approx(math.sqrt(-math.expm1(-10.05)), rel=1e-12)


# ---------------------------------------------------------------------------
# Derivatives vs an independent finite-difference oracle
# ---------------------------------------------------------------------------


def test_derivatives_match_finite_differences(all_schedules, rng):
    ts = rng.uniform(0.001, 0.999, size=100)
    for schedule in all_schedules:
        for t in ts:
            fd_alpha = central_difference(schedule.alpha, float(t))
            fd_sigma = central_difference(schedule.sigma, float(t))
            an_alpha = schedule.alpha_dot(float(t))
            an_sigma = schedule.sigma_dot(float(t))
            assert abs(fd_alpha - an_alpha) / max(1.0, abs(an_alpha)) < 1e-6
            assert abs(fd_sigma - an_sigma) / max(1.0, abs(an_sigma)) < 1e-6


# ---------------------------------------------------------------------------
# Variance-preserving schedule: rate-integral structure
# ---------------------------------------------------------------------------


def test_vp_alpha_is_exponential_of_integrated_rate():
    # Quadrature oracle: integrate the rate directly and compare.
    vp = make_schedule("sbdm-vp")
    for t in [0.1, 0.37, 0.5, 0.93, 1.0]:
        sub = np.linspace(0.0, t, 200001)
        integral = np.trapezoid(vp.beta(sub), sub)
        assert vp.alpha(t) == pytest.approx(math.exp(-0.5 * integral), rel=1e-8)


def test_vp_constant_rate_anchors():
    one = make_schedule("sbdm-vp", beta=1.0)
    two = make_schedule("sbdm-vp", beta=2.0)
    assert one.alpha(1.0) == pytest.approx(math.exp(-0.5), rel=1e-14)
    assert two.alpha(1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)


def test_vp_variance_preservation(vp):
    t = np.linspace(0.0, 1.0, 101)
    assert np.max(np.abs(vp.alpha(t) ** 2 + vp.sigma(t) ** 2 - 1.0)) < 1e-14


def test_vp_rate_endpoints_and_custom_range():
    vp = make_schedule("sbdm-vp")
    assert vp.beta(0.0) == pytest.approx(0.1)
    assert vp.beta(1.0) == pytest.approx(20.0)
    custom = make_schedule("sbdm-vp", beta_min=0.5, beta_max=3.0)
    assert custom.beta(0.5) == pytest.approx(0.5 + 0.5 * 2.5)


def test_vp_sigma_dot_refuses_time_zero(vp):
    with pytest.raises(SingularityError) as excinfo:
        vp.sigma_dot(0.0)
    assert "sbdm-vp" in str(excinfo.value)
    with pytest.raises(SingularityError):
        vp.sigma_dot(np.array([0.5, 0.0]))
    vp.sigma_dot(1e-5)  # regular just inside the window


# ---------------------------------------------------------------------------
# Drift-to-noise weight lambda and the bound-minimizing coefficient
# ---------------------------------------------------------------------------


def test_lambda_weight_closed_forms(linear, gvp):
    for t in [0.1, 0.5, 0.9]:
        assert linear.lambda_weight(t) == pytest.approx(1.0 / (1.0 - t), rel=1e-12)
        assert gvp.lambda_weight(t) == pytest.approx(
            (math.pi / 2.0) / math.cos(math.pi * t / 2.0), rel=1e-12)


def test_lambda_weight_refuses_vanishing_alpha(linear, gvp):
    for schedule in (linear, gvp):
        with pytest.raises(SingularityError):
            schedule.lambda_weight(1.0)
        with pytest.raises(SingularityError):
            schedule.w_kl(np.array([0.2, 1.0]))


def test_gvp_refuses_exact_endpoint_despite_float_cosine():
    # cos(pi/2) in floats is ~6e-17, not 0; the endpoint must still refuse.
    gvp = make_schedule("gvp")
    assert gvp.alpha(1.0) != 0.0
    with pytest.raises(SingularityError):
        gvp.lambda_weight(1.0)


def test_w_kl_closed_forms(linear, gvp):
    for t in [0.05, 0.4, 0.8]:
        assert linear.w_kl(t) == pytest.approx(2.0 * t / (1.0 - t), rel=1e-12)
        assert gvp.w_kl(t) == pytest.approx(
            math.pi * math.tan(math.pi * t / 2.0), rel=1e-12)
    assert linear.w_kl(0.0) == 0.0
    assert gvp.w_kl(0.0) == 0.0


def test_w_kl_equals_rate_for_vp(rng):
    for _ in range(100):
        beta_min = float(rng.uniform(0.01, 2.0))
        beta_max = float(rng.uniform(beta_min, 30.0))
        t = float(rng.uniform(0.01, 0.999))
        vp = SBDMVPSchedule(beta_min=beta_min, beta_max=beta_max)
        beta = vp.beta(t)
        assert abs(vp.w_kl(t) - beta) < 1e-10
        assert abs(2.0 * vp.lambda_weight(t) * vp.sigma(t) - beta) < 1e-10


# ---------------------------------------------------------------------------
# Every accessor is a view of coefficients(t)
# ---------------------------------------------------------------------------

QUANTITIES = ("alpha", "sigma", "alpha_dot", "sigma_dot", "lambda_weight", "w_kl",
              "conversion_denominator")
EDGE_TIMES = [0.0, -0.0, 5e-324, 0.3, 0.5, 1.0 - 1e-16, 1.0]
SCALAR_FORMS = {"float": float, "np.float64": np.float64, "0-d": np.array}


def _schedules_under_test():
    return [make_schedule("linear"), make_schedule("gvp"), make_schedule("sbdm-vp"),
            make_schedule("sbdm-vp", beta_min=0.0, beta_max=3.0)]


def _outcome(read):
    """The bits of a quantity, or the message it was refused with."""
    try:
        value = read()
    except SingularityError as exc:
        return "refused", str(exc)
    return "value", np.asarray(value, dtype=np.float64).tobytes()


@pytest.mark.parametrize("form", sorted(SCALAR_FORMS))
def test_scalar_accessors_are_their_coefficients_bitwise(form):
    for schedule in _schedules_under_test():
        for value in EDGE_TIMES:
            t = SCALAR_FORMS[form](value)
            for name in QUANTITIES:
                accessor = _outcome(lambda: getattr(schedule, name)(t))
                quantity = _outcome(lambda: getattr(schedule.coefficients(t), name))
                assert accessor == quantity, (schedule, value, name)
                if accessor[0] == "value":
                    assert type(getattr(schedule, name)(t)) is float


def test_array_accessors_are_their_coefficients_bitwise():
    # Singular times would refuse the whole array, so each array is one
    # regular interior grid plus the edge times one at a time.
    grid = np.linspace(0.01, 0.99, 9)
    for schedule in _schedules_under_test():
        for t in [grid, grid.reshape(3, 3)] + [np.append(grid, v) for v in EDGE_TIMES]:
            for name in QUANTITIES:
                accessor = _outcome(lambda: getattr(schedule, name)(t))
                quantity = _outcome(lambda: getattr(schedule.coefficients(t), name))
                assert accessor == quantity, (schedule, t, name)
                if accessor[0] == "value":
                    out = getattr(schedule, name)(t)
                    assert isinstance(out, np.ndarray) and out.shape == t.shape


def _singular_message(op, where, schedule, t):
    return (f"{op} is singular where {where} for the {schedule.name!r} schedule "
            f"(t = {float(t)!r}); clip the time window instead")


@pytest.mark.parametrize("read", ["accessor", "coefficients"])
def test_singular_refusals_name_the_quantity_asked_for(read):
    def get(schedule, name, t):
        if read == "accessor":
            return getattr(schedule, name)(t)
        return getattr(schedule.coefficients(t), name)

    for schedule in (make_schedule("linear"), make_schedule("gvp")):
        for name in ("lambda_weight", "w_kl"):
            with pytest.raises(SingularityError) as excinfo:
                get(schedule, name, 1.0)
            assert str(excinfo.value) == _singular_message(
                name, "alpha(t) = 0", schedule, 1.0)
    for schedule in _schedules_under_test()[2:]:
        for name in ("sigma_dot", "lambda_weight", "w_kl", "conversion_denominator"):
            with pytest.raises(SingularityError) as excinfo:
                get(schedule, name, 0.0)
            assert str(excinfo.value) == _singular_message(
                "sigma_dot", "sigma(t) = 0", schedule, 0.0)


# ---------------------------------------------------------------------------
# Validation and construction
# ---------------------------------------------------------------------------


def test_time_domain_validation(linear):
    for bad in [-0.1, 1.1, float("nan"), float("inf")]:
        with pytest.raises(DomainError):
            linear.alpha(bad)
    with pytest.raises(DomainError):
        linear.sigma(np.array([0.5, -1e-9]))


#: Refused times and the end of the message each one gets.
BAD_TIMES = [
    (float("nan"), "must be finite"),
    (float("inf"), "must be finite"),
    (float("-inf"), "must be finite"),
    (-1e-300, "must lie in [0, 1]"),
    (1.0000000000000002, "must lie in [0, 1]"),
    (-0.5, "must lie in [0, 1]"),
    (1.5, "must lie in [0, 1]"),
]
TIME_FORMS = {
    "float": float,
    "np.float64": np.float64,
    "0-d": np.array,
    "1-element": lambda value: np.array([value]),
}


@pytest.mark.parametrize("form", sorted(TIME_FORMS))
@pytest.mark.parametrize("value,message", BAD_TIMES, ids=[repr(v) for v, _ in BAD_TIMES])
def test_time_refusals_keep_their_messages(all_schedules, value, message, form):
    # A scalar time is checked apart from an array one; both must refuse the
    # same values with the same words, naming the argument as it was given.
    t = TIME_FORMS[form](value)
    expected = f"time {message}, got {t!r}"
    calls = [ZeroCoefficient(), ConstantCoefficient(0.5), SineSquaredCoefficient(),
             all_schedules[2].beta, all_schedules[2].beta_integral]
    for schedule in all_schedules:
        calls += [schedule.alpha, schedule.sigma, schedule.alpha_dot, schedule.sigma_dot,
                  schedule.lambda_weight, schedule.w_kl, schedule.conversion_denominator,
                  schedule.coefficients, SigmaCoefficient(schedule), KLCoefficient(schedule)]
    for call in calls:
        with pytest.raises(DomainError) as excinfo:
            call(t)
        assert str(excinfo.value) == expected, call


@pytest.mark.parametrize("form", sorted(TIME_FORMS))
def test_negative_zero_time_is_accepted_and_keeps_its_sign(all_schedules, linear, form):
    t = TIME_FORMS[form](-0.0)
    # +0.0 first: anything that kept results keyed on the time value, which
    # compares -0.0 equal to +0.0, would hand its +0.0 back below.
    assert not np.any(np.signbit(linear.sigma(TIME_FORMS[form](0.0))))
    assert not np.any(np.signbit(linear.coefficients(TIME_FORMS[form](0.0)).sigma))
    for schedule in all_schedules:
        assert np.all(np.asarray(schedule.alpha(t)) == 1.0)
        assert np.all(np.asarray(schedule.sigma(t)) == 0.0)
    assert np.all(np.signbit(linear.sigma(t)))
    assert np.all(np.signbit(linear.coefficients(t).sigma))
    if form == "float":
        assert math.copysign(1.0, linear.sigma(t)) == -1.0


def test_vp_rate_validation():
    with pytest.raises(DomainError):
        SBDMVPSchedule(beta_min=-0.1, beta_max=1.0)
    with pytest.raises(DomainError):
        SBDMVPSchedule(beta_min=0.0, beta_max=0.0)
    with pytest.raises(DomainError):
        SBDMVPSchedule(beta_min=float("nan"), beta_max=1.0)


def test_make_schedule_errors():
    with pytest.raises(ConfigError) as excinfo:
        make_schedule("quadratic")
    message = str(excinfo.value)
    for name in SCHEDULE_NAMES:
        assert name in message
    with pytest.raises(ConfigError):
        make_schedule("linear", beta_min=1.0)
    with pytest.raises(ConfigError):
        make_schedule("sbdm-vp", beta=1.0, beta_min=2.0)


def test_schedule_config_round_trip(all_schedules):
    for schedule in all_schedules:
        rebuilt = schedule_from_config(schedule.to_config())
        assert rebuilt == schedule
    custom = make_schedule("sbdm-vp", beta_min=0.3, beta_max=7.0)
    rebuilt = schedule_from_config(custom.to_config())
    assert rebuilt.beta(0.5) == custom.beta(0.5)
    with pytest.raises(ConfigError):
        schedule_from_config({"beta_min": 1.0})


def test_equal_schedules_hash_equal(all_schedules):
    for schedule in all_schedules:
        assert hash(schedule_from_config(schedule.to_config())) == hash(schedule)
    assert hash(make_schedule("sbdm-vp", beta_min=0.3, beta_max=7.0)) \
        != hash(make_schedule("sbdm-vp"))
    assert len({make_schedule("gvp"), make_schedule("gvp"), make_schedule("linear")}) == 2


def test_scalar_and_array_shapes(all_schedules):
    for schedule in all_schedules:
        assert isinstance(schedule.alpha(0.5), float)
        out = schedule.alpha(np.array([0.1, 0.2, 0.3]))
        assert out.shape == (3,)
        grid = np.linspace(0.05, 0.95, 7).reshape(7, 1)
        assert schedule.sigma(grid).shape == (7, 1)


# ---------------------------------------------------------------------------
# Diffusion coefficients
# ---------------------------------------------------------------------------


def test_basic_coefficient_values(linear):
    t = np.array([0.0, 0.25, 0.5, 1.0])
    assert np.all(ZeroCoefficient()(t) == 0.0)
    assert np.all(ConstantCoefficient(0.5)(t) == 0.5)
    assert np.allclose(SigmaCoefficient(linear)(t), linear.sigma(t))
    assert SineSquaredCoefficient()(0.5) == pytest.approx(1.0, abs=1e-15)
    assert SineSquaredCoefficient()(0.0) == pytest.approx(0.0, abs=1e-15)
    assert KLCoefficient(linear)(0.5) == pytest.approx(linear.w_kl(0.5))


def test_constant_coefficient_validation():
    with pytest.raises(DomainError):
        ConstantCoefficient(-0.1)
    with pytest.raises(DomainError):
        ConstantCoefficient(float("inf"))


def test_parse_coefficient_all_forms(linear):
    profile = lambda t: np.ones_like(np.asarray(t, dtype=np.float64))
    for text, kind in [
        ("zero", ZeroCoefficient),
        ("sigma", SigmaCoefficient),
        ("sin2", SineSquaredCoefficient),
        ("kl", KLCoefficient),
        ("const:0.25", ConstantCoefficient),
        ("kl-eta:0.05", KLEtaCoefficient),
    ]:
        coefficient = parse_coefficient(text, linear, loss_profile=profile)
        assert isinstance(coefficient, kind)
        # The canonical spelling round-trips through the parser.
        again = parse_coefficient(coefficient.spec, linear, loss_profile=profile)
        assert type(again) is kind


def test_parse_coefficient_errors(linear):
    with pytest.raises(ConfigError):
        parse_coefficient("bogus", linear)
    with pytest.raises(ConfigError):
        parse_coefficient("const:abc", linear)
    with pytest.raises(ConfigError):
        parse_coefficient("const:-1", linear)
    with pytest.raises(ConfigError):
        parse_coefficient("kl-eta:abc", linear)


def test_cost_regularized_requires_profile(linear):
    with pytest.raises(MissingProfileError) as excinfo:
        parse_coefficient("kl-eta:0.05", linear)
    assert "profile" in str(excinfo.value)
    # MissingProfileError is a configuration problem.
    assert isinstance(excinfo.value, ConfigError)


def test_cost_regularized_matches_algebraic_form(linear, rng):
    for _ in range(20):
        eta = float(rng.uniform(0.01, 2.0))
        level = float(rng.uniform(0.1, 5.0))
        profile = lambda t, level=level: np.full_like(
            np.asarray(t, dtype=np.float64), level)
        coefficient = KLEtaCoefficient(linear, profile, eta)
        t = float(rng.uniform(0.05, 0.99))
        w_kl = linear.w_kl(t)
        expected = w_kl * math.sqrt(level / (level + 2.0 * eta * w_kl**2))
        assert coefficient(t) == pytest.approx(expected, rel=1e-12)


def test_cost_regularized_limits(linear):
    profile = lambda t: np.full_like(np.asarray(t, dtype=np.float64), 3.0)
    coefficient = KLEtaCoefficient(linear, profile, eta=0.25)
    # Finite at the noise end, where the unregularized coefficient diverges.
    assert coefficient(1.0) == pytest.approx(math.sqrt(3.0 / 0.5), rel=1e-12)
    # Vanishes with sigma at the data end.
    assert coefficient(0.0) == 0.0
    # Never exceeds the unregularized coefficient in the interior.
    t = np.linspace(0.05, 0.95, 19)
    assert np.all(coefficient(t) <= linear.w_kl(t) + 1e-12)


def test_cost_regularized_matches_closed_form_as_w_kl_vanishes():
    # Near t = 0, L/w_kl^2 overflows while w is still about w_kl; w_kl is
    # 2t/(1-t) on linear and pi*tan(pi*t/2) on gvp.
    closed = {"linear": lambda t: 2.0 * t / (1.0 - t),
              "gvp": lambda t: math.pi * math.tan(0.5 * math.pi * t)}
    level = 0.7
    profile = lambda t: np.full_like(np.asarray(t, dtype=np.float64), level)
    for name, w_kl in closed.items():
        schedule = make_schedule(name)
        for eta in (0.5, 4.0):
            coefficient = KLEtaCoefficient(schedule, profile, eta)
            for t in (1e-100, 1e-160, 1e-300, 0.25):
                w = w_kl(t)
                expected = w * math.sqrt(level / (level + 2.0 * eta * w * w))
                assert coefficient(t) == pytest.approx(expected, rel=1e-14, abs=0.0), (name, t)
                assert kl_cost_minimizer(level, t, schedule, 2.0 * eta) == coefficient(t)
            # 1/w_kl itself overflows at the smallest subnormal.
            assert coefficient(5e-324) == 0.0


def test_cost_regularized_reduces_exactly_at_zero_cost(linear):
    profile = lambda t: np.full_like(np.asarray(t, dtype=np.float64), 3.0)
    coefficient = KLEtaCoefficient(linear, profile, eta=0.0)
    t = np.linspace(0.05, 0.95, 19)
    assert np.array_equal(coefficient(t), linear.w_kl(t))


def test_cost_regularized_minimizes_bound_plus_cost(linear, rng):
    # Numeric argmin oracle: the coefficient value should minimize
    # 0.5*(L/w)(1 + w/(2*lambda*sigma))^2 + eta*w over w > 0.
    for _ in range(10):
        t = float(rng.uniform(0.1, 0.9))
        level = float(rng.uniform(0.2, 4.0))
        eta = float(rng.uniform(0.05, 1.0))
        profile = lambda s, level=level: np.full_like(
            np.asarray(s, dtype=np.float64), level)
        value = KLEtaCoefficient(linear, profile, eta)(t)
        a = linear.lambda_weight(t) * linear.sigma(t)

        def objective(w):
            return 0.5 * (level / w) * (1.0 + w / (2.0 * a)) ** 2 + eta * w

        w_grid = np.linspace(max(1e-4, value / 5.0), value * 5.0, 20001)
        objective_grid = objective(w_grid)
        assert objective(value) <= objective_grid.min() + 1e-9
        w_best = float(w_grid[np.argmin(objective_grid)])
        assert abs(w_best - value) < (w_grid[1] - w_grid[0]) * 2.0


def test_cost_regularized_validation(linear):
    profile = lambda t: np.ones_like(np.asarray(t, dtype=np.float64))
    with pytest.raises(DomainError):
        KLEtaCoefficient(linear, profile, eta=-0.1)
    bad_profile = lambda t: -np.ones_like(np.asarray(t, dtype=np.float64))
    with pytest.raises(DomainError):
        KLEtaCoefficient(linear, bad_profile, eta=0.5)(0.5)
