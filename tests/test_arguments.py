"""One rule per kind of argument, at every public entry that takes one.

Counts go through ``errors._count``: integral numbers are accepted, and
bools, fractions, NaN, infinities, strings and None are refused.  Seeds are
counts from 0 and become generators through ``errors._rng``.  Time windows go
through ``errors._window``: two real numbers with 0 <= lo < hi <= 1.  Loss
values and the values of a diffusion coefficient w go through
``errors._nonnegative_values``: finite real numbers >= 0.  Real numbers go
through ``errors._real``: a finite number in the argument's range passes as a
float, and bools, strings, None, NaN, infinities and integers beyond the float
range are refused.  Class labels
are whole numbers: an integral float is the label, a fraction is refused.
"""

import functools

import numpy as np
import pytest

from driftlab import (
    AnalyticMixtureField,
    ConfigError,
    ConstantCoefficient,
    DomainError,
    KLEtaCoefficient,
    LossProfile,
    MLPField,
    SamplerSpec,
    SBDMVPSchedule,
    TrainConfig,
    draw,
    energy_distance_permutation_test,
    estimate_loss_profile,
    euler_maruyama_sample,
    get_preset,
    guided_field,
    heun_sample,
    kl_bound,
    kl_cost_integrand,
    kl_cost_minimizer,
    kl_cost_minimum,
    kl_integrand,
    make_schedule,
    parse_coefficient,
    path_length,
    train,
)

LINEAR = make_schedule("linear")
ONE_D = get_preset("two-gauss-1d")


def _sample(steps=3, seed=0, n_samples=4):
    spec = SamplerSpec(kind="heun", t_start=1.0 - 1e-5, t_end=0.0, steps=steps, seed=seed)
    return heun_sample(AnalyticMixtureField(ONE_D, LINEAR), spec, n_samples).samples


def _model(dimension=1, widths=4, num_classes=None, seed=0):
    return MLPField(dimension, LINEAR, widths=(widths,), num_classes=num_classes,
                    seed=seed).parameters


def _train(**counts):
    arguments = dict(steps=2, batch=8, profile_bins=2, profile_draws=8, seed=0)
    arguments.update(counts)
    config = TrainConfig(objective="velocity", schedule=LINEAR, widths=(4,), **arguments)
    result = train(config, ONE_D)
    return np.concatenate([result.model.parameters, result.profile.values])


def _profile(bins=2, draws_per_bin=8, seed=0):
    return estimate_loss_profile(MLPField(1, LINEAR, widths=(4,)), ONE_D, bins=bins,
                                 draws_per_bin=draws_per_bin, seed=seed).values


def _permutations(n_permutations=7, seed=0):
    pooled = np.linspace(-1.0, 1.0, 24).reshape(12, 2)
    return energy_distance_permutation_test(pooled[:5], pooled[5:] ** 2,
                                            n_permutations=n_permutations, seed=seed)


def _path_length(n_mc=16, seed=0):
    field = AnalyticMixtureField(ONE_D, LINEAR, prediction="velocity")
    return path_length(field, ONE_D, n_mc=n_mc, seed=seed, t_grid=np.linspace(0.1, 0.9, 5))


def _kl_bound(grid_points=9):
    profile = LossProfile(np.array([0.1, 0.9]), np.array([0.5]))
    return kl_bound(profile, LINEAR, parse_coefficient("sigma", LINEAR),
                    grid_points=grid_points)


def _draw(n=4, seed=0):
    return draw(get_preset("grid-9"), n, seed)


#: entry -> (call, argument, a valid value, the error a refused value raises)
ENTRIES = {
    "SamplerSpec-steps": (_sample, "steps", 3, ConfigError),
    "SamplerSpec-seed": (_sample, "seed", 2, ConfigError),
    "heun_sample-n_samples": (_sample, "n_samples", 4, DomainError),
    "MLPField-dimension": (_model, "dimension", 2, ConfigError),
    "MLPField-widths": (_model, "widths", 3, ConfigError),
    "MLPField-num_classes": (_model, "num_classes", 3, ConfigError),
    "MLPField-seed": (_model, "seed", 5, ConfigError),
    "TrainConfig-steps": (_train, "steps", 3, ConfigError),
    "TrainConfig-batch": (_train, "batch", 6, ConfigError),
    "TrainConfig-profile_bins": (_train, "profile_bins", 3, ConfigError),
    "TrainConfig-profile_draws": (_train, "profile_draws", 5, ConfigError),
    "TrainConfig-seed": (_train, "seed", 4, ConfigError),
    "estimate_loss_profile-bins": (_profile, "bins", 3, ConfigError),
    "estimate_loss_profile-draws_per_bin": (_profile, "draws_per_bin", 5, ConfigError),
    "estimate_loss_profile-seed": (_profile, "seed", 4, ConfigError),
    "permutation_test-n_permutations": (_permutations, "n_permutations", 9, ConfigError),
    "permutation_test-seed": (_permutations, "seed", 3, ConfigError),
    "path_length-n_mc": (_path_length, "n_mc", 12, ConfigError),
    "path_length-seed": (_path_length, "seed", 3, ConfigError),
    "kl_bound-grid_points": (_kl_bound, "grid_points", 17, ConfigError),
    "draw-n": (_draw, "n", 6, DomainError),
    "draw-seed": (_draw, "seed", 8, ConfigError),
}


CONDITIONAL = AnalyticMixtureField(ONE_D, LINEAR, conditional=True)
#: alpha > 0 on all of sbdm-vp's [0, 1], so a stochastic run may start at t = 1.
VP_CONDITIONAL = AnalyticMixtureField(ONE_D, make_schedule("sbdm-vp"), conditional=True)
GRID = np.linspace(0.1, 0.9, 5)


def _guided_em(**reals):
    # Every real of a spec applies: a stochastic, guided run with a final step.
    arguments = dict(t_start=0.9, t_end=0.25, last_step_to=0.0, guidance_zeta=2.0)
    arguments.update(reals)
    spec = SamplerSpec(kind="em", steps=3, diffusion=ConstantCoefficient(0.5), seed=0,
                       **arguments)
    return euler_maruyama_sample(VP_CONDITIONAL, spec, 4, y=1).samples


def _guided(zeta=2):
    return guided_field(CONDITIONAL, zeta, np.linspace(-1.0, 1.0, 4)[:, None], 0.5, 1)


def _conditional_profile(label_dropout=0.5):
    model = MLPField(1, LINEAR, widths=(4,), num_classes=2)
    return estimate_loss_profile(model, ONE_D, bins=2, draws_per_bin=8,
                                 label_dropout=label_dropout).values


def _vp(**betas):
    return SBDMVPSchedule(**betas).alpha(GRID)


def _profile_level(t):
    return np.full_like(np.asarray(t, dtype=np.float64), 0.5)


def _kl_eta(eta=1):
    return KLEtaCoefficient(LINEAR, _profile_level, eta)(GRID)


def _kl_bound_eta(eta=1):
    profile = LossProfile(np.array([0.1, 0.9]), np.array([0.5]))
    return kl_bound(profile, LINEAR, parse_coefficient("sigma", LINEAR), eta=eta)


#: entry -> (call, argument, an integral valid value, a value out of range,
#: the error a refused value raises)
REALS = {
    "SamplerSpec-t_start": (_guided_em, "t_start", 1, 1.5, ConfigError),
    "SamplerSpec-t_end": (_guided_em, "t_end", 0, -0.5, ConfigError),
    "SamplerSpec-last_step_to": (_guided_em, "last_step_to", 0, 0.5, ConfigError),
    "SamplerSpec-guidance_zeta": (_guided_em, "guidance_zeta", 3, -1.0, ConfigError),
    "guided_field-zeta": (_guided, "zeta", 3, -1.0, DomainError),
    "TrainConfig-learning_rate": (_train, "learning_rate", 1, -1e-4, ConfigError),
    "TrainConfig-label_dropout": (functools.partial(_train, conditional=True),
                                  "label_dropout", 1, 1.5, ConfigError),
    "estimate_loss_profile-label_dropout": (_conditional_profile, "label_dropout", 1,
                                            2.0, ConfigError),
    "SBDMVPSchedule-beta_min": (_vp, "beta_min", 1, -1.0, DomainError),
    "SBDMVPSchedule-beta_max": (_vp, "beta_max", 1, -1.0, DomainError),
    "ConstantCoefficient-level": (lambda level=1: ConstantCoefficient(level)(GRID),
                                  "level", 1, -1.0, DomainError),
    "KLEtaCoefficient-eta": (_kl_eta, "eta", 1, -1.0, DomainError),
    "kl_cost_integrand-eta": (lambda eta=1: kl_cost_integrand(0.3, 0.5, GRID, LINEAR, eta),
                              "eta", 1, -1.0, DomainError),
    "kl_cost_minimizer-eta": (lambda eta=1: kl_cost_minimizer(0.5, GRID, LINEAR, eta),
                              "eta", 1, -1.0, DomainError),
    "kl_cost_minimum-eta": (lambda eta=1: kl_cost_minimum(0.5, GRID, LINEAR, eta),
                            "eta", 1, -1.0, DomainError),
    "kl_bound-eta": (_kl_bound_eta, "eta", 1, -1.0, DomainError),
}
#: Entries whose None means "not given", and so is not refused.
OPTIONAL = {"SamplerSpec-last_step_to", "SamplerSpec-guidance_zeta", "kl_bound-eta"}


def _bytes(result) -> bytes:
    parts = result if isinstance(result, tuple) else (result,)
    return b"".join(np.asarray(part, dtype=np.float64).tobytes() for part in parts)


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@pytest.mark.parametrize("value", [2.5, True])
def test_counts_and_seeds_refuse_fractions_and_booleans(entry, value):
    # Neither truncated (2.5 -> 2) nor read as the count 1.
    call, argument, _, error = ENTRIES[entry]
    with pytest.raises(error, match=argument):
        call(**{argument: value})


@pytest.mark.parametrize("entry", sorted(name for name in ENTRIES if name.endswith("-seed")))
def test_seeds_refuse_negative_values(entry):
    # Not numpy's bare ValueError from SeedSequence.
    call, argument, _, error = ENTRIES[entry]
    with pytest.raises(error, match="seed"):
        call(**{argument: -1})


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_integral_counts_and_seeds_give_the_same_bits(entry):
    call, argument, value, _ = ENTRIES[entry]
    expected = _bytes(call(**{argument: value}))
    for same in (np.int64(value), float(value)):
        assert _bytes(call(**{argument: same})) == expected


BAD_WINDOWS = [(-0.5, 0.5), (0.5, 0.5), (0.6, 0.4), (0.2, 1.5),
               (float("nan"), 0.5), (0.1, float("inf"))]


@pytest.mark.parametrize("window", BAD_WINDOWS)
def test_time_windows_are_refused_alike_everywhere(window):
    lo, hi = window
    profile = LossProfile(np.array([0.1, 0.9]), np.array([0.5]))
    with pytest.raises(ConfigError):
        TrainConfig(objective="velocity", schedule=LINEAR, steps=1, t_lo=lo, t_hi=hi).window()
    with pytest.raises(ConfigError):
        kl_bound(profile, LINEAR, parse_coefficient("sigma", LINEAR), window=window)
    with pytest.raises(ConfigError):
        estimate_loss_profile(MLPField(1, LINEAR, widths=(4,)), ONE_D, bins=2,
                              draws_per_bin=4, window=window)
    with pytest.raises(ConfigError):
        LossProfile(np.array([lo, hi]), np.array([1.0]))


@pytest.mark.parametrize("window", [(False, True), ("0.2", "0.8"), (0.2, "0.8"),
                                    (np.False_, np.True_)])
def test_time_windows_refuse_booleans_and_strings(window):
    # Neither read as (0.0, 1.0) nor parsed, as a real argument is not.
    lo, hi = window
    profile = LossProfile(np.array([0.1, 0.9]), np.array([0.5]))
    with pytest.raises(ConfigError, match="time window"):
        TrainConfig(objective="velocity", schedule=LINEAR, steps=1, t_lo=lo, t_hi=hi).window()
    with pytest.raises(ConfigError, match="time window"):
        kl_bound(profile, LINEAR, parse_coefficient("sigma", LINEAR), window=window)
    with pytest.raises(ConfigError, match="time window"):
        estimate_loss_profile(MLPField(1, LINEAR, widths=(4,)), ONE_D, bins=2,
                              draws_per_bin=4, window=window)
    with pytest.raises(ConfigError, match="time window"):
        LossProfile(np.array([lo, hi], dtype=object), np.array([1.0]))


NON_NUMERIC_LOSSES = ["a", np.array(["a"]), "0.5", True, np.array([True]), None]


@pytest.mark.parametrize("loss", NON_NUMERIC_LOSSES)
def test_loss_values_refuse_non_numbers(loss):
    # Not numpy's bare ValueError or TypeError, nor "0.5" parsed or True read
    # as 1.0: each entry raises the typed error it documents.
    with pytest.raises(ConfigError, match="loss profile values"):
        LossProfile(np.array([0.0, 1.0]), np.atleast_1d(loss))
    calls = [lambda: kl_integrand(1.0, loss, 0.5, LINEAR),
             lambda: kl_cost_integrand(1.0, loss, 0.5, LINEAR, 1.0),
             lambda: kl_cost_minimizer(loss, 0.5, LINEAR, 1.0),
             lambda: kl_cost_minimum(loss, 0.5, LINEAR, 1.0),
             lambda: KLEtaCoefficient(LINEAR, lambda t: loss, 1.0)(0.5),
             lambda: kl_bound(lambda t: loss, LINEAR, parse_coefficient("sigma", LINEAR),
                              window=(0.1, 0.9))]
    for call in calls:
        with pytest.raises(DomainError, match="loss profile values"):
            call()


@pytest.mark.parametrize("w", ["a", True, "0.5"])
def test_w_values_refuse_non_numbers(w):
    # Not numpy's bare ValueError, nor True read as w = 1.0 or "0.5" parsed.
    calls = [lambda: kl_integrand(w, 0.5, 0.5, LINEAR),
             lambda: kl_cost_integrand(w, 0.5, 0.5, LINEAR, 1.0),
             lambda: kl_bound(lambda t: 0.5 + 0.0 * t, LINEAR, lambda t: w,
                              window=(0.1, 0.9))]
    for call in calls:
        with pytest.raises(DomainError, match="w values must be finite, nonnegative"):
            call()


REFUSED_REALS = [True, "0.5", None, float("nan"), float("inf"), float("-inf"),
                 10**400, "out of range"]


@pytest.mark.parametrize("entry,value", [
    (entry, value) for entry in sorted(REALS) for value in REFUSED_REALS
    if not (value is None and entry in OPTIONAL)])
def test_reals_refuse_booleans_strings_none_and_non_finite_values(entry, value):
    # Neither read as 1.0 (True), parsed ("0.5") nor compared as NaN.
    call, argument, _, outside, error = REALS[entry]
    value = outside if value == "out of range" else value
    with pytest.raises(error, match=argument):
        call(**{argument: value})


@pytest.mark.parametrize("entry", sorted(REALS))
def test_equal_reals_give_the_same_bits(entry):
    call, argument, value, _, _ = REALS[entry]
    expected = _bytes(call(**{argument: value}))
    for same in (np.float64(value), float(value)):
        assert _bytes(call(**{argument: same})) == expected


def _labelled(model, y, dimension):
    return model.evaluate(np.linspace(-1.0, 1.0, 2 * dimension).reshape(2, dimension),
                          0.5, y)


@pytest.mark.parametrize("label", [0.5, 1.7, np.array([1.0, 0.5]), float("nan"), "1",
                                   np.array(["1", "0"])])
def test_class_labels_refuse_fractions_and_non_numbers(label):
    # In range, yet not a class: never truncated to one.
    for model in (CONDITIONAL, MLPField(1, LINEAR, widths=(4,), num_classes=2)):
        with pytest.raises(DomainError, match="whole numbers"):
            _labelled(model, label, 1)
    spec = SamplerSpec(kind="heun", t_start=0.9, t_end=0.1, steps=3)
    with pytest.raises(DomainError, match="whole numbers"):
        heun_sample(CONDITIONAL, spec, 2, y=label)


def test_integral_float_labels_are_the_label():
    spec = SamplerSpec(kind="heun", t_start=0.9, t_end=0.1, steps=3)
    for model in (CONDITIONAL, MLPField(1, LINEAR, widths=(4,), num_classes=2)):
        expected = heun_sample(model, spec, 2, y=1).samples.tobytes()
        for same in (1.0, np.float64(1.0), np.array([1.0, 1.0]), True):
            assert heun_sample(model, spec, 2, y=same).samples.tobytes() == expected
