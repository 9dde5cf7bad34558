"""Acceptance suite: twelve end-to-end checks, one per headline property.

Each check exercises the public API the way a user would and pins one of the
package's central claims:

 1. the KL-optimal diffusion weight of the variance-preserving schedule
    collapses to its noise-rate function,
 2. score and velocity parameterizations convert back and forth exactly,
 3. the weighted score objective is the velocity objective of the converted
    field, sample by sample,
 4. all three training losses have exact hand-rolled gradients,
 5. the deterministic integrator shows second-order error decay,
 6. stochastic-sampler marginals do not depend on the diffusion choice,
 7. the KL-optimal weight minimizes the error-bound integrand pointwise and
    the cost-augmented minimum matches its closed form,
 8. the variance-preserving schedule pays a higher transport cost than the
    trigonometric and linear schedules,
 9. a small velocity network trains end to end and reproduces a two-mode
    target to within sampling noise,
10. stronger guidance concentrates samples on the target class, checked on
    the grid-9 means with overlapping components (sigma 1.5),
11. the deterministic sampler wins the low-budget regime while the
    stochastic sampler catches up at high budgets,
12. every command-line entry point is byte-for-byte reproducible.

The heavier checks (6, 9, 11) train models and push tens of thousands of
trajectories; the whole module runs in a few minutes.
"""

import json
import math
import os

import numpy as np
import pytest

from driftlab import (
    AnalyticMixtureField,
    ConstantCoefficient,
    GaussianMixture,
    MLPField,
    Prediction,
    SamplerSpec,
    SigmaCoefficient,
    SineSquaredCoefficient,
    TrainConfig,
    ZeroCoefficient,
    default_window,
    draw,
    energy_distance,
    energy_distance_permutation_test,
    euler_maruyama_sample,
    get_preset,
    heun_sample,
    interpolant_derivative,
    interpolate,
    kl_cost_integrand,
    kl_cost_minimizer,
    kl_cost_minimum,
    kl_integrand,
    loss_score,
    loss_score_weighted,
    loss_velocity,
    make_schedule,
    mode_occupancy,
    path_length,
    score_from_velocity,
    train,
    velocity_from_score,
)
from driftlab.cli import main as cli_main

from helpers import log_slope, relative_error

TWO_GAUSS = get_preset("two-gauss-1d")
GRID9 = get_preset("grid-9")
LINEAR = make_schedule("linear")
ALL_SCHEDULE_NAMES = ("linear", "gvp", "sbdm-vp")


@pytest.fixture(scope="module")
def exact_reference():
    """10^5 exact target draws shared by the trained-model checks."""
    samples, _ = draw(TWO_GAUSS, 100_000, seed=90_000)
    return samples


@pytest.fixture(scope="module")
def trained_models():
    """Three independently seeded velocity networks, 5k steps each."""
    models = []
    for seed in (0, 1, 2):
        config = TrainConfig(objective="velocity", schedule=LINEAR,
                             steps=5000, seed=seed)
        models.append(train(config, TWO_GAUSS).model)
    return models


# ---------------------------------------------------------------------------
# 1. KL-optimal weight of the variance-preserving schedule
# ---------------------------------------------------------------------------


def test_c01_vp_kl_weight_equals_noise_rate():
    """w_kl(t) and 2*lambda(t)*sigma(t) both equal the noise-rate function
    beta(t) of the variance-preserving schedule, for random (t, betas)."""
    rng = np.random.default_rng(101)
    for _ in range(100):
        t = float(rng.uniform(0.01, 1.0))
        beta_min = float(rng.uniform(0.01, 1.0))
        beta_max = beta_min + float(rng.uniform(0.5, 25.0))
        sched = make_schedule("sbdm-vp", beta_min=beta_min, beta_max=beta_max)
        beta_t = beta_min + (beta_max - beta_min) * t
        assert abs(float(sched.w_kl(t)) - beta_t) <= 1e-10
        two_lambda_sigma = 2.0 * float(sched.lambda_weight(t)) * float(sched.sigma(t))
        assert abs(two_lambda_sigma - beta_t) <= 1e-10


# ---------------------------------------------------------------------------
# 2. Score <-> velocity conversion coherence
# ---------------------------------------------------------------------------


def test_c02_score_velocity_round_trip_is_exact():
    """Converting a value to the other parameterization and back recovers it
    to 1e-10 relative, on 10^4 random inputs per schedule."""
    rng = np.random.default_rng(202)
    n = 10_000
    for name in ALL_SCHEDULE_NAMES:
        sched = make_schedule(name)
        t = rng.uniform(0.05, 0.95, size=n)
        x = 2.0 * rng.standard_normal((n, 1))
        v = 2.0 * rng.standard_normal((n, 1))
        v_back = velocity_from_score(sched, score_from_velocity(sched, v, x, t), x, t)
        assert relative_error(v_back, v).max() < 1e-10
        s = 2.0 * rng.standard_normal((n, 1))
        s_back = score_from_velocity(sched, velocity_from_score(sched, s, x, t), x, t)
        assert relative_error(s_back, s).max() < 1e-10


# ---------------------------------------------------------------------------
# 3. Weighted score objective == velocity objective of the converted field
# ---------------------------------------------------------------------------


def test_c03_weighted_score_objective_is_velocity_objective_of_converted():
    """Per-sample, the lambda-weighted score residual equals the velocity
    residual of the converted field, to 1e-8 across 10^3 random draws."""
    sched = make_schedule("gvp")
    model = MLPField(1, sched, prediction=Prediction.SCORE, widths=(16, 16),
                     seed=303)
    rng = np.random.default_rng(303)
    n = 1000
    x_star = 1.5 * rng.standard_normal((n, 1)) + 0.3
    eps = rng.standard_normal((n, 1))
    t = rng.uniform(0.05, 0.95, size=n)

    x_t = interpolate(sched, x_star, eps, t)
    out = model.evaluate(x_t, t)
    lam = sched.lambda_weight(t)[:, None]
    sig = sched.sigma(t)[:, None]
    per_sample_weighted = np.sum((lam * (sig * out + eps)) ** 2, axis=1)

    v = velocity_from_score(sched, out, x_t, t)
    target = interpolant_derivative(sched, x_star, eps, t)
    per_sample_velocity = np.sum((v - target) ** 2, axis=1)

    assert relative_error(per_sample_weighted, per_sample_velocity).max() < 1e-8


# ---------------------------------------------------------------------------
# 4. Finite-difference verification of all three loss gradients
# ---------------------------------------------------------------------------


def test_c04_losses_pass_finite_difference_gradient_check():
    """Analytic gradients of the three objectives match central differences
    to 1e-4 relative on the default-width conditional network."""
    sched = make_schedule("linear")
    rng = np.random.default_rng(404)
    n = 8
    x_star = 2.0 * rng.standard_normal((n, 1))
    eps = rng.standard_normal((n, 1))
    t = rng.uniform(0.1, 0.9, size=n)
    y = np.array([0, 1, 2, 3, 0, 1, 2, 3])  # class ids plus the null token (3)
    batch = (x_star, eps, t, y)
    cases = [(loss_velocity, Prediction.VELOCITY),
             (loss_score, Prediction.SCORE),
             (loss_score_weighted, Prediction.SCORE)]
    h = 1e-4
    for loss_fn, prediction in cases:
        model = MLPField(1, sched, prediction=prediction, num_classes=3,
                         seed=404)
        _, grad = loss_fn(model, batch)
        assert grad is not None

        def loss_at(params):
            clone = MLPField(1, sched, prediction=prediction, num_classes=3,
                             parameters=params)
            return loss_fn(clone, batch)[0]

        coords = list(rng.choice(model.n_parameters, size=22, replace=False))
        coords += [model.n_parameters - 1, model.n_parameters - 9,
                   model.n_parameters - 17]  # class-embedding entries
        for k in coords:
            up = model.parameters.copy()
            up[k] += h
            down = model.parameters.copy()
            down[k] -= h
            fd = (loss_at(up) - loss_at(down)) / (2 * h)
            assert abs(fd - grad[k]) <= 1e-4 * max(abs(fd), abs(grad[k])) + 1e-7, \
                f"{loss_fn.__name__}, coordinate {k}: fd={fd!r} analytic={grad[k]!r}"


# ---------------------------------------------------------------------------
# 5. Second-order error decay of the deterministic integrator
# ---------------------------------------------------------------------------


def _initial_noise(seed: int, count: int, dim: int) -> np.ndarray:
    """Reconstruct the documented per-trajectory starting noise."""
    rows = []
    for index in range(count):
        stream = np.random.default_rng(
            np.random.SeedSequence(int(seed), spawn_key=(int(index),)))
        rows.append(stream.standard_normal((1, dim))[0])
    return np.array(rows)


def test_c05_heun_error_decays_at_second_order():
    """Against the closed-form flow of an anisotropic Gaussian, the endpoint
    error of the deterministic integrator decays with slope -2 (within
    [-2.3, -1.7]) as the step count doubles through 16..128."""
    variances = np.array([0.25, 4.0])
    gauss = GaussianMixture(weights=[1.0], means=[[0.0, 0.0]],
                            covariances=[np.diag(variances)])
    field = AnalyticMixtureField(gauss, LINEAR, prediction=Prediction.SCORE)
    t_start, t_end, _ = default_window("linear", "score", "heun")

    # Coordinatewise marginal variance alpha^2 Sigma_j + sigma^2 drives the
    # exact linear flow x_j(t_end) = x_j(t_start) * sqrt(V_j(t_end)/V_j(t_start)).
    v_start = LINEAR.alpha(t_start) ** 2 * variances + LINEAR.sigma(t_start) ** 2
    v_end = LINEAR.alpha(t_end) ** 2 * variances + LINEAR.sigma(t_end) ** 2
    z = _initial_noise(55, 512, 2)
    exact = z * np.sqrt(v_end / v_start)

    step_counts = [16, 32, 64, 128]
    errors = []
    for steps in step_counts:
        spec = SamplerSpec(kind="heun", t_start=t_start, t_end=t_end,
                           steps=steps, seed=55)
        out = heun_sample(field, spec, 512)
        errors.append(float(np.sqrt(np.mean((out.samples - exact) ** 2))))
    slope = log_slope(step_counts, errors)
    assert -2.3 <= slope <= -1.7, f"error slope {slope:.3f}, errors {errors}"


# ---------------------------------------------------------------------------
# 6. Stochastic-sampler marginals are invariant to the diffusion choice
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_c06_em_marginals_are_invariant_to_diffusion_choice():
    """Terminal samples under four different diffusion coefficients are
    pairwise indistinguishable by the energy-distance permutation test."""
    field = AnalyticMixtureField(TWO_GAUSS, LINEAR, prediction=Prediction.SCORE)
    t_start, t_end, last = default_window("linear", "score", "em")
    coefficients = [ZeroCoefficient(), SigmaCoefficient(LINEAR),
                    SineSquaredCoefficient(), ConstantCoefficient(0.5)]
    runs = []
    for i, coefficient in enumerate(coefficients):
        spec = SamplerSpec(kind="em", t_start=t_start, t_end=t_end,
                           steps=1000, diffusion=coefficient,
                           last_step_to=last, seed=600 + i)
        runs.append(euler_maruyama_sample(field, spec, 20_000).samples)
    pair = 0
    for i in range(len(runs)):
        for j in range(i + 1, len(runs)):
            stat, p = energy_distance_permutation_test(
                runs[i], runs[j], n_permutations=200, seed=700 + pair)
            pair += 1
            assert p > 0.01, (
                f"diffusion choices {i} and {j} produced distinguishable "
                f"terminal samples (stat={stat:.6f}, p={p:.4f})")


# ---------------------------------------------------------------------------
# 7. The KL-optimal weight minimizes the bound integrand
# ---------------------------------------------------------------------------


def test_c07_kl_weight_minimizes_integrand_and_cost_minimum_matches():
    """Pointwise, the integrand at w_kl is below its value at halved and
    doubled weights; the cost-augmented closed-form minimum agrees with the
    integrand evaluated at the closed-form minimizer to 1e-10."""
    rng = np.random.default_rng(707)
    for name in ALL_SCHEDULE_NAMES:
        sched = make_schedule(name)
        for _ in range(20):
            t = float(rng.uniform(0.05, 0.95))
            loss_value = float(rng.uniform(0.1, 5.0))
            w_star = float(sched.w_kl(t))
            at_star = kl_integrand(w_star, loss_value, t, sched)
            assert at_star < kl_integrand(0.5 * w_star, loss_value, t, sched)
            assert at_star < kl_integrand(2.0 * w_star, loss_value, t, sched)
            for eta in (0.0, 0.5, 3.0):
                w_min = kl_cost_minimizer(loss_value, t, sched, eta)
                direct = kl_cost_integrand(w_min, loss_value, t, sched, eta)
                closed = kl_cost_minimum(loss_value, t, sched, eta)
                assert abs(direct - closed) <= 1e-10 * max(1.0, abs(closed))


# ---------------------------------------------------------------------------
# 8. Transport-cost ordering of the schedules
# ---------------------------------------------------------------------------


def test_c08_vp_schedule_pays_highest_transport_cost():
    """On the nine-mode grid mixture, the variance-preserving schedule's
    path length exceeds the trigonometric and linear ones by at least three
    combined standard errors (common random numbers across schedules)."""
    costs = {}
    for name in ALL_SCHEDULE_NAMES:
        sched = make_schedule(name)
        field = AnalyticMixtureField(GRID9, sched, prediction=Prediction.VELOCITY)
        costs[name] = path_length(field, GRID9, n_mc=10_000, seed=88,
                                  return_se=True)
    c_vp, se_vp = costs["sbdm-vp"]
    for other in ("gvp", "linear"):
        c_o, se_o = costs[other]
        combined = math.hypot(se_vp, se_o)
        assert c_vp - c_o >= 3.0 * combined, (
            f"sbdm-vp cost {c_vp:.4f} does not exceed {other} cost {c_o:.4f} "
            f"by 3 combined SE ({combined:.4f})")


# ---------------------------------------------------------------------------
# 9. End-to-end training reproduces the two-mode target
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_c09_trained_velocity_model_reproduces_two_mode_target(
        trained_models, exact_reference):
    """Median over three training seeds: mode occupancy within +-0.05 of the
    true (0.5, 0.5) weights, and energy distance below five times the
    exact-sampler noise floor (self-distance of two same-size exact draws)."""
    floors = []
    for k in range(5):
        a, _ = draw(TWO_GAUSS, 2048, seed=91_000 + 2 * k)
        b, _ = draw(TWO_GAUSS, 2048, seed=91_001 + 2 * k)
        floors.append(energy_distance(a, b))
    floor = float(np.median(floors))

    distances, occupancy_errors = [], []
    for s, model in enumerate(trained_models):
        spec = SamplerSpec(kind="heun", t_start=1.0, t_end=0.0, steps=250,
                           seed=1000 + s)
        samples = heun_sample(model, spec, 2048).samples
        distances.append(energy_distance(samples, exact_reference))
        occupancy = mode_occupancy(samples, TWO_GAUSS)
        occupancy_errors.append(float(np.max(np.abs(occupancy - 0.5))))

    median_occ_error = float(np.median(occupancy_errors))
    assert median_occ_error <= 0.05, (
        f"median occupancy deviation {median_occ_error:.4f} exceeds 0.05 "
        f"(per-seed {occupancy_errors})")
    median_distance = float(np.median(distances))
    assert median_distance < 5.0 * floor, (
        f"median energy distance {median_distance:.5f} is not below 5x the "
        f"exact-sampler noise floor {floor:.5f} (per-seed {distances})")


# ---------------------------------------------------------------------------
# 10. Guidance strength concentrates samples on the target class
#
# Checked on the grid-9 means with overlapping components.  At grid-9's own
# component sigma of 0.3 (spacing 4) the edge of the target cell lies 6.7
# sigma from its mean, so the conditional field alone already puts every
# sample in the target class and occupancy cannot rise any further with
# guidance.  At sigma 1.5 neighbouring classes overlap: the corner class
# keeps only Phi(2 / sigma)**2 = 0.826 of its own mass in its cell, which
# leaves guidance room to raise it.
# ---------------------------------------------------------------------------

OVERLAP_SIGMA = 1.5
GRID9_OVERLAP = GaussianMixture(
    weights=GRID9.weights, means=GRID9.means,
    covariances=np.full(GRID9.n_components, OVERLAP_SIGMA ** 2))


def test_c10_guidance_strength_increases_target_class_occupancy():
    """On grid-9 means with overlapping components (sigma 1.5), target-class
    occupancy must rise strictly with guidance strength (0 -> 1 -> 4), each
    step by more than three binomial standard errors.

    Precondition: at strength 1 the exact conditional field samples the
    corner class itself, so its occupancy is below 1 and within three
    standard errors of the closed form ``Phi(2 / sigma)**2``; a testbed on
    which it saturates would make the 1 -> 4 leg vacuous."""
    field = AnalyticMixtureField(GRID9_OVERLAP, LINEAR,
                                 prediction=Prediction.SCORE, conditional=True)
    t_start, t_end, _ = default_window("linear", "score", "heun")
    n = 10_000
    occupancy = {}
    for zeta in (0.0, 1.0, 4.0):
        spec = SamplerSpec(kind="heun", t_start=t_start, t_end=t_end,
                           steps=100, guidance_zeta=zeta, seed=77)
        samples = heun_sample(field, spec, n, y=0).samples
        occupancy[zeta] = float(mode_occupancy(samples, GRID9_OVERLAP)[0])

    # Class 0 is the corner at (-4, -4); its cell is x < -2 and y < -2.
    phi = 0.5 * (1.0 + math.erf(2.0 / OVERLAP_SIGMA / math.sqrt(2.0)))
    closed_form = phi ** 2
    se_closed = math.sqrt(closed_form * (1 - closed_form) / n)
    assert occupancy[1.0] < 1.0, (
        f"occupancy at strength 1 is {occupancy[1.0]:.4f}: the conditional "
        f"field alone already sends every trajectory to the target class, so "
        f"the testbed is saturated and the 1 -> 4 leg cannot rise; the "
        f"classes must overlap")
    assert abs(occupancy[1.0] - closed_form) <= 3.0 * se_closed, (
        f"occupancy at strength 1 ({occupancy[1.0]:.4f}) is not within three "
        f"binomial standard errors ({3.0 * se_closed:.4f}) of the exact "
        f"conditional class mass Phi(2/sigma)^2 = {closed_form:.4f}")

    def gain_and_requirement(hi, lo):
        se = math.sqrt(occupancy[hi] * (1 - occupancy[hi]) / n
                       + occupancy[lo] * (1 - occupancy[lo]) / n)
        return occupancy[hi] - occupancy[lo], 3.0 * se

    gain, need = gain_and_requirement(1.0, 0.0)
    assert gain > need, (
        f"occupancy at strength 1 ({occupancy[1.0]:.4f}) does not exceed "
        f"occupancy at strength 0 ({occupancy[0.0]:.4f}) by more than {need:.4f}")
    gain, need = gain_and_requirement(4.0, 1.0)
    assert gain > need, (
        f"occupancy at strength 4 ({occupancy[4.0]:.4f}) does not exceed "
        f"occupancy at strength 1 ({occupancy[1.0]:.4f}) by more than "
        f"{need:.4f}: stronger guidance fails to push samples away from the "
        f"other classes")


# ---------------------------------------------------------------------------
# 11. Deterministic/stochastic trade-off across evaluation budgets
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_c11_ode_wins_low_budget_and_sde_matches_high_budget(
        trained_models, exact_reference):
    """At 32 evaluations per trajectory the deterministic sampler's median
    energy distance is lower; at 500 the stochastic sampler is not worse by
    more than permutation-test noise."""
    w_sigma = SigmaCoefficient(LINEAR)

    heun_low, em_low = [], []
    for s, model in enumerate(trained_models):
        ode = heun_sample(model, SamplerSpec(
            kind="heun", t_start=1.0, t_end=0.0, steps=16, seed=2000 + s), 16_384)
        sde = euler_maruyama_sample(model, SamplerSpec(
            kind="em", t_start=1.0, t_end=0.04, steps=31, diffusion=w_sigma,
            last_step_to=0.0, seed=3000 + s), 16_384)
        assert ode.nfe == 32 and sde.nfe == 32
        heun_low.append(energy_distance(ode.samples, exact_reference))
        em_low.append(energy_distance(sde.samples, exact_reference))
    assert float(np.median(heun_low)) < float(np.median(em_low)), (
        f"at 32 evaluations the deterministic sampler (median "
        f"{np.median(heun_low):.5f}) is not better than the stochastic one "
        f"(median {np.median(em_low):.5f}); per-seed {heun_low} vs {em_low}")

    seeds_ok = 0
    details = []
    for s, model in enumerate(trained_models):
        ode = heun_sample(model, SamplerSpec(
            kind="heun", t_start=1.0, t_end=0.0, steps=250, seed=4000 + s), 2048)
        sde = euler_maruyama_sample(model, SamplerSpec(
            kind="em", t_start=1.0, t_end=0.04, steps=499, diffusion=w_sigma,
            last_step_to=0.0, seed=5000 + s), 2048)
        assert ode.nfe == 500 and sde.nfe == 500
        ed_ode = energy_distance(ode.samples, exact_reference)
        ed_sde = energy_distance(sde.samples, exact_reference)
        if ed_sde <= ed_ode:
            seeds_ok += 1
            details.append(f"seed {s}: sde {ed_sde:.5f} <= ode {ed_ode:.5f}")
        else:
            _, p = energy_distance_permutation_test(
                sde.samples, ode.samples, n_permutations=200, seed=6000 + s)
            if p >= 0.01:
                seeds_ok += 1
            details.append(f"seed {s}: sde {ed_sde:.5f} vs ode {ed_ode:.5f}, p={p:.4f}")
    assert seeds_ok >= 2, (
        "at 500 evaluations the stochastic sampler is worse than the "
        "deterministic one beyond permutation noise on a majority of seeds: "
        + "; ".join(details))


# ---------------------------------------------------------------------------
# 12. Byte-level reproducibility of the command line
# ---------------------------------------------------------------------------


def _file_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


def _rerun_and_compare(args, out_dir, names):
    """Run a command twice into the same directory; every artifact must be
    reproduced byte for byte."""
    assert cli_main(args) == 0
    before = {name: _file_bytes(out_dir / name) for name in names}
    assert cli_main(args) == 0
    for name in names:
        assert _file_bytes(out_dir / name) == before[name], \
            f"{name} differs between identical reruns of {args[0]}"


def test_c12_cli_reruns_are_byte_identical(tmp_path, monkeypatch, capsys):
    """Running every command twice with the same config and seed reproduces
    every artifact byte for byte (and the info table verbatim)."""
    monkeypatch.setenv("DRIFTLAB_OUTPUT_ROOT", str(tmp_path))

    train_out = tmp_path / "train"
    _rerun_and_compare(
        ["train", "--steps", "25", "--batch", "32", "--profile-bins", "3",
         "--profile-draws", "40", "--out", str(train_out)],
        train_out,
        ["checkpoint.json", "profile.txt", "curve.txt", "config.echo.json"])

    sample_out = tmp_path / "sample"
    _rerun_and_compare(
        ["sample", "--analytic", "two-gauss-1d", "--sampler", "em",
         "--w", "sigma", "--steps", "12", "--n", "64", "--seed", "9",
         "--out", str(sample_out)],
        sample_out,
        ["samples.txt", "config.echo.json"])

    eval_out = tmp_path / "eval"
    _rerun_and_compare(
        ["eval", "--samples", str(sample_out / "samples.txt"),
         "--reference", "two-gauss-1d", "--permutations", "19",
         "--seed", "3", "--out", str(eval_out)],
        eval_out,
        ["report.txt", "report.json"])

    sweep_config = tmp_path / "sweep.json"
    sweep_config.write_text(json.dumps({
        "schedules": ["linear"], "samplers": ["heun", "em"],
        "coefficients": ["sigma"], "steps": [6], "n": 32}))
    sweep_out = tmp_path / "sweep"
    sweep_args = ["sweep", "--config", str(sweep_config), "--out", str(sweep_out)]
    assert cli_main(sweep_args) == 0
    cell_files = sorted(os.listdir(sweep_out / "cells"))
    assert cell_files, "sweep produced no cells"
    _rerun_and_compare(sweep_args, sweep_out,
                       ["summary.txt"] + [f"cells/{name}" for name in cell_files])

    capsys.readouterr()
    assert cli_main(["info", "--schedule", "gvp", "--points", "5"]) == 0
    first = capsys.readouterr().out
    assert cli_main(["info", "--schedule", "gvp", "--points", "5"]) == 0
    assert capsys.readouterr().out == first
