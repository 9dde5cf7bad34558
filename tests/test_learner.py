"""MLP field, objectives, training loop, loss profile, checkpoints."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import driftlab
from driftlab import (
    AnalyticMixtureField,
    ConfigError,
    DomainError,
    FieldModel,
    GaussianMixture,
    LossProfile,
    MLPField,
    NonFiniteError,
    Prediction,
    ToyDataset,
    TrainConfig,
    TrainObjective,
    UnconditionalModelError,
    default_time_window,
    estimate_loss_profile,
    get_preset,
    interpolant_derivative,
    interpolate,
    load_checkpoint,
    loss_score,
    loss_score_weighted,
    loss_velocity,
    save_checkpoint,
    time_features,
    train,
    velocity_from_score,
)
from driftlab.learner import _EVAL_BLOCK_VALUES
from driftlab.toybox import as_dataset

from helpers import relative_error, tracemalloc_peak


# ---------------------------------------------------------------------------
# Time features and architecture plumbing
# ---------------------------------------------------------------------------


def test_time_features_values_and_shape():
    feats = time_features(np.array([0.0, 0.3]), count=4, freq_min=1.0,
                          freq_max=8.0)
    assert feats.shape == (2, 8)
    freqs = np.geomspace(1.0, 8.0, 4)
    assert np.array_equal(feats[0], np.concatenate([np.zeros(4), np.ones(4)]))
    assert np.allclose(feats[1, :4], np.sin(0.3 * freqs))
    assert np.allclose(feats[1, 4:], np.cos(0.3 * freqs))


def test_parameter_count_default_architecture(linear):
    model = MLPField(1, linear)
    # 33 inputs (x + 16 sin + 16 cos) -> 128 -> 128 -> 128 -> 1, biases included.
    assert model.n_parameters == 37505
    conditional = MLPField(2, linear, num_classes=9)
    # 42 inputs (embedding adds 8), plus a 10-row embedding table.
    assert conditional.n_parameters == (42 * 128 + 128) + 2 * (128 * 128 + 128) \
        + (128 * 2 + 2) + 10 * 8


def test_parameters_vector_is_live(linear, rng):
    model = MLPField(1, linear, widths=(8,), seed=3)
    x = rng.standard_normal((5, 1))
    before = model.evaluate(x, 0.4)
    assert not np.allclose(before, 0.0)
    model.parameters[:] = 0.0
    assert np.array_equal(model.evaluate(x, 0.4), np.zeros((5, 1)))


def test_evaluate_shape_and_label_validation(linear):
    model = MLPField(2, linear, widths=(4,), num_classes=3, seed=0)
    with pytest.raises(DomainError):
        model.evaluate(np.zeros((5, 3)), 0.5)
    with pytest.raises(DomainError):
        model.evaluate(np.zeros((5, 2)), np.zeros(4))
    with pytest.raises(DomainError):
        model.evaluate(np.zeros((5, 2)), 0.5, y=np.array([0, 1]))
    with pytest.raises(DomainError):
        model.evaluate(np.zeros((5, 2)), 0.5, y=7)
    out = model.evaluate(np.zeros((5, 2)), 0.5, y=3)  # null token is a valid id
    assert out.shape == (5, 2)
    plain = MLPField(2, linear, widths=(4,), seed=0)
    with pytest.raises(UnconditionalModelError):
        plain.evaluate(np.zeros((5, 2)), 0.5, y=1)


def test_vector_input_round_trip(linear):
    model = MLPField(2, linear, widths=(4,), seed=1)
    single = model.evaluate(np.array([0.3, -0.2]), 0.5)
    batched = model.evaluate(np.array([[0.3, -0.2]]), 0.5)
    assert single.shape == (2,)
    assert np.array_equal(single, batched[0])


# ---------------------------------------------------------------------------
# Bitwise manual reference: the network and Adam written out with allocating
# expressions, against the package's in-place arithmetic
# ---------------------------------------------------------------------------


def _reference_layers(model):
    """(W, b) per layer and the embedding table, sliced from the documented
    flat layout."""
    dims = [model.dimension + 2 * model.time_feature_count
            + (model.class_embed_dim if model.conditioning is not None else 0),
            *model.widths, model.dimension]
    layers, start = [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        w = model.parameters[start:start + fan_in * fan_out].reshape(fan_in, fan_out)
        start += fan_in * fan_out
        layers.append((w, model.parameters[start:start + fan_out]))
        start += fan_out
    table = None
    if model.conditioning is not None:
        table = model.parameters[start:].reshape(-1, model.class_embed_dim)
    return layers, table


def _reference_forward(model, x, t, y=None):
    x = np.asarray(x, dtype=np.float64)
    was_vector = x.ndim == 1
    if was_vector:
        x = x[None, :]
    n = x.shape[0]
    t = np.asarray(t, dtype=np.float64)
    if t.ndim == 0:
        t = np.full(n, float(t))
    freqs = np.geomspace(model.time_freq_min, model.time_freq_max,
                         model.time_feature_count)
    angles = t[:, None] * freqs[None, :]
    pieces = [x, np.concatenate([np.sin(angles), np.cos(angles)], axis=1)]
    layers, table = _reference_layers(model)
    labels = None
    if table is not None:
        labels = np.full(n, model.conditioning.null_id) if y is None \
            else np.broadcast_to(np.asarray(y, dtype=np.int64), (n,))
        pieces.append(table[labels])
    h = np.concatenate(pieces, axis=1)
    activations = [h]
    for w, b in layers[:-1]:
        h = np.tanh(h @ w + b)
        activations.append(h)
    out = h @ layers[-1][0] + layers[-1][1]
    return (out[0] if was_vector else out), activations, labels


def _reference_backward(model, activations, labels, g):
    layers, table = _reference_layers(model)
    grads = []
    for layer in range(len(layers) - 1, -1, -1):
        w, _ = layers[layer]
        h_in = activations[layer]
        grads[:0] = [(h_in.T @ g).ravel(), g.sum(axis=0)]
        if layer > 0:
            g = (g @ w.T) * (1.0 - h_in * h_in)
        else:
            g = g @ w.T
    if table is not None:
        g_table = np.zeros(table.shape)
        np.add.at(g_table, labels, g[:, -model.class_embed_dim:])
        grads.append(g_table.ravel())
    return np.concatenate(grads)


def _reference_train(config, data):
    dataset = as_dataset(data)
    t_lo, t_hi = config.window()
    model = MLPField(dataset.dimension, config.schedule, widths=config.widths,
                     num_classes=dataset.num_classes if config.conditional else None,
                     seed=config.seed)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(1,)))
    moment1 = np.zeros_like(model.parameters)
    moment2 = np.zeros_like(model.parameters)
    curve = []
    for step in range(config.steps):
        x_star, labels = dataset.resample(rng, config.batch)
        eps = rng.standard_normal(x_star.shape)
        t = rng.uniform(t_lo, t_hi, size=config.batch)
        y = None
        if config.conditional:
            y = labels.astype(np.int64).copy()
            y[rng.random(config.batch) < config.label_dropout] = \
                model.conditioning.null_id
        x_t = interpolate(config.schedule, x_star, eps, t)
        target = interpolant_derivative(config.schedule, x_star, eps, t)
        out, activations, used = _reference_forward(model, x_t, t, y)
        residual = out - target
        n = config.batch
        curve.append((step, float(np.sum(residual * residual) / n)))
        grad = _reference_backward(model, activations, used, (2.0 / n) * residual)
        moment1 = config.beta1 * moment1 + (1.0 - config.beta1) * grad
        moment2 = config.beta2 * moment2 + (1.0 - config.beta2) * grad * grad
        hat1 = moment1 / (1.0 - config.beta1 ** (step + 1))
        hat2 = moment2 / (1.0 - config.beta2 ** (step + 1))
        model.parameters -= config.learning_rate * hat1 / (np.sqrt(hat2) + config.adam_eps)
    return model.parameters, np.array(curve)


def _bitwise_equal(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("num_classes", [None, 3])
def test_mlp_matches_manual_reference(linear, rng, num_classes):
    model = MLPField(2, linear, num_classes=num_classes, seed=4)
    x = rng.standard_normal((37, 2))
    t = rng.uniform(0.0, 1.0, size=37)
    label_cases = [None] if num_classes is None else [
        None, 1, model.conditioning.null_id, rng.integers(0, 4, size=37)]
    for y in label_cases:
        for time in (0.37, t):
            assert _bitwise_equal(model.evaluate(x, time, y),
                                  _reference_forward(model, x, time, y)[0])
        y_one = y if np.ndim(y) == 0 else None
        assert _bitwise_equal(model.evaluate(x[5], 0.81, y_one),
                              _reference_forward(model, x[5], 0.81, y_one)[0])
        out, cache = model.forward_with_cache(x, t, y)
        expected, activations, labels = _reference_forward(model, x, t, y)
        assert _bitwise_equal(out, expected)
        g = rng.standard_normal(out.shape)
        assert _bitwise_equal(model.backward(cache, g),
                              _reference_backward(model, activations, labels, g))


def test_backward_takes_a_one_point_gradient_as_one_row(linear, rng):
    model = MLPField(2, linear, num_classes=3, seed=4)
    _, cache = model.forward_with_cache(rng.standard_normal(2), 0.4, 1)
    g = rng.standard_normal(2)
    assert _bitwise_equal(model.backward(cache, g), model.backward(cache, g[None, :]))


def _block_rows(model) -> int:
    return _EVAL_BLOCK_VALUES // max(model._layer_dims)


def test_evaluate_memory_does_not_grow_with_rows(linear):
    model = MLPField(2, linear, seed=4)
    rows = _block_rows(model)
    inputs = {n: np.linspace(-3.0, 3.0, 2 * n).reshape(n, 2) for n in (rows, 32 * rows)}

    one_block, many_blocks = (tracemalloc_peak(model.evaluate, inputs[n], 0.37)
                              for n in (rows, 32 * rows))
    output_bytes = inputs[32 * rows].nbytes
    assert many_blocks <= one_block + output_bytes + 16_384, (one_block, many_blocks)


@pytest.mark.parametrize("num_classes", [None, 3])
def test_evaluate_in_blocks_matches_manual_reference_with_a_remainder_row(
        linear, rng, num_classes):
    model = MLPField(2, linear, num_classes=num_classes, seed=4)
    n = 2 * _block_rows(model) + 1
    x = rng.standard_normal((n, 2))
    y = None if num_classes is None else rng.integers(0, num_classes + 1, size=n)
    for time in (0.37, rng.uniform(0.0, 1.0, size=n)):
        out = model.evaluate(x, time, y)
        expected = _reference_forward(model, x, time, y)[0]
        assert out.shape == (n, 2)
        assert np.max(relative_error(out, expected)) <= 1e-12


@pytest.mark.parametrize("per_row_t", [False, True])
def test_evaluate_in_blocks_gives_each_block_its_own_bits(linear, rng, per_row_t):
    model = MLPField(2, linear, num_classes=3, seed=4)
    rows = _block_rows(model)
    n = 2 * rows + 1
    x = rng.standard_normal((n, 2))
    t = rng.uniform(0.0, 1.0, size=n) if per_row_t else 0.37
    y = rng.integers(0, 4, size=n)
    out = model.evaluate(x, t, y)
    for lo in range(0, n, rows):
        block = slice(lo, lo + rows)
        alone = model.evaluate(x[block], t[block] if per_row_t else t, y[block])
        assert _bitwise_equal(out[block], alone)


@pytest.mark.parametrize("num_classes", [None, 3])
def test_zero_rows_give_empty_outputs_and_a_zero_gradient(linear, num_classes):
    model = MLPField(2, linear, num_classes=num_classes, seed=4)
    x = np.empty((0, 2))
    y = None if num_classes is None else np.empty(0, dtype=np.int64)
    for t in (0.5, np.empty(0)):
        assert model.evaluate(x, t, y).shape == (0, 2)
        out, cache = model.forward_with_cache(x, t, y)
        assert out.shape == (0, 2)
        assert _bitwise_equal(model.backward(cache, np.empty((0, 2))),
                              np.zeros(model.n_parameters))


@pytest.mark.parametrize("conditional", [False, True])
def test_training_matches_manual_reference(linear, conditional):
    config = TrainConfig(objective="velocity", schedule=linear, steps=3, seed=6,
                         conditional=conditional, label_dropout=0.3,
                         profile_bins=1, profile_draws=10)
    data = get_preset("grid-9")
    result = train(config, data)
    parameters, curve = _reference_train(config, data)
    assert _bitwise_equal(result.model.parameters, parameters)
    assert _bitwise_equal(result.curve, curve)


def _reference_score_train(config, data):
    """``_reference_train`` for the two score objectives: residual
    ``sigma*f + eps``, weighted by ``lambda^2`` for weighted-score."""
    dataset = as_dataset(data)
    t_lo, t_hi = config.window()
    weighted = config.objective is TrainObjective.WEIGHTED_SCORE
    model = MLPField(dataset.dimension, config.schedule, prediction=Prediction.SCORE,
                     widths=config.widths,
                     num_classes=dataset.num_classes if config.conditional else None,
                     seed=config.seed)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(1,)))
    moment1 = np.zeros_like(model.parameters)
    moment2 = np.zeros_like(model.parameters)
    curve = []
    for step in range(config.steps):
        x_star, labels = dataset.resample(rng, config.batch)
        eps = rng.standard_normal(x_star.shape)
        t = rng.uniform(t_lo, t_hi, size=config.batch)
        y = None
        if config.conditional:
            y = labels.astype(np.int64).copy()
            y[rng.random(config.batch) < config.label_dropout] = \
                model.conditioning.null_id
        x_t = interpolate(config.schedule, x_star, eps, t)
        sig = config.schedule.sigma(t)[:, None]
        lam = config.schedule.lambda_weight(t)[:, None]
        out, activations, used = _reference_forward(model, x_t, t, y)
        residual = sig * out + eps
        n = config.batch
        if weighted:
            curve.append((step, float(np.sum(lam * lam * residual * residual) / n)))
            g = (2.0 / n) * lam * lam * sig * residual
        else:
            curve.append((step, float(np.sum(residual * residual) / n)))
            g = (2.0 / n) * sig * residual
        grad = _reference_backward(model, activations, used, g)
        moment1 = config.beta1 * moment1 + (1.0 - config.beta1) * grad
        moment2 = config.beta2 * moment2 + (1.0 - config.beta2) * grad * grad
        hat1 = moment1 / (1.0 - config.beta1 ** (step + 1))
        hat2 = moment2 / (1.0 - config.beta2 ** (step + 1))
        model.parameters -= config.learning_rate * hat1 / (np.sqrt(hat2) + config.adam_eps)
    return model.parameters, np.array(curve)


@pytest.mark.parametrize("conditional", [False, True])
@pytest.mark.parametrize("objective", ["score", "weighted-score"])
def test_score_training_matches_manual_reference(linear, objective, conditional):
    # A batch that is not a power of two, so that 2/n is inexact and the
    # order of the gradient's products shows in its bits.
    config = TrainConfig(objective=objective, schedule=linear, steps=3, batch=30, seed=6,
                         conditional=conditional, label_dropout=0.3,
                         profile_bins=1, profile_draws=10)
    data = get_preset("grid-9")
    result = train(config, data)
    parameters, curve = _reference_score_train(config, data)
    assert _bitwise_equal(result.model.parameters, parameters)
    assert _bitwise_equal(result.curve, curve)


def _public_loss_train(config, data):
    """``train``'s loop written with the public losses, which return fresh
    arrays, and the allocating Adam of ``_reference_train``."""
    dataset = as_dataset(data)
    t_lo, t_hi = config.window()
    velocity = config.objective is TrainObjective.VELOCITY
    model = MLPField(dataset.dimension, config.schedule,
                     prediction=Prediction.VELOCITY if velocity else Prediction.SCORE,
                     widths=config.widths,
                     num_classes=dataset.num_classes if config.conditional else None,
                     seed=config.seed)
    loss_fn = {TrainObjective.VELOCITY: loss_velocity, TrainObjective.SCORE: loss_score,
               TrainObjective.WEIGHTED_SCORE: loss_score_weighted}[config.objective]
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(1,)))
    moment1 = np.zeros_like(model.parameters)
    moment2 = np.zeros_like(model.parameters)
    curve = []
    for step in range(config.steps):
        x_star, labels = dataset.resample(rng, config.batch)
        eps = rng.standard_normal(x_star.shape)
        t = rng.uniform(t_lo, t_hi, size=config.batch)
        y = None
        if config.conditional:
            y = labels.astype(np.int64).copy()
            y[rng.random(config.batch) < config.label_dropout] = \
                model.conditioning.null_id
        loss, grad = loss_fn(model, (x_star, eps, t, y))
        curve.append((step, loss))
        moment1 = config.beta1 * moment1 + (1.0 - config.beta1) * grad
        moment2 = config.beta2 * moment2 + (1.0 - config.beta2) * grad * grad
        hat1 = moment1 / (1.0 - config.beta1 ** (step + 1))
        hat2 = moment2 / (1.0 - config.beta2 ** (step + 1))
        model.parameters -= config.learning_rate * hat1 / (np.sqrt(hat2) + config.adam_eps)
    return model.parameters, np.array(curve)


@pytest.mark.parametrize("conditional", [False, True])
@pytest.mark.parametrize("objective", ["velocity", "score"])
def test_training_in_step_buffers_matches_the_public_losses_at_two_gradient_blocks(
        linear, objective, conditional):
    # Batch 300 sums each weight gradient over two blocks, so train's block
    # buffer is written too; the public losses allocate every array afresh.
    config = TrainConfig(objective=objective, schedule=linear, steps=3, batch=300, seed=6,
                         conditional=conditional, label_dropout=0.3,
                         profile_bins=1, profile_draws=10)
    data = get_preset("grid-9")
    result = train(config, data)
    parameters, curve = _public_loss_train(config, data)
    assert _bitwise_equal(result.model.parameters, parameters)
    assert _bitwise_equal(result.curve, curve)


def test_returned_gradients_and_caches_survive_later_calls(linear, rng):
    # Without train's buffers every call returns fresh arrays, so a gradient
    # or cache a caller holds is never overwritten.
    model = MLPField(2, linear, num_classes=3, seed=4)
    _, grad = loss_velocity(model, _fd_batch(rng))
    x, t, y = rng.standard_normal((5, 2)), rng.uniform(0.1, 0.9, size=5), np.arange(5) % 4
    out, cache = model.forward_with_cache(x, t, y)
    kept = [grad.copy(), out.copy(), *(a.copy() for a in cache["activations"])]
    loss_velocity(model, _fd_batch(rng))
    model.backward(model.forward_with_cache(-x, 1.0 - t, y)[1], rng.standard_normal((5, 2)))
    for before, now in zip(kept, [grad, out, *cache["activations"]]):
        assert _bitwise_equal(before, now)


@pytest.mark.parametrize("objective,conditional", [("velocity", False), ("score", True)])
def test_training_profile_is_the_seeded_profile_of_the_trained_model(
        linear, objective, conditional):
    config = TrainConfig(objective=objective, schedule=linear, steps=4, batch=32,
                         seed=8, conditional=conditional, label_dropout=0.3,
                         profile_bins=4, profile_draws=50)
    data = get_preset("grid-9")
    result = train(config, data)
    profile = estimate_loss_profile(result.model, data, bins=config.profile_bins,
                                    draws_per_bin=config.profile_draws,
                                    window=config.window(), seed=config.seed,
                                    label_dropout=config.label_dropout)
    assert _bitwise_equal(result.profile.edges, profile.edges)
    assert _bitwise_equal(result.profile.values, profile.values)


# ---------------------------------------------------------------------------
# Objectives: finite-difference oracle and exact baselines
# ---------------------------------------------------------------------------


def _fd_batch(rng, n=5, d=2, null_id=3):
    x_star = rng.standard_normal((n, d))
    eps = rng.standard_normal((n, d))
    t = rng.uniform(0.1, 0.9, size=n)
    y = np.array([0, 1, 2, 0, null_id])
    return x_star, eps, t, y


@pytest.mark.parametrize("loss_fn,prediction", [
    (loss_velocity, Prediction.VELOCITY),
    (loss_score, Prediction.SCORE),
    (loss_score_weighted, Prediction.SCORE),
])
def test_gradient_matches_finite_differences(linear, rng, loss_fn, prediction):
    # A conditional model, and an unconditional one (no embedding, so
    # backward skips the input gradient of the first layer).
    for num_classes in (3, None):
        model = MLPField(2, linear, prediction=prediction, widths=(8, 8),
                         num_classes=num_classes, seed=11)
        x_star, eps, t, y = _fd_batch(rng)
        batch = (x_star, eps, t, y if num_classes else None)
        _, grad = loss_fn(model, batch)
        assert grad.shape == model.parameters.shape

        def loss_at(params):
            clone = MLPField(2, linear, prediction=prediction, widths=(8, 8),
                             num_classes=num_classes, parameters=params)
            return loss_fn(clone, batch)[0]

        coords = list(rng.choice(model.n_parameters, size=25, replace=False))
        # Embedding-table entries, or the output layer without embedding.
        coords += [model.n_parameters - 1, model.n_parameters - 10,
                   model.n_parameters - 25]
        h = 1e-4
        for k in coords:
            up = model.parameters.copy()
            up[k] += h
            down = model.parameters.copy()
            down[k] -= h
            fd = (loss_at(up) - loss_at(down)) / (2 * h)
            assert abs(fd - grad[k]) <= 1e-4 * max(abs(fd), abs(grad[k])) + 1e-7, \
                f"num_classes={num_classes} coordinate {k}: fd={fd!r} " \
                f"analytic={grad[k]!r}"


def test_weighted_score_objective_equals_velocity_of_converted_field(linear, rng):
    model = MLPField(1, linear, prediction=Prediction.SCORE, widths=(8, 8),
                     seed=2)
    n = 1000
    x_star = rng.standard_normal((n, 1)) * 2.0
    eps = rng.standard_normal((n, 1))
    t = rng.uniform(0.05, 0.9, size=n)
    weighted, _ = loss_score_weighted(model, (x_star, eps, t, None))

    x_t = interpolate(linear, x_star, eps, t)
    out = model.evaluate(x_t, t)
    v = velocity_from_score(linear, out, x_t, t)
    target = interpolant_derivative(linear, x_star, eps, t)
    per_sample_velocity_loss = np.sum((v - target) ** 2, axis=1)
    lam = linear.lambda_weight(t)[:, None]
    sig = linear.sigma(t)[:, None]
    per_sample_weighted = np.sum((lam * (sig * out + eps)) ** 2, axis=1)
    assert relative_error(per_sample_weighted,
                          per_sample_velocity_loss).max() < 1e-8
    assert relative_error(weighted, float(np.mean(per_sample_weighted))) < 1e-12


def test_zero_model_losses_reduce_to_target_norms(linear, rng):
    n = 400
    x_star = rng.standard_normal((n, 1)) * 1.5
    eps = rng.standard_normal((n, 1))
    t = rng.uniform(0.1, 0.9, size=n)

    def zero_model(prediction):
        probe = MLPField(1, linear, prediction=prediction, widths=(4,))
        return MLPField(1, linear, prediction=prediction, widths=(4,),
                        parameters=np.zeros(probe.n_parameters))

    target = interpolant_derivative(linear, x_star, eps, t)
    loss_v, grad = zero_model(Prediction.VELOCITY), None
    loss_v, grad = loss_velocity(loss_v, (x_star, eps, t, None))
    assert math.isclose(loss_v, float(np.mean(np.sum(target ** 2, axis=1))),
                        rel_tol=1e-12)
    loss_s, _ = loss_score(zero_model(Prediction.SCORE), (x_star, eps, t, None))
    assert math.isclose(loss_s, float(np.mean(np.sum(eps ** 2, axis=1))),
                        rel_tol=1e-12)
    loss_w, _ = loss_score_weighted(zero_model(Prediction.SCORE),
                                    (x_star, eps, t, None))
    lam = linear.lambda_weight(t)[:, None]
    assert math.isclose(loss_w, float(np.mean(np.sum((lam * eps) ** 2, axis=1))),
                        rel_tol=1e-12)


def test_exact_field_attains_the_conditional_variance_floor(linear, rng):
    # The exact marginal velocity is the conditional mean of the per-sample
    # target, so its expected loss equals E|target|^2 - E|field|^2; the
    # per-sample cross term has mean zero, which pins the identity within
    # Monte-Carlo error.
    gmm = get_preset("two-gauss-1d")
    model = AnalyticMixtureField(gmm, linear, prediction=Prediction.VELOCITY)
    dataset = ToyDataset(gmm=gmm)
    n = 200_000
    x_star, _ = dataset.resample(rng, n)
    eps = rng.standard_normal((n, 1))
    t = rng.uniform(0.02, 0.98, size=n)
    loss, grad = loss_velocity(model, (x_star, eps, t, None))
    assert grad is None
    x_t = interpolate(linear, x_star, eps, t)
    v = model.evaluate(x_t, t)
    target = interpolant_derivative(linear, x_star, eps, t)
    delta = (np.sum((target - v) ** 2, axis=1)
             - np.sum(target ** 2, axis=1) + np.sum(v ** 2, axis=1))
    se = float(np.std(delta, ddof=1) / math.sqrt(n))
    assert abs(float(np.mean(delta))) < 4 * se
    decomposed = float(np.mean(np.sum(target ** 2, axis=1))
                       - np.mean(np.sum(v ** 2, axis=1)))
    assert abs(loss - decomposed) < 4 * se


def test_losses_reject_mismatched_prediction_kind(linear, rng):
    velocity_model = MLPField(1, linear, widths=(4,))
    score_model = MLPField(1, linear, prediction=Prediction.SCORE, widths=(4,))
    batch = (rng.standard_normal((3, 1)), rng.standard_normal((3, 1)),
             rng.uniform(0.1, 0.9, 3), None)
    with pytest.raises(ConfigError):
        loss_velocity(score_model, batch)
    with pytest.raises(ConfigError):
        loss_score(velocity_model, batch)
    with pytest.raises(ConfigError):
        loss_score_weighted(velocity_model, batch)
    with pytest.raises(DomainError):
        loss_velocity(velocity_model, (np.zeros((3, 1)), np.zeros((2, 1)),
                                       np.zeros(3), None))


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def test_training_reduces_the_loss_and_is_deterministic(linear):
    config = TrainConfig(objective="velocity", schedule=linear, steps=80,
                         batch=64, seed=3, profile_bins=4, profile_draws=200)
    data = get_preset("two-gauss-1d")
    result = train(config, data)
    assert result.curve.shape == (80, 2)
    assert np.array_equal(result.curve[:, 0], np.arange(80))
    early = float(np.mean(result.curve[:10, 1]))
    late = float(np.mean(result.curve[-10:, 1]))
    assert late < early
    again = train(config, data)
    assert np.array_equal(result.model.parameters, again.model.parameters)
    assert np.array_equal(result.curve, again.curve)
    assert np.array_equal(result.profile.values, again.profile.values)
    assert result.profile.window == config.window()


_THREADS_SCRIPT = """
import sys
import numpy as np
from driftlab import (GaussianMixture, TrainConfig, get_preset, gmm_marginal_score,
                      make_schedule, train)
schedule = make_schedule("linear")
grid9 = get_preset("grid-9")
config = TrainConfig(objective="velocity", schedule=schedule, steps=20, batch=2048,
                     widths=(128, 128), seed=5, profile_bins=2, profile_draws=500)
model = train(config, grid9).model
rng = np.random.default_rng(0)
x = rng.normal(scale=3.0, size=(4096, 2))
t = rng.uniform(0.0, 1.0, size=4096)
full = GaussianMixture([0.4, 0.6], [[0.0, 1.0], [2.0, -1.0]],
                       [[[1.0, 0.6], [0.6, 0.8]], [[0.5, -0.2], [-0.2, 0.3]]])
np.savez(sys.argv[1], parameters=model.parameters, mlp=model.evaluate(x, t),
         grid9=gmm_marginal_score(grid9, schedule, x, t),
         full=gmm_marginal_score(full, schedule, x, 0.4))
"""


def test_training_and_exact_field_do_not_depend_on_blas_threads(tmp_path):
    # Each run is a fresh interpreter, because OpenBLAS reads its thread
    # count when numpy is first imported.
    source = os.path.dirname(os.path.dirname(os.path.abspath(driftlab.__file__)))
    results = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [source, os.environ.get("PYTHONPATH")])))
        path = tmp_path / f"threads-{threads}.npz"
        subprocess.run([sys.executable, "-c", _THREADS_SCRIPT, str(path)],
                       env=env, check=True, timeout=300)
        with np.load(path) as arrays:
            results[threads] = {name: arrays[name] for name in arrays.files}
    assert set(results["1"]) == {"parameters", "mlp", "grid9", "full"}
    for name, value in results["1"].items():
        assert value.tobytes() == results["2"][name].tobytes(), name


_BATCH_THREADS_SCRIPT = """
import sys
import numpy as np
from driftlab import TrainConfig, get_preset, make_schedule, train
arrays = {}
for batch in (300, 600):
    config = TrainConfig(objective="velocity", schedule=make_schedule("linear"), steps=10,
                         batch=batch, widths=(64, 64), seed=5, profile_bins=2,
                         profile_draws=100)
    arrays[f"batch-{batch}"] = train(config, get_preset("grid-9")).model.parameters
np.savez(sys.argv[1], **arrays)
"""


def test_training_above_one_gradient_block_does_not_depend_on_blas_threads(tmp_path):
    # One weight-gradient product over 600 rows rounded differently at 1 and
    # 2 OpenBLAS threads; batches above one block sum it block by block.
    source = os.path.dirname(os.path.dirname(os.path.abspath(driftlab.__file__)))
    results = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [source, os.environ.get("PYTHONPATH")])))
        path = tmp_path / f"threads-{threads}.npz"
        subprocess.run([sys.executable, "-c", _BATCH_THREADS_SCRIPT, str(path)],
                       env=env, check=True, timeout=300)
        with np.load(path) as arrays:
            results[threads] = {name: arrays[name] for name in arrays.files}
    assert set(results["1"]) == {"batch-300", "batch-600"}
    for name, value in results["1"].items():
        assert value.tobytes() == results["2"][name].tobytes(), name


_PERMUTATION_THREADS_SCRIPT = """
import sys
import numpy as np
from driftlab import energy_distance_permutation_test
from driftlab.metrics import _split_statistics
rng = np.random.default_rng(2)
a = rng.standard_normal((500, 2))
b = rng.standard_normal((700, 2)) + 0.05
observed, p_value = energy_distance_permutation_test(a, b, n_permutations=150, seed=9)
orders = [rng.permutation(1200) for _ in range(150)]
np.savez(sys.argv[1], test=np.array([observed, p_value]),
         splits=_split_statistics(np.concatenate([a, b]), 500, orders))
"""


_FAULTS_SCRIPT = """
import resource
from driftlab import TrainConfig, get_preset, make_schedule, train
def config(steps):
    return TrainConfig(objective="velocity", schedule=make_schedule("linear"), steps=steps,
                       batch=256, seed=3, profile_bins=1, profile_draws=10)
data = get_preset("two-gauss-1d")
train(config(20), data)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
train(config(220), data)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts minor page faults as Linux reports them")
def test_training_allocates_its_step_memory_once_per_run():
    # Fresh activation, signal and gradient arrays on every step were mapped
    # and trimmed again by glibc: 36,419 minor faults for these 220 steps of
    # the default network, against a few hundred in buffers kept for the run.
    source = os.path.dirname(os.path.dirname(os.path.abspath(driftlab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [source, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _FAULTS_SCRIPT], env=env, check=True,
                          timeout=300, capture_output=True, text=True)
    faults = int(done.stdout)
    assert faults < 5_000, faults


_PROFILE_FAULTS_SCRIPT = """
import resource
from driftlab import MLPField, estimate_loss_profile, get_preset, make_schedule
model = MLPField(1, make_schedule("linear"), seed=3)
data = get_preset("two-gauss-1d")
estimate_loss_profile(model, data, bins=1, draws_per_bin=10)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
estimate_loss_profile(model, data, bins=50, draws_per_bin=2000)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts minor page faults as Linux reports them")
def test_loss_profile_allocates_its_layer_memory_once_per_call():
    # Fresh arrays for each 256-row block of the 50 evaluations were mapped
    # and trimmed again by glibc in a process that had not raised its
    # thresholds yet: about 38,500 minor faults at train's default profile
    # size, against about 8,300 with one set of arrays per call.
    source = os.path.dirname(os.path.dirname(os.path.abspath(driftlab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [source, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _PROFILE_FAULTS_SCRIPT], env=env,
                          check=True, timeout=300, capture_output=True, text=True)
    faults = int(done.stdout)
    assert faults < 12_000, faults


def test_permutation_test_does_not_depend_on_blas_threads(tmp_path):
    # The 2-D test scores its splits with a matrix product, run by BLAS.
    source = os.path.dirname(os.path.dirname(os.path.abspath(driftlab.__file__)))
    results = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [source, os.environ.get("PYTHONPATH")])))
        path = tmp_path / f"threads-{threads}.npz"
        subprocess.run([sys.executable, "-c", _PERMUTATION_THREADS_SCRIPT, str(path)],
                       env=env, check=True, timeout=300)
        with np.load(path) as arrays:
            results[threads] = {name: arrays[name] for name in arrays.files}
    assert set(results["1"]) == {"test", "splits"}
    for name, value in results["1"].items():
        assert value.tobytes() == results["2"][name].tobytes(), name


def test_conditional_training_runs_and_embeds_classes(linear):
    config = TrainConfig(objective="velocity", schedule=linear, steps=40,
                         batch=64, seed=1, conditional=True,
                         profile_bins=3, profile_draws=100)
    result = train(config, get_preset("grid-9"))
    model = result.model
    assert model.conditioning is not None
    assert model.conditioning.num_classes == 9
    out_marginal = model.evaluate(np.zeros((2, 2)), 0.5)
    out_class = model.evaluate(np.zeros((2, 2)), 0.5, y=4)
    assert not np.allclose(out_marginal, out_class)


def test_conditional_training_requires_labels(linear, rng):
    unlabeled = ToyDataset(samples=rng.standard_normal((32, 1)))
    config = TrainConfig(objective="velocity", schedule=linear, steps=5,
                         conditional=True)
    with pytest.raises(ConfigError):
        train(config, unlabeled)


def test_conditional_profile_requires_labels(linear, rng):
    # A conditional model's profile draws labels, which unlabeled data lacks.
    model = MLPField(2, linear, widths=(4,), num_classes=3)
    unlabeled = ToyDataset(samples=rng.standard_normal((32, 2)))
    with pytest.raises(ConfigError, match="requires labeled data"):
        estimate_loss_profile(model, unlabeled, bins=2, draws_per_bin=8)


def test_mlp_refuses_fewer_than_one_class(linear):
    for num_classes in (0, -1):
        with pytest.raises(ConfigError):
            MLPField(1, linear, widths=(4,), num_classes=num_classes)
    assert MLPField(1, linear, widths=(4,), num_classes=None).conditioning is None


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_non_finite_training_loss_reports_the_step(linear):
    huge = ToyDataset(samples=np.full((16, 1), 1e200))
    config = TrainConfig(objective="velocity", schedule=linear, steps=5,
                         batch=8, seed=0, profile_bins=2, profile_draws=10)
    with pytest.raises(NonFiniteError) as excinfo:
        train(config, huge)
    assert excinfo.value.step == 0


class _InfiniteInWindow(FieldModel):
    """A velocity model that is 0 outside [lo, hi) and infinite inside."""

    prediction = Prediction.VELOCITY
    dimension = 1

    def __init__(self, schedule, lo, hi):
        self.schedule, self.lo, self.hi = schedule, lo, hi

    def evaluate(self, x, t, y=None):
        inside = (t >= self.lo) & (t < self.hi)
        return np.where(inside[:, None], np.inf, 0.0)


def test_non_finite_loss_profile_reports_the_bin(linear):
    model = _InfiniteInWindow(linear, 0.5, 0.75)
    with pytest.raises(NonFiniteError, match=r"\(t_bin=2\)$") as excinfo:
        estimate_loss_profile(model, get_preset("two-gauss-1d"), bins=4, draws_per_bin=16)
    assert (excinfo.value.t_bin, excinfo.value.step) == (2, None)


def test_default_time_window_clips_only_singular_endpoints(all_schedules):
    by_name = {schedule.name: schedule for schedule in all_schedules}
    table = {
        ("velocity", "linear"): (0.0, 1.0),
        ("velocity", "gvp"): (0.0, 1.0),
        ("velocity", "sbdm-vp"): (1e-5, 1.0),
        ("score", "linear"): (0.0, 1.0),
        ("score", "gvp"): (0.0, 1.0),
        ("score", "sbdm-vp"): (0.0, 1.0),
        ("weighted-score", "linear"): (0.0, 1.0 - 1e-5),
        ("weighted-score", "gvp"): (0.0, 1.0 - 1e-5),
        ("weighted-score", "sbdm-vp"): (1e-5, 1.0),
    }
    for (objective, name), expected in table.items():
        assert default_time_window(TrainObjective(objective), by_name[name]) \
            == expected


def test_train_config_validation_and_window_override(linear):
    with pytest.raises(ConfigError):
        TrainConfig(objective="velocity", schedule=linear, steps=0)
    with pytest.raises(ConfigError):
        TrainConfig(objective="velocity", schedule=linear, steps=5,
                    learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(objective="velocity", schedule=linear, steps=5,
                    label_dropout=1.5)
    with pytest.raises(ValueError):
        TrainConfig(objective="not-a-loss", schedule=linear, steps=5)
    config = TrainConfig(objective="velocity", schedule=linear, steps=5,
                         t_lo=0.2, t_hi=0.8)
    assert config.window() == (0.2, 0.8)
    bad = TrainConfig(objective="velocity", schedule=linear, steps=5,
                      t_lo=0.9, t_hi=0.1)
    with pytest.raises(ConfigError):
        bad.window()


# ---------------------------------------------------------------------------
# Loss profile
# ---------------------------------------------------------------------------


def test_loss_profile_lookup_is_piecewise_constant_and_clamped():
    profile = LossProfile(np.array([0.0, 0.5, 1.0]), np.array([2.0, 3.0]))
    assert profile(0.25) == 2.0
    assert profile(0.75) == 3.0
    assert profile(0.5) == 3.0  # right-continuous at interior edges
    assert profile(-1.0) == 2.0  # clamped below
    assert profile(2.0) == 3.0  # clamped above
    assert np.array_equal(profile(np.array([0.1, 0.9])), [2.0, 3.0])
    assert profile.window == (0.0, 1.0)


def test_loss_profile_validation():
    with pytest.raises(ConfigError):
        LossProfile(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
    with pytest.raises(ConfigError):
        LossProfile(np.array([0.0, 0.5, 0.5]), np.array([1.0, 2.0]))
    with pytest.raises(ConfigError):
        LossProfile(np.array([0.0, 0.5, 1.0]), np.array([1.0, -2.0]))
    with pytest.raises(ConfigError):
        LossProfile(np.array([0.0, 0.5, 1.0]), np.array([1.0, np.inf]))


def test_loss_profile_needs_a_bin_and_a_draw(linear):
    with pytest.raises(ConfigError):
        LossProfile(np.array([0.5]), np.array([]))
    model = MLPField(1, linear, widths=(4,))
    data = get_preset("two-gauss-1d")
    for bins, draws in [(0, 10), (2, 0), (-1, 10)]:
        with pytest.raises(ConfigError):
            estimate_loss_profile(model, data, bins=bins, draws_per_bin=draws)


def test_loss_profile_file_round_trip_is_exact(tmp_path):
    edges = np.linspace(0.0, 1.0 - 1e-5, 8)
    values = np.abs(np.sin(np.arange(7) + 0.123)) * 1.7e-3
    profile = LossProfile(edges, values)
    path = str(tmp_path / "profile.txt")
    profile.save(path)
    loaded = LossProfile.load(path)
    assert np.array_equal(loaded.edges, profile.edges)
    assert np.array_equal(loaded.values, profile.values)
    profile.save(path)  # re-save is byte-identical
    with open(path) as handle:
        first = handle.read()
    profile.save(path)
    with open(path) as handle:
        assert handle.read() == first


def test_loss_profile_load_errors(tmp_path):
    missing = str(tmp_path / "nope.txt")
    with pytest.raises(ConfigError) as excinfo:
        LossProfile.load(missing)
    assert "nope.txt" in str(excinfo.value)
    bad_header = tmp_path / "bad.txt"
    bad_header.write_text("just some text\n0 1 2\n")
    with pytest.raises(ConfigError):
        LossProfile.load(str(bad_header))
    empty = tmp_path / "empty.txt"
    empty.write_text("# loss-profile bins=0 t_lo=0.0 t_hi=1.0\n")
    with pytest.raises(ConfigError):
        LossProfile.load(str(empty))


def test_loss_profile_load_refuses_a_gap_between_rows(tmp_path):
    # Read as edges [0, 0.5, 1], this file would lose its 0.5-0.7 gap.
    path = tmp_path / "gap.txt"
    path.write_text("# loss-profile bins=2 t_lo=0.0 t_hi=1.0\n0.0 0.5 1.0\n0.7 1.0 2.0\n")
    with pytest.raises(ConfigError, match="gap.txt"):
        LossProfile.load(str(path))


@pytest.mark.parametrize("header", ["bins=1 t_lo=0.3 t_hi=0.9", "bins=1 t_lo=0.0",
                                    "bins=1 t_lo=1.0 t_hi=0.0", "bins=1 t_lo=0.0 t_hi=x"])
def test_loss_profile_load_refuses_a_header_window_the_rows_disagree_with(tmp_path, header):
    # Read from its rows alone, each file would load with the window (0, 1).
    path = tmp_path / "window.txt"
    path.write_text(f"# loss-profile {header}\n0.0 1.0 2.0\n")
    with pytest.raises(ConfigError, match="window.txt"):
        LossProfile.load(str(path))


def test_loss_profile_load_parses_the_header_window(tmp_path):
    # The header's bounds are text; they are read as numbers before the check.
    path = tmp_path / "window.txt"
    path.write_text("# loss-profile bins=1 t_lo=1e-5 t_hi=0.5\n1e-05 0.5 2.0\n")
    assert LossProfile.load(str(path)).window == (1e-5, 0.5)
    path.write_text("# loss-profile bins=1 t_lo=1e-5\n1e-05 0.5 2.0\n")
    with pytest.raises(ConfigError, match="window.txt: header has no t_hi="):
        LossProfile.load(str(path))


def test_loss_profile_load_refuses_a_header_bin_count_the_rows_disagree_with(tmp_path):
    path = tmp_path / "count.txt"
    path.write_text("# loss-profile bins=3 t_lo=0.0 t_hi=1.0\n0.0 0.5 1.0\n0.5 1.0 2.0\n")
    with pytest.raises(ConfigError, match="count.txt"):
        LossProfile.load(str(path))


def test_profile_of_exact_field_matches_closed_form(linear):
    # For a single centered Gaussian with variance s2, the exact per-time
    # loss of the exact velocity field is the conditional variance
    #   L(t) = (ad^2 s2 + sd^2) - (a ad s2 + s sd)^2 / (a^2 s2 + s^2),
    # so the Monte-Carlo profile must land on its bin averages.
    s2 = 2.5
    gmm = GaussianMixture([1.0], [[0.0]], [[s2]])
    model = AnalyticMixtureField(gmm, linear, prediction=Prediction.VELOCITY)
    draws = 20_000
    profile = estimate_loss_profile(model, ToyDataset(gmm=gmm), bins=8,
                                    draws_per_bin=draws, window=(0.05, 0.95),
                                    seed=5)

    def exact(t):
        a, s = 1.0 - t, t
        ad, sd = -1.0, 1.0
        total = ad * ad * s2 + sd * sd
        cross = a * ad * s2 + s * sd
        return total - cross * cross / (a * a * s2 + s * s)

    for b in range(8):
        grid = np.linspace(profile.edges[b], profile.edges[b + 1], 4001)
        bin_mean = float(np.trapezoid(exact(grid), grid)
                         / (profile.edges[b + 1] - profile.edges[b]))
        # chi-square spread of squared residuals: SE ~= L * sqrt(2/draws)
        assert abs(profile.values[b] - bin_mean) \
            < 6.0 * bin_mean * math.sqrt(2.0 / draws)


def test_profile_window_is_clipped_for_score_models(linear, vp):
    score_linear = MLPField(1, linear, prediction=Prediction.SCORE, widths=(4,),
                            seed=0)
    profile = estimate_loss_profile(score_linear, get_preset("two-gauss-1d"),
                                    bins=3, draws_per_bin=50, window=(0.0, 1.0))
    assert profile.edges[0] == 0.0
    assert profile.edges[-1] == 1.0 - 1e-5
    score_vp = MLPField(1, vp, prediction=Prediction.SCORE, widths=(4,), seed=0)
    profile_vp = estimate_loss_profile(score_vp, get_preset("two-gauss-1d"),
                                       bins=3, draws_per_bin=50,
                                       window=(0.0, 1.0))
    assert profile_vp.edges[0] == 1e-5
    assert profile_vp.edges[-1] == 1.0 - 1e-5


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip_is_bit_exact(tmp_path, gvp):
    model = MLPField(2, gvp, prediction=Prediction.SCORE, widths=(8, 4),
                     num_classes=3, seed=9)
    model.parameters[:] += np.pi * 1e-3  # non-trivial, full-precision values
    path = str(tmp_path / "model.json")
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert np.array_equal(loaded.parameters, model.parameters)
    assert loaded.to_config() == model.to_config()
    assert loaded.schedule.name == "gvp"
    x = np.linspace(-1, 1, 10).reshape(5, 2)
    assert np.array_equal(loaded.evaluate(x, 0.37, y=2),
                          model.evaluate(x, 0.37, y=2))
    with open(path, "rb") as handle:
        first = handle.read()
    save_checkpoint(loaded, path)
    with open(path, "rb") as handle:
        assert handle.read() == first


def test_checkpoint_is_written_in_bounded_pieces(tmp_path, linear):
    # The default network's 37,505 parameters encoded as one string peaked at
    # about 5 MB; written a piece at a time, the file keeps the same bytes.
    model = MLPField(1, linear, seed=3)
    path = str(tmp_path / "model.json")
    peak = tracemalloc_peak(save_checkpoint, model, path)
    payload = {"format": "driftlab-checkpoint", "version": 1,
               "architecture": model.to_config(),
               "parameters": model.parameters.tolist()}
    with open(path, "r") as handle:
        assert handle.read() == json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert peak < 2_500_000, peak


def test_checkpoint_load_errors(tmp_path):
    missing = str(tmp_path / "missing.json")
    with pytest.raises(ConfigError) as excinfo:
        load_checkpoint(missing)
    assert "missing.json" in str(excinfo.value)
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    with pytest.raises(ConfigError):
        load_checkpoint(str(garbled))
    alien = tmp_path / "alien.json"
    alien.write_text(json.dumps({"format": "something-else", "version": 1}))
    with pytest.raises(ConfigError):
        load_checkpoint(str(alien))
