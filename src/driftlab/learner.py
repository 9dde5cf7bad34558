"""A small fully-connected field network with hand-rolled reverse-mode
gradients, the three training objectives, label dropout for classifier-free
guidance, and the training loop.

The network maps ``[x, sinusoidal-features(t), class-embedding(y)]`` through
tanh hidden layers to a d-dimensional field value (velocity or score).  All
parameters live in one flat float64 vector; layer matrices are reshaped views
into it, so the optimizer, the finite-difference checks, and the checkpoint
format all see a single array.

Objectives (means over the batch of squared Euclidean norms):

``velocity``
    ``|f(x_t, t, y) - (alpha_dot*x_star + sigma_dot*eps)|^2`` — regression on
    the interpolant time-derivative.
``score``
    ``|sigma*f(x_t, t, y) + eps|^2`` — denoising form of score matching.
``weighted-score``
    ``lambda(t)^2 * |sigma*f + eps|^2`` — per-sample identical to the
    velocity objective evaluated on the score model converted through the
    linear score->velocity map, which is what makes the two parameterizations
    exchangeable.

Training draws ``x_star`` from the data source, ``eps`` standard normal,
``t`` uniform on the objective's time window, and (for conditional models)
replaces the class label with the null token at the label-dropout rate.
After the loop, a held-out pass estimates the per-time velocity-loss profile
``L(t)`` on uniform bins (score models are converted to velocity first);
the profile feeds the cost-regularized diffusion coefficient.
"""

from __future__ import annotations

import enum
import json
import math
import os
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ConfigError, DomainError, NonFiniteError, UnconditionalModelError
from .field import (
    Conditioning,
    FieldModel,
    Prediction,
    _as_batch,
    _interpolant_state,
    _interpolant_velocity,
    _velocity_from_score,
    interpolate,
)
from .schedule import InterpolantSchedule, _match_shape, schedule_from_config
from .toybox import as_dataset, atomic_write_text

__all__ = [
    "TIME_FEATURE_COUNT",
    "TIME_FREQ_MIN",
    "TIME_FREQ_MAX",
    "CLASS_EMBED_DIM",
    "DEFAULT_WIDTHS",
    "time_features",
    "MLPField",
    "loss_velocity",
    "loss_score",
    "loss_score_weighted",
    "TrainObjective",
    "default_time_window",
    "TrainConfig",
    "TrainResult",
    "train",
    "LossProfile",
    "estimate_loss_profile",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_FORMAT",
]

#: Sinusoidal time-embedding defaults: 16 frequencies, geometric from 1 to 1000.
TIME_FEATURE_COUNT = 16
TIME_FREQ_MIN = 1.0
TIME_FREQ_MAX = 1000.0
#: Learned class-embedding width (table includes the null token).
CLASS_EMBED_DIM = 8
#: Default hidden widths.
DEFAULT_WIDTHS = (128, 128, 128)

#: Evaluation without a cache runs the network over blocks of rows holding
#: at most this many values in the widest layer: 256 rows at the default
#: widths, 256 KB per activation.  glibc gives several freed MB back to the
#: OS, so a one-pass call at n = 2,048 (6.5 MB of activations) page-faulted
#: them all in again on every call: the learned-1d `sample` command took
#: ~198,900 minor faults, ~193,000 with 1,024-row blocks and ~300 with 512-
#: or 256-row blocks, whose memory the allocator keeps and reuses.
_EVAL_BLOCK_VALUES = 32768


def time_features(t: float | np.ndarray, count: int = TIME_FEATURE_COUNT,
                  freq_min: float = TIME_FREQ_MIN,
                  freq_max: float = TIME_FREQ_MAX) -> np.ndarray:
    """Sinusoidal features ``[sin(f_j t), cos(f_j t)]`` on a geometric
    frequency ladder; shape (n, 2*count)."""
    arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
    return _fill_time_features(np.empty((arr.shape[0], 2 * count)), arr,
                               np.geomspace(freq_min, freq_max, count))


def _fill_time_features(out: np.ndarray, t: np.ndarray,
                        freqs: np.ndarray) -> np.ndarray:
    """Write ``[sin(f_j t_i), cos(f_j t_i)]`` into row i of ``out`` for the
    1-D ``t`` and the frequency ladder ``freqs``; a single t is computed once
    and fills every row.  Returns ``out``."""
    angles = np.multiply.outer(t, freqs)
    rows, count = out[:t.shape[0]], freqs.shape[0]
    np.sin(angles, out=rows[:, :count])
    np.cos(angles, out=rows[:, count:])
    if t.shape[0] == 1:
        out[1:] = rows
    return out


class MLPField(FieldModel):
    """Tanh MLP over ``[x, time features, class embedding]`` with a flat
    parameter vector and hand-rolled reverse-mode gradients.

    ``num_classes=None`` builds an unconditional model; otherwise the input
    gains a learned embedding row per class plus one for the null token.
    The time features and the embedding width are the module constants.
    """

    time_feature_count = TIME_FEATURE_COUNT
    time_freq_min = TIME_FREQ_MIN
    time_freq_max = TIME_FREQ_MAX
    class_embed_dim = CLASS_EMBED_DIM

    def __init__(self, dimension: int, schedule: InterpolantSchedule,
                 prediction: Prediction = Prediction.VELOCITY,
                 widths: tuple[int, ...] = DEFAULT_WIDTHS,
                 num_classes: int | None = None,
                 seed: int = 0,
                 parameters: np.ndarray | None = None) -> None:
        dimension = int(dimension)
        if dimension <= 0:
            raise ConfigError("dimension must be positive")
        widths = tuple(int(w) for w in widths)
        if not widths or any(w <= 0 for w in widths):
            raise ConfigError("widths must be a nonempty tuple of positive ints")
        self.dimension = dimension
        self.schedule = schedule
        self.prediction = Prediction(prediction)
        self.widths = widths
        self._freqs = np.geomspace(TIME_FREQ_MIN, TIME_FREQ_MAX, TIME_FEATURE_COUNT)
        if num_classes is not None and int(num_classes) < 1:
            raise ConfigError(f"num_classes must be None or >= 1, got {num_classes!r}")
        self.conditioning = None if num_classes is None else Conditioning(int(num_classes))
        input_dim = dimension + 2 * self.time_feature_count
        if self.conditioning is not None:
            input_dim += self.class_embed_dim
        self._layer_dims = [input_dim, *widths, dimension]
        # Flat-vector layout: (W, b) per layer in order, then the embedding table.
        sizes = []
        for fan_in, fan_out in zip(self._layer_dims[:-1], self._layer_dims[1:]):
            sizes.append(fan_in * fan_out)
            sizes.append(fan_out)
        if self.conditioning is not None:
            sizes.append((self.conditioning.num_classes + 1) * self.class_embed_dim)
        total = int(np.sum(sizes))
        self._offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
        if parameters is not None:
            params = np.asarray(parameters, dtype=np.float64).copy()
            if params.shape != (total,):
                raise ConfigError(
                    f"parameter vector has length {params.shape}, expected ({total},)"
                )
            self.parameters = params
        else:
            self.parameters = np.zeros(total)
            rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
            index = 0
            for fan_in, fan_out in zip(self._layer_dims[:-1], self._layer_dims[1:]):
                w = rng.standard_normal((fan_in, fan_out)) / math.sqrt(fan_in)
                self._segment(index)[:] = w.ravel()
                index += 2  # bias segment stays zero
            if self.conditioning is not None:
                table = 0.1 * rng.standard_normal(
                    (self.conditioning.num_classes + 1, self.class_embed_dim))
                self._segment(index)[:] = table.ravel()

    # -- flat-vector plumbing --------------------------------------------------

    def _segment(self, index: int) -> np.ndarray:
        return self.parameters[self._offsets[index]:self._offsets[index + 1]]

    def _weights(self) -> list[tuple[np.ndarray, np.ndarray]]:
        out = []
        for layer, (fan_in, fan_out) in enumerate(
                zip(self._layer_dims[:-1], self._layer_dims[1:])):
            w = self._segment(2 * layer).reshape(fan_in, fan_out)
            b = self._segment(2 * layer + 1)
            out.append((w, b))
        return out

    def _embedding(self) -> np.ndarray | None:
        if self.conditioning is None:
            return None
        rows = self.conditioning.num_classes + 1
        return self._segment(2 * (len(self._layer_dims) - 1)).reshape(
            rows, self.class_embed_dim)

    @property
    def n_parameters(self) -> int:
        return self.parameters.shape[0]

    # -- forward / backward ------------------------------------------------------

    def _labels_for(self, n: int, y) -> np.ndarray | None:
        if self.conditioning is None:
            if y is not None:
                raise UnconditionalModelError(
                    "labels were passed to an unconditional model"
                )
            return None
        if y is None:
            return np.full(n, self.conditioning.null_id, dtype=np.int64)
        labels = self.conditioning.validate(y)
        if labels.ndim == 0:
            return np.full(n, int(labels), dtype=np.int64)
        if labels.shape != (n,):
            raise DomainError(f"labels must be scalar or shape ({n},)")
        return labels.astype(np.int64)

    def _forward(self, x: np.ndarray, t, y, want_cache: bool):
        xx, was_vector = _as_batch(x)
        if xx.shape[1] != self.dimension:
            raise DomainError(
                f"points must have shape (n, {self.dimension}), got {xx.shape}"
            )
        n = xx.shape[0]
        t_arr = np.asarray(t, dtype=np.float64)
        if t_arr.ndim != 0 and t_arr.shape != (n,):
            raise DomainError(f"t must be scalar or shape ({n},)")
        labels = self._labels_for(n, y)
        rows = max(1, _EVAL_BLOCK_VALUES // max(self._layer_dims))
        if want_cache or n <= rows:
            out, activations = self._layer_stack(xx, t_arr, labels)
            if want_cache:
                return out, {"activations": activations, "labels": labels,
                             "was_vector": was_vector}
        else:
            out = np.empty((n, self.dimension))
            for lo in range(0, n, rows):
                block = slice(lo, lo + rows)
                self._layer_stack(xx[block],
                                  t_arr if t_arr.ndim == 0 else t_arr[block],
                                  None if labels is None else labels[block],
                                  out=out[block])
        return out[0] if was_vector else out

    def _layer_stack(self, xx: np.ndarray, t_arr: np.ndarray,
                     labels: np.ndarray | None, out: np.ndarray | None = None):
        """Run the network on validated rows; returns ``(output, activations)``
        and writes the output into ``out`` when it is given."""
        # One input buffer [x | time features | embedding].
        d, width = self.dimension, 2 * self.time_feature_count
        h = np.empty((xx.shape[0], self._layer_dims[0]))
        h[:, :d] = xx
        _fill_time_features(h[:, d:d + width], t_arr.reshape(-1), self._freqs)
        if labels is not None:
            h[:, d + width:] = self._embedding()[labels]
        activations = [h]
        layers = self._weights()
        for w, b in layers[:-1]:
            h = np.matmul(h, w)
            h += b
            np.tanh(h, out=h)
            activations.append(h)
        w_last, b_last = layers[-1]
        out = np.matmul(h, w_last, out=out)
        out += b_last
        return out, activations

    def evaluate(self, x: np.ndarray, t, y=None) -> np.ndarray:
        """Deterministic forward pass; same shape as ``x``.

        Runs over blocks of rows (``_EVAL_BLOCK_VALUES``) into one output, so
        its memory beyond the output does not grow with n.  Up to one block
        the bits are those of :meth:`forward_with_cache`; beyond it they agree
        to rounding.
        """
        return self._forward(x, t, y, want_cache=False)

    def forward_with_cache(self, x: np.ndarray, t, y=None):
        """Forward pass returning ``(output, cache)`` for :meth:`backward`."""
        return self._forward(x, t, y, want_cache=True)

    def backward(self, cache: dict, grad_output: np.ndarray) -> np.ndarray:
        """Reverse-mode accumulation of ``d(sum(output * grad_output))/d params``.

        Matrix products go to BLAS: the gradient is bit-reproducible at a
        fixed BLAS thread count, and pinned across 1 and 2 threads only at
        the tested shapes.
        """
        grad = np.zeros_like(self.parameters)
        activations = cache["activations"]
        layers = self._weights()
        g = np.asarray(grad_output, dtype=np.float64)
        if g.ndim == 1:
            g = g[None, :]
        for layer in range(len(layers) - 1, -1, -1):
            w, _ = layers[layer]
            h_in = activations[layer]
            lo, mid, hi = self._offsets[2 * layer:2 * layer + 3]
            np.matmul(h_in.T, g, out=grad[lo:mid].reshape(w.shape))
            np.sum(g, axis=0, out=grad[mid:hi])
            if layer > 0:
                slope = np.square(h_in)  # tanh'(pre) = 1 - tanh(pre)^2
                g = np.matmul(g, w.T)
                g *= np.subtract(1.0, slope, out=slope)
            elif self.conditioning is not None:  # only the embedding needs it
                g = np.matmul(g, w.T)
        if self.conditioning is not None:
            g_table = grad[self._offsets[-2]:].reshape(-1, self.class_embed_dim)
            np.add.at(g_table, cache["labels"], g[:, -self.class_embed_dim:])
        return grad

    def to_config(self) -> dict:
        """JSON-serializable architecture description (no parameters)."""
        return {
            "dimension": self.dimension,
            "widths": list(self.widths),
            "prediction": self.prediction.value,
            "schedule": self.schedule.to_config(),
            "num_classes": (None if self.conditioning is None
                            else self.conditioning.num_classes),
            "time_features": {
                "count": self.time_feature_count,
                "freq_min": self.time_freq_min,
                "freq_max": self.time_freq_max,
            },
            "class_embed_dim": self.class_embed_dim,
        }


# ---------------------------------------------------------------------------
# Objectives
# ---------------------------------------------------------------------------


def _regress(model: FieldModel, batch, residual) -> tuple[float, np.ndarray | None]:
    """The regression all three objectives share.

    Validates ``batch = (x_star, eps, t, y)``, forms ``x_t`` from one
    ``schedule.coefficients(t)`` and runs the model on it.  ``residual(coef,
    x_star, eps, out, n)`` returns the per-element loss terms and the gradient
    with respect to the model output; the loss is their sum over the batch
    divided by n.  Returns ``(loss, flat gradient)``, the gradient ``None``
    for models without parameters (analytic oracles).
    """
    x_star, eps, t, y = batch
    x_star = np.asarray(x_star, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if x_star.ndim != 2 or x_star.shape != eps.shape or t.shape != (x_star.shape[0],):
        raise DomainError("batch must be (x_star (n,d), eps (n,d), t (n,), y)")
    coef = model.schedule.coefficients(t)
    x_t = _interpolant_state(coef, x_star, eps)
    if isinstance(model, MLPField):
        out, cache = model.forward_with_cache(x_t, t, y)
    else:
        out, cache = model.evaluate(x_t, t, y), None
    n = x_star.shape[0]
    terms, grad_out = residual(coef, x_star, eps, out, n)
    loss = float(np.sum(terms) / n)
    return loss, None if cache is None else model.backward(cache, grad_out)


def _velocity_residual(coef, x_star, eps, out, n):
    residual = out - _interpolant_velocity(coef, x_star, eps)
    return residual * residual, (2.0 / n) * residual


def _score_residual(coef, x_star, eps, out, n):
    sig = coef.sigma[:, None]
    residual = sig * out + eps
    return residual * residual, (2.0 / n) * sig * residual


def _weighted_score_residual(coef, x_star, eps, out, n):
    sig, lam = coef.sigma[:, None], coef.lambda_weight[:, None]
    residual = sig * out + eps
    return lam * lam * residual * residual, (2.0 / n) * lam * lam * sig * residual


def loss_velocity(model: FieldModel, batch) -> tuple[float, np.ndarray | None]:
    """Velocity regression: mean ``|f(x_t,t,y) - (alpha_dot x_star + sigma_dot eps)|^2``.

    Returns ``(loss, flat gradient)``; the gradient is ``None`` for models
    without parameters (analytic oracles).
    """
    if model.prediction is not Prediction.VELOCITY:
        raise ConfigError("loss_velocity requires a velocity-prediction model")
    return _regress(model, batch, _velocity_residual)


def loss_score(model: FieldModel, batch) -> tuple[float, np.ndarray | None]:
    """Denoising score matching: mean ``|sigma(t) f(x_t,t,y) + eps|^2``."""
    if model.prediction is not Prediction.SCORE:
        raise ConfigError("loss_score requires a score-prediction model")
    return _regress(model, batch, _score_residual)


def loss_score_weighted(model: FieldModel, batch) -> tuple[float, np.ndarray | None]:
    """Weighted score matching: mean ``lambda(t)^2 |sigma(t) f + eps|^2``.

    Per sample this equals the velocity objective of the converted model, so
    minimizing it trains a score model toward the same optimum as velocity
    regression.  Singular where ``alpha(t) = 0`` (and at ``t = 0`` for
    sbdm-vp); keep the time window inside the regular region.
    """
    if model.prediction is not Prediction.SCORE:
        raise ConfigError("loss_score_weighted requires a score-prediction model")
    return _regress(model, batch, _weighted_score_residual)


class TrainObjective(str, enum.Enum):
    """Which loss the training loop minimizes."""

    VELOCITY = "velocity"
    SCORE = "score"
    WEIGHTED_SCORE = "weighted-score"


_LOSS_FOR = {
    TrainObjective.VELOCITY: loss_velocity,
    TrainObjective.SCORE: loss_score,
    TrainObjective.WEIGHTED_SCORE: loss_score_weighted,
}

_PREDICTION_FOR = {
    TrainObjective.VELOCITY: Prediction.VELOCITY,
    TrainObjective.SCORE: Prediction.SCORE,
    TrainObjective.WEIGHTED_SCORE: Prediction.SCORE,
}


def default_time_window(objective: TrainObjective,
                        schedule: InterpolantSchedule) -> tuple[float, float]:
    """Default training-time window per objective and schedule.

    Clips exactly the singular endpoints: sbdm-vp derivatives at ``t = 0``
    for the velocity target, and ``alpha = 0`` at ``t = 1`` for the weighted
    score objective on linear/gvp.  The plain score objective is regular on
    all of [0, 1].
    """
    objective = TrainObjective(objective)
    is_vp = schedule.name == "sbdm-vp"
    if objective is TrainObjective.VELOCITY:
        return (1e-5, 1.0) if is_vp else (0.0, 1.0)
    if objective is TrainObjective.SCORE:
        return (0.0, 1.0)
    return (1e-5, 1.0) if is_vp else (0.0, 1.0 - 1e-5)


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for :func:`train` (defaults mirror small-model practice:
    batch 256, constant learning rate 1e-4, Adam moments, label dropout 0.1)."""

    objective: TrainObjective
    schedule: InterpolantSchedule
    steps: int
    batch: int = 256
    learning_rate: float = 1e-4
    label_dropout: float = 0.1
    t_lo: float | None = None
    t_hi: float | None = None
    seed: int = 0
    conditional: bool = False
    widths: tuple[int, ...] = DEFAULT_WIDTHS
    profile_bins: int = 50
    profile_draws: int = 2000
    #: Adam's moment decays and denominator offset.
    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    adam_eps: ClassVar[float] = 1e-8

    def __post_init__(self) -> None:
        object.__setattr__(self, "objective", TrainObjective(self.objective))
        if int(self.steps) <= 0 or int(self.batch) <= 0:
            raise ConfigError("steps and batch must be positive")
        object.__setattr__(self, "steps", int(self.steps))
        object.__setattr__(self, "batch", int(self.batch))
        if not (self.learning_rate > 0.0):
            raise ConfigError("learning_rate must be positive")
        if not (0.0 <= self.label_dropout <= 1.0):
            raise ConfigError("label_dropout must lie in [0, 1]")
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        if int(self.profile_bins) <= 0 or int(self.profile_draws) <= 0:
            raise ConfigError("profile_bins and profile_draws must be positive")

    def window(self) -> tuple[float, float]:
        lo, hi = default_time_window(self.objective, self.schedule)
        if self.t_lo is not None:
            lo = float(self.t_lo)
        if self.t_hi is not None:
            hi = float(self.t_hi)
        if not (0.0 <= lo < hi <= 1.0):
            raise ConfigError(f"time window [{lo}, {hi}] must satisfy 0 <= lo < hi <= 1")
        return lo, hi


@dataclass
class TrainResult:
    """Artifacts of one training run."""

    model: MLPField
    #: (steps, 2) array of (step index, batch loss).
    curve: np.ndarray
    #: Held-out per-time velocity-loss profile.
    profile: "LossProfile"


def train(config: TrainConfig, data) -> TrainResult:
    """Run the training loop and estimate the held-out loss profile.

    Deterministic: the model initialization, the training stream, and the
    profile stream are all derived from ``config.seed`` (distinct spawn keys),
    so identical config + data yield bit-identical parameters and profile.
    Raises :class:`NonFiniteError` (with step and time-bin diagnostics) if the
    loss stops being finite.
    """
    dataset = as_dataset(data)
    t_lo, t_hi = config.window()
    num_classes = _class_count(dataset) if config.conditional else None
    model = MLPField(
        dimension=dataset.dimension,
        schedule=config.schedule,
        prediction=_PREDICTION_FOR[config.objective],
        widths=config.widths,
        num_classes=num_classes,
        seed=config.seed,
    )
    loss_fn = _LOSS_FOR[config.objective]
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(1,)))
    moment1 = np.zeros_like(model.parameters)
    moment2 = np.zeros_like(model.parameters)
    scratch = np.empty_like(model.parameters)
    curve = np.empty((config.steps, 2))
    for step in range(config.steps):
        batch = _draw_batch(model, dataset, rng, config.batch, t_lo, t_hi,
                            config.label_dropout)
        loss, grad = loss_fn(model, batch)
        if not math.isfinite(loss):
            raise NonFiniteError(
                "training loss became non-finite",
                step=step,
                t_bin=_blame_bin(model, config, batch, t_lo, t_hi),
            )
        # Adam with bias correction, constant learning rate; in place, rounded as
        # m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g, p -= lr*(m/c1)/(sqrt(v/c2)+eps).
        moment1 *= config.beta1
        moment1 += np.multiply(1.0 - config.beta1, grad, out=scratch)
        moment2 *= config.beta2
        np.multiply(1.0 - config.beta2, grad, out=scratch)
        moment2 += np.multiply(scratch, grad, out=scratch)
        np.sqrt(np.divide(moment2, 1.0 - config.beta2 ** (step + 1), out=scratch),
                out=scratch)
        scratch += config.adam_eps
        np.divide(moment1, 1.0 - config.beta1 ** (step + 1), out=grad)
        grad *= config.learning_rate
        model.parameters -= np.divide(grad, scratch, out=grad)
        curve[step] = (step, loss)
    profile = estimate_loss_profile(
        model, dataset,
        bins=config.profile_bins,
        draws_per_bin=config.profile_draws,
        window=(t_lo, t_hi),
        seed=config.seed,
        label_dropout=config.label_dropout,
    )
    return TrainResult(model=model, curve=curve, profile=profile)


def _class_count(dataset) -> int:
    """The class count of a dataset that a conditional model can learn from."""
    num_classes = dataset.num_classes
    if num_classes is None:
        raise ConfigError("conditional training requires labeled data")
    return num_classes


def _draw_batch(model: FieldModel, dataset, rng: np.random.Generator, n: int,
                t_lo: float, t_hi: float, label_dropout: float):
    """One batch ``(x_star, eps, t, y)`` of n rows, drawn from ``rng`` in a
    fixed order: data points, standard-normal noise, t uniform on
    ``[t_lo, t_hi)``, then, for a conditional model only, the labels dropped
    to the null token at ``label_dropout``."""
    x_star, labels = dataset.resample(rng, n)
    eps = rng.standard_normal(x_star.shape)
    t = rng.uniform(t_lo, t_hi, size=n)
    y = None
    if model.conditioning is not None:
        y = labels.astype(np.int64)
        y[rng.random(n) < label_dropout] = model.conditioning.null_id
    return x_star, eps, t, y


def _blame_bin(model, config, batch, t_lo, t_hi) -> int | None:
    """Best-effort time-bin diagnostic for a non-finite training loss."""
    try:
        x_star, eps, t, y = batch
        x_t = interpolate(model.schedule, x_star, eps, t)
        out = model.evaluate(x_t, t, y)
        bad = ~np.all(np.isfinite(out), axis=1)
        if not np.any(bad):
            return None
        t_bad = float(t[np.argmax(bad)])
        frac = (t_bad - t_lo) / (t_hi - t_lo)
        return int(min(config.profile_bins - 1, max(0, frac * config.profile_bins)))
    except Exception:
        return None


# ---------------------------------------------------------------------------
# Per-time loss profile
# ---------------------------------------------------------------------------


class LossProfile:
    """Piecewise-constant per-time loss table L(t) with clamped extension.

    Callable on scalars or arrays; values outside the estimation window take
    the nearest bin's value.
    """

    def __init__(self, edges: np.ndarray, values: np.ndarray) -> None:
        edges = np.asarray(edges, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if edges.ndim != 1 or values.ndim != 1 or edges.shape[0] != values.shape[0] + 1:
            raise ConfigError("profile needs bins+1 edges and bins values")
        if values.shape[0] == 0:
            raise ConfigError("profile needs at least one bin")
        if not np.all(np.diff(edges) > 0):
            raise ConfigError("profile edges must be strictly increasing")
        if np.any(values < 0.0) or not np.all(np.isfinite(values)):
            raise ConfigError("profile values must be finite and nonnegative")
        self.edges = edges
        self.values = values

    @property
    def window(self) -> tuple[float, float]:
        return float(self.edges[0]), float(self.edges[-1])

    def __call__(self, t: float | np.ndarray) -> float | np.ndarray:
        arr = np.asarray(t, dtype=np.float64)
        clipped = np.clip(arr, self.edges[0], self.edges[-1])
        index = np.clip(np.searchsorted(self.edges, clipped, side="right") - 1,
                        0, self.values.shape[0] - 1)
        return _match_shape(self.values[index], t)

    def save(self, path: str) -> None:
        """Write the profile as plain text, atomically; byte-stable."""
        lines = [f"# loss-profile bins={self.values.shape[0]} "
                 f"t_lo={float(self.edges[0])!r} t_hi={float(self.edges[-1])!r}"]
        for i, value in enumerate(self.values):
            lines.append(f"{float(self.edges[i])!r} {float(self.edges[i + 1])!r} "
                         f"{float(value)!r}")
        atomic_write_text(path, "\n".join(lines) + "\n")

    @classmethod
    def load(cls, path: str) -> "LossProfile":
        if not os.path.isfile(path):
            raise ConfigError(f"loss profile not found: {path}")
        edges = []
        values = []
        with open(path, "r", errors="replace") as handle:
            header = handle.readline()
            if not header.startswith("# loss-profile"):
                raise ConfigError(f"{path}: not a loss-profile file")
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    lo, hi, value = (float(v) for v in line.split())
                except ValueError:
                    raise ConfigError(
                        f"{path}: profile line needs three numbers: {line!r}") from None
                if not edges:
                    edges.append(lo)
                edges.append(hi)
                values.append(value)
        if not values:
            raise ConfigError(f"{path}: empty loss profile")
        return cls(np.asarray(edges), np.asarray(values))


def estimate_loss_profile(model: FieldModel, data, *, bins: int = 50,
                          draws_per_bin: int = 2000,
                          window: tuple[float, float] | None = None,
                          seed: int = 0,
                          label_dropout: float = 0.0) -> LossProfile:
    """Monte-Carlo estimate of the per-time velocity loss L(t) on uniform bins.

    Score models are converted to velocity pointwise before measuring, so the
    window is clipped to keep the conversion regular (``alpha > 0``; for
    sbdm-vp also ``t > 0``).  Conditional models are evaluated with labels
    dropped to the null token at ``label_dropout``, matching how they were
    trained.  Batches are drawn as in training, from the stream
    ``SeedSequence(seed, spawn_key=(2,))``, which is the stream :func:`train`
    gives its profile.
    """
    if bins < 1 or draws_per_bin < 1:
        raise ConfigError(f"a loss profile needs at least one bin and one draw per bin, "
                          f"got bins={bins!r}, draws_per_bin={draws_per_bin!r}")
    dataset = as_dataset(data)
    if model.conditioning is not None:  # its batches draw labels
        _class_count(dataset)
    rng = np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=(2,)))
    schedule = model.schedule
    if window is None:
        lo, hi = 0.0, 1.0
    else:
        lo, hi = float(window[0]), float(window[1])
    if model.prediction is Prediction.SCORE:
        hi = min(hi, 1.0 - 1e-5)
        if schedule.name == "sbdm-vp":
            lo = max(lo, 1e-5)
    if not lo < hi:
        raise ConfigError(f"profile window [{lo}, {hi}] is empty")
    edges = np.linspace(lo, hi, bins + 1)
    values = np.empty(bins)
    for b in range(bins):
        x_star, eps, t, y = _draw_batch(model, dataset, rng, draws_per_bin,
                                        edges[b], edges[b + 1], label_dropout)
        coef = schedule.coefficients(t)
        x_t = _interpolant_state(coef, x_star, eps)
        out = model.evaluate(x_t, t, y)
        if model.prediction is Prediction.SCORE:
            out = _velocity_from_score(coef, out, x_t)
        target = _interpolant_velocity(coef, x_star, eps)
        residual = out - target
        value = float(np.sum(residual * residual) / draws_per_bin)
        if not math.isfinite(value):
            raise NonFiniteError("loss profile became non-finite", t_bin=b)
        values[b] = value
    return LossProfile(edges, values)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_FORMAT = "driftlab-checkpoint"
#: The time-feature config and embedding width every checkpoint records.
_FIXED_INPUTS = ({"count": TIME_FEATURE_COUNT, "freq_min": TIME_FREQ_MIN,
                  "freq_max": TIME_FREQ_MAX}, CLASS_EMBED_DIM)


def save_checkpoint(model: MLPField, path: str) -> None:
    """Serialize a model to a versioned JSON checkpoint.

    Layout (all keys sorted alphabetically in the file):

    * ``format``/``version`` — container identification ("driftlab-checkpoint", 1);
    * ``architecture`` — the :meth:`MLPField.to_config` dict: data dimension,
      hidden widths, prediction kind, schedule config, class count (or null),
      time-feature config, embedding width;
    * ``parameters`` — the flat float64 vector as a JSON list, written with
      shortest-round-trip reprs so reloading is bit-exact.

    Written atomically; identical models produce byte-identical files.
    """
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": 1,
        "architecture": model.to_config(),
        "parameters": [float(v) for v in model.parameters],
    }
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def load_checkpoint(path: str) -> MLPField:
    """Rebuild a model from :func:`save_checkpoint` output, bit-exactly."""
    if not os.path.isfile(path):
        raise ConfigError(f"checkpoint not found: {path}")
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: not a valid checkpoint: {exc}") from exc
    if (not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT
            or payload.get("version") != 1):
        raise ConfigError(f"{path}: unrecognized checkpoint format/version")
    try:
        arch = payload["architecture"]
        if (arch.get("time_features"), arch.get("class_embed_dim")) != _FIXED_INPUTS:
            raise ConfigError(f"{path}: unsupported time features or class embedding width")
        return MLPField(
            dimension=arch["dimension"],
            schedule=schedule_from_config(arch["schedule"]),
            prediction=Prediction(arch["prediction"]),
            widths=tuple(arch["widths"]),
            num_classes=arch.get("num_classes"),
            parameters=np.asarray(payload["parameters"], dtype=np.float64),
        )
    except KeyError as exc:
        raise ConfigError(f"{path}: malformed checkpoint: missing key {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: malformed checkpoint: {exc}") from None
