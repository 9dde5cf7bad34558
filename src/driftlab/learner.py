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
import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import _fork
from .errors import (ConfigError, DomainError, NonFiniteError, _count, _nonnegative_values,
                     _real, _rng, _window)
from .field import (
    Conditioning,
    FieldModel,
    Prediction,
    _interpolant_state,
    _interpolant_velocity,
    _velocity_from_score,
)
from .schedule import InterpolantSchedule, _match_shape, _regular_window, schedule_from_config
from .toybox import _read_table, as_dataset, atomic_write_text, read_json

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

#: `evaluate` runs the network over blocks of rows holding at most this many
#: values in the widest layer (256 rows, 256 KB per array at the default
#: widths), every block in one array per layer allocated once per call.  One
#: pass over 2,048 rows (6.5 MB) page-faulted all of it in again on every call
#: (~198,900 minor faults per learned-1d `sample` command, ~300 in blocks), and
#: fresh arrays per block cost `train`'s default loss profile ~38,500 in a
#: fresh process, against ~8,300 now.
_EVAL_BLOCK_VALUES = 32768
#: A weight gradient sums ``h.T @ g`` over blocks of this many batch rows, in
#: order.  OpenBLAS rounds one product over 600 or 1,000 rows differently at
#: 1 and 2 threads; products over at most 512 rows agreed at every shape
#: tried.  A batch of at most one block keeps its one product.
_GRAD_BLOCK_ROWS = 256
#: Evaluated rows (bins x draws per bin) that each worker process must get
#: before :func:`estimate_loss_profile` forks.
_PROFILE_ROWS_PER_WORKER = 2 ** 14


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
        dimension = _count("dimension", dimension)
        widths = tuple(_count("widths", w) for w in widths)
        if not widths:
            raise ConfigError("widths must be a nonempty tuple of positive ints")
        self.dimension = dimension
        self.schedule = schedule
        self.prediction = Prediction(prediction)
        self.widths = widths
        self._freqs = np.geomspace(self.time_freq_min, self.time_freq_max, self.time_feature_count)
        self.conditioning = (None if num_classes is None
                             else Conditioning(_count("num_classes", num_classes)))
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
            rng = _rng(seed)
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

    @property
    def _block_rows(self) -> int:
        """Rows per block of :meth:`evaluate` (``_EVAL_BLOCK_VALUES``)."""
        return max(1, _EVAL_BLOCK_VALUES // max(self._layer_dims))

    # -- forward / backward ------------------------------------------------------

    def _network_inputs(self, x: np.ndarray, t, y):
        """A checked call's ``(rows, was_vector, t, labels)`` with ``t`` as a
        float64 array and, for a conditional model, one id per row (the null
        token where there is none)."""
        xx, was_vector, t, labels = self._inputs(x, t, y)
        if self.conditioning is not None and not isinstance(labels, np.ndarray):
            labels = np.full(xx.shape[0], self.conditioning.null_id if labels is None
                             else labels, dtype=np.int64)
        return xx, was_vector, np.asarray(t, dtype=np.float64), labels

    def _forward(self, xx: np.ndarray, t_arr: np.ndarray, labels: np.ndarray | None,
                 layers: list[np.ndarray], out: np.ndarray) -> np.ndarray:
        """Run the network on validated rows into ``out``, a block at a time of
        as many rows as the arrays in ``layers`` (input and hidden layers)
        hold, each layer into the leading rows of its array; returns ``out``."""
        n, rows, t_rows = xx.shape[0], layers[0].shape[0], t_arr.reshape(-1)
        d, width = self.dimension, 2 * self.time_feature_count
        *hidden, (w_last, b_last) = self._weights()
        table = self._embedding()
        for lo in range(0, n, max(1, rows)):  # zero rows run no block
            block = slice(lo, min(n, lo + rows))
            # One input buffer [x | time features | embedding].
            h = layers[0][:block.stop - lo]
            h[:, :d] = xx[block]
            _fill_time_features(h[:, d:d + width], t_rows if t_arr.ndim == 0 else t_rows[block],
                                self._freqs)
            if labels is not None:
                h[:, d + width:] = table[labels[block]]
            for (w, b), dest in zip(hidden, layers[1:]):
                h = np.matmul(h, w, out=dest[:h.shape[0]])
                h += b
                np.tanh(h, out=h)
            h = np.matmul(h, w_last, out=out[block])
            h += b_last
        return out

    def evaluate(self, x: np.ndarray, t, y=None) -> np.ndarray:
        """Deterministic forward pass; same shape as ``x``.

        Runs over blocks of rows (``_EVAL_BLOCK_VALUES``) in one array per
        layer, allocated once per call, into one output, so its memory beyond
        the output does not grow with n.  Each block has the bits that
        :meth:`forward_with_cache` gives its rows alone.
        """
        xx, was_vector, t_arr, labels = self._network_inputs(x, t, y)
        n = xx.shape[0]
        rows = min(n, self._block_rows)
        out = self._forward(xx, t_arr, labels,
                            [np.empty((rows, width)) for width in self._layer_dims[:-1]],
                            np.empty((n, self.dimension)))
        return out[0] if was_vector else out

    def forward_with_cache(self, x: np.ndarray, t, y=None, *, buffers=None):
        """Forward pass returning ``(output, cache)`` for :meth:`backward`: one
        block of all rows in ``buffers`` (the step memory of :func:`train`)
        when given, else in arrays of this call, which no later call writes."""
        xx, was_vector, t_arr, labels = self._network_inputs(x, t, y)
        *layers, out = (buffers or _StepBuffers(self, xx.shape[0])).activations
        self._forward(xx, t_arr, labels, layers, out)
        return out[0] if was_vector else out, {"activations": layers, "labels": labels}

    def backward(self, cache: dict, grad_output: np.ndarray, *, buffers=None) -> np.ndarray:
        """Reverse-mode accumulation of ``d(sum(output * grad_output))/d params``.

        Each weight gradient is a sum of BLAS products over blocks of
        ``_GRAD_BLOCK_ROWS`` batch rows, added in order (one product for a
        batch of at most one block), so it is the same at 1 and 2 BLAS threads
        at every shape tested.  Runs in ``buffers`` (the step memory of
        :func:`train`) when given, else in arrays of this call, and returns
        the gradient there.
        """
        activations = cache["activations"]
        layers = self._weights()
        g = np.asarray(grad_output, dtype=np.float64)
        if g.ndim == 1:
            g = g[None, :]
        step = buffers or _StepBuffers(self, g.shape[0])
        grad = step.grad
        for layer in range(len(layers) - 1, -1, -1):
            w, _ = layers[layer]
            h_in = activations[layer]
            lo, mid, hi = self._offsets[2 * layer:2 * layer + 3]
            weight_grad = grad[lo:mid].reshape(w.shape)
            np.matmul(h_in[:_GRAD_BLOCK_ROWS].T, g[:_GRAD_BLOCK_ROWS], out=weight_grad)
            for start in range(_GRAD_BLOCK_ROWS, g.shape[0], _GRAD_BLOCK_ROWS):
                stop = start + _GRAD_BLOCK_ROWS
                weight_grad += np.matmul(h_in[start:stop].T, g[start:stop],
                                         out=_leading(step.block, w.shape))
            np.sum(g, axis=0, out=grad[mid:hi])
            if layer > 0 or self.conditioning is not None:  # at layer 0 only the embedding needs it
                g = np.matmul(g, w.T, out=_leading(step.scratch[layer % 2], h_in.shape))
            if layer > 0:
                slope = np.square(h_in, out=_leading(step.scratch[2], h_in.shape))
                g *= np.subtract(1.0, slope, out=slope)  # tanh'(pre) = 1 - tanh(pre)^2
        if self.conditioning is not None:
            g_table = grad[self._offsets[-2]:].reshape(-1, self.class_embed_dim)
            g_table[...] = 0.0
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


class _StepBuffers:
    """The memory of a forward and backward pass over ``rows`` rows, each part
    allocated when first used: an array per layer (input, hidden, output); two
    back-propagated signals (used in turn) and the tanh slope, flat at the
    widest layer; a weight-gradient block product, used past one block of
    rows only; the flat gradient.  :func:`train` keeps one through its run."""

    def __init__(self, model: MLPField, rows: int) -> None:
        self.dims, self.rows, self.size = model._layer_dims, rows, model.n_parameters

    @functools.cached_property
    def activations(self) -> list[np.ndarray]:
        return [np.empty((self.rows, width)) for width in self.dims]

    @functools.cached_property
    def scratch(self) -> tuple[np.ndarray, ...]:
        return tuple(np.empty(self.rows * max(self.dims)) for _ in range(3))

    @functools.cached_property
    def block(self) -> np.ndarray:
        return np.empty(max(self.dims) ** 2)

    @functools.cached_property
    def grad(self) -> np.ndarray:
        return np.empty(self.size)


def _leading(flat: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """A flat buffer's leading values as a contiguous array."""
    return flat[:shape[0] * shape[1]].reshape(shape)


# ---------------------------------------------------------------------------
# Objectives
# ---------------------------------------------------------------------------


def _regress(model: FieldModel, batch, residual, buffers=None) -> tuple[float, np.ndarray | None]:
    """The regression all three objectives share.

    Validates ``batch = (x_star, eps, t, y)``, forms ``x_t`` from one
    ``schedule.coefficients(t)`` and runs the model on it.  ``residual(coef,
    x_star, eps, out, n)`` returns the per-element loss terms and the gradient
    with respect to the model output; the loss is their sum over the batch
    divided by n.  Returns ``(loss, flat gradient)``, the gradient ``None``
    for models without parameters (analytic oracles); an MLP runs in
    ``buffers``, the step memory of :func:`train`, when given.
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
        out, cache = model.forward_with_cache(x_t, t, y, buffers=buffers)
    else:
        out, cache = model.evaluate(x_t, t, y), None
    n = x_star.shape[0]
    terms, grad_out = residual(coef, x_star, eps, out, n)
    loss = float(np.sum(terms) / n)
    return loss, None if cache is None else model.backward(cache, grad_out, buffers=buffers)


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


class TrainObjective(str, enum.Enum):
    """Which loss the training loop minimizes."""

    VELOCITY = "velocity"
    SCORE = "score"
    WEIGHTED_SCORE = "weighted-score"


#: The prediction each objective trains, the residual it regresses on and the
#: schedule quantities it reads.
_OBJECTIVES = {
    TrainObjective.VELOCITY: (Prediction.VELOCITY, _velocity_residual,
                              ("alpha_dot", "sigma_dot")),
    TrainObjective.SCORE: (Prediction.SCORE, _score_residual, ("sigma",)),
    TrainObjective.WEIGHTED_SCORE: (Prediction.SCORE, _weighted_score_residual,
                                    ("lambda_weight",)),
}


def _objective_loss(objective: TrainObjective, model: FieldModel, batch):
    """:func:`_regress` on the objective's residual, for a model of its prediction."""
    prediction, residual, _ = _OBJECTIVES[objective]
    if model.prediction is not prediction:
        raise ConfigError(f"the {objective.value} objective requires a "
                          f"{prediction.value}-prediction model")
    return _regress(model, batch, residual)


def loss_velocity(model: FieldModel, batch) -> tuple[float, np.ndarray | None]:
    """Velocity regression: mean ``|f(x_t,t,y) - (alpha_dot x_star + sigma_dot eps)|^2``.

    Returns ``(loss, flat gradient)``; the gradient is ``None`` for models
    without parameters (analytic oracles), and no later call writes it.
    """
    return _objective_loss(TrainObjective.VELOCITY, model, batch)


def loss_score(model: FieldModel, batch) -> tuple[float, np.ndarray | None]:
    """Denoising score matching: mean ``|sigma(t) f(x_t,t,y) + eps|^2``."""
    return _objective_loss(TrainObjective.SCORE, model, batch)


def loss_score_weighted(model: FieldModel, batch) -> tuple[float, np.ndarray | None]:
    """Weighted score matching: mean ``lambda(t)^2 |sigma(t) f + eps|^2``.

    Per sample this equals the velocity objective of the converted model, so
    minimizing it trains a score model toward the same optimum as velocity
    regression.  Singular wherever the schedule refuses lambda (where
    ``alpha(t) = 0`` or sigma_dot is singular); keep the window regular.
    """
    return _objective_loss(TrainObjective.WEIGHTED_SCORE, model, batch)


def default_time_window(objective: TrainObjective,
                        schedule: InterpolantSchedule) -> tuple[float, float]:
    """[0, 1] with each end moved inward by 1e-5 where the schedule refuses
    what the objective reads there: the velocity target's alpha_dot and
    sigma_dot, the plain score objective's sigma, or lambda."""
    return _regular_window(schedule, _OBJECTIVES[TrainObjective(objective)][2])


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
        for name in ("steps", "batch", "profile_bins", "profile_draws"):
            object.__setattr__(self, name, _count(name, getattr(self, name)))
        object.__setattr__(self, "seed", _count("seed", self.seed, minimum=0))
        for name, hi in (("learning_rate", math.inf), ("label_dropout", 1.0)):
            object.__setattr__(self, name, _real(name, getattr(self, name), 0.0, hi))
        if self.learning_rate == 0.0:
            raise ConfigError("learning_rate must be positive")
        object.__setattr__(self, "widths", tuple(self.widths))

    def window(self) -> tuple[float, float]:
        lo, hi = default_time_window(self.objective, self.schedule)
        return _window(lo if self.t_lo is None else self.t_lo,
                       hi if self.t_hi is None else self.t_hi)


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
    Raises :class:`NonFiniteError` (with the step index) if the loss stops
    being finite.
    """
    dataset = as_dataset(data)
    t_lo, t_hi = config.window()
    num_classes = _class_count(dataset) if config.conditional else None
    prediction, residual, _ = _OBJECTIVES[config.objective]
    model = MLPField(
        dimension=dataset.dimension,
        schedule=config.schedule,
        prediction=prediction,
        widths=config.widths,
        num_classes=num_classes,
        seed=config.seed,
    )
    buffers = _StepBuffers(model, config.batch)
    rng = _rng(config.seed, 1)
    moment1 = np.zeros_like(model.parameters)
    moment2 = np.zeros_like(model.parameters)
    scratch = np.empty_like(model.parameters)
    curve = np.empty((config.steps, 2))
    for step in range(config.steps):
        batch = _draw_batch(model, dataset, rng, config.batch, t_lo, t_hi,
                            config.label_dropout)
        loss, grad = _regress(model, batch, residual, buffers)
        if not math.isfinite(loss):
            raise NonFiniteError("training loss became non-finite", step=step)
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
    del buffers, grad  # before the loss profile: 0.9 MB less learned-1d peak RSS
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


# ---------------------------------------------------------------------------
# Per-time loss profile
# ---------------------------------------------------------------------------


class LossProfile:
    """Piecewise-constant per-time loss table L(t) with clamped extension.

    Callable on scalars or arrays; values outside the estimation window take
    the nearest bin's value.
    """

    def __init__(self, edges: np.ndarray, values: np.ndarray) -> None:
        edges = np.asarray(edges)
        values = _nonnegative_values(values, "loss profile values", ConfigError)
        if edges.ndim != 1 or values.ndim != 1 or edges.shape[0] != values.shape[0] + 1:
            raise ConfigError("profile needs bins+1 edges and bins values")
        if values.shape[0] == 0:
            raise ConfigError("profile needs at least one bin")
        for lo, hi in zip(edges[:-1], edges[1:]):
            _window(lo, hi)  # each bin is a window, so the edges increase within [0, 1]
        self.edges = np.asarray(edges, dtype=np.float64)
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
        edges, values = self.edges.tolist(), self.values.tolist()
        header = f"# loss-profile bins={len(values)} t_lo={edges[0]!r} t_hi={edges[-1]!r}"
        rows = (f"{lo!r} {hi!r} {value!r}" for lo, hi, value in zip(edges, edges[1:], values))
        atomic_write_text(path, "\n".join([header, *rows]) + "\n")

    @classmethod
    def load(cls, path: str) -> "LossProfile":
        table = _read_table(path, "loss profile", "loss-profile", "not a loss-profile file")
        fields = dict(next(table))
        edges, values = [], []
        for line, row in table:
            try:
                lo, hi, value = (float(v) for v in row)
            except ValueError:
                raise ConfigError(f"{path}: profile line needs three numbers: {line!r}") from None
            if not edges:
                edges.append(lo)
            elif lo != edges[-1]:
                raise ConfigError(f"{path}: profile row starts at {lo!r}, "
                                  f"not where the row before ends ({edges[-1]!r})")
            edges.append(hi)
            values.append(value)
        if not values:
            raise ConfigError(f"{path}: empty loss profile")
        if fields.get("bins", str(len(values))) != str(len(values)):
            raise ConfigError(f"{path}: header says bins={fields['bins']}, "
                              f"but the file has {len(values)} rows")
        try:
            window = _window(*(float(fields[key]) for key in ("t_lo", "t_hi")))
        except KeyError as exc:
            raise ConfigError(f"{path}: header has no {exc.args[0]}=") from None
        except (ConfigError, ValueError) as exc:
            raise ConfigError(f"{path}: header {exc}") from None
        if window != (edges[0], edges[-1]):
            raise ConfigError(f"{path}: header window {window!r} is not the rows' "
                              f"({edges[0]!r}, {edges[-1]!r})")
        try:
            return cls(np.asarray(edges), np.asarray(values))
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None


def estimate_loss_profile(model: FieldModel, data, *, bins: int = 50,
                          draws_per_bin: int = 2000,
                          window: tuple[float, float] | None = None,
                          seed: int = 0,
                          label_dropout: float = 0.0) -> LossProfile:
    """Monte-Carlo estimate of the per-time velocity loss L(t) on uniform bins.

    Score models are converted to velocity pointwise before measuring, so the
    window is clipped to keep the conversion regular (``t <= 1 - 1e-5``, and
    ``t >= 1e-5`` where lambda is refused at 0).  Conditional models use
    labels dropped to the null token at ``label_dropout``, matching how they
    were trained.  Batches are drawn as in training, from the stream
    ``SeedSequence(seed, spawn_key=(2,))``, which is the stream :func:`train`
    gives its profile.

    An MLP's bins are split into contiguous groups across the host's cores
    when each worker gets ``_PROFILE_ROWS_PER_WORKER`` rows (see
    :mod:`driftlab._fork`); each group replays the stream's draws for the
    bins before it, so the values have the serial bits, and a non-finite
    value names the earliest bin.
    """
    bins = _count("bins", bins)
    draws_per_bin = _count("draws_per_bin", draws_per_bin)
    label_dropout = _real("label_dropout", label_dropout, 0.0, 1.0)
    lo, hi = (0.0, 1.0) if window is None else _window(*window)
    dataset = as_dataset(data)
    if model.conditioning is not None:  # its batches draw labels
        _class_count(dataset)
    seed = _count("seed", seed, minimum=0)
    schedule = model.schedule
    if model.prediction is Prediction.SCORE:
        hi = min(hi, 1.0 - 1e-5)
        lo = max(lo, _regular_window(schedule, ("lambda_weight",))[0])
    _window(lo, hi)  # the clipping may empty it
    edges = np.linspace(lo, hi, bins + 1)

    def group_values(first: int, stop: int) -> np.ndarray:
        """The values of bins first..stop-1, drawn after replaying the
        stream's draws for the bins before them."""
        rng = _rng(seed, 2)
        values = np.empty(stop - first)
        for b in range(stop):
            x_star, eps, t, y = _draw_batch(model, dataset, rng, draws_per_bin,
                                            edges[b], edges[b + 1], label_dropout)
            if b < first:
                continue
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
            values[b - first] = value
        return values

    workers = (_fork.workers(bins * draws_per_bin, _PROFILE_ROWS_PER_WORKER, bins, blas=True)
               if isinstance(model, MLPField) else 1)
    cuts = [bins * g // workers for g in range(workers + 1)]
    results = _fork.run([functools.partial(group_values, first, stop)
                         for first, stop in zip(cuts[:-1], cuts[1:])])
    for result in results:  # contiguous groups: the first failure is the earliest bin's
        if isinstance(result, Exception):
            raise result
    return LossProfile(edges, np.concatenate(results))


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_FORMAT = "driftlab-checkpoint"
#: A checkpoint's parameters are encoded and written this many at a time.
#: Encoding the 37,505 parameters of the default network in one string peaked
#: at about 5 MB, and a list of them as Python floats took 1.2 MB.
_CHECKPOINT_BLOCK = 2048
#: The time-feature config and embedding width every checkpoint records.
_FIXED_INPUTS = ({"count": MLPField.time_feature_count, "freq_min": MLPField.time_freq_min,
                  "freq_max": MLPField.time_freq_max}, MLPField.class_embed_dim)


def save_checkpoint(model: MLPField, path: str) -> None:
    """Serialize a model to a versioned JSON checkpoint.

    Layout (all keys sorted alphabetically in the file):

    * ``format``/``version`` — container identification ("driftlab-checkpoint", 1);
    * ``architecture`` — the :meth:`MLPField.to_config` dict: data dimension,
      hidden widths, prediction kind, schedule config, class count (or null),
      time-feature config, embedding width;
    * ``parameters`` — the flat float64 vector as a JSON list, written with
      shortest-round-trip reprs so reloading is bit-exact.

    Written atomically, a block of parameters at a time; identical
    models produce byte-identical files, the bytes of
    ``json.dumps(payload, sort_keys=True, indent=2) + "\n"``.
    """
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": 1,
        "architecture": model.to_config(),
        "parameters": [],
    }
    head, _, tail = json.dumps(payload, sort_keys=True, indent=2).partition('"parameters": []')
    sep, values = ",\n    ", model.parameters  # indent=2's separator at the list's depth

    def block(lo: int) -> str:  # json spells the non-finite floats NaN and [-]Infinity
        text = sep.join(map(repr, values[lo:lo + _CHECKPOINT_BLOCK].tolist()))
        return (sep if lo else "") + text.replace("nan", "NaN").replace("inf", "Infinity")

    blocks = map(block, range(0, values.shape[0], _CHECKPOINT_BLOCK))
    atomic_write_text(path, itertools.chain([head, '"parameters": [\n    '], blocks,
                                            ["\n  ]", tail, "\n"]))


def load_checkpoint(path: str) -> MLPField:
    """Rebuild a model from :func:`save_checkpoint` output, bit-exactly."""
    payload = read_json(path, "checkpoint")
    if payload.get("format") != CHECKPOINT_FORMAT or payload.get("version") != 1:
        raise ConfigError(f"{path}: unrecognized checkpoint format/version")
    try:
        arch = payload["architecture"]
        if (arch.get("time_features"), arch.get("class_embed_dim")) != _FIXED_INPUTS:
            raise ConfigError("unsupported time features or class embedding width")
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
    except (AttributeError, TypeError, ValueError, ConfigError) as exc:
        raise ConfigError(f"{path}: malformed checkpoint: {exc}") from None
