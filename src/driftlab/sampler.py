"""Time grids and the two integrators: a deterministic second-order Heun
scheme for the probability-flow ODE and a first-order Euler-Maruyama scheme
for the reverse-time SDE with a tunable diffusion coefficient.

Time convention: ``t = 0`` is data and ``t = 1`` is noise, so sampling
integrates *down* a uniform descending grid from ``t_start`` to ``t_end``
(``t_start > t_end``, signed step ``dt < 0``).  The stochastic sampler's
update is

    x <- x + dt * (v(x, t) - w(t)/2 * s(x, t)) + sqrt(w(t)) * sqrt(|dt|) * xi

with independent standard-normal increments ``xi`` (the reverse-time Wiener
process enters only through i.i.d. increments), followed by one final
deterministic drift step — no noise — from ``t_end`` down to ``last_step_to``
when configured.  Any ``w(t) >= 0`` leaves the sampled marginals invariant;
``w = 0`` degenerates the update to a first-order Euler ODE step.

Both integrators start every trajectory from an independent standard-normal
draw at ``t_start`` and consume a dedicated random stream per trajectory
index, ``default_rng(SeedSequence(seed, spawn_key=(index,)))``, so with the
exact field results are bit-identical regardless of chunking and stable under
extension of the batch.  A learned model's BLAS products may round
differently at another number of rows, so its samples agree across chunkings
to rounding only.  The streams of a chunk are seeded in one vectorized pass
that reproduces SeedSequence and PCG64 seeding bit for bit, and one reused
generator draws each trajectory's rows.  Seeds must be nonnegative.

Function-evaluation (NFE) accounting per trajectory: Heun spends exactly
``2N`` model evaluations (no fused final correction), Euler-Maruyama spends
``N`` plus one for the final noiseless step; guidance with ``zeta`` outside
{0, 1} doubles each count (conditional + null evaluations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ConfigError, DomainError, NonFiniteError
from .field import (
    FieldModel,
    Prediction,
    guided_field,
    score_from_velocity,
    velocity_from_score,
)
from .schedule import DiffusionCoefficient, InterpolantSchedule

__all__ = [
    "SamplerKind",
    "SamplerSpec",
    "SamplerResult",
    "time_grid",
    "default_window",
    "heun_sample",
    "euler_maruyama_sample",
    "DEFAULT_CHUNK",
]

import enum


class SamplerKind(str, enum.Enum):
    """Which integrator a :class:`SamplerSpec` drives."""

    HEUN_ODE = "heun"
    EULER_MARUYAMA_SDE = "em"


#: Trajectories are integrated in chunks of this many at a time by default.
DEFAULT_CHUNK = 4096


@dataclass(frozen=True)
class SamplerSpec:
    """Full description of one sampling run.

    ``t_start > t_end`` (integration runs from noise toward data);
    ``diffusion`` and ``last_step_to`` apply to the stochastic sampler only;
    ``guidance_zeta`` mixes conditional and null evaluations and requires a
    class label at sampling time.
    """

    kind: SamplerKind
    t_start: float
    t_end: float
    steps: int
    diffusion: DiffusionCoefficient | None = None
    last_step_to: float | None = None
    guidance_zeta: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", SamplerKind(self.kind))
        for name in ("t_start", "t_end"):
            value = float(getattr(self, name))
            if not (0.0 <= value <= 1.0):
                raise ConfigError(f"{name} must lie in [0, 1], got {value!r}")
            object.__setattr__(self, name, value)
        if not self.t_start > self.t_end:
            raise ConfigError(
                f"t_start ({self.t_start!r}) must exceed t_end ({self.t_end!r}); "
                f"sampling integrates from noise toward data"
            )
        steps = int(self.steps)
        if steps < 1:
            raise ConfigError(f"steps must be a positive integer, got {self.steps!r}")
        object.__setattr__(self, "steps", steps)
        if self.last_step_to is not None:
            final = float(self.last_step_to)
            if not 0.0 <= final <= self.t_end:
                raise ConfigError(
                    f"last_step_to must lie in [0, t_end], got {final!r}"
                )
            object.__setattr__(self, "last_step_to", final)
        if self.guidance_zeta is not None:
            zeta = float(self.guidance_zeta)
            if not math.isfinite(zeta) or zeta < 0.0:
                raise ConfigError(f"guidance_zeta must be >= 0, got {zeta!r}")
            object.__setattr__(self, "guidance_zeta", zeta)
        if self.kind is SamplerKind.HEUN_ODE:
            if self.diffusion is not None:
                raise ConfigError("the deterministic sampler takes no diffusion coefficient")
            if self.last_step_to is not None:
                raise ConfigError("the deterministic sampler takes no last_step_to")
        elif self.diffusion is None:
            raise ConfigError("the stochastic sampler requires a diffusion coefficient")
        seed = int(self.seed)
        if seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed!r}")
        object.__setattr__(self, "seed", seed)


@dataclass(frozen=True)
class SamplerResult:
    """Samples plus bookkeeping from one sampling run."""

    samples: np.ndarray
    #: Model function evaluations per trajectory.
    nfe: int


def time_grid(spec: SamplerSpec) -> np.ndarray:
    """Uniform descending grid ``t_i = t_start + i*(t_end - t_start)/steps``."""
    return np.linspace(spec.t_start, spec.t_end, spec.steps + 1)


def default_window(schedule: InterpolantSchedule | str, prediction: Prediction | str,
                   kind: SamplerKind | str) -> tuple[float, float, float | None]:
    """Recommended ``(t_start, t_end, last_step_to)`` per schedule/prediction/kind.

    The windows clip singular endpoints: velocity evaluation (or conversion
    from score) needs ``alpha > 0``, the sbdm-vp schedule is singular at
    ``t = 0``, and the stochastic sampler ends early at ``t = 0.04`` with a
    final noiseless drift step down to ``t = 0``.  ``last_step_to`` is
    ``None`` for the deterministic sampler.
    """
    name = schedule if isinstance(schedule, str) else schedule.name
    if name not in ("linear", "gvp", "sbdm-vp"):
        raise ConfigError(f"unknown schedule {name!r}")
    prediction = Prediction(prediction)
    kind = SamplerKind(kind)
    if kind is SamplerKind.HEUN_ODE:
        if name == "sbdm-vp":
            return (1.0, 1e-5, None)
        if prediction is Prediction.VELOCITY:
            return (1.0, 0.0, None)
        return (1.0 - 1e-5, 0.0, None)
    if name == "sbdm-vp" or prediction is Prediction.VELOCITY:
        return (1.0, 4e-2, 0.0)
    return (1.0 - 1e-3, 4e-2, 0.0)


class _CountingField:
    """Wraps a model into velocity/score closures with NFE accounting.

    One "evaluation" is one batched model call; guidance with zeta outside
    {0, 1} spends two per call (conditional + null).
    """

    def __init__(self, model: FieldModel, spec: SamplerSpec, y) -> None:
        if spec.guidance_zeta is not None:
            if y is None:
                raise ConfigError("guided sampling requires a class label y")
            if model.conditioning is None:
                raise ConfigError("guided sampling requires a conditional model")
        self.model = model
        self.schedule = model.schedule
        self.zeta = spec.guidance_zeta
        self.y = y
        self.calls = 0

    def _raw(self, x: np.ndarray, t: float) -> np.ndarray:
        if self.zeta is not None:
            self.calls += 1 if self.zeta in (0.0, 1.0) else 2
            return guided_field(self.model, self.zeta, x, t, self.y)
        self.calls += 1
        return self.model.evaluate(x, t, self.y)

    def velocity(self, x: np.ndarray, t: float) -> np.ndarray:
        value = self._raw(x, t)
        if self.model.prediction is Prediction.SCORE:
            return velocity_from_score(self.schedule, value, x, t)
        return value

    def velocity_and_score(self, x: np.ndarray, t: float
                           ) -> tuple[np.ndarray, np.ndarray]:
        value = self._raw(x, t)
        if self.model.prediction is Prediction.SCORE:
            return velocity_from_score(self.schedule, value, x, t), value
        return value, score_from_velocity(self.schedule, value, x, t)


# Constants of numpy's SeedSequence (numpy.random.bit_generator) and of the
# PCG64 seeding step (pcg64.h), which _stream_states reproduces.
_MASK32 = 0xFFFF_FFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(value: int) -> list[int]:
    """The uint32 words of a nonnegative int, least significant first."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hashmix(value: np.ndarray, const: int) -> tuple[np.ndarray, int]:
    value = value ^ np.uint32(const)
    const = const * _MULT_A & _MASK32
    value = value * np.uint32(const)
    return value ^ (value >> np.uint32(16)), const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))


def _mix_entropy(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence's pool from its entropy words, each word an array over
    streams: hash the first pool-size words in, mix every pool word into
    every other, then mix each remaining word into every pool word."""
    const = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        value, const = _hashmix(word, const)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], value)
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            value, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], value)
    return pool


def _pcg64_states(pool: list[np.ndarray], count: int) -> Iterator[tuple[int, int]]:
    """PCG64 ``(state, inc)`` seeded from ``generate_state(4, uint64)`` of
    each of ``count`` pools, one stream at a time."""
    const = _INIT_B
    words = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        words.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    # Pairs of uint32 words are little-endian uint64 words; pcg64_set_seed
    # takes the seed from words 0:1 and the sequence from words 2:3.
    val = [np.broadcast_to(words[2 * j] | (words[2 * j + 1] << np.uint64(32)), (count,))
           for j in range(4)]
    for high, low, seq_high, seq_low in zip(*(map(int, v) for v in val)):
        inc = ((seq_high << 64 | seq_low) << 1 | 1) & _MASK128
        state = (((inc + (high << 64 | low)) & _MASK128) * _PCG_MULT + inc) & _MASK128
        yield state, inc


def _stream_states(seed: int, lo: int, hi: int) -> Iterator[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of ``default_rng(SeedSequence(seed,
    spawn_key=(i,)))`` for every trajectory index ``i`` in lo..hi-1.

    Streams are built from the run seed with the trajectory index as spawn
    key, so they never overlap, do not depend on chunking, and are stable
    under extending the batch.  Rather than one SeedSequence per index, this
    runs SeedSequence's entropy mixing and ``generate_state(4, uint64)`` in
    uint32 arithmetic over all indices at once (the seed words are shared;
    an index below 2**32 is one spawn word, a larger one two), then PCG64's
    seeding step on Python ints.
    """
    seed_words = _words(int(seed))
    # With a spawn key, SeedSequence pads the run entropy to the pool size.
    seed_words += [0] * (_POOL_SIZE - len(seed_words))
    entropy = [np.array([word], dtype=np.uint32) for word in seed_words]
    while lo < hi:
        n_words = len(_words(lo))
        stop = min(hi, 1 << (32 * n_words))
        index = np.arange(lo, stop, dtype=np.uint64)
        spawn = [((index >> np.uint64(32 * j)) & np.uint64(_MASK32)).astype(np.uint32)
                 for j in range(n_words)]
        yield from _pcg64_states(_mix_entropy(entropy + spawn), stop - lo)
        lo = stop


def _chunk_noise(seed: int, lo: int, hi: int, rows: int, dim: int) -> np.ndarray:
    """Per-trajectory standard-normal draws for trajectories lo..hi-1.

    Row 0 is the initial state at t_start; remaining rows are the stochastic
    sampler's step increments.  One generator is reseeded with each
    trajectory's stream (:func:`_stream_states`) and fills its slice.
    """
    out = np.empty((hi - lo, rows, dim))
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    for block, (state, inc) in zip(out, _stream_states(seed, lo, hi)):
        bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        generator.standard_normal(out=block)
    return out


def _check_finite(x: np.ndarray, step: int) -> None:
    if not np.isfinite(x).all():
        raise NonFiniteError("sampler state became non-finite", step=step)


def _integrate(model: FieldModel, spec: SamplerSpec, n_samples: int,
               y, chunk_size: int | None, step, final_step=None,
               noise_rows: int = 1) -> SamplerResult:
    """The loop both integrators share.

    Runs ``x <- step(field, x, i, noise)`` for every grid step, then
    ``final_step(field, x)`` when given, chunk by chunk.  ``noise`` holds
    each trajectory's ``noise_rows`` standard-normal rows; row 0 is the
    initial state.  NFE is the run's model-call count per chunk, which is
    the same for every chunk.  ``chunk_size`` is ``None`` (DEFAULT_CHUNK) or
    a positive integer; anything else is a :class:`ConfigError`.
    """
    n_samples = int(n_samples)
    if n_samples <= 0:
        raise DomainError(f"n_samples must be positive, got {n_samples}")
    if chunk_size is None:
        chunk = DEFAULT_CHUNK
    elif (isinstance(chunk_size, (int, np.integer)) and not isinstance(chunk_size, bool)
          and chunk_size > 0):
        chunk = int(chunk_size)
    else:
        raise ConfigError(f"chunk_size must be None or a positive integer, got {chunk_size!r}")
    dim = model.dimension
    field = _CountingField(model, spec, y)
    outputs = []
    for lo in range(0, n_samples, chunk):
        noise = _chunk_noise(spec.seed, lo, min(lo + chunk, n_samples), noise_rows, dim)
        x = noise[:, 0, :]
        for i in range(spec.steps):
            x = step(field, x, i, noise)
            _check_finite(x, i)
        if final_step is not None:
            x = final_step(field, x)
            _check_finite(x, spec.steps)
        outputs.append(x)
    return SamplerResult(np.concatenate(outputs, axis=0), field.calls // len(outputs))


def _require_kind(spec: SamplerSpec, kind: SamplerKind, entry: str) -> None:
    if spec.kind is not kind:
        raise ConfigError(f"{entry} requires a {kind.value!r} spec")


def heun_sample(model: FieldModel, spec: SamplerSpec, n_samples: int,
                y=None, chunk_size: int | None = None) -> SamplerResult:
    """Integrate the probability-flow ODE with the explicit trapezoidal
    (Heun) scheme.

    Each step evaluates the velocity at the current point, takes a predictor
    Euler step, re-evaluates at the predicted point and the next time, and
    averages the two slopes — 2 evaluations per step, second-order accurate.
    Score models are converted to velocity pointwise, so the window must keep
    ``alpha(t) > 0``.
    """
    _require_kind(spec, SamplerKind.HEUN_ODE, "heun_sample")
    grid = time_grid(spec)
    dt = (spec.t_end - spec.t_start) / spec.steps

    def step(field: _CountingField, x: np.ndarray, i: int, noise) -> np.ndarray:
        slope_here = field.velocity(x, float(grid[i]))
        predicted = x + dt * slope_here
        slope_next = field.velocity(predicted, float(grid[i + 1]))
        return x + 0.5 * dt * (slope_here + slope_next)

    return _integrate(model, spec, n_samples, y, chunk_size, step)


def euler_maruyama_sample(model: FieldModel, spec: SamplerSpec, n_samples: int,
                          y=None, chunk_size: int | None = None) -> SamplerResult:
    """Integrate the reverse-time SDE with first-order Euler-Maruyama steps.

    Drift ``v - w/2 * s`` and diffusion ``sqrt(w)``; one model call per step
    supplies whichever of velocity/score the model predicts, the other is
    converted pointwise.  Steps where ``w(t) = 0`` skip the score side
    entirely (pure Euler ODE step).  After the N stochastic steps, a single
    deterministic drift step — no noise — moves the state from ``t_end`` to
    ``last_step_to`` when configured.
    """
    _require_kind(spec, SamplerKind.EULER_MARUYAMA_SDE, "euler_maruyama_sample")
    grid = time_grid(spec)
    dt = (spec.t_end - spec.t_start) / spec.steps
    final = spec.last_step_to is not None and spec.last_step_to != spec.t_end
    # Evaluate w on the grid once (t_end only when the final step needs it);
    # singularities surface here, before any trajectory work is done.
    w_values = np.asarray(spec.diffusion(grid if final else grid[:-1]), dtype=np.float64)
    stepped = w_values[:spec.steps]
    if np.any(stepped < 0.0) or not np.all(np.isfinite(stepped)):
        raise DomainError("diffusion coefficient must be finite and >= 0 on the grid")
    noise_scale = np.sqrt(stepped) * math.sqrt(abs(dt))

    def drift(field: _CountingField, x: np.ndarray, i: int) -> np.ndarray:
        w = float(w_values[i])
        if w == 0.0:
            return field.velocity(x, float(grid[i]))
        velocity, score = field.velocity_and_score(x, float(grid[i]))
        return velocity - 0.5 * w * score

    def step(field: _CountingField, x: np.ndarray, i: int, noise: np.ndarray) -> np.ndarray:
        return x + dt * drift(field, x, i) + noise_scale[i] * noise[:, i + 1, :]

    def final_step(field: _CountingField, x: np.ndarray) -> np.ndarray:
        return x + (spec.last_step_to - spec.t_end) * drift(field, x, spec.steps)

    return _integrate(model, spec, n_samples, y, chunk_size, step,
                      final_step if final else None, noise_rows=spec.steps + 1)
