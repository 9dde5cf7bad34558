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
to rounding only.  Each stream is a live generator: the SeedSequence words
of a whole chunk are computed in one vectorized pass, and numpy's own PCG64
seeding runs on each trajectory's words.  Every stream draws its rows in
order, a block of steps at a time, into one reused buffer, so a chunk holds
O(chunk x (block*d + one generator)) of noise state however many steps the
run takes.  Seeds must be nonnegative.

Both integrators are module-level steps (:func:`_heun_step`,
:func:`_drift_step`) that one loop, :func:`_integrate`, runs over contiguous
groups of trajectories; a serial run is one group.  Each trajectory depends
only on its own index, so a large run has one group per core: the parent
samples the first and forked children the others (``_fork.run``), each
piping its samples back.  The bits equal those of one group, and so does a
failure: the error of the earliest serial chunk, then the smallest step.
A run forks only when the model is the exact field or an MLP, the
platform reports its CPU affinity, no other Python thread is alive and every
worker gets enough trajectory steps (:func:`_workers`).  For the length of
the run every process computes on one OpenBLAS thread; where that count
cannot be set, an MLP run stays serial.  An MLP's groups start only where
the serial chunk's ``evaluate`` blocks start, so that every block multiplies
the rows it multiplies serially; the exact field may be cut anywhere.

Function-evaluation (NFE) accounting per trajectory: Heun spends exactly
``2N`` model evaluations (no fused final correction), Euler-Maruyama spends
``N`` plus one for the final noiseless step; guidance with ``zeta`` outside
{0, 1} doubles each count (conditional + null evaluations).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from . import _fork
from .errors import (ConfigError, DomainError, NonFiniteError, _count, _nonnegative_values,
                     _real)
from .field import (AnalyticMixtureField, FieldModel, Prediction, _guided, _real_class,
                    _score_from_velocity, _velocity_from_score)
from .learner import MLPField
from .schedule import DiffusionCoefficient, InterpolantSchedule, _regular_window, make_schedule

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
            object.__setattr__(self, name, _real(name, getattr(self, name), 0.0, 1.0))
        if not self.t_start > self.t_end:
            raise ConfigError(
                f"t_start ({self.t_start!r}) must exceed t_end ({self.t_end!r}); "
                f"sampling integrates from noise toward data"
            )
        object.__setattr__(self, "steps", _count("steps", self.steps))
        if self.kind is SamplerKind.HEUN_ODE:
            if self.diffusion is not None:
                raise ConfigError("the deterministic sampler takes no diffusion coefficient")
            if self.last_step_to is not None:
                raise ConfigError("the deterministic sampler takes no last_step_to")
        elif self.diffusion is None:
            raise ConfigError("the stochastic sampler requires a diffusion coefficient")
        for name, hi in (("last_step_to", self.t_end), ("guidance_zeta", math.inf)):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _real(name, getattr(self, name), 0.0, hi))
        object.__setattr__(self, "seed", _count("seed", self.seed, minimum=0))


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
                   kind: SamplerKind | str, diffusion: DiffusionCoefficient | None = None,
                   ) -> tuple[float, float, float | None]:
    """Recommended ``(t_start, t_end, last_step_to)``: [0, 1] with each end
    moved inward where the schedule refuses what the run reads there, namely a
    velocity model's alpha_dot and sigma_dot, a score model's lambda (its
    conversion to velocity), and the stochastic sampler's ``diffusion`` when
    given.  Heun moves a refused end by 1e-5 and has ``last_step_to = None``;
    Euler-Maruyama starts 1e-3 below a refused ``t = 1`` and ends at
    ``t = 0.04`` with a final noiseless drift step down to ``t = 0``."""
    if isinstance(schedule, str):
        schedule = make_schedule(schedule)
    reads = (("alpha_dot", "sigma_dot") if Prediction(prediction) is Prediction.VELOCITY
             else ("lambda_weight",))
    if SamplerKind(kind) is SamplerKind.HEUN_ODE:
        return (*reversed(_regular_window(schedule, reads)), None)
    return (_regular_window(schedule, reads, (0.0, 1e-3), diffusion)[1], 4e-2, 0.0)


class _CountingField:
    """A model's sampling drift ``v - w/2 * s`` (:meth:`drift`) with NFE
    accounting: Heun reads it at ``w = 0``, the probability-flow velocity,
    and Euler-Maruyama at each grid time's ``w``.

    One "evaluation" is one batched model call; guidance with zeta outside
    {0, 1} spends two per call (conditional + null).  Each input is checked
    once: a guided run's label here, the points and time by the model call,
    whose (n, d) rows the conversion reuses.
    """

    def __init__(self, model: FieldModel, spec: SamplerSpec, y) -> None:
        if spec.guidance_zeta is not None:
            if y is None:
                raise ConfigError("guided sampling requires a class label to guide toward")
            if model.conditioning is None:
                raise ConfigError("guided sampling requires a conditional model")
            y = _real_class(model.conditioning, y)
        self.model = model
        self.schedule = model.schedule
        self.zeta = spec.guidance_zeta
        self.y = y
        self.calls = 0
        #: The grid step being taken, which orders the failures of the
        #: run's groups.
        self.step = 0

    def drift(self, x: np.ndarray, t: float, w: float = 0.0) -> np.ndarray:
        """``v - w/2 * s`` at ``(x, t)`` from one model call; ``w = 0`` is
        the velocity alone, with no score conversion."""
        if self.zeta is not None:
            self.calls += 1 if self.zeta in (0.0, 1.0) else 2
            value = _guided(self.model, self.zeta, x, t, self.y)
        else:
            self.calls += 1
            value = self.model.evaluate(x, t, self.y)
        if self.model.prediction is Prediction.VELOCITY:
            if w == 0.0:
                return value
            return value - 0.5 * w * _score_from_velocity(self.schedule.coefficients(t), value, x)
        velocity = _velocity_from_score(self.schedule.coefficients(t), value, x)
        return velocity if w == 0.0 else velocity - 0.5 * w * value


# Constants of numpy's SeedSequence (numpy.random.bit_generator), which
# _seed_states reproduces.
_MASK32 = 0xFFFF_FFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

#: A chunk's noise is drawn into a buffer of at most this many values, a
#: block of rows (steps) at a time: 1 MiB, 32 rows at 2,048 trajectories in
#: two dimensions.  Whole-run noise at n = 2,048 and 250 steps took 8.2 MB.
#: Each block costs one generator call per trajectory: on a 2-core host those
#: 250 steps ran about 2.5 % slower than drawing the whole run at once, and
#: about 3 % faster with 64-row blocks, at 1 MiB more.
_NOISE_BLOCK_VALUES = 131072
#: A block holds at least this many rows however wide the chunk, so each
#: generator call draws a few rows.
_NOISE_BLOCK_MIN_ROWS = 8


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


def _generate_state(pool: list[np.ndarray]) -> np.ndarray:
    """``generate_state(4, uint64)`` of each stream's pool; (streams, 4)."""
    const = _INIT_B
    words = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        words.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    # Pairs of uint32 words are little-endian uint64 words.
    return np.stack([words[2 * j] | (words[2 * j + 1] << np.uint64(32))
                     for j in range(4)], axis=1)


def _seed_states(seed: int, lo: int, hi: int) -> Iterator[np.ndarray]:
    """``SeedSequence(seed, spawn_key=(i,)).generate_state(4, uint64)`` for
    every trajectory index ``i`` in lo..hi-1, as (count, 4) arrays in order.

    Rather than one SeedSequence per index, this runs SeedSequence's entropy
    mixing in uint32 arithmetic over all indices at once (the seed words are
    shared; an index below 2**32 is one spawn word, a larger one two).
    """
    seed_words = _words(seed)
    # With a spawn key, SeedSequence pads the run entropy to the pool size.
    seed_words += [0] * (_POOL_SIZE - len(seed_words))
    entropy = [np.array([word], dtype=np.uint32) for word in seed_words]
    while lo < hi:
        n_words = len(_words(lo))
        stop = min(hi, 1 << (32 * n_words))
        index = np.arange(lo, stop, dtype=np.uint64)
        spawn = [((index >> np.uint64(32 * j)) & np.uint64(_MASK32)).astype(np.uint32)
                 for j in range(n_words)]
        yield _generate_state(_mix_entropy(entropy + spawn))
        lo = stop


@functools.cache
def _seed_words_type() -> type:
    """An ``ISeedSequence`` that hands PCG64 a trajectory's precomputed seed
    words, so numpy's own PCG64 seeding runs on them.  One object serves a
    whole chunk: each generator reads ``state`` once, while it is built.

    Defined on first use, because importing ``numpy.random`` adds about
    2.6 MB of RSS that ``import driftlab`` does not otherwise pay.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        __slots__ = ("state",)

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return self.state

    return SeedWords


def _generators(seed: int, lo: int, hi: int) -> list[np.random.Generator]:
    """The live generator ``default_rng(SeedSequence(seed, spawn_key=(i,)))``
    of every trajectory index ``i`` in lo..hi-1.

    Streams are built from the run seed with the trajectory index as spawn
    key, so they never overlap, do not depend on chunking, and are stable
    under extending the batch.
    """
    words = _seed_words_type()()
    generators = []
    for states in _seed_states(seed, lo, hi):
        for state in states:
            words.state = state
            generators.append(np.random.Generator(np.random.PCG64(words)))
    return generators


def _stream_states(seed: int, lo: int, hi: int) -> Iterator[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of each stream of :func:`_generators`."""
    for generator in _generators(seed, lo, hi):
        state = generator.bit_generator.state["state"]
        yield state["state"], state["inc"]


def _chunk_noise(seed: int, lo: int, hi: int, rows: int, dim: int) -> np.ndarray:
    """The first ``rows`` rows of :class:`_NoiseStream` for trajectories
    lo..hi-1, all at once; (hi - lo, rows, dim)."""
    out = np.empty((hi - lo, rows, dim))
    for generator, block in zip(_generators(seed, lo, hi), out):
        generator.standard_normal(out=block)
    return out


class _NoiseStream:
    """Per-trajectory standard-normal rows for trajectories lo..hi-1.

    Row 0 is the initial state at t_start; row ``i + 1`` is the stochastic
    sampler's increment at step ``i``.  Each trajectory's live generator
    (:func:`_generators`) draws its rows in order, a block of rows at a
    time into one reused buffer of at most ``_NOISE_BLOCK_VALUES`` values
    (``_NOISE_BLOCK_MIN_ROWS`` rows at least), so memory does not grow with
    the step count.  Rows must be read in order; a row read stays valid
    until the next block is drawn.
    """

    def __init__(self, seed: int, lo: int, hi: int, rows: int, dim: int) -> None:
        self.generators = _generators(seed, lo, hi)
        width = max(_NOISE_BLOCK_MIN_ROWS, _NOISE_BLOCK_VALUES // ((hi - lo) * dim))
        self.buffer = np.empty((hi - lo, min(rows, width), dim))
        self.rows = rows
        self.start = self.stop = 0  # the buffer holds rows start..stop-1

    def row(self, index: int) -> np.ndarray:
        """Row ``index`` of every trajectory; (hi - lo, dim)."""
        if not self.start <= index < self.stop:
            if index != self.stop or index >= self.rows:
                raise IndexError(f"noise row {index} read out of order")
            self.start = index
            self.stop = min(self.rows, index + self.buffer.shape[1])
            for generator, block in zip(self.generators,
                                        self.buffer[:, :self.stop - self.start]):
                generator.standard_normal(out=block)
        return self.buffer[:, index - self.start]


def _check_finite(x: np.ndarray, step: int) -> None:
    if not np.isfinite(x).all():
        raise NonFiniteError("sampler state became non-finite", step=step)


class _Failure(NamedTuple):
    """The error of the first failing range of trajectories in a group."""

    #: (serial chunk, step, first trajectory): the serial loop raises the
    #: error of its earliest failing chunk, at that chunk's smallest step.
    order: tuple[int, int, int]
    error: Exception


#: Trajectory steps (trajectories x grid steps) that each worker process
#: must get before an exact-field run forks.  A bare fork, pipe and wait took
#: 3.9 ms on a 2-core host, and a grid-9 Heun run of 128 trajectories x 50
#: steps took 14.4 ms serially against 22.1 ms forked.
_STEPS_PER_WORKER = 2 ** 16
#: The same for an MLP run.  A trajectory step of the default network costs
#: about ten of the exact grid-9 field's: on a 2-core host a Heun run of 512
#: trajectories x 32 steps took 100 ms serially against 53 ms forked, and one
#: of an 8-wide network 4.5 ms either way.
_MLP_STEPS_PER_WORKER = 2 ** 14


def _workers(model: FieldModel, n_samples: int, steps: int) -> int:
    """The number of processes a run samples in (:func:`_fork.workers`): one
    per usable core, as many as give each ``_STEPS_PER_WORKER`` trajectory
    steps (``_MLP_STEPS_PER_WORKER`` for an MLP), at most one per trajectory.
    One unless the model is the exact field or an MLP, and for an MLP, whose
    products are BLAS's, unless OpenBLAS can be set to one thread."""
    if isinstance(model, AnalyticMixtureField):
        return _fork.workers(n_samples * steps, _STEPS_PER_WORKER, n_samples, blas=False)
    if isinstance(model, MLPField):
        return _fork.workers(n_samples * steps, _MLP_STEPS_PER_WORKER, n_samples, blas=True)
    return 1


def _groups(n_samples: int, chunk: int, workers: int,
            rows: int = 1) -> list[list[tuple[int, int]]]:
    """Trajectories 0..n-1 as at most ``workers`` contiguous groups of
    near-equal size, each cut at the multiples of ``chunk`` into ``(lo, hi)``
    ranges, so that every range lies within one serial chunk.  Groups start
    only at multiples of ``rows`` counted from a serial chunk's start (an
    MLP's ``evaluate`` blocks); a group that would be empty is left out."""
    def cut(at: int) -> int:  # the nearest allowed start
        start = at - at % chunk
        down = at - (at - start) % rows
        up = min(down + rows, start + chunk, n_samples)
        return down if at - down <= up - at else up

    bounds = [cut(n_samples * g // workers) for g in range(workers)] + [n_samples]
    groups = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if lo < hi:
            cuts = [lo, *range((lo // chunk + 1) * chunk, hi, chunk), hi]
            groups.append(list(zip(cuts[:-1], cuts[1:])))
    return groups


def _heun_step(field: _CountingField, x: np.ndarray, t, t_next, h,
               w=0.0, w_next=0.0) -> np.ndarray:
    """One explicit trapezoidal (Heun) step of size ``h`` from ``t`` to
    ``t_next``: an Euler predictor, then the mean of the drift at both ends
    (``w`` at ``t``, ``w_next`` at ``t_next``).  Two drift calls."""
    slope = field.drift(x, t, w)
    slope_next = field.drift(x + h * slope, t_next, w_next)
    return x + 0.5 * h * (slope + slope_next)


def _drift_step(field: _CountingField, x: np.ndarray, t, h, w=0.0) -> np.ndarray:
    """One Euler step ``x + h * drift(x, t, w)``: Euler-Maruyama's step
    before its noise is added, and its final noiseless step."""
    return x + h * field.drift(x, t, w)


def _integrate(model: FieldModel, spec: SamplerSpec, n_samples: int,
               y, chunk_size: int | None, step, final_step=None,
               noise_rows: int = 1) -> SamplerResult:
    """The one loop both integrators run.

    Runs ``x <- step(field, x, i, noise)`` for every grid step, then
    ``final_step(field, x)`` when given, chunk by chunk.  ``noise`` is the
    chunk's :class:`_NoiseStream` of ``noise_rows`` rows; row 0 is the
    initial state.  NFE is the run's model-call count per chunk, the same
    for every chunk.  ``chunk_size`` is ``None`` (DEFAULT_CHUNK) or a
    positive integer, else a :class:`ConfigError`.  The chunks form one
    group per worker (:func:`_workers`, :func:`_groups`) for
    :func:`_fork.run`: a serial run is one group, run in this process.
    """
    n_samples = _count("n_samples", n_samples, error=DomainError)
    if chunk_size is None:
        chunk = DEFAULT_CHUNK
    elif (isinstance(chunk_size, (int, np.integer)) and not isinstance(chunk_size, bool)
          and chunk_size > 0):
        chunk = int(chunk_size)
    else:
        raise ConfigError(f"chunk_size must be None or a positive integer, got {chunk_size!r}")
    field = _CountingField(model, spec, y)

    def run(group: list[tuple[int, int]]) -> tuple[list[np.ndarray], int] | _Failure:
        """The samples of a group's ranges, run in order, and its NFE, or the
        failure of the first range that fails; ``field.step`` follows the step."""
        calls, outputs = field.calls, []
        try:
            for lo, hi in group:
                noise = _NoiseStream(spec.seed, lo, hi, noise_rows, model.dimension)
                x = noise.row(0).copy()  # the buffer is refilled under it
                for i in range(spec.steps):
                    field.step = i
                    x = step(field, x, i, noise)
                    _check_finite(x, i)
                if final_step is not None:
                    field.step = spec.steps
                    x = final_step(field, x)
                    _check_finite(x, spec.steps)
                outputs.append(x)
            return outputs, (field.calls - calls) // len(group)
        except Exception as error:
            return _Failure((lo // chunk, field.step, lo), error)

    rows = model._block_rows if isinstance(model, MLPField) else 1
    groups = _groups(n_samples, chunk, _workers(model, n_samples, spec.steps), rows)
    results = _fork.run([functools.partial(run, group) for group in groups])
    failures = [result for result in results if isinstance(result, _Failure)]
    if failures:
        raise min(failures, key=lambda failure: failure.order).error
    return SamplerResult(np.concatenate([x for outputs, _ in results for x in outputs]),
                         results[0][1])


def _grid_steps(spec: SamplerSpec) -> tuple:
    """``(step, final_step, noise_rows)`` of ``spec``'s run for :func:`_integrate`.
    Euler-Maruyama's grid ``w`` (at ``t_end`` only for a final step that moves
    the state) is computed and checked once, before any model call."""
    grid = time_grid(spec)
    dt = (spec.t_end - spec.t_start) / spec.steps
    if spec.kind is SamplerKind.HEUN_ODE:
        return (lambda field, x, i, noise:
                _heun_step(field, x, float(grid[i]), float(grid[i + 1]), dt)), None, 1
    final = spec.last_step_to is not None and spec.last_step_to != spec.t_end
    w = np.asarray(spec.diffusion(grid if final else grid[:-1]), dtype=np.float64)
    scale = (np.sqrt(_nonnegative_values(w[:spec.steps], "diffusion coefficient"))
             * math.sqrt(abs(dt)))

    def step(field: _CountingField, x: np.ndarray, i: int, noise: _NoiseStream) -> np.ndarray:
        return _drift_step(field, x, float(grid[i]), dt, float(w[i])) + scale[i] * noise.row(i + 1)

    def final_step(field: _CountingField, x: np.ndarray) -> np.ndarray:
        return _drift_step(field, x, float(grid[-1]), spec.last_step_to - spec.t_end, float(w[-1]))

    return step, final_step if final else None, spec.steps + 1


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
    return _integrate(model, spec, n_samples, y, chunk_size, *_grid_steps(spec))


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
    return _integrate(model, spec, n_samples, y, chunk_size, *_grid_steps(spec))
