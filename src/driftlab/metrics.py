"""Sample-quality metrics and the diffusion-cost bound evaluator.

Desk-scale surrogates for large-image metrics: energy distance (with a
permutation test), per-axis Kolmogorov–Smirnov statistics, and mixture-mode
occupancy detect the same failure modes (mode drop, variance mismatch,
location bias) on toy mixtures.  They are **not FID** and reports say so.

Also here: the transport path-length functional of a velocity field, and the
KL-divergence bound on SDE sampling error as a functional of the diffusion
coefficient, including the cost-augmented integrand, its pointwise minimizer,
and the closed-form minimum value.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import ConfigError, DomainError, SingularityError
from .field import FieldModel, GaussianMixture, Prediction, interpolate
from .schedule import DiffusionCoefficient, InterpolantSchedule, _match_shape
from .toybox import as_dataset

__all__ = [
    "energy_distance",
    "energy_distance_permutation_test",
    "ks_per_axis",
    "mode_occupancy",
    "path_length",
    "kl_integrand",
    "kl_cost_integrand",
    "kl_cost_minimizer",
    "kl_cost_minimum",
    "kl_bound",
    "MetricReport",
]


def _as_matrix(name: str, value: np.ndarray) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise DomainError(f"{name} must be a nonempty (n, d) sample matrix")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} contains non-finite values")
    return arr


def _sample_pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two sample sets as finite (n, d) and (m, d) matrices of the same d."""
    aa = _as_matrix("a", a)
    bb = _as_matrix("b", b)
    if aa.shape[1] != bb.shape[1]:
        raise DomainError(
            f"dimension mismatch: a has d={aa.shape[1]}, b has d={bb.shape[1]}"
        )
    return aa, bb


def _mean_cross_distance_1d(a: np.ndarray, b: np.ndarray) -> float:
    """Mean over all pairs of |a_i - b_j| in O((n+m) log(n+m))."""
    a_sorted = np.sort(a)
    prefix = np.concatenate([[0.0], np.cumsum(a_sorted)])
    total = prefix[-1]
    n = a_sorted.shape[0]
    k = np.searchsorted(a_sorted, b, side="right")
    sums = b * k - prefix[k] + (total - prefix[k]) - b * (n - k)
    return float(np.sum(sums) / (n * b.shape[0]))


def _mean_within_distance_1d(a: np.ndarray) -> float:
    """Mean over ALL ordered pairs (diagonal included) of |a_i - a_j|."""
    n = a.shape[0]
    a_sorted = np.sort(a)
    weights = 2.0 * np.arange(n) - (n - 1)
    return float(2.0 * np.sum(a_sorted * weights) / (n * n))


#: Element budget that sets the rows of one block of pairwise distances.
_DISTANCE_BUDGET = 2**25
#: Element budget of one block of permutation splits (pooled points × splits).
_SPLIT_BUDGET = 2**22


def _distance_block(rows: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``block[i, j] = |rows[i] - b[j]|``, with the squared differences summed
    axis by axis, so no (rows, m, d) array is built."""
    block = np.square(rows[:, :1] - b[:, 0])
    for axis in range(1, rows.shape[1]):
        step = rows[:, axis:axis + 1] - b[:, axis]
        block += np.square(step, out=step)
    return np.sqrt(block, out=block)


def _distance_blocks(a: np.ndarray, b: np.ndarray):
    """Yield ``(lo, block)``: the distances of rows ``a[lo:lo + k]`` to all of
    ``b``, with k set so that blocks stay within the element budget."""
    n, d = a.shape
    m = b.shape[0]
    chunk = max(1, int(_DISTANCE_BUDGET / max(1, m * d)))
    for lo in range(0, n, chunk):
        yield lo, _distance_block(a[lo:lo + chunk], b)


def _mean_cross_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Mean pairwise Euclidean distance."""
    total = 0.0
    for _, block in _distance_blocks(a, b):
        total += float(block.sum())
    return total / (a.shape[0] * b.shape[0])


def _split_statistics(pooled: np.ndarray, n: int, orders: list) -> np.ndarray:
    """Energy distance of every split ``pooled[order[:n]]`` against the rest.

    With z the 0/1 indicator of a split's first set, D the pooled distance
    matrix, r its row sums and T their total, the pair sums are
    ``S_AA = zᵀDz``, ``S_AB = zᵀr - S_AA`` and ``S_BB = T - 2 zᵀr + S_AA``,
    so one pass over row blocks of D scores all splits at once.

    A BLAS product sums in an order that depends on its thread count, so D
    enters ``D @ Z`` as two slices on power-of-two grids, each coarse enough
    that any sum of ``len(pooled)`` of its entries is exact in any order
    (error-free splitting after Ozaki et al.).  What the slices leave out is
    below ``diameter · len(pooled)² · 2^-103`` per distance.
    """
    size = pooled.shape[0]
    m = size - n
    split = np.zeros((size, len(orders)))
    for j, order in enumerate(orders):
        split[order[:n], j] = 1.0
    # Every distance is below 2^top and size < 2^bits.  A sum of `size`
    # entries of the coarse slice (each at most 2^top) or of the fine slice
    # (each at most coarse / 2) stays below 2^52 steps of its grid, so every
    # partial sum is exact.
    diameter = float(np.sqrt(np.sum(np.square(np.ptp(pooled, axis=0)))))
    top, bits = math.frexp(diameter)[1], math.frexp(size)[1]
    coarse = math.ldexp(1.0, top + bits - 52)
    fine = math.ldexp(coarse, bits - 53)
    total = 0.0
    z_r = np.zeros(len(orders))
    s_aa = np.zeros(len(orders))
    for lo, block in _distance_blocks(pooled, pooled):
        z = split[lo:lo + block.shape[0]]
        r = block.sum(axis=1)
        total += float(r.sum())
        z_r += np.sum(z * r[:, None], axis=0)
        high = block / coarse
        np.rint(high, out=high)
        high *= coarse
        block -= high
        block /= fine
        np.rint(block, out=block)
        block *= fine
        product = high @ split
        product += block @ split
        s_aa += np.sum(z * product, axis=0)
    s_ab = z_r - s_aa
    s_bb = total - 2.0 * z_r + s_aa
    return 2.0 * s_ab / (n * m) - s_aa / (n * n) - s_bb / (m * m)


def _sorted_split_statistics(pooled: np.ndarray, n: int, orders: list) -> np.ndarray:
    """Energy distance of every split of 1-D ``pooled``, each on the sorted path."""
    return np.array([_energy(pooled[order[:n]], pooled[order[n:]]) for order in orders])


def _energy(aa: np.ndarray, bb: np.ndarray) -> float:
    """:func:`energy_distance` of a checked pair (see :func:`_sample_pair`)."""
    if aa.shape[1] == 1:
        av = aa[:, 0]
        bv = bb[:, 0]
        return (2.0 * _mean_cross_distance_1d(av, bv)
                - _mean_within_distance_1d(av)
                - _mean_within_distance_1d(bv))
    return (2.0 * _mean_cross_distance(aa, bb)
            - _mean_cross_distance(aa, aa)
            - _mean_cross_distance(bb, bb))


def energy_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Energy distance ``2 E|a-b| - E|a-a'| - E|b-b'|`` between sample sets.

    All three expectations are means over all pairs including the diagonal
    (V-statistic), which makes the value exactly 0 when the multisets are
    identical and nonnegative up to rounding in general.  One-dimensional
    inputs take an O(n log n) sorted path.
    """
    return _energy(*_sample_pair(a, b))


def energy_distance_permutation_test(a: np.ndarray, b: np.ndarray,
                                     n_permutations: int = 200,
                                     seed: int = 0) -> tuple[float, float]:
    """Two-sample permutation test on the energy distance.

    Returns ``(observed statistic, p-value)`` with the add-one rule
    ``p = (1 + #{permuted >= observed}) / (n_permutations + 1)``, so p is
    never exactly 0 and is uniform on its support under the null.
    Splits are drawn and scored a block at a time.  One-dimensional inputs
    score one split per block on the sorted path; in higher dimensions a
    block's splits are scored together from one pass over the pooled
    distances, equal to a per-split :func:`energy_distance` up to rounding.
    """
    aa, bb = _sample_pair(a, b)
    count = int(n_permutations)
    if count <= 0:
        raise ConfigError("n_permutations must be positive")
    observed = energy_distance(aa, bb)
    pooled = np.concatenate([aa, bb], axis=0)
    n, size = aa.shape[0], pooled.shape[0]
    if pooled.shape[1] == 1:
        width, score = 1, _sorted_split_statistics
    else:
        # The block width bounds the (pooled points × splits) split matrix.
        width, score = max(1, _SPLIT_BUDGET // size), _split_statistics
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    exceed = 0
    for lo in range(0, count, width):
        orders = [rng.permutation(size) for _ in range(min(width, count - lo))]
        exceed += int(np.count_nonzero(score(pooled, n, orders) >= observed))
    p_value = (1.0 + exceed) / (float(n_permutations) + 1.0)
    return observed, p_value


def ks_per_axis(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Two-sample Kolmogorov–Smirnov statistic per coordinate axis; shape (d,)."""
    aa, bb = _sample_pair(a, b)
    out = np.empty(aa.shape[1])
    for axis in range(aa.shape[1]):
        xs = np.sort(aa[:, axis])
        ys = np.sort(bb[:, axis])
        grid = np.concatenate([xs, ys])
        cdf_a = np.searchsorted(xs, grid, side="right") / xs.shape[0]
        cdf_b = np.searchsorted(ys, grid, side="right") / ys.shape[0]
        out[axis] = float(np.max(np.abs(cdf_a - cdf_b)))
    return out


def mode_occupancy(samples: np.ndarray, gmm: GaussianMixture) -> np.ndarray:
    """Fraction of samples nearest (Euclidean) to each component mean; shape (K,).

    Meaningful when the components are well separated relative to their
    spreads; it is a hard nearest-mean assignment, not a posterior.
    """
    points = _as_matrix("samples", samples)
    if points.shape[1] != gmm.dimension:
        raise DomainError(
            f"samples have d={points.shape[1]}, mixture has d={gmm.dimension}"
        )
    diff = points[:, None, :] - gmm.means[None, :, :]
    nearest = np.argmin(np.sum(diff * diff, axis=2), axis=1)
    counts = np.bincount(nearest, minlength=gmm.n_components)
    return counts / points.shape[0]


# ---------------------------------------------------------------------------
# Path length (transport cost) of a velocity field
# ---------------------------------------------------------------------------

DEFAULT_PATH_GRID = np.linspace(1e-3, 1.0 - 1e-3, 101)


def path_length(field: FieldModel, data, n_mc: int = 10_000,
                t_grid: np.ndarray | None = None, seed: int = 0,
                return_se: bool = False):
    """Trapezoidal Monte-Carlo estimate of the transport cost
    ``C(v) = ∫ E‖v(x_t, t)‖² dt`` of a velocity field.

    ``x_t`` is formed directly from data draws and fresh Gaussian noise
    through the interpolation map (no trajectory simulation), with the same
    draws reused at every grid time — so two fields evaluated at the same
    seed are compared with common random numbers.  With ``return_se=True``
    also returns the standard error of the per-sample path integrals.
    The default grid spans [1e-3, 1-1e-3], inside every schedule's regular
    region; a grid touching a refused time raises ``SingularityError``.
    """
    if field.prediction is not Prediction.VELOCITY:
        raise ConfigError("path_length requires a velocity-prediction field")
    dataset = as_dataset(data)
    if int(n_mc) <= 0:
        raise ConfigError("n_mc must be positive")
    grid = DEFAULT_PATH_GRID if t_grid is None else np.asarray(t_grid, dtype=np.float64)
    if grid.ndim != 1 or grid.shape[0] < 2 or not np.all(np.diff(grid) > 0):
        raise ConfigError("t_grid must be an increasing 1-D grid of length >= 2")
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    x_star, _ = dataset.resample(rng, int(n_mc))
    eps = rng.standard_normal(x_star.shape)
    schedule = field.schedule
    speeds = np.empty((x_star.shape[0], grid.shape[0]))
    for j, t in enumerate(grid):
        x_t = interpolate(schedule, x_star, eps, float(t))
        v = field.evaluate(x_t, float(t))
        speeds[:, j] = np.sum(v * v, axis=1)
    per_sample = np.trapezoid(speeds, grid, axis=1)
    value = float(np.mean(per_sample))
    if return_se:
        se = float(np.std(per_sample, ddof=1) / math.sqrt(per_sample.shape[0]))
        return value, se
    return value


# ---------------------------------------------------------------------------
# KL bound on SDE sampling error as a functional of the diffusion coefficient
# ---------------------------------------------------------------------------


def _lambda_sigma(schedule: InterpolantSchedule, t) -> np.ndarray:
    """``lambda(t) * sigma(t)``; ``+ 0.0`` turns the -0.0 that t = -0.0 gives
    on linear and gvp into +0.0, so that t = -0.0 and t = 0.0 agree."""
    coef = schedule.coefficients(t)
    return coef.lambda_weight * coef.sigma + 0.0


def _eta(eta) -> float:
    """The cost weight eta as a float; a negative or NaN weight is refused."""
    if not (float(eta) >= 0.0):
        raise DomainError("eta must be nonnegative")
    return float(eta)


def kl_integrand(w_value, loss_value, t, schedule: InterpolantSchedule):
    """Pointwise KL-bound integrand ``(L/w) (1 + w / (2 lambda sigma))²``.

    Infinite at ``w = 0`` (and wherever the schedule refuses ``t``); as a
    function of w it is minimized at ``w = 2 lambda sigma`` — the same
    coefficient the `kl` diffusion preset evaluates — with minimum value
    ``2 L / (lambda sigma)``.
    """
    w = np.asarray(w_value, dtype=np.float64)
    loss = np.asarray(loss_value, dtype=np.float64)
    if np.any(w < 0.0) or np.any(loss < 0.0):
        raise DomainError("w and loss values must be nonnegative")
    a = _lambda_sigma(schedule, t)
    with np.errstate(divide="ignore"):
        value = np.where(w > 0.0,
                         (loss / np.where(w > 0.0, w, 1.0))
                         * (1.0 + w / (2.0 * a)) ** 2,
                         np.inf)
    return _match_shape(value, w_value, loss_value, t)


def kl_cost_integrand(w_value, loss_value, t, schedule: InterpolantSchedule,
                      eta: float):
    """Cost-augmented integrand ``2 [(L/w)(1 + w/(2 lambda sigma))² + eta w]``.

    The leading 2 normalizes the pointwise minimum to the closed form
    returned by :func:`kl_cost_minimum`; the minimizing w is unaffected and
    equals :func:`kl_cost_minimizer`.  Its ``eta`` is twice the ``eta`` of
    :func:`kl_bound` and of the ``kl-eta:<eta>`` coefficient.
    """
    eta = _eta(eta)
    base = kl_integrand(w_value, loss_value, t, schedule)
    w = np.asarray(w_value, dtype=np.float64)
    return _match_shape(2.0 * (base + eta * w), w_value, loss_value, t)


def kl_cost_minimizer(loss_value, t, schedule: InterpolantSchedule, eta: float):
    """The w minimizing the cost-augmented integrand:
    ``2 lambda sigma sqrt(L / (L + 4 eta lambda² sigma²))``.

    Reduces to ``2 lambda sigma`` (the `kl` coefficient) at ``eta = 0``.
    Its ``eta`` is twice that of :func:`kl_bound`: ``kl-eta:<eta>`` is this
    minimizer at ``2 eta``.
    """
    eta = _eta(eta)
    loss = np.asarray(loss_value, dtype=np.float64)
    a = _lambda_sigma(schedule, t)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(loss > 0.0,
                         np.sqrt(loss / (loss + 4.0 * eta * a * a)), 0.0)
    return _match_shape(2.0 * a * ratio, loss_value, t)


def kl_cost_minimum(loss_value, t, schedule: InterpolantSchedule, eta: float):
    """Closed-form minimum of the cost-augmented integrand:
    ``(2 L / (lambda sigma)) (1 + sqrt((L + 4 eta lambda² sigma²) / L))``.

    Its ``eta`` is twice that of :func:`kl_bound` and ``kl-eta:<eta>``."""
    eta = _eta(eta)
    loss = np.asarray(loss_value, dtype=np.float64)
    a = _lambda_sigma(schedule, t)
    # A subnormal t gives a subnormal a, and 2 L / a overflows to inf.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        root = np.where(loss > 0.0,
                        np.sqrt((loss + 4.0 * eta * a * a)
                                / np.where(loss > 0.0, loss, 1.0)), 1.0)
        value = np.where(loss > 0.0, (2.0 * loss / a) * (1.0 + root), 0.0)
    return _match_shape(value, loss_value, t)


def kl_bound(profile, schedule: InterpolantSchedule,
             diffusion: DiffusionCoefficient, eta: float | None = None,
             window: tuple[float, float] | None = None,
             grid_points: int = 513) -> float:
    """Trapezoidal KL bound ``½ ∫ (L/w)(1 + w/(2 lambda sigma))² dt`` over the
    window, plus ``eta ∫ w dt`` when ``eta`` is given.

    ``profile`` is any callable L(t) (typically a trained model's loss
    profile).  The window defaults to the profile's own estimation window
    when it has one; callers integrating for a sampler should pass that
    sampler's clipped window, since the bound describes what is actually
    integrated.  Returns ``inf`` when the integrand is singular anywhere on
    the window (e.g. ``w = 0``, or the window edge touches a refused time).
    """
    if window is None:
        if hasattr(profile, "window"):
            lo, hi = profile.window
        else:
            raise ConfigError("window is required when the profile has none")
    else:
        lo, hi = float(window[0]), float(window[1])
    if not (0.0 <= lo < hi <= 1.0):
        raise ConfigError(f"window [{lo}, {hi}] must satisfy 0 <= lo < hi <= 1")
    if int(grid_points) < 2:
        raise ConfigError("grid_points must be at least 2")
    grid = np.linspace(lo, hi, int(grid_points))
    loss = np.asarray(profile(grid), dtype=np.float64)
    try:
        w = np.asarray(diffusion(grid), dtype=np.float64)
        integrand = kl_integrand(w, loss, grid, schedule)
    except SingularityError:
        return float(np.inf)
    if not np.all(np.isfinite(integrand)):
        return float(np.inf)
    value = 0.5 * float(np.trapezoid(integrand, grid))
    if eta is not None:
        value += _eta(eta) * float(np.trapezoid(w, grid))
    return value


# ---------------------------------------------------------------------------
# Report container
# ---------------------------------------------------------------------------


@dataclass
class MetricReport:
    """Ordered flat key/value report.

    Values may be scalars, vectors, or strings.  ``to_text`` renders one
    metric per line (``name value [value ...]``, shortest-round-trip float
    formatting); ``to_json`` renders the same keys as a JSON object.  Both
    renderings are byte-deterministic for equal contents.
    """

    entries: dict = dataclass_field(default_factory=dict)

    #: Standing caveat included in every report.
    NOTE = "desk-scale surrogate metrics (energy distance, KS, occupancy); not FID"

    def set(self, name: str, value) -> None:
        if not name or any(ch.isspace() for ch in name):
            raise ConfigError(f"metric name must be non-blank without spaces: {name!r}")
        self.entries[name] = value

    @staticmethod
    def _plain(value):
        """The JSON value of an entry: a str, bool, int, float or list of floats."""
        if isinstance(value, str):
            return value
        if isinstance(value, (bool, np.bool_)):
            return bool(value)
        if isinstance(value, (int, np.integer)):
            return int(value)
        if isinstance(value, (float, np.floating)):
            return float(value)
        return [float(v) for v in np.asarray(value).ravel()]

    def to_text(self) -> str:
        lines = [f"note {self.NOTE}"]
        for name, value in self.entries.items():
            value = self._plain(value)
            text = (" ".join(map(repr, value)) if isinstance(value, list)
                    else json.dumps(value) if isinstance(value, bool) else str(value))
            lines.append(f"{name} {text}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {"note": self.NOTE}
        payload.update((name, self._plain(value)) for name, value in self.entries.items())
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
