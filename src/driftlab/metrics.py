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

from .errors import (ConfigError, DomainError, SingularityError, _count, _nonnegative_values,
                     _real, _rng, _window)
from .field import FieldModel, GaussianMixture, Prediction, interpolate
from .schedule import DiffusionCoefficient, InterpolantSchedule, _match_shape, _regularized_w
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


#: Distances in one block of :func:`_mean_cross_distance`: its (rows, m)
#: block and the spare array beside it take 512 KiB each.
_DISTANCE_BUDGET = 2**16
#: Element budget of one block of permutation splits (pooled points × splits).
_SPLIT_BUDGET = 2**22
#: Pooled points per row block when a block of splits is scored in 2-D and up.
_SPLIT_ROWS = 32
#: Element budget of one block of 1-D splits (splits × pooled points): each
#: of the block's few arrays stays at 128 KiB.  At 2**16 the test raised the
#: peak RSS of a train/sample/eval run at 4,096 pooled points by about 1 MB.
_COUNT_BUDGET = 2**14


def _distance_blocks(a: np.ndarray, b: np.ndarray, rows: int):
    """Yield ``(lo, block, spare)`` for each run of ``rows`` rows of ``a``:
    ``block[i, j] = |a[lo + i] - b[j]|`` and a free array of its shape.  The
    squared differences are summed axis by axis, so no (rows, m, d) array is
    built, and every block is written into the same two arrays."""
    n, d = a.shape
    rows = max(1, min(rows, n))
    out, work = np.empty((rows, b.shape[0])), np.empty((rows, b.shape[0]))
    for lo in range(0, n, rows):
        block, spare, part = out[:n - lo], work[:n - lo], a[lo:lo + rows]
        np.subtract(part[:, :1], b[:, 0], out=block)
        np.square(block, out=block)
        for axis in range(1, d):
            np.subtract(part[:, axis:axis + 1], b[:, axis], out=spare)
            block += np.square(spare, out=spare)
        yield lo, np.sqrt(block, out=block), spare


def _mean_cross_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Mean pairwise Euclidean distance."""
    total = 0.0
    for _, block, _ in _distance_blocks(a, b, _DISTANCE_BUDGET // b.shape[0]):
        total += float(block.sum())
    return total / (a.shape[0] * b.shape[0])


def _add_rows(running: np.ndarray, rows: np.ndarray) -> None:
    """``running`` plus the rows of ``rows``, added one row at a time.  Carried
    from block to block, this is one sum down all the rows in order, whatever
    the block size.  ``rows[0]`` is overwritten."""
    rows[0] += running
    np.add.reduce(rows, axis=0, out=running)


def _split_statistics(pooled: np.ndarray, n: int, orders) -> np.ndarray:
    """Energy distance of every split ``pooled[order[:n]]`` against the rest.

    With z the 0/1 indicator of a split's first set, D the pooled distance
    matrix, r its row sums and T their total, the pair sums are
    ``S_AA = zᵀDz``, ``S_AB = zᵀr - S_AA`` and ``S_BB = T - 2 zᵀr + S_AA``,
    so one pass over row blocks of D scores all splits at once.  The row
    blocks (``_SPLIT_ROWS`` rows of :func:`_distance_blocks`) go through
    arrays allocated once per call, and every sum over rows runs in one
    sequence from the first row, so the statistics do not depend on the
    block size.

    A BLAS product sums in an order that depends on its thread count, so D
    enters ``D @ Z`` as two slices on power-of-two grids, each coarse enough
    that any sum of ``len(pooled)`` of its entries is exact in any order
    (error-free splitting after Ozaki et al.).  What the slices leave out is
    below ``diameter · len(pooled)² · 2^-103`` per distance.
    """
    orders = np.asarray(orders)
    size, width = pooled.shape[0], orders.shape[0]
    m = size - n
    # At least two columns: numpy sums a single column pairwise, not row by row.
    split = np.zeros((size, max(width, 2)))
    split[orders[:, :n], np.arange(width)[:, None]] = 1.0
    # Every distance is below 2^top and size < 2^bits.  A sum of `size`
    # entries of the coarse slice (each at most 2^top) or of the fine slice
    # (each at most coarse / 2) stays below 2^52 steps of its grid, so every
    # partial sum is exact.
    diameter = float(np.sqrt(np.sum(np.square(np.ptp(pooled, axis=0)))))
    top, bits = math.frexp(diameter)[1], math.frexp(size)[1]
    coarse = math.ldexp(1.0, top + bits - 52)
    fine = math.ldexp(coarse, bits - 53)
    rows = min(_SPLIT_ROWS, size)
    products, low = np.empty((rows, split.shape[1])), np.empty((rows, split.shape[1]))
    r = np.empty(size)
    z_r = np.zeros(split.shape[1])
    s_aa = np.zeros(split.shape[1])
    for lo, block, coarse_part in _distance_blocks(pooled, pooled, rows):
        k = block.shape[0]
        z = split[lo:lo + k]
        np.sum(block, axis=1, out=r[lo:lo + k])
        _add_rows(z_r, np.multiply(z, r[lo:lo + k, None], out=products[:k]))
        np.divide(block, coarse, out=coarse_part)
        np.rint(coarse_part, out=coarse_part)
        coarse_part *= coarse
        block -= coarse_part
        block /= fine
        np.rint(block, out=block)
        block *= fine
        product = np.matmul(coarse_part, split, out=products[:k])
        product += np.matmul(block, split, out=low[:k])
        _add_rows(s_aa, np.multiply(z, product, out=product))
    total = float(r.sum())
    s_ab = z_r - s_aa
    s_bb = total - 2.0 * z_r + s_aa
    return (2.0 * s_ab / (n * m) - s_aa / (n * n) - s_bb / (m * m))[:width]


def _rank_sums(u: np.ndarray, counts: np.ndarray, total: int) -> np.ndarray:
    """Sum of ``|x_i - x_j|`` over all ordered pairs of a set of ``total``
    values holding ``counts[s, g]`` copies of ``u[g]`` (ascending), per row
    s: ``2 Σ_g u_g c_g (2 C_<g + c_g - total)``, with ``C_<g`` the set's
    values below u_g.  The integer weights are exact in float64."""
    weight = np.cumsum(counts, axis=1, dtype=np.float64)
    weight *= 2.0
    weight -= counts
    weight -= total
    weight *= counts
    weight *= u
    return 2.0 * np.sum(weight, axis=1)


def _value_groups(values: np.ndarray) -> tuple:
    """Sort 1-D ``values`` once: ``(u, group, counts, pool)``, with u the
    distinct values in ascending order, ``u[group[i]] == values[i]``, counts
    the copies of each, and pool the pair sum of :func:`_rank_sums` over all
    of ``values``."""
    u, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    return u, group, counts, _rank_sums(u, counts[None, :], values.shape[0])[0]


def _count_statistics(groups: tuple, n: int, first: np.ndarray) -> np.ndarray:
    """Energy distance of every split of the values of ``groups`` (see
    :func:`_value_groups`) whose first set of n holds ``first[s, g]`` copies
    of ``u[g]``, which it overwrites.  Splits holding equal multisets score
    the same bits; the cross sum follows from the pool's."""
    u, group, counts, pool = groups
    m = group.shape[0] - n
    s_aa = _rank_sums(u, first, n)
    s_bb = _rank_sums(u, np.subtract(counts, first, out=first), m)
    return (pool - s_aa - s_bb) / (n * m) - s_aa / (n * n) - s_bb / (m * m)


def _grouped_split_statistics(groups: tuple, n: int, orders: np.ndarray) -> np.ndarray:
    """Energy distance of every split ``values[order[:n]]`` against the rest,
    scored by :func:`_count_statistics` from the first set's value counts."""
    u, group = groups[:2]
    width = orders.shape[0]
    offsets = np.arange(0, width * len(u), len(u))[:, None]
    first = np.bincount((group[orders[:, :n]] + offsets).ravel(), minlength=width * len(u))
    return _count_statistics(groups, n, first.reshape(width, len(u)))


def _energy(aa: np.ndarray, bb: np.ndarray) -> float:
    """:func:`energy_distance` of a checked pair (see :func:`_sample_pair`)."""
    if aa.shape[1] == 1:
        groups = _value_groups(np.concatenate([aa, bb])[:, 0])
        first = np.bincount(groups[1][:aa.shape[0]], minlength=len(groups[0]))
        return float(_count_statistics(groups, aa.shape[0], first[None, :])[0])
    return (2.0 * _mean_cross_distance(aa, bb)
            - _mean_cross_distance(aa, aa)
            - _mean_cross_distance(bb, bb))


def energy_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Energy distance ``2 E|a-b| - E|a-a'| - E|b-b'|`` between sample sets.

    All three expectations are means over all pairs including the diagonal
    (V-statistic), which makes the value exactly 0 when the multisets are
    identical and nonnegative up to rounding in general.  One-dimensional
    inputs are sorted once and scored from the count of each distinct value
    in a and in b, as the permutation test scores its splits, so a split
    holding a's multiset scores the same bits.  In more dimensions the
    distances are summed in row blocks of at most ``_DISTANCE_BUDGET``
    values (or one row), so memory does not grow with the sample sizes.
    """
    return _energy(*_sample_pair(a, b))


def energy_distance_permutation_test(a: np.ndarray, b: np.ndarray,
                                     n_permutations: int = 200,
                                     seed: int = 0) -> tuple[float, float]:
    """Two-sample permutation test on the energy distance.

    Returns ``(observed statistic, p-value)`` with the add-one rule
    ``p = (1 + #{permuted >= observed}) / (n_permutations + 1)``, so p is
    never exactly 0 and is uniform on its support under the null.
    Splits are drawn a block at a time, by one generator call that gives
    the orders of as many ``rng.permutation`` calls, and each block is scored
    in one pass.  In two or more dimensions the pass goes over the pooled
    distances and equals a per-split :func:`energy_distance` up to rounding.
    One-dimensional inputs are sorted once and each split is scored from its
    count of each distinct value, as :func:`energy_distance` scores the
    unpermuted split, so every split equals its :func:`energy_distance` bit
    for bit and one that holds the same values as ``a`` reaches the observed
    statistic.  The pair is checked once and the observed statistic scored
    once: in one dimension by the scorer's first call, on the unpermuted
    split, and in more by :func:`energy_distance`'s pass.
    """
    aa, bb = _sample_pair(a, b)
    count = _count("n_permutations", n_permutations)
    rng = _rng(seed)
    pooled = np.concatenate([aa, bb], axis=0)
    n, size = aa.shape[0], pooled.shape[0]
    identity = np.arange(size)
    if pooled.shape[1] == 1:
        # The block width bounds the (splits × pooled points) count matrix.
        width, score = max(1, _COUNT_BUDGET // size), _grouped_split_statistics
        data = _value_groups(pooled[:, 0])
        observed = float(score(data, n, identity[None, :])[0])
    else:
        # The block width bounds the (pooled points × splits) split matrix.
        width, score, data = max(1, _SPLIT_BUDGET // size), _split_statistics, pooled
        observed = _energy(aa, bb)
    blocks = np.empty((min(width, count), size), dtype=identity.dtype)
    exceed = 0
    for lo in range(0, count, width):
        orders = blocks[:min(width, count - lo)]
        orders[...] = identity
        rng.permuted(orders, axis=1, out=orders)
        exceed += int(np.count_nonzero(score(data, n, orders) >= observed))
    p_value = (1.0 + exceed) / (count + 1.0)
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
    n_mc = _count("n_mc", n_mc)
    grid = DEFAULT_PATH_GRID if t_grid is None else np.asarray(t_grid, dtype=np.float64)
    if grid.ndim != 1 or grid.shape[0] < 2 or not np.all(np.diff(grid) > 0):
        raise ConfigError("t_grid must be an increasing 1-D grid of length >= 2")
    rng = _rng(seed)
    x_star, _ = dataset.resample(rng, n_mc)
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


def _w_kl(schedule: InterpolantSchedule, t) -> np.ndarray:
    """``2.0 * (lambda * sigma + 0.0)``: ``(2 lambda) * sigma`` rounds otherwise
    where lambda*sigma is subnormal, and + 0.0 makes t = -0.0 give +0.0."""
    coef = schedule.coefficients(t)
    return 2.0 * (coef.lambda_weight * coef.sigma + 0.0)


def kl_integrand(w_value, loss_value, t, schedule: InterpolantSchedule):
    """Pointwise KL-bound integrand ``(L/w) (1 + w / (2 lambda sigma))²``.

    Infinite at ``w = 0`` (and wherever the schedule refuses ``t``); as a
    function of w it is minimized at ``w = 2 lambda sigma`` — the same
    coefficient the `kl` diffusion preset evaluates — with minimum value
    ``2 L / (lambda sigma)``.
    """
    w = _nonnegative_values(w_value, "w values")
    loss = _nonnegative_values(loss_value, "loss profile values")
    w_kl = _w_kl(schedule, t)
    with np.errstate(divide="ignore"):
        value = np.where(w > 0.0,
                         (loss / np.where(w > 0.0, w, 1.0)) * (1.0 + w / w_kl) ** 2,
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
    eta = _real("eta", eta, 0.0, error=DomainError)
    w = _nonnegative_values(w_value, "w values")
    base = kl_integrand(w, loss_value, t, schedule)
    return _match_shape(2.0 * (base + eta * w), w_value, loss_value, t)


def kl_cost_minimizer(loss_value, t, schedule: InterpolantSchedule, eta: float):
    """The w minimizing the cost-augmented integrand:
    ``2 lambda sigma sqrt(L / (L + 4 eta lambda² sigma²))``.

    Reduces to ``2 lambda sigma`` (the `kl` coefficient) at ``eta = 0``.
    Its ``eta`` is twice that of :func:`kl_bound`: ``kl-eta:<eta>`` is this
    minimizer at ``2 eta``, and both are one computation.
    """
    eta = _real("eta", eta, 0.0, error=DomainError)
    w = _regularized_w(schedule.coefficients(t), loss_value, 0.5 * eta)
    return _match_shape(w, loss_value, t)


def kl_cost_minimum(loss_value, t, schedule: InterpolantSchedule, eta: float):
    """Closed-form minimum of the cost-augmented integrand:
    ``(2 L / (lambda sigma)) (1 + sqrt((L + 4 eta lambda² sigma²) / L))``.

    Its ``eta`` is twice that of :func:`kl_bound` and ``kl-eta:<eta>``."""
    eta = _real("eta", eta, 0.0, error=DomainError)
    loss = _nonnegative_values(loss_value, "loss profile values")
    a = 0.5 * _w_kl(schedule, t)  # lambda*sigma exactly: w_kl is its double
    # A subnormal t gives a subnormal a, and 2 L / a overflows to inf.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        root = np.sqrt((loss + 4.0 * eta * a * a) / np.where(loss > 0.0, loss, 1.0))
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
    window = getattr(profile, "window", None) if window is None else window
    if window is None:
        raise ConfigError("window is required when the profile has none")
    lo, hi = _window(*window)
    grid_points = _count("grid_points", grid_points, minimum=2)
    if eta is not None:
        eta = _real("eta", eta, 0.0, error=DomainError)
    grid = np.linspace(lo, hi, grid_points)
    loss = _nonnegative_values(profile(grid), "loss profile values")
    try:
        w = _nonnegative_values(diffusion(grid), "w values")
        integrand = kl_integrand(w, loss, grid, schedule)
    except SingularityError:
        return float(np.inf)
    if not np.all(np.isfinite(integrand)):
        return float(np.inf)
    value = 0.5 * float(np.trapezoid(integrand, grid))
    if eta is not None:
        value += eta * float(np.trapezoid(w, grid))
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

    def to_dict(self) -> dict:
        """The JSON object of :meth:`to_json`: the note, then every entry."""
        payload = {"note": self.NOTE}
        payload.update((name, self._plain(value)) for name, value in self.entries.items())
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"
