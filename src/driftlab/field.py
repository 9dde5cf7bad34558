"""Velocity/score fields: exact Gaussian-mixture oracles, parameterization
conversion, and classifier-free guidance.

Every generative quantity in this package is an expectation over the
interpolant state ``x_t = alpha(t)*x_star + sigma(t)*eps``:

* the **velocity** field ``v(x, t) = E[alpha_dot*x_star + sigma_dot*eps | x_t = x]``
  (drift of the deterministic probability-flow dynamics), and
* the **score** field ``s(x, t) = grad_x log p_t(x) = -E[eps | x_t = x]/sigma(t)``.

For Gaussian-mixture data both are available in closed form, which makes the
mixtures exact oracles for every sampler and loss in the package.  The two
parameterizations are linearly related at each ``(x, t)``:

    v = (alpha_dot/alpha) * x - lambda(t)*sigma(t) * s          (velocity from score)
    s = (alpha*v - alpha_dot*x) / (sigma*(alpha_dot*sigma - alpha*sigma_dot))

The conversions are refused at their singular endpoints (``alpha = 0`` on the
velocity side, ``sigma = 0`` on the score side); samplers clip their time
windows instead of extrapolating.

Mixture posterior computations run in the log domain with max-subtraction so
component responsibilities survive small ``sigma(t)``.  Field evaluation is
read-only after construction and safe for concurrent use.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, SingularityError, UnconditionalModelError, _class_ids,
                     _nonnegative_values, _real)
from .schedule import Coefficients, InterpolantSchedule

__all__ = [
    "Prediction",
    "Conditioning",
    "interpolate",
    "interpolant_derivative",
    "score_from_velocity",
    "velocity_from_score",
    "GaussianMixture",
    "mixture_log_density",
    "gmm_marginal_score",
    "gmm_posterior_means",
    "gmm_marginal_velocity",
    "gmm_class_posterior",
    "gmm_conditional_score",
    "gmm_conditional_velocity",
    "FieldModel",
    "AnalyticMixtureField",
    "guided_field",
]


class Prediction(str, enum.Enum):
    """What a field model outputs at ``(x, t)``."""

    VELOCITY = "velocity"
    SCORE = "score"


def _as_batch(x: np.ndarray) -> tuple[np.ndarray, bool]:
    """Coerce ``x`` to shape (n, d); report whether it arrived as a bare vector."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        return arr[None, :], True
    if arr.ndim == 2:
        return arr, False
    raise DomainError(f"points must have shape (d,) or (n, d), got {arr.shape}")


def _points(x: np.ndarray, t, dimension: int) -> tuple[np.ndarray, bool]:
    """The points/time rule of every field call, exact quantity and schedule
    map: ``x`` as (n, ``dimension``) float64 rows and whether it came as one
    (d,) point, with ``t`` a scalar or (n,)."""
    xx, was_vector = _as_batch(x)
    n = xx.shape[0]
    if xx.shape[1] != dimension:
        raise DomainError(f"points must have shape (n, {dimension}), got {xx.shape}")
    if np.asarray(t).shape not in ((), (n,)):  # np.ndim(t) takes 2 us on a float
        raise DomainError(f"t must be scalar or shape ({n},)")
    return xx, was_vector


def _pair(first: np.ndarray, second: np.ndarray, t) -> tuple[np.ndarray, np.ndarray, bool]:
    """Two batches of one shape under :func:`_points`' rule, as (n, d) rows,
    and whether ``first`` came as one (d,) point."""
    other, _ = _as_batch(second)
    rows, was_vector = _points(first, t, other.shape[1])
    if rows.shape != other.shape:
        raise DomainError(f"shape mismatch: {rows.shape} vs {other.shape}")
    return rows, other, was_vector


def _per_sample(value: float | np.ndarray) -> np.ndarray:
    """Reshape a scalar or (n,)-shaped time quantity for (n, d) broadcasting."""
    arr = np.asarray(value, dtype=np.float64)
    return arr[..., None] if arr.ndim == 1 else arr


def interpolate(schedule: InterpolantSchedule, x_star: np.ndarray,
                eps: np.ndarray, t: float | np.ndarray) -> np.ndarray:
    """The interpolant state ``alpha(t)*x_star + sigma(t)*eps``.

    ``x_star`` and ``eps`` may be single d-vectors or (n, d) batches; ``t``
    may be a scalar or a per-row (n,) array.
    """
    xs, ep, was_vector = _pair(x_star, eps, t)
    out = _interpolant_state(schedule.coefficients(t), xs, ep)
    return out[0] if was_vector else out


def _interpolant_state(coef: Coefficients, xs: np.ndarray,
                       ep: np.ndarray) -> np.ndarray:
    """:func:`interpolate` on (n, d) batches at the times of ``coef``."""
    return _per_sample(coef.alpha) * xs + _per_sample(coef.sigma) * ep


def interpolant_derivative(schedule: InterpolantSchedule, x_star: np.ndarray,
                           eps: np.ndarray, t: float | np.ndarray) -> np.ndarray:
    """Time derivative of the interpolant state,
    ``alpha_dot(t)*x_star + sigma_dot(t)*eps`` — the velocity-loss regression
    target."""
    xs, ep, was_vector = _pair(x_star, eps, t)
    out = _interpolant_velocity(schedule.coefficients(t), xs, ep)
    return out[0] if was_vector else out


def _interpolant_velocity(coef: Coefficients, xs: np.ndarray,
                          ep: np.ndarray) -> np.ndarray:
    """:func:`interpolant_derivative` on (n, d) batches at the times of
    ``coef``."""
    return _per_sample(coef.alpha_dot) * xs + _per_sample(coef.sigma_dot) * ep


def score_from_velocity(schedule: InterpolantSchedule, v_value: np.ndarray,
                        x: np.ndarray, t: float | np.ndarray) -> np.ndarray:
    """Convert a velocity value at ``(x, t)`` into the score value there.

    ``s = (alpha*v - alpha_dot*x) / (sigma*(alpha_dot*sigma - alpha*sigma_dot))``.
    Refused where ``sigma(t) = 0``.
    """
    vv, xx, was_vector = _pair(v_value, x, t)
    out = _score_from_velocity(schedule.coefficients(t), vv, xx)
    return out[0] if was_vector else out


def _score_from_velocity(coef: Coefficients, vv: np.ndarray, xx: np.ndarray) -> np.ndarray:
    """:func:`score_from_velocity` on (n, d) batches at the times of ``coef``."""
    sig = coef.sigma
    if (sig == 0.0).any():
        raise SingularityError(
            "score_from_velocity is singular where sigma(t) = 0; clip the window"
        )
    denom = coef.conversion_denominator
    if (denom == 0.0).any():
        raise SingularityError(
            "score_from_velocity: conversion denominator vanished"
        )
    return (_per_sample(coef.alpha) * vv - _per_sample(coef.alpha_dot) * xx) \
        / _per_sample(sig * denom)


def velocity_from_score(schedule: InterpolantSchedule, s_value: np.ndarray,
                        x: np.ndarray, t: float | np.ndarray) -> np.ndarray:
    """Convert a score value at ``(x, t)`` into the velocity value there.

    ``v = (alpha_dot/alpha)*x - lambda(t)*sigma(t)*s``.  Refused where
    ``alpha(t) = 0`` (and, for sbdm-vp, at ``t = 0`` where lambda is
    singular).
    """
    sv, xx, was_vector = _pair(s_value, x, t)
    out = _velocity_from_score(schedule.coefficients(t), sv, xx)
    return out[0] if was_vector else out


def _velocity_from_score(coef: Coefficients, sv: np.ndarray,
                         xx: np.ndarray) -> np.ndarray:
    """:func:`velocity_from_score` on (n, d) batches at the times of ``coef``."""
    lam_sig = coef.lambda_weight * coef.sigma
    ratio = coef.alpha_dot / coef.alpha
    return _per_sample(ratio) * xx - _per_sample(lam_sig) * sv


# ---------------------------------------------------------------------------
# Gaussian mixtures and their exact fields
# ---------------------------------------------------------------------------


class GaussianMixture:
    """A weighted Gaussian mixture with exact time-t marginals.

    Under a schedule, the interpolant marginal of mixture data is itself a
    mixture: ``p_t = sum_k w_k N(alpha*mu_k, alpha^2*Sigma_k + sigma^2*I)``,
    so density, score, velocity, and component posteriors are all closed-form.

    Parameters
    ----------
    weights:
        (K,) probability vector; must sum to 1 within 1e-12.
    means:
        (K, d) component means.
    covariances:
        ``None`` for identity; a (K,) vector of per-component isotropic
        variances; a (K, d) array of diagonal variances; or a (K, d, d) array
        of full SPD matrices.  When every covariance is diagonal, in any of
        these forms, the time-t fields divide instead of solving.
    """

    def __init__(self, weights, means, covariances=None) -> None:
        w = np.asarray(weights, dtype=np.float64)
        m = np.asarray(means, dtype=np.float64)
        if m.ndim == 1:
            m = m[:, None]
        if w.ndim != 1 or m.ndim != 2 or w.shape[0] != m.shape[0] or m.shape[1] == 0:
            raise DomainError(f"weights (K,) and means (K, d >= 1) required, "
                              f"got {w.shape} / {m.shape}")
        _nonnegative_values(w, "mixture weights")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise DomainError(f"mixture weights must sum to 1, got {w.sum()!r}")
        K, d = m.shape
        if covariances is None:
            c = np.broadcast_to(np.eye(d), (K, d, d)).copy()
        else:
            c = np.asarray(covariances, dtype=np.float64)
            if c.shape == (K,):
                c = c[:, None, None] * np.eye(d)
            elif c.shape == (K, d):
                c = np.einsum("kd,de->kde", c, np.eye(d))
            elif c.shape != (K, d, d):
                raise DomainError(
                    f"covariances must be (K,), (K, d) or (K, d, d), got {c.shape}"
                )
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(c))):
            raise DomainError("mixture means and covariances must be finite")
        try:
            chol = np.linalg.cholesky(c)
        except np.linalg.LinAlgError as exc:
            raise DomainError("covariances must be symmetric positive definite") from exc
        variances = np.diagonal(c, axis1=1, axis2=2).copy()
        self.weights = w
        self.means = m
        self.covariances = c
        self._chol = chol
        # (K, d) variances when every covariance is diagonal, else None; the
        # time-t covariances are then diagonal too (see _mixture_parts).
        self._variances = (variances if np.array_equal(c, variances[:, :, None] * np.eye(d))
                           else None)
        self._log_weights = np.log(w, out=np.full_like(w, -np.inf), where=w > 0)

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def dimension(self) -> int:
        return self.means.shape[1]

    @property
    def cholesky_factors(self) -> np.ndarray:
        """(K, d, d) Cholesky factors of the component covariances."""
        return self._chol

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"GaussianMixture(K={self.n_components}, d={self.dimension})")


#: The kernel takes as many components at a time as keep a block near this
#: many values: small enough to stay in cache and in memory the allocator
#: reuses, large enough that small batches make few numpy calls.
_BLOCK_VALUES = 8192

#: ``log(2 pi)`` as numpy computes it, the constant of every log density.
_LOG_2PI = np.log(2.0 * np.pi)


def _pairwise_sum(rows: np.ndarray) -> np.ndarray:
    """Sum over axis 0 in the order ``np.sum`` adds a contiguous run.

    numpy sums a contiguous run of n values pairwise: fewer than 8 in turn;
    up to 128 in eight interleaved partial sums, combined as
    ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))``, then the rest in
    turn; longer runs as two halves split at a multiple of 8.  The reduction
    starts from +0.  Here each value is a whole row, so a (K, n) array sums
    over K as its (n, K) transpose sums along a row.
    """
    n = rows.shape[0]
    if n < 8:
        total = rows[0] + 0.0
        for row in rows[1:]:
            total += row
        return total
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return _pairwise_sum(rows[:half]) + _pairwise_sum(rows[half:])
    part = rows[:8]
    stop = n - n % 8
    for i in range(8, stop, 8):
        part = part + rows[i:i + 8]
    pairs = part[0::2] + part[1::2]
    quads = pairs[0::2] + pairs[1::2]
    total = quads[0] + quads[1]
    for row in rows[stop:]:
        total += row
    return total + 0.0


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``sum_j a[j] * b[j]`` over axis 0 in the order of numpy's einsum dot.

    ``einsum`` reduces a contiguous axis with a kernel that keeps two float64
    lanes (numpy's x86-64 baseline build): one partial sum of the even terms
    and one of the odd.  While 8 or more terms remain it adds four lane pairs
    per step, the last pair first; then one pair at a time.  It returns
    ``0 + (even + odd)``.  For one or two terms this is the plain sum.
    """
    terms = a * b
    count = terms.shape[0]
    starts = []
    i = 0
    while count - i >= 8:
        starts += [i + 6, i + 4, i + 2, i]
        i += 8
    starts += range(i, count, 2)
    even = odd = None
    for j in starts:
        even = terms[j] if even is None else terms[j] + even
        if j + 1 < count:
            odd = terms[j + 1] if odd is None else terms[j + 1] + odd
    return (even if odd is None else even + odd) + 0.0


def _component_sum(resp: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``sum_k resp[k] * scratch[k]`` for (K, n) weights and (K, d, n) values,
    in the order of ``einsum("nk,nkd->nd")``: a dot over K when d = 1, else
    an accumulation from +0, one component after another (a reduction over
    the outer axis adds its slices in turn).

    Consumes ``scratch``: for d >= 2 the products overwrite it, because a
    (K, d, n) temporary costs more than the sum.  Pass only an array built
    for this sum and read nowhere after it.
    """
    if scratch.shape[1] == 1:
        return _dot(resp, scratch[:, 0])[None]
    np.multiply(resp[:, None], scratch, out=scratch)
    return np.add.reduce(scratch, axis=0, initial=0.0)


def _mixture_parts(gmm: GaussianMixture, schedule: InterpolantSchedule,
                   x: np.ndarray, t, component: int | None = None) -> dict:
    """Shared per-component quantities of the time-t mixture at (n, d) rows x.

    The row axis is last and contiguous: per component k the residuals and
    solved values are (d, n) blocks and the log densities (n,) rows.  This
    returns the solved values ``C_k^{-1}(x - alpha*mu_k)`` with
    ``C_k = alpha^2 Sigma_k + sigma^2 I`` as a (K, d, n) array, the
    responsibilities as (K, n), the log marginal density as (n,), computed
    with log-sum-exp stabilization, and the :class:`Coefficients` at ``t``.
    ``component`` restricts the mixture to that one component with weight 1
    (the class-conditional marginal), so K = 1.  ``x`` and ``t`` come checked
    (:func:`_points`).

    Every sum keeps the order of the earlier (n, K, d) expressions, so the
    bits are theirs: the quadratic form reduces over d as ``einsum`` did
    (:func:`_dot`), and the sums of logs and of exponentials as ``np.sum``
    along a row did (:func:`_pairwise_sum`).  Each row is computed on its
    own, with no product over the row axis, so a row's value does not depend
    on its batch.
    """
    n, d = x.shape
    coef = schedule.coefficients(t)
    a, s = coef.alpha, coef.sigma
    picked = slice(None) if component is None else slice(component, component + 1)
    log_weights = gmm._log_weights if component is None else np.zeros(1)
    means = gmm.means[picked]
    variances = None if gmm._variances is None else gmm._variances[picked]
    covariances = gmm.covariances[picked]
    K = means.shape[0]
    xt = np.ascontiguousarray(x.T)
    solved = np.empty((K, d, n))
    weighted = np.empty((K, n))
    step = max(1, _BLOCK_VALUES // max(1, d * n))  # an empty batch runs one block
    for lo in range(0, K, step):
        ks = slice(lo, lo + step)
        log_comp = _component_block(xt, a, s, means[ks], covariances[ks],
                                    None if variances is None else variances[ks],
                                    out=solved[ks])
        np.add(log_weights[ks, None], log_comp, out=weighted[ks])
    peak = np.maximum.reduce(weighted, axis=0)
    shifted = weighted - peak
    log_density = peak + np.log(_pairwise_sum(np.exp(shifted, out=shifted)))
    # The responsibilities exp(weighted - log_density) take weighted's place.
    np.subtract(weighted, log_density, out=weighted)
    return {
        "coef": coef,
        "solved": solved,
        "log_density": log_density,
        "responsibilities": np.exp(weighted, out=weighted),
    }


def _component_block(xt: np.ndarray, a, s, means: np.ndarray, covariances: np.ndarray,
                     variances: np.ndarray | None, out: np.ndarray) -> np.ndarray:
    """Log densities (G, n) of G time-t components at the (d, n) points
    ``xt``, for a scalar or per-row (n,) alpha and sigma; the solved values
    go to ``out`` (G, d, n).

    With diagonal ``variances`` (every preset) ``C_k`` is diagonal as well:
    the solve is a divide by its d variances (a (d, n) block for a per-row
    t), and the log-determinant a sum of their logs.  Full covariances go
    through ``np.linalg.solve`` and ``slogdet`` per point.
    """
    d = xt.shape[0]
    per_row = a.ndim == 1
    diff = xt - means[:, :, None] * a  # (G, d, n)
    a2, s2 = a * a, s * s
    if variances is not None:
        if per_row:
            var = variances[:, :, None] * a2 + s2  # (G, d, n)
            logdet = _pairwise_sum(np.log(var).swapaxes(0, 1))  # (G, n)
        else:
            var = a2 * variances + s2  # (G, d)
            logdet = np.add.reduce(np.log(var), axis=-1, keepdims=True)
            var = var[:, :, None]
        np.divide(diff, var, out=out)
    else:
        # Covariance of the time-t mixture component: alpha^2 Sigma_k + sigma^2 I.
        if per_row:
            a2, s2 = a2[:, None, None], s2[:, None, None]
        cov = a2 * covariances[:, None] + s2 * np.eye(d)  # (G, 1, d, d) or (G, n, d, d)
        _, logdet = np.linalg.slogdet(cov)
        solved = np.linalg.solve(cov, diff.transpose(0, 2, 1)[..., None])[..., 0]
        out[...] = solved.transpose(0, 2, 1)
    # -0.5 * (d log(2 pi) + logdet + quad), in place on the fresh quad.
    quad = _dot(diff.swapaxes(0, 1), out.swapaxes(0, 1))  # (G, n)
    np.add(d * _LOG_2PI + logdet, quad, out=quad)
    return np.multiply(-0.5, quad, out=quad)


def _rows(values: np.ndarray, was_vector: bool = False) -> np.ndarray:
    """A kernel result with the row axis last, back in the (n, ...) layout."""
    out = np.ascontiguousarray(values.T)
    return out[0] if was_vector else out


def mixture_log_density(gmm: GaussianMixture, schedule: InterpolantSchedule,
                        x: np.ndarray, t) -> float | np.ndarray:
    """Exact ``log p_t(x)`` of the time-t mixture marginal."""
    xx, was_vector = _points(x, t, gmm.dimension)
    out = _mixture_parts(gmm, schedule, xx, t)["log_density"]
    return float(out[0]) if was_vector else out


def gmm_marginal_score(gmm: GaussianMixture, schedule: InterpolantSchedule,
                       x: np.ndarray, t) -> np.ndarray:
    """Exact score ``grad_x log p_t(x)`` of the time-t mixture marginal.

    Defined for every ``t`` in [0, 1]: the time-t component covariances
    ``alpha^2 Sigma_k + sigma^2 I`` stay positive definite on the whole
    interval.
    """
    return AnalyticMixtureField(gmm, schedule, Prediction.SCORE).evaluate(x, t)


def _score(parts: dict) -> np.ndarray:
    """The (n, d) score ``-sum_k p_t(k|x) C_k^{-1}(x - alpha*mu_k)`` from
    mixture parts.

    Consumes ``parts["solved"]`` (the sum overwrites it) and takes it out of
    ``parts``, so that no later read sees the overwritten values.
    """
    score = -_component_sum(parts["responsibilities"], parts.pop("solved"))
    return _rows(score)


def gmm_posterior_means(gmm: GaussianMixture, schedule: InterpolantSchedule,
                        x: np.ndarray, t) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means ``E[x_star | x_t = x]`` and ``E[eps | x_t = x]``.

    These satisfy the consistency identity
    ``alpha*E[x_star|x] + sigma*E[eps|x] = x`` exactly, and give the velocity
    as ``alpha_dot*E[x_star|x] + sigma_dot*E[eps|x]``.
    """
    xx, was_vector = _points(x, t, gmm.dimension)
    parts = _mixture_parts(gmm, schedule, xx, t)
    solved, coef = parts["solved"], parts["coef"]
    # Per-component posterior means, then responsibility-weighted combination.
    post_x = np.empty_like(solved)
    for i in range(gmm.dimension):
        cov_row = gmm.covariances[:, i, :].T[:, :, None]  # (d, K, 1)
        post_x[:, i] = (gmm.means[:, i, None]
                        + coef.alpha * _dot(cov_row, solved.swapaxes(0, 1)))
    post_e = coef.sigma * solved
    resp = parts["responsibilities"]
    return (_rows(_component_sum(resp, post_x), was_vector),
            _rows(_component_sum(resp, post_e), was_vector))


def gmm_marginal_velocity(gmm: GaussianMixture, schedule: InterpolantSchedule,
                          x: np.ndarray, t) -> np.ndarray:
    """Exact velocity of the time-t mixture marginal.

    ``velocity_from_score`` of :func:`gmm_marginal_score`, through the one
    path of :class:`AnalyticMixtureField`, so the two oracles' mutual
    consistency is structural.  Inherits the conversion's singularity at
    ``alpha(t) = 0``.
    """
    return AnalyticMixtureField(gmm, schedule).evaluate(x, t)


def gmm_class_posterior(gmm: GaussianMixture, schedule: InterpolantSchedule,
                        x: np.ndarray, t) -> np.ndarray:
    """Component responsibilities ``p_t(k | x)`` of the time-t mixture, (n, K)."""
    xx, was_vector = _points(x, t, gmm.dimension)
    return _rows(_mixture_parts(gmm, schedule, xx, t)["responsibilities"], was_vector)


def gmm_conditional_score(gmm: GaussianMixture, schedule: InterpolantSchedule,
                          x: np.ndarray, t, component: int) -> np.ndarray:
    """Exact score of a single component's time-t marginal (class = component)."""
    model = AnalyticMixtureField(gmm, schedule, Prediction.SCORE, conditional=True)
    return model.evaluate(x, t, _real_class(model.conditioning, component))


def gmm_conditional_velocity(gmm: GaussianMixture, schedule: InterpolantSchedule,
                             x: np.ndarray, t, component: int) -> np.ndarray:
    """Exact velocity of a single component's time-t marginal."""
    model = AnalyticMixtureField(gmm, schedule, Prediction.VELOCITY, conditional=True)
    return model.evaluate(x, t, _real_class(model.conditioning, component))


# ---------------------------------------------------------------------------
# Field models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Conditioning:
    """Label-space descriptor for conditional models.

    ``num_classes`` real classes with ids ``0 .. num_classes-1``; the null
    (unconditional) token is the extra id ``null_id == num_classes``.
    """

    num_classes: int

    @property
    def null_id(self) -> int:
        return self.num_classes

    def validate(self, y: int | np.ndarray) -> np.ndarray:
        arr = np.asarray(y)
        if arr.dtype.kind in "biuf" and ((arr < 0).any() or (arr > self.null_id).any()):
            raise DomainError(
                f"label out of range: valid ids are 0..{self.num_classes - 1} "
                f"plus the null token {self.null_id}"
            )
        return _class_ids(arr)


def _real_class(conditioning: Conditioning, y) -> np.ndarray:
    """``y`` as real class ids: :meth:`Conditioning.validate`, refusing the null token."""
    if y is None:
        raise DomainError("a real class label is required")
    labels = conditioning.validate(y)
    if (labels == conditioning.null_id).any():
        raise DomainError(f"the null token {conditioning.null_id} is not a real class")
    return labels


class FieldModel:
    """A velocity or score field evaluatable at ``(x, t)`` with optional labels.

    Attributes
    ----------
    prediction:
        Which field the model outputs (:class:`Prediction`).
    schedule:
        The interpolant schedule the field lives on.
    dimension:
        The data dimension d: points are (d,) vectors or (n, d) batches.
    conditioning:
        :class:`Conditioning` for conditional models, else ``None``.

    Evaluation is read-only after construction; concurrent use is part of the
    contract.
    """

    prediction: Prediction
    schedule: InterpolantSchedule
    dimension: int
    conditioning: Conditioning | None = None

    def evaluate(self, x: np.ndarray, t, y=None) -> np.ndarray:
        """Field value at ``(x, t)``; same shape as ``x``.

        ``y`` is ``None`` (unconditional / null token), a single class id
        applied to the whole batch, or a per-row integer array.  Conditional
        models accept every class id plus the null token.
        """
        raise NotImplementedError

    def _inputs(self, x: np.ndarray, t, y):
        """The one check of a field call: ``(rows, was_vector, t, labels)``.

        ``rows`` is ``x`` as (n, d) float64, ``was_vector`` whether it came
        as one (d,) point, ``t`` as given (a scalar or (n,)), and ``labels``
        ``None`` (no label, or the null token), one class id, or (n,) ids.
        """
        xx, was_vector = _points(x, t, self.dimension)
        if y is None:
            return xx, was_vector, t, None
        if self.conditioning is None:
            raise UnconditionalModelError("labels were passed to an unconditional model")
        labels = self.conditioning.validate(y)
        if labels.ndim == 0:
            k = int(labels)
            return xx, was_vector, t, None if k == self.conditioning.null_id else k
        if labels.shape != (xx.shape[0],):
            raise DomainError(f"labels must be scalar or shape ({xx.shape[0]},)")
        return xx, was_vector, t, labels


class AnalyticMixtureField(FieldModel):
    """Exact mixture oracle exposed through the :class:`FieldModel` interface.

    With ``conditional=True`` the mixture components double as classes
    (class = component), so conditional ground truth — and therefore guided
    ground truth — is exact.
    """

    def __init__(self, gmm: GaussianMixture, schedule: InterpolantSchedule,
                 prediction: Prediction = Prediction.VELOCITY,
                 conditional: bool = False) -> None:
        self.gmm = gmm
        self.dimension = gmm.dimension
        self.schedule = schedule
        self.prediction = Prediction(prediction)
        self.conditioning = Conditioning(gmm.n_components) if conditional else None

    def _single(self, x: np.ndarray, t, component: int | None) -> np.ndarray:
        parts = _mixture_parts(self.gmm, self.schedule, x, t, component)
        score = _score(parts)
        if self.prediction is Prediction.SCORE:
            return score
        return _velocity_from_score(parts["coef"], score, x)

    def evaluate(self, x: np.ndarray, t, y=None) -> np.ndarray:
        xx, was_vector, t, labels = self._inputs(x, t, y)
        if not isinstance(labels, np.ndarray):  # None or one class id
            out = self._single(xx, t, labels)
        else:
            out = np.empty_like(xx)
            t_arr = np.asarray(t, dtype=np.float64)
            for k in np.unique(labels):
                mask = labels == k
                t_sel = t_arr[mask] if t_arr.ndim == 1 else t_arr
                out[mask] = self._single(
                    xx[mask], t_sel,
                    None if int(k) == self.conditioning.null_id else int(k),
                )
        return out[0] if was_vector else out


def guided_field(model: FieldModel, zeta: float, x: np.ndarray, t,
                 y) -> np.ndarray:
    """Classifier-free-guided field value
    ``zeta * f(x, t, y) + (1 - zeta) * f(x, t, null)``.

    Applies uniformly to velocity and score models (the conversion between
    the two is linear in the field value, so mixing commutes with it).
    ``zeta = 1`` returns the conditional evaluation itself and ``zeta = 0``
    the unconditional one — each a single model call, bitwise identical to
    calling the model directly.  A sampler checks its run's label once and
    calls :func:`_guided` at each step.

    At each time ``t`` the guided score is the score of the tempered density
    proportional to ``p_t(x) * p_t(y|x)**zeta``.  Guided *sampling* does not
    draw from that density at ``t = 0``: for ``zeta > 1`` it pushes samples
    away from the other classes (Chidambaram et al., arXiv 2409.13074).  On
    ``grid-9`` at ``zeta = 4`` the samples' mean sits about (-0.54, -0.54)
    from the class-0 mean, with mean squared distance 0.63, at 100 and at 400
    Heun steps alike; the tempered density at ``t = 0`` has offset 0 and 0.18.
    """
    if model.conditioning is None:
        raise UnconditionalModelError("guided evaluation requires a class-conditional model")
    zeta = _real("zeta", zeta, 0.0, error=DomainError)
    return _guided(model, zeta, x, t, _real_class(model.conditioning, y))


def _guided(model: FieldModel, zeta: float, x: np.ndarray, t, labels: np.ndarray) -> np.ndarray:
    """:func:`guided_field` at a checked ``zeta`` and :func:`_real_class` ``labels``."""
    if zeta == 1.0:
        return model.evaluate(x, t, labels)
    if zeta == 0.0:
        return model.evaluate(x, t)
    conditional = model.evaluate(x, t, labels)
    unconditional = model.evaluate(x, t)
    return zeta * conditional + (1.0 - zeta) * unconditional
