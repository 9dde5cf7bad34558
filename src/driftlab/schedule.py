"""Interpolant schedules and tunable diffusion coefficients.

A schedule defines the pair of functions ``alpha(t)`` and ``sigma(t)`` that
blend a data point ``x_star`` with a standard-normal draw ``eps`` into the
interpolant state ``x_t = alpha(t) * x_star + sigma(t) * eps`` on the time
axis ``t = 0`` (data) to ``t = 1`` (noise), together with their time
derivatives, the score-loss weight ``lambda_weight``, and the
KL-bound-minimizing diffusion strength ``w_kl``.

Three schedules are provided:

``linear``
    ``alpha = 1 - t``, ``sigma = t``; straight-line transport.
``gvp``
    ``alpha = cos(pi*t/2)``, ``sigma = sin(pi*t/2)``; constant total variance
    ``alpha^2 + sigma^2 = 1`` on the whole interval.
``sbdm-vp``
    The variance-preserving diffusion schedule ``alpha = exp(-B(t)/2)``,
    ``sigma = sqrt(1 - alpha^2)`` with ``B(t) = integral of beta`` for an
    affine rate ``beta(t) = beta_min + t*(beta_max - beta_min)``.  The
    integral is evaluated in closed form, never by quadrature.  ``sigma_dot``
    is singular at ``t = 0`` and raises :class:`SingularityError` there.

Singular evaluations raise typed errors instead of returning infinities:
samplers are expected to clip their time windows rather than propagate
non-finite values.

All operations are pure functions of their arguments, accept scalar or
ndarray times, and are safe for unrestricted concurrent use.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from operator import attrgetter
from typing import Callable, Mapping

import numpy as np

from .errors import (ConfigError, DomainError, MissingProfileError, SingularityError,
                     _nonnegative_values, _real)

__all__ = [
    "InterpolantSchedule",
    "Coefficients",
    "LinearSchedule",
    "GVPSchedule",
    "SBDMVPSchedule",
    "make_schedule",
    "schedule_from_config",
    "SCHEDULE_NAMES",
    "DiffusionCoefficient",
    "ZeroCoefficient",
    "ConstantCoefficient",
    "SigmaCoefficient",
    "SineSquaredCoefficient",
    "KLCoefficient",
    "KLEtaCoefficient",
    "parse_coefficient",
    "COEFFICIENT_FORMS",
]


def _prepare_time(t: float | np.ndarray) -> np.ndarray:
    """Validate and convert a time argument to a float64 array.

    A scalar (0-d) time is checked as a Python float, which refuses exactly
    what the array checks refuse and costs no numpy reductions.
    """
    arr = np.asarray(t, dtype=np.float64)
    if arr.ndim == 0:
        value = float(arr)
        if not math.isfinite(value):
            raise DomainError(f"time must be finite, got {t!r}")
        if value < 0.0 or value > 1.0:
            raise DomainError(f"time must lie in [0, 1], got {t!r}")
        return arr
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"time must be finite, got {t!r}")
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise DomainError(f"time must lie in [0, 1], got {t!r}")
    return arr


def _match_shape(value: np.ndarray, *inputs) -> float | np.ndarray:
    """Return a python float when every input is a scalar, an ndarray otherwise."""
    for arg in inputs:
        if np.ndim(arg) != 0:
            return value
    return float(value)


class InterpolantSchedule(ABC):
    """Blending functions alpha/sigma, their derivatives, and derived weights.

    Subclasses implement the four raw closed forms (`_alpha`, `_sigma`,
    `_alpha_dot`, `_sigma_dot`) on validated arrays.  Only
    :class:`Coefficients` calls them: the derivative forms take ``alpha(t)``
    and ``sigma(t)`` as `_alpha` and `_sigma` computed them, so that no
    closed form is evaluated twice.  Every public accessor is the quantity of
    the same name of :meth:`coefficients`, as a python float for a scalar
    time and an ndarray otherwise.
    """

    #: CLI / config name of the schedule.
    name: str = ""

    # -- raw closed forms on validated arrays --------------------------------

    @abstractmethod
    def _alpha(self, t: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def _sigma(self, t: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def _alpha_dot(self, t: np.ndarray, alpha: np.ndarray,
                   sigma: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def _sigma_dot(self, t: np.ndarray, alpha: np.ndarray,
                   sigma: np.ndarray) -> np.ndarray: ...

    # -- singular-set detection ----------------------------------------------

    def _alpha_vanishes(self, t: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        """Boolean mask of times where alpha(t) is (analytically) zero, given
        the computed ``alpha`` at ``t``."""
        return alpha == 0.0

    def _refuse(self, mask: np.ndarray, t: np.ndarray, op: str, where: str) -> None:
        if mask.any():
            bad = np.atleast_1d(t)[np.atleast_1d(mask)][0]
            raise SingularityError(
                f"{op} is singular where {where} for the {self.name!r} schedule "
                f"(t = {float(bad)!r}); clip the time window instead"
            )

    # -- public accessors ------------------------------------------------------

    def alpha(self, t: float | np.ndarray) -> float | np.ndarray:
        """Data weight alpha(t); decreasing, alpha(0) = 1."""
        return _match_shape(self.coefficients(t).alpha, t)

    def sigma(self, t: float | np.ndarray) -> float | np.ndarray:
        """Noise weight sigma(t); increasing, sigma(0) = 0."""
        return _match_shape(self.coefficients(t).sigma, t)

    def alpha_dot(self, t: float | np.ndarray) -> float | np.ndarray:
        """Time derivative of alpha."""
        return _match_shape(self.coefficients(t).alpha_dot, t)

    def sigma_dot(self, t: float | np.ndarray) -> float | np.ndarray:
        """Time derivative of sigma (may be singular at an endpoint)."""
        return _match_shape(self.coefficients(t).sigma_dot, t)

    def lambda_weight(self, t: float | np.ndarray) -> float | np.ndarray:
        """Score-loss weight lambda(t) = sigma_dot - alpha_dot * sigma / alpha.

        Singular where ``alpha(t) = 0`` (the data weight has fully decayed).
        """
        return _match_shape(self.coefficients(t).lambda_weight, t)

    def w_kl(self, t: float | np.ndarray) -> float | np.ndarray:
        """KL-bound-minimizing diffusion strength w_kl(t) = 2 * lambda(t) * sigma(t).

        Equivalently ``2*(sigma_dot*sigma - alpha_dot*sigma^2/alpha)``;
        singular where ``alpha(t) = 0``.
        """
        return _match_shape(self.coefficients(t).w_kl, t)

    def conversion_denominator(self, t: float | np.ndarray) -> float | np.ndarray:
        """The score<->velocity conversion denominator alpha_dot*sigma - alpha*sigma_dot.

        Strictly negative on (0, 1) for every provided schedule, so the
        conversion between the two field parameterizations never divides by
        zero on interior times.
        """
        return _match_shape(self.coefficients(t).conversion_denominator, t)

    def coefficients(self, t: float | np.ndarray) -> Coefficients:
        """Validate ``t`` once; the returned :class:`Coefficients` computes
        each quantity when it is read."""
        return Coefficients(self, _prepare_time(t))

    # -- config plumbing -------------------------------------------------------

    def to_config(self) -> dict:
        """JSON-serializable description, inverse of :func:`schedule_from_config`."""
        return {"kind": self.name}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, InterpolantSchedule) and self.to_config() == other.to_config()

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.to_config().items())))


class Coefficients:
    """Every schedule quantity at one validated time array: alpha, sigma,
    their derivatives, lambda, w_kl and the conversion denominator.

    Made by :meth:`InterpolantSchedule.coefficients`, and the only caller of
    the schedule's raw closed forms.  alpha and sigma, which every reader
    reads, are computed when it is made, and their derivatives on first read
    and then kept in a slot; lambda, w_kl and the conversion denominator are
    computed from them on each read, a singular one refused under its own
    name.  A caller thus validates ``t`` once: the mixture field reads alpha
    and sigma alone, so at ``t = 0`` it never starts sbdm-vp's singular
    ``sigma_dot``.  An instance belongs to the call that made it;
    the schedule itself keeps nothing.  Values are float64 arrays of the
    shape of ``t``, or numpy float64 scalars for a 0-d ``t`` (indexed out
    with ``[()]``), so that the arithmetic among them takes numpy's scalar
    path and not the ufunc machinery; the bits are the same.
    """

    __slots__ = ("schedule", "t", "alpha", "sigma", "_alpha_dot", "_sigma_dot")

    def __init__(self, schedule: InterpolantSchedule, t: np.ndarray) -> None:
        self.schedule = schedule
        self.t = t
        self.alpha, self.sigma = schedule._alpha(t)[()], schedule._sigma(t)[()]
        self._alpha_dot = self._sigma_dot = None

    @property
    def alpha_dot(self) -> np.ndarray:
        if self._alpha_dot is None:
            self._alpha_dot = self.schedule._alpha_dot(self.t, self.alpha, self.sigma)[()]
        return self._alpha_dot

    @property
    def sigma_dot(self) -> np.ndarray:
        if self._sigma_dot is None:
            self._sigma_dot = self.schedule._sigma_dot(self.t, self.alpha, self.sigma)[()]
        return self._sigma_dot

    def _lambda(self, op: str) -> np.ndarray:
        """lambda = sigma_dot - alpha_dot * sigma / alpha, refused under the
        name ``op`` where alpha(t) = 0."""
        schedule, t, alpha = self.schedule, self.t, self.alpha
        schedule._refuse(schedule._alpha_vanishes(t, alpha), t, op, "alpha(t) = 0")
        return self.sigma_dot - self.alpha_dot * self.sigma / alpha

    @property
    def lambda_weight(self) -> np.ndarray:
        return self._lambda("lambda_weight")

    @property
    def w_kl(self) -> np.ndarray:
        return 2.0 * self._lambda("w_kl") * self.sigma

    @property
    def conversion_denominator(self) -> np.ndarray:
        return self.alpha_dot * self.sigma - self.alpha * self.sigma_dot


class LinearSchedule(InterpolantSchedule):
    """Straight-line schedule: alpha = 1 - t, sigma = t."""

    name = "linear"

    def _alpha(self, t: np.ndarray) -> np.ndarray:
        return 1.0 - t

    def _sigma(self, t: np.ndarray) -> np.ndarray:
        return np.asarray(t, dtype=np.float64).copy()

    def _alpha_dot(self, t: np.ndarray, alpha: np.ndarray, sigma: np.ndarray) -> np.ndarray:
        return np.full_like(t, -1.0)

    def _sigma_dot(self, t: np.ndarray, alpha: np.ndarray, sigma: np.ndarray) -> np.ndarray:
        return np.ones_like(t)


class GVPSchedule(InterpolantSchedule):
    """Constant-total-variance schedule: alpha = cos(pi*t/2), sigma = sin(pi*t/2)."""

    name = "gvp"

    def _alpha(self, t: np.ndarray) -> np.ndarray:
        return np.cos(0.5 * np.pi * t)

    def _sigma(self, t: np.ndarray) -> np.ndarray:
        return np.sin(0.5 * np.pi * t)

    def _alpha_dot(self, t: np.ndarray, alpha: np.ndarray, sigma: np.ndarray) -> np.ndarray:
        return -0.5 * np.pi * sigma  # -pi/2 * sin(pi*t/2)

    def _sigma_dot(self, t: np.ndarray, alpha: np.ndarray, sigma: np.ndarray) -> np.ndarray:
        return 0.5 * np.pi * alpha  # pi/2 * cos(pi*t/2)

    def _alpha_vanishes(self, t: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        # cos(pi/2) is a subnormal positive float, but alpha(1) = 0 analytically.
        return (t == 1.0) | (alpha == 0.0)


class SBDMVPSchedule(InterpolantSchedule):
    """Variance-preserving diffusion schedule with an affine rate beta(t).

    ``beta(t) = beta_min + t*(beta_max - beta_min)`` with closed-form integral
    ``B(t) = beta_min*t + (beta_max - beta_min)*t^2/2``; then
    ``alpha = exp(-B/2)`` and ``sigma = sqrt(1 - alpha^2)``.  Setting
    ``beta_min == beta_max`` gives a constant rate.  ``alpha`` stays strictly
    positive on all of [0, 1]; ``sigma_dot = beta*alpha^2/(2*sigma)`` is
    singular at ``t = 0``.
    """

    name = "sbdm-vp"

    def __init__(self, beta_min: float = 0.1, beta_max: float = 20.0) -> None:
        self.beta_min = _real("beta_min", beta_min, 0.0, error=DomainError)
        self.beta_max = _real("beta_max", beta_max, 0.0, error=DomainError)
        if self.beta_min == 0.0 and self.beta_max == 0.0:
            raise DomainError("beta must not vanish identically")

    def beta(self, t: float | np.ndarray) -> float | np.ndarray:
        """Instantaneous rate beta(t) = beta_min + t*(beta_max - beta_min)."""
        return _match_shape(self._beta(_prepare_time(t)), t)

    def beta_integral(self, t: float | np.ndarray) -> float | np.ndarray:
        """Closed-form B(t) = beta_min*t + (beta_max - beta_min)*t^2/2."""
        return _match_shape(self._B(_prepare_time(t)), t)

    def _beta(self, t: np.ndarray) -> np.ndarray:
        return self.beta_min + t * (self.beta_max - self.beta_min)

    def _B(self, t: np.ndarray) -> np.ndarray:
        return self.beta_min * t + 0.5 * (self.beta_max - self.beta_min) * t * t

    def _alpha(self, t: np.ndarray) -> np.ndarray:
        return np.exp(-0.5 * self._B(t))

    def _sigma(self, t: np.ndarray) -> np.ndarray:
        # sqrt(1 - alpha^2) = sqrt(1 - exp(-B)); expm1 keeps precision near t = 0.
        return np.sqrt(-np.expm1(-self._B(t)))

    def _alpha_dot(self, t: np.ndarray, alpha: np.ndarray, sigma: np.ndarray) -> np.ndarray:
        return -0.5 * self._beta(t) * alpha

    def _sigma_dot(self, t: np.ndarray, alpha: np.ndarray, sigma: np.ndarray) -> np.ndarray:
        self._refuse(sigma == 0.0, t, "sigma_dot", "sigma(t) = 0")
        return self._beta(t) * alpha * alpha / (2.0 * sigma)

    def to_config(self) -> dict:
        return {"kind": self.name, "beta_min": self.beta_min, "beta_max": self.beta_max}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SBDMVPSchedule(beta_min={self.beta_min!r}, beta_max={self.beta_max!r})"


#: Every schedule class by its config/CLI name; the names are the valid ones.
_SCHEDULES = {cls.name: cls for cls in (LinearSchedule, GVPSchedule, SBDMVPSchedule)}
SCHEDULE_NAMES = tuple(_SCHEDULES)


def make_schedule(kind: str, *, beta_min: float | None = None, beta_max: float | None = None,
                  beta: float | None = None) -> InterpolantSchedule:
    """Build a schedule from its config/CLI name.

    ``beta`` is shorthand for a constant rate (``beta_min = beta_max = beta``)
    and is mutually exclusive with the explicit endpoints.  The beta options
    apply only to ``sbdm-vp``.
    """
    kind = str(kind)
    if beta is not None:
        if beta_min is not None or beta_max is not None:
            raise ConfigError("pass either beta or (beta_min, beta_max), not both")
        beta_min = beta_max = beta
    if kind not in _SCHEDULES:
        raise ConfigError(f"unknown schedule {kind!r}; valid names: {', '.join(SCHEDULE_NAMES)}")
    betas = {key: value for key, value in (("beta_min", beta_min), ("beta_max", beta_max))
             if value is not None}
    if betas and _SCHEDULES[kind] is not SBDMVPSchedule:
        raise ConfigError(f"schedule {kind!r} takes no beta parameters")
    try:
        return _SCHEDULES[kind](**betas)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def _regular_window(schedule: InterpolantSchedule, reads: tuple[str, ...], margins=(1e-5, 1e-5),
                    w: DiffusionCoefficient | None = None) -> tuple[float, float]:
    """[0, 1] with each end moved inward by its margin where ``schedule``
    raises :class:`SingularityError` for a quantity the caller reads there:
    the :class:`Coefficients` attributes named in ``reads``, and ``w(t)``."""
    def refused(t: float) -> bool:
        try:
            attrgetter(*reads)(schedule.coefficients(t))
            if w is not None:
                w(t)
        except SingularityError:
            return True
        return False
    return (margins[0] if refused(0.0) else 0.0, 1.0 - margins[1] if refused(1.0) else 1.0)


def schedule_from_config(config: Mapping) -> InterpolantSchedule:
    """Rebuild a schedule from a :meth:`InterpolantSchedule.to_config` dict."""
    if "kind" not in config:
        raise ConfigError("schedule config requires a 'kind' entry")
    extra = {k: v for k, v in config.items() if k != "kind"}
    allowed = {"beta_min", "beta_max", "beta"}
    unknown = set(extra) - allowed
    if unknown:
        raise ConfigError(f"unknown schedule config keys: {sorted(unknown)}")
    return make_schedule(config["kind"], **extra)


# ---------------------------------------------------------------------------
# Diffusion coefficients
# ---------------------------------------------------------------------------


class DiffusionCoefficient(ABC):
    """A nonnegative diffusion strength w(t) for the stochastic sampler.

    The sampled marginals are invariant to this choice; it only trades
    stochasticity against integration error, so it is a free post-training
    knob.  Implementations must be pure functions of ``t``.
    """

    #: Canonical config/CLI text form of this coefficient.
    spec: str = ""

    @abstractmethod
    def __call__(self, t: float | np.ndarray) -> float | np.ndarray:
        """Evaluate w(t) on the sampler's time window."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.spec!r})"


class ConstantCoefficient(DiffusionCoefficient):
    """w(t) = level for a fixed nonnegative level."""

    def __init__(self, level: float) -> None:
        self.level = _real("constant diffusion level", level, 0.0, error=DomainError)
        self.spec = f"const:{self.level!r}"

    def __call__(self, t: float | np.ndarray) -> float | np.ndarray:
        arr = _prepare_time(t)
        return _match_shape(np.full_like(arr, self.level), t)


class ZeroCoefficient(ConstantCoefficient):
    """w(t) = 0: degenerates the stochastic sampler to a first-order ODE step."""

    def __init__(self) -> None:
        super().__init__(0.0)
        self.spec = "zero"


class SigmaCoefficient(DiffusionCoefficient):
    """w(t) = sigma(t): vanishes at the data end, removing diffusivity there."""

    spec = "sigma"

    def __init__(self, schedule: InterpolantSchedule) -> None:
        self.schedule = schedule

    def __call__(self, t: float | np.ndarray) -> float | np.ndarray:
        return self.schedule.sigma(t)


class SineSquaredCoefficient(DiffusionCoefficient):
    """w(t) = sin^2(pi*t): vanishes at both window ends, schedule-independent."""

    spec = "sin2"

    def __call__(self, t: float | np.ndarray) -> float | np.ndarray:
        arr = _prepare_time(t)
        return _match_shape(np.square(np.sin(np.pi * arr)), t)


class KLCoefficient(DiffusionCoefficient):
    """w(t) = w_kl(t) = 2*lambda(t)*sigma(t), the KL-bound minimizer.

    Singular where alpha(t) = 0 (clip the window).
    """

    spec = "kl"

    def __init__(self, schedule: InterpolantSchedule) -> None:
        self.schedule = schedule

    def __call__(self, t: float | np.ndarray) -> float | np.ndarray:
        return self.schedule.w_kl(t)


class KLEtaCoefficient(DiffusionCoefficient):
    """The integration-cost-regularized variant of :class:`KLCoefficient`.

    ``w(t) = w_kl(t) * sqrt(L(t) / (L(t) + 2*eta*w_kl(t)^2))`` for a per-time
    loss profile ``L`` and cost weight ``eta >= 0``: by construction
    ``metrics.kl_cost_minimizer`` at ``2*eta``.  Shrinks w_kl where the field
    is accurate (small L) or where w_kl itself is large; approaches
    ``sqrt(L/(2*eta))`` as w_kl grows, and is w_kl exactly at ``eta = 0``.
    """

    def __init__(self, schedule: InterpolantSchedule,
                 loss_profile: Callable[[np.ndarray], np.ndarray],
                 eta: float) -> None:
        self.eta = _real("eta", eta, 0.0, error=DomainError)
        if loss_profile is None:
            raise MissingProfileError(
                "kl-eta requires a per-time loss profile (L_t); "
                "train a model and pass its profile file"
            )
        self.schedule = schedule
        self.loss_profile = loss_profile
        self.spec = f"kl-eta:{self.eta!r}"

    def __call__(self, t: float | np.ndarray) -> float | np.ndarray:
        coef = self.schedule.coefficients(t)
        return _match_shape(_regularized_w(coef, self.loss_profile(coef.t), self.eta), t)


def _regularized_w(coef: Coefficients, loss, eta: float) -> np.ndarray:
    """The w of :class:`KLEtaCoefficient` at loss values ``L`` and a checked
    ``eta``; 0 where sigma(t) = 0, L = 0 or 1/w_kl overflows (as at t = 5e-324)."""
    loss = _nonnegative_values(loss, "loss profile values")
    if eta == 0.0:
        return coef.w_kl * np.ones_like(loss)  # the product by 1.0 keeps every bit
    sig = coef.sigma
    # alpha*sigma_dot - alpha_dot*sigma, positive on the interior.
    pos = -coef.conversion_denominator
    # Through 1/w_kl, which stays finite as alpha -> 0, so the value reaches
    # its sqrt(L/(2*eta)) limit there instead of inheriting w_kl's divergence.
    with np.errstate(over="ignore", invalid="ignore"):
        inv_w_kl = coef.alpha / (2.0 * np.where(sig > 0.0, sig, 1.0) * pos)
        denominator = loss * inv_w_kl * inv_w_kl + 2.0 * eta
        value = np.sqrt(loss / denominator)
        # As w_kl -> 0, L/denominator loses bits, then underflows: divide roots.
        huge = denominator > 2.0 ** 1000
        if huge.any():
            root = np.sqrt(loss)
            value = np.where(huge, root / np.hypot(root * inv_w_kl, math.sqrt(2 * eta)), value)
    return np.where((sig > 0.0) & (loss > 0.0), value, 0.0)


#: Human-readable summary of the accepted coefficient spellings.
COEFFICIENT_FORMS = "zero | const:<v> | sigma | sin2 | kl | kl-eta:<eta>"


def parse_coefficient(text: str, schedule: InterpolantSchedule,
                      loss_profile: Callable[[np.ndarray], np.ndarray] | None = None,
                      ) -> DiffusionCoefficient:
    """Parse a diffusion-coefficient spec string (see :data:`COEFFICIENT_FORMS`).

    ``kl-eta:<eta>`` needs ``loss_profile``; omitting it raises
    :class:`MissingProfileError`.
    """
    text = str(text).strip()
    if text == "zero":
        return ZeroCoefficient()
    if text == "sigma":
        return SigmaCoefficient(schedule)
    if text == "sin2":
        return SineSquaredCoefficient()
    if text == "kl":
        return KLCoefficient(schedule)
    prefix, colon, number = text.partition(":")
    if colon and prefix in ("const", "kl-eta"):
        try:
            value = float(number)
        except ValueError as exc:
            raise ConfigError(f"bad {prefix} value in {text!r}") from exc
        try:
            if prefix == "const":
                return ConstantCoefficient(value)
            return KLEtaCoefficient(schedule, loss_profile, value)
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc
    raise ConfigError(
        f"unknown diffusion coefficient {text!r}; valid forms: {COEFFICIENT_FORMS}"
    )
