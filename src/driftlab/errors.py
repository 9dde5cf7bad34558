"""Exception taxonomy shared by every driftlab module.

The CLI maps these onto process exit codes: configuration and usage problems
(:class:`ConfigError` and subclasses) exit with code 2, numerical failures
(:class:`SingularityError`, :class:`NonFiniteError`) exit with code 3.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


class DriftlabError(Exception):
    """Base class for all errors raised by driftlab."""


class ConfigError(DriftlabError):
    """Invalid configuration, flags, or input files (CLI exit code 2)."""


class MissingProfileError(ConfigError):
    """A cost-tuned diffusion coefficient was requested without the per-time
    loss profile it needs."""


class DomainError(DriftlabError, ValueError):
    """An argument lies outside an operation's mathematical domain."""


class SingularityError(DomainError):
    """Evaluation was refused at a time where the requested quantity is
    singular (for example a score/velocity conversion at an interval
    endpoint).  Samplers are expected to clip their time windows instead of
    relying on limits being taken here."""


class UnconditionalModelError(DomainError):
    """Guided evaluation was requested on a model without class conditioning."""


class NonFiniteError(DriftlabError, ArithmeticError):
    """A computation produced NaN or infinity.

    Attributes
    ----------
    step:
        Integrator or optimizer step index at which the blow-up was detected,
        when known.
    t_bin:
        Index of the loss profile's time bin whose estimate blew up, when
        known.
    """

    def __init__(self, message: str, *, step: int | None = None,
                 t_bin: int | None = None) -> None:
        details = []
        if step is not None:
            details.append(f"step={step}")
        if t_bin is not None:
            details.append(f"t_bin={t_bin}")
        if details:
            message = f"{message} ({', '.join(details)})"
        super().__init__(message)
        self.step = step
        self.t_bin = t_bin


def _count(name: str, value, minimum: int = 1, error: type = ConfigError) -> int:
    """``value`` as an int of at least ``minimum``, else ``error`` naming it.
    Integral numbers pass (``7``, ``np.int64(7)``, ``7.0``); a bool (numpy's
    too), string, None, NaN, infinity or fraction is refused, not truncated."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            if int(value) == value >= minimum:
                return int(value)
        except (ValueError, OverflowError):  # NaN and the infinities
            pass
    raise error(f"{name} must be an integer >= {minimum}, got {value!r}")


def _real(name: str, value, lo: float = -math.inf, hi: float = math.inf,
          error: type = ConfigError) -> float:
    """``value`` as a float in ``[lo, hi]``, else ``error`` naming it.  A real
    number passes as ``float(value)`` (``1``, ``np.float64(1.0)``, ``1.0``); a
    bool (numpy's too), string, None, NaN or infinity is refused."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            if math.isfinite(value) and lo <= value <= hi:
                return float(value)
        except OverflowError:  # an int beyond the float range
            pass
    raise error(f"{name} must be a finite number in [{lo!r}, {hi!r}], got {value!r}")


def _window(lo, hi) -> tuple[float, float]:
    """A time window ``(lo, hi)`` as floats, refused unless both bounds pass
    :func:`_real` in [0, 1] and ``lo < hi``."""
    try:
        window = _real("lo", lo, 0.0, 1.0), _real("hi", hi, 0.0, 1.0)
    except ConfigError:
        window = None
    if window is None or not window[0] < window[1]:
        raise ConfigError(f"time window [{lo}, {hi}] must satisfy 0 <= lo < hi <= 1")
    return window


def _nonnegative_values(values, name: str, error: type = DomainError) -> np.ndarray:
    """Loss values or diffusion-coefficient values as a float64 array, refused
    unless real (not bools or strings), finite and ``>= 0``."""
    values = np.asarray(values)
    if values.dtype.kind not in "iuf" or np.any(values < 0.0) or not np.all(np.isfinite(values)):
        raise error(f"{name} must be finite, nonnegative numbers")
    return values.astype(np.float64, copy=False)


def _class_ids(labels) -> np.ndarray:
    """Class labels as integers: bools and whole floats under 2**63 in size
    cast to int64; a string, fraction, NaN, infinity or larger float is refused."""
    arr = np.asarray(labels)
    if arr.dtype.kind not in "iu":
        if arr.dtype.kind not in "bf" or not np.all((abs(arr) < 2.0**63) & (arr == np.floor(arr))):
            raise DomainError("class labels must be whole numbers")
        arr = arr.astype(np.int64)
    return arr


def _rng(seed, *spawn_key: int) -> np.random.Generator:
    """``default_rng(SeedSequence(seed, spawn_key=spawn_key))`` of a seed >= 0."""
    return np.random.default_rng(
        np.random.SeedSequence(_count("seed", seed, minimum=0), spawn_key=spawn_key))
