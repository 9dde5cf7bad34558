"""Shared oracle helpers for the test suite.

Everything here is deliberately implemented independently of the package
internals (plain finite differences, quadrature, direct Monte Carlo), so a
test comparing package output against these helpers is a genuine two-route
check rather than the code agreeing with itself.
"""

from __future__ import annotations

import tracemalloc

import numpy as np


def central_difference(fn, x: float, h: float = 1e-6) -> float:
    """Two-point central difference of a scalar function of one variable."""
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def gradient_fd(fn, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar field at one point."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty_like(x)
    for j in range(x.shape[0]):
        step = np.zeros_like(x)
        step[j] = h
        grad[j] = (fn(x + step) - fn(x - step)) / (2.0 * h)
    return grad


def relative_error(a, b, floor: float = 1e-8) -> np.ndarray:
    """|a-b| / max(|a|, |b|, floor), elementwise."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.abs(a - b) / denom


def log_slope(xs, ys) -> float:
    """Least-squares slope of log(ys) against log(xs)."""
    lx = np.log(np.asarray(xs, dtype=np.float64))
    ly = np.log(np.asarray(ys, dtype=np.float64))
    lx = lx - lx.mean()
    return float(np.sum(lx * (ly - ly.mean())) / np.sum(lx * lx))


def ks_statistic_uniform(values: np.ndarray) -> float:
    """One-sample Kolmogorov–Smirnov statistic against Uniform(0, 1)."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    n = v.shape[0]
    upper = np.arange(1, n + 1) / n - v
    lower = v - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


def mixture_stats_1d(weights, means, variances) -> tuple[float, float]:
    """(mean, variance) of a 1-D Gaussian mixture, computed directly."""
    weights = np.asarray(weights, dtype=np.float64)
    means = np.asarray(means, dtype=np.float64)
    variances = np.asarray(variances, dtype=np.float64)
    mean = float(np.sum(weights * means))
    second = float(np.sum(weights * (variances + means**2)))
    return mean, second - mean**2


def tracemalloc_peak(fn, *args, **kwargs) -> int:
    """Peak bytes allocated through Python's allocators while
    ``fn(*args, **kwargs)`` runs, above what was allocated before it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def count_calls(monkeypatch, owner, name: str) -> list:
    """Wrap ``owner.<name>`` for the test; each call appends its positional
    arguments to the returned list."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls
