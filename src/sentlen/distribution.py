"""Distribution comparison: the two-sample Kolmogorov-Smirnov distance
and test, and linear-map-then-KS."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlation import fit_linear_map
from .exceptions import DegenerateInputError


@dataclass(frozen=True)
class KsResult:
    kappa: float
    p_value: float
    #: p_value >= threshold, a Python bool like RankTestResult.rejected
    accepted: bool


def mean_normalize(series) -> np.ndarray:
    arr = np.asarray(series, dtype=float)
    if arr.size == 0:
        raise DegenerateInputError("cannot normalize an empty series")
    if not np.isfinite(arr).all():
        raise ValueError("series must be finite")
    mean = arr.mean()
    if mean == 0:
        raise DegenerateInputError("cannot normalize a zero-mean series")
    return arr / mean


def ks_distance(a, b) -> float:
    """sup_x |C_a(x) - C_b(x)|, with C the right-continuous empirical CDF
    of a sample: C(x) = (# samples <= x) / n.

    Both CDFs are step functions, so the supremum is attained at a
    sample point. Evaluating at the distinct values of each sorted side
    (the last of each run of equal values) is exact, and reads the same
    differences as the whole merged sample, so the result is the same bits.
    """
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise DegenerateInputError("KS distance requires at least one sample per side")
    grid = np.concatenate([a[:-1][a[1:] != a[:-1]], a[-1:],
                           b[:-1][b[1:] != b[:-1]], b[-1:]])
    return float(np.max(np.abs(np.searchsorted(a, grid, side="right") / a.size
                               - np.searchsorted(b, grid, side="right") / b.size)))


def kolmogorov_sf(lam: float) -> float:
    """Asymptotic Kolmogorov survival function
    Q(lam) = 2 * sum_{k>=1} (-1)^(k-1) exp(-2 k^2 lam^2),
    truncated once terms drop below 1e-12."""
    if lam <= 0:
        return 1.0
    total = 0.0
    sign = 1.0
    for k in range(1, 1000):
        term = 2.0 * math.exp(-2.0 * (k * lam) ** 2)
        if term < 1e-12:
            break
        total += sign * term
        sign = -sign
    return min(1.0, max(0.0, total))


def ks_two_sample(a, b, threshold: float = 0.01) -> KsResult:
    """Two-sample KS test with the asymptotic p-value at effective size
    n_e = n_a n_b / (n_a + n_b) and the usual small-sample correction."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("inputs must be finite")
    if a.size < 5 or b.size < 5:
        raise DegenerateInputError(
            f"KS test needs >= 5 samples per side, got {a.size} and {b.size}"
        )
    kappa = ks_distance(a, b)
    n_e = a.size * b.size / (a.size + b.size)
    lam = (math.sqrt(n_e) + 0.12 + 0.11 / math.sqrt(n_e)) * kappa
    p = kolmogorov_sf(lam)
    return KsResult(kappa=kappa, p_value=p, accepted=bool(p >= threshold))


def ks_after_linear_map(x_series, y_series, threshold: float = 0.01) -> KsResult:
    """Fit y = alpha*x + beta by least squares, map x through it, then
    KS-compare the mapped values against y.  No mean normalization: the
    map already aligns location and scale."""
    lm = fit_linear_map(x_series, y_series)
    mapped = lm.alpha * np.asarray(x_series, dtype=float) + lm.beta
    return ks_two_sample(mapped, np.asarray(y_series, dtype=float), threshold)
