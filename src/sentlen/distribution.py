"""Distribution comparison: the two-sample Kolmogorov-Smirnov distance
and test, and linear-map-then-KS."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlation import fit_linear_map, rank_table
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
    of a sample: C(x) = (# samples <= x) / n; from two samples or their
    tables, of which it reads the sorted rows."""
    return _sup_distance([rank_table(a).sorted, rank_table(b).sorted],
                         [(0, 1)])[0]


def _sup_distance(rows, pairs) -> list[float]:
    """ks_distance of each pair (i, j) of the sorted samples `rows`.

    Both CDFs are step functions, so the supremum is attained at a
    sample point. Evaluating at the distinct values of each sorted row
    (the last of each run of equal values) is exact, and reads the same
    differences as the whole merged sample. Every pair reads one grid,
    the run ends of all the rows: at a point of another row, each CDF of
    the pair holds the value it takes at the pair's own last point below
    it (or 0 below both rows), so the maximum is the same bits.
    """
    ends = []
    for row in rows:
        if row.size == 0:
            raise DegenerateInputError(
                "KS distance requires at least one sample per side")
        ends += (row[:-1][row[1:] != row[:-1]], row[-1:])
    grid = np.concatenate(ends)
    cdf = [np.searchsorted(row, grid, side="right") / row.size
           for row in rows]
    cdf = np.array(cdf)
    diff = cdf[[i for i, _ in pairs]]
    diff -= cdf[[j for _, j in pairs]]
    return np.abs(diff, out=diff).max(axis=1).tolist()


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
    n_e = n_a n_b / (n_a + n_b) and the usual small-sample correction;
    from two samples or their tables."""
    return ks_pairwise([a, b], [(0, 1)], threshold)[0]


def ks_pairwise(samples, pairs, threshold: float = 0.01) -> list[KsResult]:
    """ks_two_sample of each pair (i, j) of the samples, or of their
    tables, in the order of `pairs`, from one grid of every sorted row.
    The grid holds the distinct values of every row, and each pair takes
    one array of its size."""
    return _ks_tests([rank_table(s).sorted for s in samples], pairs,
                     threshold)


def _ks_tests(rows, pairs, threshold: float) -> list[KsResult]:
    """ks_pairwise of sorted samples."""
    sizes = [row.size for row in rows]
    for i, j in pairs:
        if sizes[i] < 5 or sizes[j] < 5:
            raise DegenerateInputError(
                f"KS test needs >= 5 samples per side, got {sizes[i]} and "
                f"{sizes[j]}"
            )
    results = []
    for (i, j), kappa in zip(pairs, _sup_distance(rows, pairs)):
        n_e = sizes[i] * sizes[j] / (sizes[i] + sizes[j])
        lam = (math.sqrt(n_e) + 0.12 + 0.11 / math.sqrt(n_e)) * kappa
        p = kolmogorov_sf(lam)
        results.append(KsResult(kappa=kappa, p_value=p,
                                accepted=bool(p >= threshold)))
    return results


def ks_after_linear_map(x_series, y_series, threshold: float = 0.01) -> KsResult:
    """Fit y = alpha*x + beta by least squares, map x through it, then
    KS-compare the mapped values against y; from two series or their
    tables.  No mean normalization: the map already aligns location and
    scale.

    The map sorts nothing: rounding is monotone, so alpha times the
    sorted x plus beta is sorted when alpha >= 0, and sorted in reverse
    when alpha < 0."""
    tx, ty = rank_table(x_series), rank_table(y_series)
    lm = fit_linear_map(tx, ty)
    mapped = lm.alpha * tx.sorted + lm.beta
    if not np.isfinite(mapped).all():
        raise ValueError("inputs must be finite")
    if lm.alpha < 0:
        mapped = mapped[::-1]
    return _ks_tests([mapped, ty.sorted], [(0, 1)], threshold)[0]
