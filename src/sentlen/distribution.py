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
    table = rank_table(series)
    return table.row / _nonzero_mean(table)


def _nonzero_mean(table) -> np.float64:
    if table.size == 0:
        raise DegenerateInputError("cannot normalize an empty series")
    if table.mean == 0:
        raise DegenerateInputError("cannot normalize a zero-mean series")
    return table.mean


def ks_distance(a, b) -> float:
    """sup_x |C_a(x) - C_b(x)|, with C the right-continuous empirical CDF
    of a sample: C(x) = (# samples <= x) / n; from two samples or their
    tables, of which it reads the distinct values and their counts."""
    return _sup_distance([(t.values, t.counts)
                          for t in map(rank_table, (a, b))], [(0, 1)])[0]


def _sup_distance(samples, pairs) -> list[float]:
    """ks_distance of each pair (i, j) of the samples, each a table's
    distinct values, or their image under a monotone map (read in reverse
    if it decreases), and their counts.

    Both CDFs are step functions, so the supremum is attained at a sample
    point.  Every pair reads one grid, the values of all the samples: at a
    point of another sample, each CDF of the pair holds its value at the
    pair's own last point below it (or 0 below both), so the maximum is
    the same bits.  A CDF there is the cumulative count at or below it
    over n, as on a sorted row; `side="right"` counts every copy of a
    value that rounding has made equal to its neighbour."""
    grid = np.concatenate([values for values, _ in samples])
    cdf = np.empty((len(samples), grid.size))
    for k, (values, counts) in enumerate(samples):
        if values.size == 0:
            raise DegenerateInputError(
                "KS distance requires at least one sample per side")
        if values[0] > values[-1]:
            values, counts = values[::-1], counts[::-1]
        cum = np.concatenate(([0], np.cumsum(counts)))
        np.divide(cum[np.searchsorted(values, grid, side="right")], cum[-1],
                  out=cdf[k])
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
    """ks_two_sample of each pair (i, j) of the samples or their tables,
    in the order of `pairs`, on one grid of every sample's values."""
    return _ks_tests([(t.values, t.counts) for t in map(rank_table, samples)],
                     pairs, threshold)


def ks_mean_normalized(samples, pairs,
                       threshold: float = 0.01) -> list[KsResult]:
    """ks_pairwise of the mean_normalize'd samples, bit for bit, from each
    table's distinct values over its mean; no row of n values is copied.
    Refuses an empty or zero-mean sample before it tests any pair."""
    return _ks_tests([(t.values / _nonzero_mean(t), t.counts)
                      for t in map(rank_table, samples)], pairs, threshold)


def _ks_tests(samples, pairs, threshold: float) -> list[KsResult]:
    """ks_pairwise of samples given as _sup_distance takes them."""
    sizes = [int(counts.sum()) for _, counts in samples]
    for i, j in pairs:
        if sizes[i] < 5 or sizes[j] < 5:
            raise DegenerateInputError(
                f"KS test needs >= 5 samples per side, got {sizes[i]} and "
                f"{sizes[j]}"
            )
    results = []
    for (i, j), kappa in zip(pairs, _sup_distance(samples, pairs)):
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

    The map reads the k distinct values of x and sorts nothing: rounding
    is monotone, so the mapped values are non-decreasing when alpha >= 0
    and non-increasing, read in reverse, when alpha < 0."""
    tx, ty = rank_table(x_series), rank_table(y_series)
    lm = fit_linear_map(tx, ty)
    mapped = lm.alpha * tx.values + lm.beta
    if not np.isfinite(mapped).all():
        raise ValueError("inputs must be finite")
    return _ks_tests([(mapped, tx.counts), (ty.values, ty.counts)], [(0, 1)],
                     threshold)[0]
