"""Pairwise association between two aligned length series: Pearson's r,
Kendall's tau-b, Goodman-Kruskal gamma, Spearman's rho, and the
least-squares linear map between series.

Rank-test p-values use the standard large-sample normal (or t)
approximations; below n = 10 they switch to exact enumeration over all
permutations of one argument.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import stdtr

from .exceptions import DegenerateInputError

EXACT_PVALUE_BELOW_N = 10


@dataclass(frozen=True)
class PearsonResult:
    r: float


@dataclass(frozen=True)
class LinearMap:
    alpha: float
    beta: float

    def apply(self, x):
        return self.alpha * np.asarray(x, dtype=float) + self.beta


@dataclass(frozen=True)
class RankTestResult:
    statistic: float
    p_value: float
    null_rejected_at: float

    @property
    def rejected(self) -> bool:
        return self.p_value < self.null_rejected_at


def _validate_pair(x, y, min_n=2):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim != 1:
        raise ValueError("inputs must be one-dimensional")
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("inputs must be finite")
    if x.size < min_n:
        raise DegenerateInputError(f"need at least {min_n} points, got {x.size}")
    return x, y


def pearson(x, y) -> PearsonResult:
    """Sample Pearson correlation: covariance over the product of
    standard deviations (matching 1/N normalization on both sides)."""
    x, y = _validate_pair(x, y)
    dx = x - x.mean()
    dy = y - y.mean()
    sx = math.sqrt(float(np.dot(dx, dx)))
    sy = math.sqrt(float(np.dot(dy, dy)))
    if sx == 0 or sy == 0:
        raise DegenerateInputError("zero variance input to pearson")
    return PearsonResult(r=float(np.dot(dx, dy)) / (sx * sy))


def _ties(values) -> tuple[np.ndarray, np.ndarray]:
    """Dense ranks (0 for the smallest value) and the multiplicity of each
    distinct value: the table every rank statistic reads its ties from."""
    _, dense, counts = np.unique(values, return_inverse=True,
                                 return_counts=True)
    return dense, counts


def _pairs(counts) -> int:
    """Pairs inside groups of the given sizes."""
    return int(np.sum(counts * (counts - 1)) // 2)


def _midranks(dense, counts) -> np.ndarray:
    """1-based ranks, ties sharing the mean of their positions."""
    return (np.cumsum(counts) - (counts - 1) / 2)[dense]


def _count_inversions(values) -> int:
    """Strict inversions (i < j with values[i] > values[j]), exactly.

    A bottom-up merge over dense integer ranks: the array is padded to a
    power of two with a rank above every real one (at the end, so the pad
    adds no strict inversion), and each level counts, for every element
    of a right half, the elements of its sorted left half that exceed it,
    with one global `searchsorted` (a per-block offset keeps the blocks
    apart), then sorts each merged block.
    """
    values = np.asarray(values)
    n = values.size
    if n < 2:
        return 0
    ranks, counts = _ties(values)
    top = counts.size
    size = 1 << (n - 1).bit_length()
    a = np.full(size, top, dtype=np.int64)
    a[:n] = ranks
    total = 0
    w = 1
    while w < size:
        blocks = a.reshape(-1, 2 * w)
        b = np.arange(blocks.shape[0], dtype=np.int64)[:, None]
        keyed = blocks + b * (top + 1)
        pos = np.searchsorted(keyed[:, :w].ravel(), keyed[:, w:],
                              side="right")
        total += int(np.sum((b + 1) * w - pos, dtype=np.int64))
        a = np.sort(blocks, axis=1).ravel()
        w *= 2
    return total


def concordance_counts(x, y) -> tuple[int, int, int, int, int]:
    """(C, D, n0, tx, ty): concordant and discordant pair counts plus
    total pairs and pairs tied in x and in y.

    D is Knight's: sort by one int64 key of the dense ranks of (x, y) and
    count strict inversions of y, which skips pairs tied in either
    coordinate.  Pairs tied in both are the pairs of equal keys.
    """
    rx, cx = _ties(np.asarray(x, dtype=float))
    ry, cy = _ties(np.asarray(y, dtype=float))
    n = rx.size
    n0 = n * (n - 1) // 2
    key = np.sort(rx.astype(np.int64) * cy.size + ry)
    d = _count_inversions(key % cy.size)
    txy = _pairs(_ties(key)[1])
    tx, ty = _pairs(cx), _pairs(cy)
    c = n0 - tx - ty + txy - d
    return c, d, n0, tx, ty


def _exact_rank_pvalues(x, y):
    """Exact two-sided p-values for tau-b, gamma and rho by enumerating
    every permutation of y (both validated).  Only feasible for small n."""
    n = x.size
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    yp = y[perms]
    conc = np.zeros(perms.shape[0], dtype=np.int64)
    disc = np.zeros(perms.shape[0], dtype=np.int64)
    for i in range(n - 1):
        for j in range(i + 1, n):
            sx = np.sign(x[i] - x[j])
            if sx == 0:
                continue
            sy = np.sign(yp[:, i] - yp[:, j])
            prod = sx * sy
            conc += prod > 0
            disc += prod < 0
    n0 = n * (n - 1) // 2
    dx, cx = _ties(x)
    dy, cy = _ties(y)
    denom_tau = math.sqrt((n0 - _pairs(cx)) * (n0 - _pairs(cy)))
    taus = (conc - disc) / denom_tau
    cd = conc + disc
    with np.errstate(divide="ignore", invalid="ignore"):
        gammas = np.where(cd > 0, (conc - disc) / np.where(cd > 0, cd, 1), 0.0)

    rx = _midranks(dx, cx) - (n + 1) / 2
    ry = _midranks(dy, cy) - (n + 1) / 2
    norm = math.sqrt(float(np.dot(rx, rx)) * float(np.dot(ry, ry)))
    rhos = (ry[perms] @ rx) / norm

    def pval(stats):
        obs = stats[0]  # identity permutation comes first
        return float(np.mean(np.abs(stats) >= abs(obs) - 1e-12))

    return pval(taus), pval(gammas), pval(rhos)


def _tau_normal_pvalue(c, d, x, y) -> float:
    """Normal approximation with the tie-corrected variance of C - D."""
    n = len(x)

    def tie_sums(arr):
        t = _ties(arr)[1].astype(np.int64)
        return (int(np.sum(t * (t - 1) * (2 * t + 5))),
                int(np.sum(t * (t - 1))),
                int(np.sum(t * (t - 1) * (t - 2))))

    vt, t1, t2 = tie_sums(x)
    vu, u1, u2 = tie_sums(y)
    v0 = n * (n - 1) * (2 * n + 5)
    var = (v0 - vt - vu) / 18.0
    var += t1 * u1 / (2.0 * n * (n - 1))
    if n > 2:
        var += t2 * u2 / (9.0 * n * (n - 1) * (n - 2))
    if var <= 0:
        return 0.0
    z = (c - d) / math.sqrt(var)
    return math.erfc(abs(z) / math.sqrt(2.0))


def kendall_tau(x, y, threshold: float = 0.01) -> RankTestResult:
    """Tie-corrected Kendall tau-b with two-sided p-value."""
    x, y = _validate_pair(x, y)
    c, d, n0, tx, ty = concordance_counts(x, y)
    if tx == n0 or ty == n0:
        raise DegenerateInputError("all-tied input to kendall_tau")
    tau = (c - d) / math.sqrt((n0 - tx) * (n0 - ty))
    if x.size < EXACT_PVALUE_BELOW_N:
        p, _, _ = _exact_rank_pvalues(x, y)
    else:
        p = _tau_normal_pvalue(c, d, x, y)
    return RankTestResult(statistic=tau, p_value=p, null_rejected_at=threshold)


def goodman_kruskal_gamma(x, y, threshold: float = 0.01) -> RankTestResult:
    """gamma = (C - D) / (C + D), ties excluded from both counts."""
    x, y = _validate_pair(x, y)
    c, d, _, _, _ = concordance_counts(x, y)
    if c + d == 0:
        raise DegenerateInputError("all pairs tied: gamma undefined")
    gamma = (c - d) / (c + d)
    n = x.size
    if n < EXACT_PVALUE_BELOW_N:
        _, p, _ = _exact_rank_pvalues(x, y)
    elif abs(gamma) >= 1.0:
        p = 0.0
    else:
        z = gamma * math.sqrt((c + d) / (n * (1.0 - gamma * gamma)))
        p = math.erfc(abs(z) / math.sqrt(2.0))
    return RankTestResult(statistic=float(gamma), p_value=p,
                          null_rejected_at=threshold)


def spearman(x, y, threshold: float = 0.01) -> RankTestResult:
    """Pearson correlation of mid-ranks; p-value from the t
    approximation with n - 2 degrees of freedom."""
    x, y = _validate_pair(x, y)
    rho = pearson(_midranks(*_ties(x)), _midranks(*_ties(y))).r
    n = x.size
    if n < EXACT_PVALUE_BELOW_N:
        _, _, p = _exact_rank_pvalues(x, y)
    elif abs(rho) >= 1.0:
        p = 0.0
    else:
        t_stat = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
        p = 2.0 * float(stdtr(n - 2, -abs(t_stat)))
    return RankTestResult(statistic=rho, p_value=p, null_rejected_at=threshold)


def fit_linear_map(x, y) -> LinearMap:
    """Ordinary least squares y ~ alpha * x + beta."""
    x, y = _validate_pair(x, y)
    dx = x - x.mean()
    sxx = float(np.dot(dx, dx))
    if sxx == 0:
        raise DegenerateInputError("constant x: linear map undefined")
    alpha = float(np.dot(dx, y - y.mean())) / sxx
    beta = float(y.mean() - alpha * x.mean())
    return LinearMap(alpha=alpha, beta=beta)
