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
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .exceptions import DegenerateInputError

EXACT_PVALUE_BELOW_N = 10

_LN_DBL_MIN = math.log(sys.float_info.min)
_LN_GAMMA_HALF = 0.5 * math.log(math.pi)

# concordance_counts fills a kx x ky table of value pairs, and
# _count_inversions a (block, rank) table, while it has at most this many
# cells per point; larger tables lose to the merge.  Timed apart, both
# tables cross over with their merge at 24-48 and 28-32 cells per point
_CELLS_PER_POINT = 32
# _count_inversions compares the points inside blocks of this many at once
_BLOCK = 32
_UPPER = np.triu(np.ones((_BLOCK, _BLOCK), dtype=bool), 1)


@dataclass(frozen=True)
class LinearMap:
    alpha: float
    beta: float


@dataclass(frozen=True)
class RankTestResult:
    statistic: float
    p_value: float
    #: p_value < threshold, a Python bool even for a numpy threshold, so
    #: the JSON record writes true or false
    rejected: bool


@dataclass(frozen=True, eq=False)
class RankTable:
    """One series' ranks, read-only: the dense rank of each value (0 for
    the smallest), the multiplicity of each distinct value, and the
    1-based midranks.  Every rank statistic takes one in place of the
    array it was built from, and ranks an array itself."""
    dense: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)
    midranks: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return self.dense.size


def _validate(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError("inputs must be one-dimensional")
    if not np.isfinite(values).all():
        raise ValueError("inputs must be finite")
    return values


def _check_pair(n_x: int, n_y: int, min_size: int = 2) -> None:
    if n_x != n_y:
        raise ValueError(f"length mismatch: {n_x} vs {n_y}")
    if n_x < min_size:
        raise DegenerateInputError(
            f"need at least {min_size} points, got {n_x}")


def _validate_pair(x, y):
    x, y = _validate(x), _validate(y)
    _check_pair(x.size, y.size)
    return x, y


def pearson(x, y) -> float:
    """Sample Pearson correlation: covariance over the product of
    standard deviations (matching 1/N normalization on both sides)."""
    x, y = _validate_pair(x, y)
    dx = x - x.mean()
    dy = y - y.mean()
    sx = math.sqrt(float(np.dot(dx, dx)))
    sy = math.sqrt(float(np.dot(dy, dy)))
    if sx == 0 or sy == 0:
        raise DegenerateInputError("zero variance input to pearson")
    return float(np.dot(dx, dy)) / (sx * sy)


def _ties(values) -> tuple[np.ndarray, np.ndarray]:
    """Dense ranks (0 for the smallest value) and the multiplicity of each
    distinct value: the table every rank statistic reads its ties from."""
    _, dense, counts = np.unique(values, return_inverse=True,
                                 return_counts=True)
    return dense, counts


def rank_table(values) -> RankTable:
    """The rank table of a finite one-dimensional series."""
    dense, counts = _ties(_validate(values))
    table = RankTable(dense, counts, _midranks(dense, counts))
    for arr in (dense, counts, table.midranks):
        arr.setflags(write=False)
    return table


def _rank_pair(x, y, min_size: int = 2) -> tuple[RankTable, RankTable]:
    """Rank tables of x and y, each ranked here unless it is one, checked
    to be of one length and at least `min_size` points."""
    rx, ry = (v if isinstance(v, RankTable) else rank_table(v)
              for v in (x, y))
    _check_pair(rx.size, ry.size, min_size)
    return rx, ry


def _pairs(counts) -> int:
    """Pairs inside groups of the given sizes."""
    return int(np.sum(counts * (counts - 1)) // 2)


def _midranks(dense, counts) -> np.ndarray:
    """1-based ranks, ties sharing the mean of their positions."""
    return (np.cumsum(counts) - (counts - 1) / 2)[dense]


def _count_inversions(ranks, n_ranks: int) -> int:
    """Strict inversions (i < j with ranks[i] > ranks[j]) of integer ranks
    in [0, n_ranks), exactly.

    The array is padded to a power of two with the rank n_ranks, above
    every real one (at the end, so the pad adds no strict inversion), and
    cut into blocks of `_BLOCK`.  One broadcast comparison counts the
    pairs inside each block.  The pairs across blocks come from the
    (block, rank) table of points while it has at most `_CELLS_PER_POINT`
    cells per point: a prefix cumsum over ranks, then over blocks, gives
    the points in earlier blocks at or below each rank, and every point
    of block k has k * _BLOCK earlier points.  A larger table gives way
    to a bottom-up merge from sorted blocks: each level counts, for every
    element of a right half, the elements of its sorted left half that
    exceed it, with one global `searchsorted` (a per-block offset keeps
    the blocks apart), then sorts each merged block.
    """
    n = len(ranks)
    if n < 2:
        return 0
    size = 1 << (n - 1).bit_length()
    w = min(_BLOCK, size)
    # the narrowest signed type that holds the pad: narrow blocks compare
    # faster, and each sum below promotes to int64 with an int64 operand
    a = np.full(size, n_ranks, dtype=np.min_scalar_type(-n_ranks - 1))
    a[:n] = ranks
    blocks = a.reshape(-1, w)
    n_blocks = blocks.shape[0]
    total = int(np.count_nonzero(
        (blocks[:, :, None] > blocks[:, None, :]) & _UPPER[:w, :w]))
    width = n_ranks + 1
    if n_blocks * width <= _CELLS_PER_POINT * n:
        key = blocks + np.arange(0, n_blocks * width, width,
                                 dtype=np.int64)[:, None]
        # at_most[k, r]: points in blocks k' <= k with rank <= r
        at_most = np.bincount(key.ravel(), minlength=n_blocks * width)
        at_most = at_most.reshape(n_blocks, width)
        np.cumsum(at_most, axis=1, out=at_most)
        np.cumsum(at_most, axis=0, out=at_most)
        earlier = at_most.ravel()[key[1:] - width]
        return (total + w * w * n_blocks * (n_blocks - 1) // 2
                - int(np.sum(earlier, dtype=np.int64)))
    a = np.sort(blocks, axis=1).ravel()
    while w < size:
        blocks = a.reshape(-1, 2 * w)
        b = np.arange(blocks.shape[0], dtype=np.int64)[:, None]
        keyed = blocks + b * width
        pos = np.searchsorted(keyed[:, :w].ravel(), keyed[:, w:],
                              side="right")
        total += int(np.sum((b + 1) * w - pos, dtype=np.int64))
        a = np.sort(blocks, axis=1).ravel()
        w *= 2
    return total


def concordance_counts(x, y) -> tuple[int, int, int, int, int]:
    """(C, D, n0, tx, ty): concordant and discordant pair counts plus
    total pairs and pairs tied in x and in y, from two arrays or their
    rank tables.

    With dense ranks a of x (kx values) and b of y (ky), the pairs come
    from the kx x ky table N of points per (a, b) while it has at most
    `_CELLS_PER_POINT` cells per point: D = sum of N[a, b] times the points
    in rows a' > a and columns b' < b (a suffix cumsum over rows, then a
    prefix cumsum over columns), and the pairs tied in both are the pairs
    inside each cell.  A larger table gives way to Knight's count: sort
    one int64 key of (a, b) and count strict inversions of b, which skips
    pairs tied in either coordinate; the pairs tied in both are the pairs
    inside each run of equal keys.  Both are exact integers.
    """
    rx, ry = _rank_pair(x, y, min_size=0)
    n = rx.size
    n0 = n * (n - 1) // 2
    kx, ky = rx.counts.size, ry.counts.size
    key = rx.dense.astype(np.int64) * ky + ry.dense
    if kx * ky <= _CELLS_PER_POINT * n:
        table = np.bincount(key, minlength=kx * ky).reshape(kx, ky)
        # later[a, b]: points in rows a' > a and columns b' <= b
        later = np.cumsum(table[:0:-1], axis=0)[::-1]
        np.cumsum(later, axis=1, out=later)
        d = int(np.einsum("ij,ij->", table[:-1, 1:], later[:, :-1]))
        txy = _pairs(table)
    else:
        key.sort()
        d = _count_inversions(key % ky, ky)
        # the last index of every run of equal keys but the final one
        ends = np.flatnonzero(key[1:] != key[:-1])
        txy = _pairs(np.diff(ends, prepend=-1, append=n - 1))
    tx, ty = _pairs(rx.counts), _pairs(ry.counts)
    c = n0 - tx - ty + txy - d
    return c, d, n0, tx, ty


def _exact_rank_pvalues(rx: RankTable, ry: RankTable):
    """Exact two-sided p-values for tau-b, gamma and rho of two rank
    tables, by enumerating every permutation of y.  Only feasible for
    small n."""
    return _enumerate_rank_pvalues(tuple(rx.dense.tolist()),
                                   tuple(ry.dense.tolist()))


@lru_cache(maxsize=64)
def _enumerate_rank_pvalues(x_dense: tuple, y_dense: tuple):
    """_exact_rank_pvalues from the two series' dense ranks, which fix
    their multiplicities and midranks.  Memoized on those ranks, so the
    three tests of one pair enumerate once, from tables or from arrays."""
    n = len(x_dense)
    x, y = np.array(x_dense), np.array(y_dense)
    x_counts, y_counts = np.bincount(x), np.bincount(y)
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
    denom_tau = math.sqrt((n0 - _pairs(x_counts)) * (n0 - _pairs(y_counts)))
    taus = (conc - disc) / denom_tau
    cd = conc + disc
    with np.errstate(divide="ignore", invalid="ignore"):
        gammas = np.where(cd > 0, (conc - disc) / np.where(cd > 0, cd, 1), 0.0)

    mx = _midranks(x, x_counts) - (n + 1) / 2
    my = _midranks(y, y_counts) - (n + 1) / 2
    norm = math.sqrt(float(np.dot(mx, mx)) * float(np.dot(my, my)))
    rhos = (my[perms] @ mx) / norm

    def pval(stats):
        obs = stats[0]  # identity permutation comes first
        return float(np.mean(np.abs(stats) >= abs(obs) - 1e-12))

    return pval(taus), pval(gammas), pval(rhos)


def _lgamma_half_step(a: float) -> float:
    """ln Gamma(a + 1/2) - ln Gamma(a); an asymptotic series for large a,
    where the difference of two lgamma calls would cancel."""
    if a < 25:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    r = 1.0 / a
    r2 = r * r
    return 0.5 * math.log(a) - r * (1 / 8 - r2 * (1 / 192 - r2 * (
        1 / 640 - r2 * 17 / 14336)))


def _beta_cf(a: float, b: float, x: float, y: float) -> float:
    """x^a y^b / (B(a, b) I_x(a, b)), y = 1 - x: the continued fraction of
    Didonato and Morris (ACM TOMS 18, 1992), evaluated by the modified
    Lentz method (Press et al., Numerical Recipes, section 6.4).  It
    converges fast for x < (a + 1) / (a + b + 2), and is written in y so
    that x near 1 costs no precision."""
    tiny = 1e-300
    f = a * (a * y - b * x + 1) / (a + 1) or tiny
    c, d = f, 0.0
    for m in range(1, 100_000):
        am = ((a + m - 1) * (a + b + m - 1) * m * (b - m) * x * x
              / (a + 2 * m - 1) ** 2)
        bm = (m + m * (b - m) * x / (a + 2 * m - 1)
              + (a + m) * (a * y - b * x + 1 + m * (2 - x)) / (a + 2 * m + 1))
        d = 1.0 / ((bm + am * d) or tiny)
        c = (bm + am / c) or tiny
        f *= c * d
        if abs(c * d - 1.0) < 1e-15:
            return f
    raise ArithmeticError(f"I_x({a}, {b}): no convergence")


def _t_two_sided_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with df degrees of freedom.

    This is the regularized incomplete beta I_x(a, 1/2), a = df / 2, at
    x = df / (df + t^2) (Abramowitz & Stegun 26.7.1): the continued
    fraction times the prefix x^a y^(1/2) / B(a, 1/2), y = 1 - x, taken
    in logs.

    Where the value underflows it returns 0 exactly where Boost.Math's
    ibeta does, which computed these p-values before, so the outputs stay
    byte-identical.  Boost returns 0 once its series prefix falls below
    the smallest normal double.  That prefix is
    Gamma(a + 1/2) x^a / (Gamma(a) Gamma(1/2)) (ibeta_series) when
    df <= 2 t^2 or y >= 0.3, and else u^(1/2) e^-u / Gamma(1/2) with
    u = -(a - 1/4) ln x (beta_small_b_large_a_series).
    """
    a = df / 2
    q = t * t / df
    if q == 0:
        return 1.0
    ln_x = -math.log1p(q)
    y = q / (1 + q)
    ln_prefix = _lgamma_half_step(a) - _LN_GAMMA_HALF + a * ln_x
    if df > 2 * t * t and y < 0.3:
        u = -(a - 0.25) * ln_x
        if 0.5 * math.log(u) - u - _LN_GAMMA_HALF < _LN_DBL_MIN:
            return 0.0
    elif ln_prefix < _LN_DBL_MIN:
        return 0.0
    ln_front = ln_prefix + 0.5 * (math.log(q) + ln_x)
    x = 1.0 / (1 + q)
    if t * t > 3 * a / (a + 1):  # x < (a + 1) / (a + 5/2)
        return math.exp(ln_front - math.log(_beta_cf(a, 0.5, x, y)))
    return 1.0 - math.exp(ln_front) / _beta_cf(0.5, a, y, x)  # 1 - I_y(b, a)


def _tau_normal_pvalue(c, d, n, x_counts, y_counts) -> float:
    """Normal approximation with the tie-corrected variance of C - D; the
    tie sums come from the multiplicities of x and y."""

    def tie_sums(t):
        t = t.astype(np.int64)
        pairs2 = t * (t - 1)
        return (int(pairs2 @ (2 * t + 5)), int(pairs2.sum()),
                int(pairs2 @ (t - 2)))

    vt, t1, t2 = tie_sums(x_counts)
    vu, u1, u2 = tie_sums(y_counts)
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
    """Tie-corrected Kendall tau-b with two-sided p-value, from two arrays
    or their rank tables."""
    rx, ry = _rank_pair(x, y)
    c, d, n0, tx, ty = concordance_counts(rx, ry)
    if tx == n0 or ty == n0:
        raise DegenerateInputError("all-tied input to kendall_tau")
    tau = (c - d) / math.sqrt((n0 - tx) * (n0 - ty))
    if rx.size < EXACT_PVALUE_BELOW_N:
        p, _, _ = _exact_rank_pvalues(rx, ry)
    else:
        p = _tau_normal_pvalue(c, d, rx.size, rx.counts, ry.counts)
    return RankTestResult(statistic=tau, p_value=p,
                          rejected=bool(p < threshold))


def goodman_kruskal_gamma(x, y, threshold: float = 0.01) -> RankTestResult:
    """gamma = (C - D) / (C + D), ties excluded from both counts; from two
    arrays or their rank tables."""
    rx, ry = _rank_pair(x, y)
    c, d, _, _, _ = concordance_counts(rx, ry)
    if c + d == 0:
        raise DegenerateInputError("all pairs tied: gamma undefined")
    gamma = (c - d) / (c + d)
    n = rx.size
    if n < EXACT_PVALUE_BELOW_N:
        _, p, _ = _exact_rank_pvalues(rx, ry)
    elif abs(gamma) >= 1.0:
        p = 0.0
    else:
        z = gamma * math.sqrt((c + d) / (n * (1.0 - gamma * gamma)))
        p = math.erfc(abs(z) / math.sqrt(2.0))
    return RankTestResult(statistic=float(gamma), p_value=p,
                          rejected=bool(p < threshold))


def spearman(x, y, threshold: float = 0.01) -> RankTestResult:
    """Pearson correlation of mid-ranks; p-value from the t
    approximation with n - 2 degrees of freedom.  Takes two arrays or
    their rank tables."""
    rx, ry = _rank_pair(x, y)
    rho = pearson(rx.midranks, ry.midranks)
    n = rx.size
    if n < EXACT_PVALUE_BELOW_N:
        _, _, p = _exact_rank_pvalues(rx, ry)
    elif abs(rho) >= 1.0:
        p = 0.0
    else:
        t_stat = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
        p = _t_two_sided_p(t_stat, n - 2)
    return RankTestResult(statistic=rho, p_value=p,
                          rejected=bool(p < threshold))


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
