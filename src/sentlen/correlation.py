"""Pairwise association between two aligned length series: Pearson's r,
Kendall's tau-b, Goodman-Kruskal gamma, Spearman's rho, and the
least-squares linear map between series.

Each rank test computes its p-value one way at every n: the normal
approximation for tau-b and gamma, and Student's t with n - 2 degrees of
freedom for rho.  These are large-sample approximations, so at small n
the p-values are approximate.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .exceptions import DegenerateInputError

_LN_DBL_MIN = math.log(sys.float_info.min)
_LN_GAMMA_HALF = 0.5 * math.log(math.pi)

# concordance_counts fills a kx x ky table of value pairs while it has at
# most this many cells per point, which also bounds the table's memory.
# Timed, the table crosses over with Knight's count at 24-48 cells per point
_CELLS_PER_POINT = 32
# _count_inversions compares every pair of an array of at most _ONE_BLOCK
# points at once, and of a longer one the points inside blocks of _BLOCK.
# Timed, one block beat the merge up to about 1000 points; 512 keeps its
# n x n temporaries within 256 KB
_ONE_BLOCK = 512
_BLOCK = 32
# the strict upper triangle, i < j, of the largest block
_UPPER = np.arange(_ONE_BLOCK)[:, None] < np.arange(_ONE_BLOCK)


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
    """One series, read-only, and what the statistics read from it:

    - its float row, the row's mean, the centred row and its sum of
      squares (Pearson's r and the linear map)
    - the dense rank of each value (0 for the smallest) and the
      multiplicity of each distinct value (the rank tests)
    - the table of the 1-based midranks, whose centred row and sum of
      squares give Spearman's rho
    - the three tie sums of the tau variance
    - the sorted row (the KS tests)

    Only the row is held on construction; every other field is computed
    on first read, so a caller that reads only the ranks pays for nothing
    else.  Every statistic takes a table in place of an array, and
    `rank_table` builds one from an array on entry.  Tables compare and
    hash by identity, which keys the memo of pair counts."""
    row: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return self.row.size

    @cached_property
    def mean(self) -> np.float64:
        return self.row.mean()

    @cached_property
    def centred(self) -> np.ndarray:
        return _read_only(self.row - self.mean)

    @cached_property
    def sum_sq(self) -> float:
        return float(np.dot(self.centred, self.centred))

    @cached_property
    def _ranks(self) -> tuple[np.ndarray, np.ndarray]:
        dense, counts = _ties(self.row)
        return _read_only(dense), _read_only(counts)

    @property
    def dense(self) -> np.ndarray:
        return self._ranks[0]

    @property
    def counts(self) -> np.ndarray:
        return self._ranks[1]

    @cached_property
    def midranks(self) -> RankTable:
        return RankTable(_read_only(_midranks(self.dense, self.counts)))

    @cached_property
    def tie_sums(self) -> tuple[int, int, int]:
        """sum t(t-1)(2t+5), sum t(t-1) and sum t(t-1)(t-2) over the
        multiplicities t: the tie terms of the variance of C - D."""
        t = self.counts.astype(np.int64)
        pairs2 = t * (t - 1)
        return (int(pairs2 @ (2 * t + 5)), int(pairs2.sum()),
                int(pairs2 @ (t - 2)))

    @cached_property
    def sorted(self) -> np.ndarray:
        return _read_only(np.sort(self.row))


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _validate(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError("inputs must be one-dimensional")
    if not np.isfinite(values).all():
        raise ValueError("inputs must be finite")
    return values


def rank_table(values) -> RankTable:
    """The table of a finite one-dimensional series; a table is returned
    as it is."""
    if isinstance(values, RankTable):
        return values
    row = _validate(values)
    if row.flags.writeable:
        # a view, so that the table cannot write to the caller's array
        row = row.view()
    return RankTable(_read_only(row))


def _table_pair(x, y, min_size: int = 2) -> tuple[RankTable, RankTable]:
    """The tables of x and y, checked to be of one length and at least
    `min_size` points."""
    tx, ty = rank_table(x), rank_table(y)
    if tx.size != ty.size:
        raise ValueError(f"length mismatch: {tx.size} vs {ty.size}")
    if tx.size < min_size:
        raise DegenerateInputError(
            f"need at least {min_size} points, got {tx.size}")
    return tx, ty


def pearson(x, y) -> float:
    """Sample Pearson correlation: covariance over the product of
    standard deviations (matching 1/N normalization on both sides), from
    two arrays or their tables."""
    return _pearson(*_table_pair(x, y))


def _pearson(tx: RankTable, ty: RankTable) -> float:
    """pearson of two tables of one length: the dot product of their
    centred rows over the root of each sum of squares."""
    if tx.sum_sq == 0 or ty.sum_sq == 0:
        raise DegenerateInputError("zero variance input to pearson")
    return float(np.dot(tx.centred, ty.centred)) / (
        math.sqrt(tx.sum_sq) * math.sqrt(ty.sum_sq))


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


def _count_inversions(ranks, n_ranks: int) -> int:
    """Strict inversions (i < j with ranks[i] > ranks[j]) of integer ranks
    in [0, n_ranks), exactly.

    An array of at most `_ONE_BLOCK` points is one block: one broadcast
    comparison of every pair, masked to i < j by a slice of `_UPPER`.
    A longer array is padded to a power of two with the rank n_ranks, above
    every real one (at the end, so the pad adds no strict inversion), and
    cut into blocks of `_BLOCK`.  One broadcast comparison counts the
    pairs inside each block.  A bottom-up merge from the sorted blocks
    counts the pairs across them: each level counts, for every element of
    a right half, the elements of its sorted left half that exceed it,
    with one global `searchsorted` (a per-block offset keeps the blocks
    apart), then sorts each merged block.
    """
    n = len(ranks)
    if n < 2:
        return 0
    # the narrowest signed type that holds every rank and the pad n_ranks:
    # narrow blocks compare faster, and each sum below promotes to int64
    # with an int64 operand
    narrow = np.min_scalar_type(-n_ranks - 1)
    if n <= _ONE_BLOCK:
        a = np.asarray(ranks).astype(narrow, copy=False)
        return int(np.count_nonzero((a[:, None] > a) & _UPPER[:n, :n]))
    size = 1 << (n - 1).bit_length()
    w = _BLOCK
    a = np.full(size, n_ranks, dtype=narrow)
    a[:n] = ranks
    blocks = a.reshape(-1, w)
    total = int(np.count_nonzero(
        (blocks[:, :, None] > blocks[:, None, :]) & _UPPER[:w, :w]))
    width = n_ranks + 1
    # each sort is in place: blocks is a view of a
    blocks.sort(axis=1)
    while w < size:
        blocks = a.reshape(-1, 2 * w)
        b = np.arange(blocks.shape[0], dtype=np.int64)[:, None]
        keyed = blocks + b * width
        pos = np.searchsorted(keyed[:, :w].ravel(), keyed[:, w:],
                              side="right")
        total += int(np.sum((b + 1) * w - pos, dtype=np.int64))
        blocks.sort(axis=1)
        w *= 2
    return total


def concordance_counts(x, y) -> tuple[int, int, int, int, int]:
    """(C, D, n0, tx, ty): concordant and discordant pair counts plus
    total pairs and pairs tied in x and in y, from two arrays or their
    tables.  Memoized on the pair of tables, so tau and gamma of one pair
    count it once; an array gets a fresh table, and so never a stale
    count.

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
    return _concordance(*_table_pair(x, y, min_size=0))


@lru_cache(maxsize=1)
def _concordance(rx: RankTable, ry: RankTable):
    """concordance_counts of two tables, keyed on their identity; each key
    holds its tables, so no other table can take their ids while cached.
    One entry: its only hit is gamma reading the pair tau just counted,
    and more would keep a finished book's tables alive."""
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
        # the start of every run of equal keys, and n after the last run
        change = np.empty(n + 1, dtype=bool)
        change[0] = change[n] = True
        np.not_equal(key[1:], key[:-1], out=change[1:n])
        starts = np.flatnonzero(change)
        txy = _pairs(starts[1:] - starts[:-1])
    # the middle tie sum, sum t(t - 1), counts each tied pair twice
    tx, ty = rx.tie_sums[1] // 2, ry.tie_sums[1] // 2
    c = n0 - tx - ty + txy - d
    return c, d, n0, tx, ty


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


def _tau_normal_pvalue(c, d, n, x_ties, y_ties) -> float:
    """Normal approximation with the tie-corrected variance of C - D, from
    the tie sums of x and y."""
    vt, t1, t2 = x_ties
    vu, u1, u2 = y_ties
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
    or their tables."""
    rx, ry = _table_pair(x, y)
    c, d, n0, tx, ty = concordance_counts(rx, ry)
    if tx == n0 or ty == n0:
        raise DegenerateInputError("all-tied input to kendall_tau")
    tau = (c - d) / math.sqrt((n0 - tx) * (n0 - ty))
    p = _tau_normal_pvalue(c, d, rx.size, rx.tie_sums, ry.tie_sums)
    return RankTestResult(statistic=tau, p_value=p,
                          rejected=bool(p < threshold))


def goodman_kruskal_gamma(x, y, threshold: float = 0.01) -> RankTestResult:
    """gamma = (C - D) / (C + D), ties excluded from both counts; from two
    arrays or their tables."""
    rx, ry = _table_pair(x, y)
    c, d, _, _, _ = concordance_counts(rx, ry)
    if c + d == 0:
        raise DegenerateInputError("all pairs tied: gamma undefined")
    gamma = (c - d) / (c + d)
    if abs(gamma) >= 1.0:
        p = 0.0
    else:
        z = gamma * math.sqrt((c + d) / (rx.size * (1.0 - gamma * gamma)))
        p = math.erfc(abs(z) / math.sqrt(2.0))
    return RankTestResult(statistic=float(gamma), p_value=p,
                          rejected=bool(p < threshold))


def spearman(x, y, threshold: float = 0.01) -> RankTestResult:
    """Pearson correlation of mid-ranks; p-value from the t
    approximation with n - 2 degrees of freedom, and 1 at n = 2, where
    two points leave the t test no degree of freedom and every order of
    y gives |rho| = 1.  Takes two arrays or their tables."""
    rx, ry = _table_pair(x, y)
    rho = _pearson(rx.midranks, ry.midranks)
    n = rx.size
    if n == 2:
        p = 1.0
    elif abs(rho) >= 1.0:
        p = 0.0
    else:
        t_stat = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
        p = _t_two_sided_p(t_stat, n - 2)
    return RankTestResult(statistic=rho, p_value=p,
                          rejected=bool(p < threshold))


def fit_linear_map(x, y) -> LinearMap:
    """Ordinary least squares y ~ alpha * x + beta, from two arrays or
    their tables: the dot product of the centred rows that gives Pearson's
    r, over the sum of squares of x."""
    tx, ty = _table_pair(x, y)
    if tx.sum_sq == 0:
        raise DegenerateInputError("constant x: linear map undefined")
    alpha = float(np.dot(tx.centred, ty.centred)) / tx.sum_sq
    beta = float(ty.mean - alpha * tx.mean)
    return LinearMap(alpha=alpha, beta=beta)
