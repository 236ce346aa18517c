"""Detrended fluctuation analysis.

Profile = cumulative sum of the mean-subtracted series.  For each
window size m the profile is cut into non-overlapping windows from the
front and again from the back (2 * floor(N/m) windows, so the remainder
is never discarded), each window is detrended by a degree-l polynomial,
and F(m) is the RMS of the residuals.  The scale exponent h comes from
a log-log fit of F(m) against m.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from ._dot import dot
from .correlation import RankTable, rank_table
from .exceptions import DegenerateInputError

DEFAULT_MIN_WINDOW = 8
#: largest window over series length; `fluctuation` needs m <= n // 4
MAX_FRACTION = DEFAULT_MAX_FRACTION = 0.25
DEFAULT_NUM_WINDOWS = 16
#: positive fluctuation points a Hurst fit needs; a grid of fewer windows
#: can never provide them
MIN_FIT_POINTS = 4
#: shuffled controls averaged per series: one alone leaves ~0.03 noise on h*
N_SHUFFLES = 8


@dataclass(frozen=True)
class DfaConfig:
    window_sizes: tuple[int, ...]
    detrend_degree: int = 1

    def __post_init__(self):
        if self.detrend_degree < 1:
            raise ValueError("detrend degree must be >= 1")
        ws = self.window_sizes
        if not all(a < b for a, b in itertools.pairwise(ws)):
            raise ValueError("window sizes must be strictly ascending")
        if ws and ws[0] < self.detrend_degree + 2:
            raise ValueError(
                f"smallest window {ws[0]} underdetermines a degree-"
                f"{self.detrend_degree} fit"
            )
        if len(ws) < MIN_FIT_POINTS:
            raise ValueError(f"need at least {MIN_FIT_POINTS} window sizes")


def default_config(n: int, detrend_degree: int = 1,
                   min_window: int = DEFAULT_MIN_WINDOW,
                   max_fraction: float = DEFAULT_MAX_FRACTION,
                   num: int = DEFAULT_NUM_WINDOWS) -> DfaConfig:
    """`num` log-spaced integer window sizes, merged where they round alike,
    from min_window (at least detrend_degree + 2) up to n * max_fraction."""
    if not 0 < max_fraction <= MAX_FRACTION:
        raise ValueError(
            f"max_fraction must be in (0, {MAX_FRACTION}], got {max_fraction!r}")
    if num < MIN_FIT_POINTS:
        raise ValueError(f"num must be >= {MIN_FIT_POINTS}, got {num!r}")
    min_window = max(min_window, detrend_degree + 2)
    max_window = int(n * max_fraction)
    if max_window < min_window:
        raise DegenerateInputError(
            f"series of length {n} too short for DFA (max window {max_window})"
        )
    # from this many points on no step reaches 1: the grid is every size
    if num >= 2 + math.ceil(
            2 * max_window * math.log(max_window / min_window)):
        windows = tuple(range(min_window, max_window + 1))
    else:
        grid = np.geomspace(min_window, max_window, num)
        windows = tuple(sorted(set(int(round(m)) for m in grid)))
    if len(windows) < MIN_FIT_POINTS:
        # rounding merged the log-spaced sizes; no fit could follow
        raise DegenerateInputError(
            f"series of length {n} too short for DFA: window grid "
            f"{list(windows)} has {len(windows)} sizes, a fit needs "
            f"{MIN_FIT_POINTS}"
        )
    return DfaConfig(detrend_degree=detrend_degree, window_sizes=windows)


@dataclass(frozen=True)
class HurstEstimate:
    h: float
    intercept: float
    fit_r2: float
    h_shuffled: float = math.nan


def integrate_profile(series) -> np.ndarray:
    row = rank_table(series).row
    if row.size == 0:
        raise DegenerateInputError("empty series has no profile")
    # ndarray.mean's float64 sum, without its overhead: an int64 sum wraps
    profile = row - np.add.reduce(row, dtype=float) / row.size
    return profile.cumsum(out=profile)


@lru_cache(maxsize=64)
def _detrend_basis(m: int, detrend_degree: int) -> np.ndarray:
    """Orthonormal basis (m, degree + 1) of the polynomials of the given
    degree on m points, read-only; projecting onto it is the least-squares
    polynomial fit."""
    # centered abscissa keeps the Vandermonde well conditioned
    t = np.arange(m, dtype=float) - (m - 1) / 2.0
    basis, _ = np.linalg.qr(np.vander(t, detrend_degree + 1))
    basis.setflags(write=False)
    return basis


#: windows of at most this many points are detrended by one product with
#: the cached residual operator, while that product takes at most
#: RESIDUAL_OPERATOR_MAX_WORK multiply-adds; larger ones by the basis
#: twice, which takes fewer
RESIDUAL_OPERATOR_MAX_WINDOW = 32
RESIDUAL_OPERATOR_MAX_WORK = 2 ** 19


@lru_cache(maxsize=64)
def _residual_operator(m: int, detrend_degree: int) -> np.ndarray:
    """The (m, m) operator I - P, P the least-squares projection onto the
    polynomials of the given degree on m points, read-only: a window times
    it is the window's residual.  Each entry is an exact ratio of integers
    rounded once, so the operator is exactly symmetric."""
    # Gram-Schmidt on the powers of twice the centered abscissa, scaled
    # to stay in integers: each vector is orthogonal to the ones before
    u = np.arange(m, dtype=object) * 2 - (m - 1)
    vectors = []
    for k in range(detrend_degree + 1):
        v = u ** k
        for q, q_norm in vectors:
            v = q_norm * v - np.dot(v, q) * q
        vectors.append((v, np.dot(v, v)))
    # P = sum of q q^T / |q|^2, over one common denominator
    den = math.lcm(*(q_norm for _, q_norm in vectors))
    num = np.identity(m, dtype=object) * den
    for q, q_norm in vectors:
        num = num - np.multiply.outer(q, q) * (den // q_norm)
    # int / int is correctly rounded
    op = (num / den).astype(float)
    op.setflags(write=False)
    return op


def fluctuation(profile, m: int, detrend_degree: int = 1) -> float:
    """RMS residual after per-window polynomial detrending at window size m."""
    profile = np.asarray(profile, dtype=float)
    if profile.ndim != 1:
        raise ValueError("profile must be one-dimensional")
    n = profile.size
    if m < detrend_degree + 2:
        raise ValueError(f"window {m} underdetermines a degree-{detrend_degree} fit")
    if m > n // 4:
        raise ValueError(f"window {m} exceeds a quarter of the series length {n}")
    s = n // m
    windows = np.concatenate([profile[:s * m],
                              profile[n - s * m:]]).reshape(2 * s, m)
    # np.dot makes the same BLAS call as @, without matmul's dispatch
    if (m <= RESIDUAL_OPERATOR_MAX_WINDOW
            and m * windows.size <= RESIDUAL_OPERATOR_MAX_WORK):
        resid = np.dot(windows, _residual_operator(m, detrend_degree))
    else:
        basis = _detrend_basis(m, detrend_degree)
        # concatenate made a fresh copy: form the residual in it
        windows -= np.dot(np.dot(windows, basis), basis.T)
        resid = windows
    resid = resid.ravel()
    return math.sqrt(dot(resid, resid) / resid.size)


def dfa_curve(series, config: DfaConfig) -> np.ndarray:
    """F(m) at each of the config's window sizes, in order."""
    profile = integrate_profile(series)
    ws = config.window_sizes
    if profile.size < 4 * ws[-1]:
        raise DegenerateInputError(
            f"series of length {profile.size} too short for window "
            f"{ws[-1]} (need >= {4 * ws[-1]})"
        )
    return np.array([fluctuation(profile, m, config.detrend_degree)
                     for m in ws])


@lru_cache(maxsize=64)
def _grid_fit(window_sizes: tuple[int, ...]
              ) -> tuple[np.ndarray, np.float64, np.ndarray]:
    """log m over a window grid, its mean, and the weights w with
    w . log F the least-squares slope of log F against log m; the arrays
    are read-only."""
    log_m = np.log(np.array(window_sizes, dtype=float))
    log_m_mean = log_m.mean()
    centered = log_m - log_m_mean
    weights = centered / np.dot(centered, centered)
    log_m.setflags(write=False)
    weights.setflags(write=False)
    return log_m, log_m_mean, weights


def _positive_fit(window_sizes: tuple, f: np.ndarray
                  ) -> tuple[np.ndarray, np.float64, np.ndarray, np.ndarray]:
    """The cached `_grid_fit` of the window sizes whose F is positive,
    and log F over them; the slope is the weights dotted with log F.  A
    curve with every point positive keeps the whole grid as given and
    takes no mask."""
    mask = f > 0
    kept = np.count_nonzero(mask)
    if kept < MIN_FIT_POINTS:
        raise DegenerateInputError(
            f"undefined exponent: fewer than {MIN_FIT_POINTS} positive "
            "fluctuation points"
        )
    if kept < f.size:
        window_sizes = tuple(np.asarray(window_sizes)[mask].tolist())
        f = f[mask]
    return (*_grid_fit(window_sizes), np.log(f))


def estimate_hurst(window_sizes, fluctuations) -> HurstEstimate:
    """Least-squares fit of log F against log m over the positive points:
    the slope is one dot product with weights cached per grid of the
    window sizes it keeps."""
    m = np.asarray(window_sizes)
    f = np.asarray(fluctuations, dtype=float)
    if m.shape != f.shape or m.ndim != 1:
        raise ValueError("need one fluctuation per window size")
    lm, lm_mean, weights, lf = _positive_fit(tuple(m.tolist()), f)
    slope = float(np.dot(weights, lf))
    # ndarray.mean's own arithmetic, without its per-call overhead
    lf_mean = np.add.reduce(lf) / lf.size
    intercept = float(lf_mean - slope * lm_mean)
    resid = lf - (slope * lm + intercept)
    ss_res = float(np.dot(resid, resid))
    deviation = lf - lf_mean
    ss_tot = float(np.dot(deviation, deviation))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return HurstEstimate(h=slope, intercept=intercept, fit_r2=r2)


def hurst_of_series(series, config: DfaConfig) -> HurstEstimate:
    return estimate_hurst(config.window_sizes, dfa_curve(series, config))


def shuffled_hurst(series, config: DfaConfig, seed: int) -> float:
    """Hurst exponent of a uniform random permutation of the series drawn
    from `seed`; the expected value for any ordering-driven persistence
    is 0.5.  It is `hurst_of_series(...).h` of the permutation, from the
    slope alone: no intercept or r^2.  The permutation of the checked row
    is a table built unchecked, as a table builds its midranks'."""
    shuffled = np.random.default_rng(seed).permutation(
        rank_table(series).row)
    shuffled.setflags(write=False)
    *_, weights, lf = _positive_fit(config.window_sizes,
                                    dfa_curve(RankTable(shuffled), config))
    return float(np.dot(weights, lf))


def _shuffle_seed(seed: int, key: str, k: int) -> int:
    # stable across runs and worker scheduling; hash() is salted, so use sha256
    digest = hashlib.sha256(f"{key}/{k}".encode()).digest()
    return (seed << 64) ^ int.from_bytes(digest[:8], "big")


def hurst_with_control(series, config: DfaConfig, seed: int,
                       key: str) -> HurstEstimate:
    """`hurst_of_series` with h_shuffled, the mean of N_SHUFFLES controls."""
    est = hurst_of_series(series, config)
    return replace(est, h_shuffled=float(np.mean([
        shuffled_hurst(series, config, _shuffle_seed(seed, key, k))
        for k in range(N_SHUFFLES)])))
