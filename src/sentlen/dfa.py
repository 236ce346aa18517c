"""Detrended fluctuation analysis.

Profile = cumulative sum of the mean-subtracted series.  For each
window size m the profile is cut into non-overlapping windows from the
front and again from the back (2 * floor(N/m) windows, so the remainder
is never discarded), each window is detrended by a degree-l polynomial,
and F(m) is the RMS of the residuals.  The scale exponent h comes from
a log-log fit of F(m) against m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exceptions import DegenerateInputError

DEFAULT_MIN_WINDOW = 8
#: largest window over series length; `fluctuation` needs m <= n // 4
MAX_FRACTION = DEFAULT_MAX_FRACTION = 0.25
DEFAULT_NUM_WINDOWS = 16
#: positive fluctuation points a Hurst fit needs; a grid of fewer windows
#: can never provide them
MIN_FIT_POINTS = 4


@dataclass(frozen=True)
class DfaConfig:
    window_sizes: tuple[int, ...]
    detrend_degree: int = 1

    def __post_init__(self):
        if self.detrend_degree < 1:
            raise ValueError("detrend degree must be >= 1")
        ws = self.window_sizes
        if list(ws) != sorted(set(ws)):
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
    arr = np.asarray(series, dtype=float)
    if arr.size == 0:
        raise DegenerateInputError("empty series has no profile")
    return np.cumsum(arr - arr.mean())


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


def fluctuation(profile, m: int, detrend_degree: int = 1) -> float:
    """RMS residual after per-window polynomial detrending at window size m."""
    profile = np.asarray(profile, dtype=float)
    n = profile.size
    if m < detrend_degree + 2:
        raise ValueError(f"window {m} underdetermines a degree-{detrend_degree} fit")
    if m > n // 4:
        raise ValueError(f"window {m} exceeds a quarter of the series length {n}")
    s = n // m
    windows = np.concatenate([
        profile[:s * m].reshape(s, m),
        profile[n - s * m:].reshape(s, m),
    ])
    basis = _detrend_basis(m, detrend_degree)
    # concatenate made a fresh copy: form the squared residual in it, and
    # sum / size is np.mean's own arithmetic
    windows -= (windows @ basis) @ basis.T
    windows *= windows
    return math.sqrt(windows.sum() / windows.size)


def dfa_curve(series, config: DfaConfig) -> np.ndarray:
    """F(m) at each of the config's window sizes, in order."""
    series = np.asarray(series, dtype=float)
    ws = config.window_sizes
    if series.size < 4 * ws[-1]:
        raise DegenerateInputError(
            f"series of length {series.size} too short for window "
            f"{ws[-1]} (need >= {4 * ws[-1]})"
        )
    profile = integrate_profile(series)
    return np.array([fluctuation(profile, m, config.detrend_degree)
                     for m in ws])


@lru_cache(maxsize=64)
def _grid_fit(window_sizes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """log m over a window grid and the weights w with w . log F the
    least-squares slope of log F against log m, both read-only."""
    log_m = np.log(np.array(window_sizes, dtype=float))
    centered = log_m - log_m.mean()
    weights = centered / np.dot(centered, centered)
    log_m.setflags(write=False)
    weights.setflags(write=False)
    return log_m, weights


def estimate_hurst(window_sizes, fluctuations) -> HurstEstimate:
    """Least-squares fit of log F against log m over the positive points:
    the slope is one dot product with weights cached per grid of the
    window sizes it keeps."""
    m = np.asarray(window_sizes)
    f = np.asarray(fluctuations, dtype=float)
    if m.shape != f.shape or m.ndim != 1:
        raise ValueError("need one fluctuation per window size")
    mask = f > 0
    if np.count_nonzero(mask) < MIN_FIT_POINTS:
        raise DegenerateInputError(
            f"undefined exponent: fewer than {MIN_FIT_POINTS} positive "
            "fluctuation points"
        )
    lm, weights = _grid_fit(tuple(m[mask].tolist()))
    lf = np.log(f[mask])
    slope = float(np.dot(weights, lf))
    lf_mean = lf.mean()
    intercept = float(lf_mean - slope * lm.mean())
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
    is 0.5."""
    shuffled = np.random.default_rng(seed).permutation(
        np.asarray(series, dtype=float))
    return hurst_of_series(shuffled, config).h
