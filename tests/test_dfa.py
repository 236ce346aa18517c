import dataclasses
import itertools
import math
import re
import tracemalloc
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sentlen import dfa
from sentlen.correlation import rank_table
from sentlen.dfa import (
    DfaConfig,
    _detrend_basis,
    _residual_operator,
    default_config,
    dfa_curve,
    estimate_hurst,
    fluctuation,
    hurst_of_series,
    integrate_profile,
    shuffled_hurst,
)
from sentlen.exceptions import DegenerateInputError


class TestProfile:
    def test_constant_series(self):
        assert integrate_profile([1, 1, 1]) == pytest.approx([0, 0, 0])

    def test_hand_computed(self):
        assert integrate_profile([1, 2, 3]) == pytest.approx([-1, -1, 0])

    def test_last_element_telescopes_to_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = rng.normal(size=rng.integers(1, 500))
            assert abs(integrate_profile(w)[-1]) < 1e-9

    def test_empty(self):
        with pytest.raises(DegenerateInputError):
            integrate_profile([])

    def test_profile_is_one_array(self):
        # the centred row is cumulated in place: apart from numpy's cast
        # buffer, the profile is the only array of n floats the call makes;
        # a cumsum into a second array peaked at 2 x 8n
        n = 10 ** 5
        row = np.random.default_rng(1).integers(1, 40, n)
        integrate_profile(row[:10])
        tracemalloc.start()
        try:
            integrate_profile(row)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * n

    def test_int64_row_near_2_62_sums_in_float(self):
        # 300 values near 2**62 sum past int64: an int64 sum would wrap
        # to a negative mean with no warning, so the profile and the
        # curve must come out as those of the row's float64 copy
        row = np.random.default_rng(9).integers(2 ** 62 - 2 ** 58, 2 ** 62,
                                                300)
        copy = row.astype(float)
        table, copy_table = rank_table(row), rank_table(copy)
        assert table.row.dtype == np.int64
        assert integrate_profile(row).tobytes() == \
            integrate_profile(copy).tobytes()
        config = default_config(300)
        assert dfa_curve(row, config).tobytes() == \
            dfa_curve(copy, config).tobytes()
        # the table's own reductions of the row: ndarray.mean sums an
        # integer row in float64, and the centred row is float64
        assert repr(table.mean) == repr(copy_table.mean)
        assert table.centred.tobytes() == copy_table.centred.tobytes()
        assert table.sum_sq == copy_table.sum_sq


class TestFluctuation:
    def test_linear_profile_vanishes_with_degree_one(self):
        profile = 0.7 * np.arange(200.0) - 3.0
        for m in (8, 16, 50):
            assert fluctuation(profile, m, 1) == pytest.approx(0.0, abs=1e-10)

    def test_quadratic_profile_vanishes_with_degree_two(self):
        t = np.arange(200.0)
        profile = 0.02 * t ** 2 - t + 5
        assert fluctuation(profile, 16, 2) == pytest.approx(0.0, abs=1e-8)

    def test_matches_per_window_least_squares_oracle(self):
        rng = np.random.default_rng(1)
        profile = rng.normal(size=101)  # non-divisible length on purpose
        for m, deg in [(4, 1), (8, 1), (10, 2), (25, 3)]:
            n = len(profile)
            s = n // m
            windows = [profile[i * m:(i + 1) * m] for i in range(s)]
            windows += [profile[n - (i + 1) * m:n - i * m] for i in range(s)]
            sq = []
            for w in windows:
                coef = np.polyfit(np.arange(m), w, deg)
                sq.extend((w - np.polyval(coef, np.arange(m))) ** 2)
            expected = math.sqrt(np.mean(sq))
            assert fluctuation(profile, m, deg) == pytest.approx(
                expected, rel=1e-9)

    def test_window_bounds(self):
        profile = np.arange(100.0)
        with pytest.raises(ValueError):
            fluctuation(profile, 2, 1)  # underdetermined
        with pytest.raises(ValueError):
            fluctuation(profile, 26, 1)  # exceeds length / 4


def lstsq_fluctuation(profile, m, deg):
    """F(m) by one least-squares solve over all windows against the
    centered Vandermonde."""
    n = profile.size
    s = n // m
    windows = np.concatenate([profile[:s * m].reshape(s, m),
                              profile[n - s * m:].reshape(s, m)])
    vand = np.vander(np.arange(m, dtype=float) - (m - 1) / 2.0, deg + 1)
    coef, _, _, _ = np.linalg.lstsq(vand, windows.T, rcond=None)
    return math.sqrt(np.mean((windows.T - vand @ coef) ** 2))


def blocked_sum_of_squares(resid):
    """The np.dot of each consecutive 10 000-value block of the residual
    with itself, added in index order: one np.dot for at most 10 000."""
    total = 0.0
    for start in range(0, resid.size, 10_000):
        block = resid[start:start + 10_000]
        total += float(np.dot(block, block))
    return total


def mean_fluctuation(profile, m, deg):
    """F(m) as the (2s, m) window block, its residual, and the mean of
    the squared residual as its blocked sum of squares over its size: the
    arithmetic fluctuation must keep bit for bit.  The residual is the
    block times the residual operator for a window of at most 32 points
    while that product takes at most 2**19 multiply-adds, and the block
    minus its projection onto the basis otherwise."""
    n = profile.size
    s = n // m
    windows = np.concatenate([profile[:s * m].reshape(s, m),
                              profile[n - s * m:].reshape(s, m)])
    if m <= 32 and m * windows.size <= 2 ** 19:
        resid = (windows @ _residual_operator(m, deg)).ravel()
    else:
        basis = _detrend_basis(m, deg)
        resid = (windows - (windows @ basis) @ basis.T).ravel()
    return math.sqrt(blocked_sum_of_squares(resid) / resid.size)


class TestFluctuationBits:
    @staticmethod
    def assert_every_window_matches(n, seed):
        profile = integrate_profile(
            np.random.default_rng(seed).integers(1, 40, size=n))
        for deg in (1, 2, 3):
            for m in default_config(n, detrend_degree=deg).window_sizes:
                assert fluctuation(profile, m, deg) == mean_fluctuation(
                    profile, m, deg)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(68, 6000), seed=st.integers(0, 2 ** 32 - 1))
    def test_equals_mean_of_squared_residuals(self, n, seed):
        self.assert_every_window_matches(n, seed)

    def test_equals_mean_of_squared_residuals_long_book(self):
        self.assert_every_window_matches(15_000, 2026)

    # 2 * (n // m) * m residuals: one whole block at each path, and one
    # block and two values, which only m = 3 makes
    @pytest.mark.parametrize("n, m, deg, size", [
        (5000, 8, 1, 10_000), (5000, 100, 2, 10_000), (5001, 3, 1, 10_002),
    ])
    def test_equals_blocked_sum_at_the_block_edge(self, n, m, deg, size):
        assert 2 * (n // m) * m == size
        profile = integrate_profile(
            np.random.default_rng(n + m).integers(1, 40, size=n))
        assert fluctuation(profile, m, deg) == mean_fluctuation(
            profile, m, deg)

    def test_each_path_taken_where_documented(self):
        # at n = 20 000, about 40 000 residuals, the product with the
        # operator would take more than 2**19 multiply-adds from m = 14 on;
        # past m = 32 it never serves
        for n, sizes in [(300, [(8, True), (32, True), (33, False)]),
                         (20_000, [(8, True), (13, True), (14, False),
                                   (32, False), (33, False)])]:
            profile = integrate_profile(
                np.random.default_rng(n).integers(1, 40, size=n))
            for m, operator in sizes:
                before = _residual_operator.cache_info()
                fluctuation(profile, m, 1)
                after = _residual_operator.cache_info()
                assert (after.hits + after.misses
                        - before.hits - before.misses) == operator, (n, m)

    @pytest.mark.parametrize("make", [
        lambda p: p,                          # float64: np.asarray keeps it
        lambda p: p[:-3],                     # a view of a larger buffer
        lambda p: p[::-1],                    # a negative-stride view
        lambda p: np.round(p).astype(np.int64),
        lambda p: p.astype(np.float32),
    ], ids=["float64", "view", "reversed", "int64", "float32"])
    def test_caller_profile_left_alone(self, make):
        base = integrate_profile(
            np.random.default_rng(7).integers(1, 40, size=403))
        profile = make(base)
        before, before_base = profile.tobytes(), base.tobytes()
        for m in (8, 25, 50, 100):
            fluctuation(profile, m, 1)
        assert profile.tobytes() == before
        assert base.tobytes() == before_base

    def test_read_only_profile_accepted(self):
        profile = integrate_profile(np.arange(400) % 7)
        profile.setflags(write=False)
        assert fluctuation(profile, 20, 2) == mean_fluctuation(profile, 20, 2)


class TestProjection:
    @pytest.mark.parametrize("deg", [1, 2, 3])
    def test_matches_lstsq_formulation(self, deg):
        rng = np.random.default_rng(deg)
        for n in (203, 600):
            profile = integrate_profile(rng.integers(1, 40, size=n))
            for m in range(deg + 2, n // 4 + 1):
                assert fluctuation(profile, m, deg) == pytest.approx(
                    lstsq_fluctuation(profile, m, deg), rel=1e-12)

    def test_cached_basis_is_read_only_and_orthonormal(self):
        basis = _detrend_basis(17, 2)
        assert basis.shape == (17, 3)
        assert not basis.flags.writeable
        with pytest.raises(ValueError):
            basis[0, 0] = 1.0
        assert basis.T @ basis == pytest.approx(np.eye(3), abs=1e-12)
        assert _detrend_basis(17, 2) is basis

    @pytest.mark.parametrize("m, deg", [(17, 2), (8, 1), (3, 1), (32, 3)])
    def test_cached_residual_operator(self, m, deg):
        op = _residual_operator(m, deg)
        assert op.shape == (m, m)
        assert not op.flags.writeable
        with pytest.raises(ValueError):
            op[0, 0] = 1.0
        assert np.array_equal(op, op.T)
        assert op @ op == pytest.approx(op, abs=1e-14)
        # every polynomial of degree <= deg is its own fit: no residual
        t = np.linspace(-1.0, 1.0, m)
        assert op @ np.vander(t, deg + 1) == pytest.approx(
            np.zeros((m, deg + 1)), abs=1e-14)
        basis = _detrend_basis(m, deg)
        assert op == pytest.approx(np.eye(m) - basis @ basis.T, abs=1e-15)
        assert _residual_operator(m, deg) is op

    @pytest.mark.parametrize("m, deg", [(2, 1), (3, 2), (4, 3), (26, 1),
                                        (26, 3)])
    def test_bad_window_rejected_before_the_cache(self, m, deg):
        caches = (_detrend_basis, _residual_operator)
        before = [c.cache_info() for c in caches]
        with pytest.raises(ValueError):
            fluctuation(np.arange(100.0), m, deg)
        for cache, info in zip(caches, before):
            after = cache.cache_info()
            assert (after.hits, after.misses) == (info.hits, info.misses)


def exact_squared_fluctuation(series, m) -> Fraction:
    """F(m)**2 at degree 1 of an integer series, exactly.  The profile's
    linear term (i + 1) * mean is absorbed by each window's fit, so the
    windows of y = cumsum(series) have the same residuals.  For a window
    with t = 0 .. m - 1, A = sum y, B = sum t y, C = sum y**2 and
    D = 2B - (m - 1)A, its residual sum of squares times m(m**2 - 1) is
    m(m**2 - 1)C - (m**2 - 1)A**2 - 3D**2, every term an integer."""
    y = list(itertools.accumulate(int(v) for v in series))
    n = len(y)
    s = n // m
    numerator = 0
    for start in [i * m for i in range(s)] + [n - (i + 1) * m
                                              for i in range(s)]:
        window = y[start:start + m]
        a = sum(window)
        b = sum(t * v for t, v in enumerate(window))
        c = sum(v * v for v in window)
        d = 2 * b - (m - 1) * a
        numerator += m * (m * m - 1) * c - (m * m - 1) * a * a - 3 * d * d
    return Fraction(numerator, m * (m * m - 1) * 2 * s * m)


def ulps_from_exact(f: float, exact_square: Fraction) -> float:
    """|f - sqrt(exact_square)| in units in the last place of the exact
    root, from a 60-digit root."""
    with localcontext() as ctx:
        ctx.prec = 60
        root = (Decimal(exact_square.numerator)
                / Decimal(exact_square.denominator)).sqrt()
        return float(abs(Decimal(f) - root) / Decimal(math.ulp(float(root))))


class TestExactness:
    """F against its exact value on integer series at degree 1, with m
    on both sides of where the residual operator stops serving.
    Measured on a 2-vCPU Xeon (numpy 2.4.6, OpenBLAS 0.3.31)."""

    # the arithmetic before the operator (a projection onto the basis,
    # then np.add.reduce of the squares) was at most 5.9 ulps from exact
    # over 20 000 random draws of these examples and 5.6 over 3 000
    # examples of this strategy; this one 4.3 and 4.3
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(n_and_m=st.integers(68, 3000).flatmap(lambda n: st.tuples(
               st.just(n), st.integers(3, min(n // 4, 64)))),
           high=st.sampled_from([3, 40, 300]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_within_ulps_of_the_integer_identity(self, n_and_m, high, seed):
        n, m = n_and_m
        series = np.random.default_rng(seed).integers(1, high, size=n)
        f = fluctuation(integrate_profile(series), m, 1)
        assert ulps_from_exact(f, exact_squared_fluctuation(series, m)) <= 6

    @pytest.mark.parametrize("seed", range(12))
    def test_long_series_within_ulps(self, seed):
        # at n = 20 000 the work bound sends m = 14 to 32 to the basis.
        # Over these 12 series the arithmetic before the operator was at
        # most 1.4 ulps from exact, one np.dot of all squares 2.6, and
        # this one, the squares summed in 10 000-value blocks, 1.7: a
        # dot's sum of squares lands up to about one ulp of the sum
        # further from it than np.add.reduce's pairwise sum
        series = np.random.default_rng(seed).integers(1, 300, size=20_000)
        profile = integrate_profile(series)
        for m in (8, 13, 14, 32, 33, 64):
            f = fluctuation(profile, m, 1)
            assert ulps_from_exact(
                f, exact_squared_fluctuation(series, m)) <= 3


class TestCurve:
    def test_constant_series_all_zero(self):
        cfg = default_config(400)
        f = dfa_curve(np.full(400, 5.0), cfg)
        assert np.allclose(f, 0.0, atol=1e-10)

    def test_too_short_series(self):
        cfg = DfaConfig(window_sizes=(8, 16, 32, 64))
        with pytest.raises(DegenerateInputError, match=re.escape(
                "series of length 255 too short for window 64 "
                "(need >= 256)")):
            dfa_curve(np.random.default_rng(2).normal(size=255), cfg)
        assert dfa_curve(np.arange(256.0), cfg).shape == (4,)

    @pytest.mark.parametrize("kwargs, message", [
        ({"window_sizes": (8, 16), "detrend_degree": 0},
         "detrend degree must be >= 1"),
        ({"window_sizes": (8,)}, "need at least 4 window sizes"),
        ({"window_sizes": (16, 8)}, "window sizes must be strictly ascending"),
        ({"window_sizes": (8, 8, 16)},
         "window sizes must be strictly ascending"),
        ({"window_sizes": (3, 8), "detrend_degree": 2},
         "smallest window 3 underdetermines a degree-2 fit"),
        ({"window_sizes": (8, 16)}, "need at least 4 window sizes"),
        ({"window_sizes": (8, 16, 32)}, "need at least 4 window sizes"),
        ({"window_sizes": ()}, "need at least 4 window sizes"),
    ])
    def test_config_rejected_when_built(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DfaConfig(**kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        ({"max_fraction": 0.0}, "max_fraction must be in (0, 0.25], got 0.0"),
        ({"max_fraction": -0.1}, "max_fraction must be in (0, 0.25], got -0.1"),
        ({"max_fraction": 0.5}, "max_fraction must be in (0, 0.25], got 0.5"),
        ({"num": 3}, "num must be >= 4, got 3"),
        ({"num": 0}, "num must be >= 4, got 0"),
    ])
    def test_default_config_rejects_bad_parameters(self, kwargs, message,
                                                   monkeypatch):
        def no_grid(*args, **kwargs):
            raise AssertionError("a window grid was built")

        monkeypatch.setattr(dfa.np, "geomspace", no_grid)
        # at n = 0 a grid would be too short for DFA, so the parameter's
        # ValueError shows that it is checked first
        for n in (4000, 0):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                default_config(n, **kwargs)

    def test_window_grid_respects_bounds(self):
        ws = default_config(2000).window_sizes
        assert ws[0] == 8
        assert ws[-1] == 500
        assert list(ws) == sorted(set(ws))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(n=st.integers(12, 20_000),
           degree_and_min=st.integers(1, 3).flatmap(lambda d: st.tuples(
               st.just(d), st.integers(d + 2, 64))),
           max_fraction=st.floats(0, 0.25, exclude_min=True),
           num=st.integers(4, 32))
    def test_default_config_is_refused_or_usable(self, n, degree_and_min,
                                                 max_fraction, num):
        degree, min_window = degree_and_min
        try:
            cfg = default_config(n, detrend_degree=degree,
                                 min_window=min_window,
                                 max_fraction=max_fraction, num=num)
        except DegenerateInputError:
            return
        dfa_curve(np.arange(n, dtype=float), cfg)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(n=st.integers(12, 4000),
           degree_and_min=st.integers(1, 3).flatmap(lambda d: st.tuples(
               st.just(d), st.integers(d + 2, 64))),
           max_fraction=st.floats(0, 0.25, exclude_min=True),
           scale=st.floats(0, 3), shift=st.integers(-2, 2))
    def test_grid_is_the_rounded_geomspace_at_any_num(
            self, n, degree_and_min, max_fraction, scale, shift):
        # default_config builds at most `clip` points; on either side of
        # it the grid is the rounding of all `num` log-spaced points
        degree, min_window = degree_and_min
        lo = max(min_window, degree + 2)
        hi = int(n * max_fraction)
        assume(hi >= lo)
        clip = 2 + math.ceil(2 * hi * math.log(hi / lo))
        num = max(dfa.MIN_FIT_POINTS, round(scale * clip) + shift)
        grid = np.geomspace(lo, hi, num)
        expected = tuple(sorted(set(int(round(m)) for m in grid)))
        kwargs = dict(detrend_degree=degree, min_window=min_window,
                      max_fraction=max_fraction, num=num)
        if len(expected) < dfa.MIN_FIT_POINTS:
            with pytest.raises(DegenerateInputError):
                default_config(n, **kwargs)
        else:
            assert default_config(n, **kwargs).window_sizes == expected

    def test_grid_past_the_clip_is_built_without_geomspace(self,
                                                           monkeypatch):
        def no_grid(*args, **kwargs):
            raise AssertionError("a log-spaced grid was built")

        monkeypatch.setattr(dfa.np, "geomspace", no_grid)
        tracemalloc.start()
        try:
            cfg = default_config(10 ** 6, num=10 ** 9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cfg.window_sizes == tuple(range(8, 250_001))
        # the grid itself, 249 993 ints and their tuple, takes 10 MB; built
        # through np.geomspace and a set it peaked at 83 MB
        assert peak < 12_000_000

    def test_grid_cost_is_bounded_by_the_series(self):
        # a million points would round to the same 68 sizes
        tracemalloc.start()
        try:
            cfg = default_config(300, num=10 ** 6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert cfg.window_sizes == tuple(range(8, 76))

    def test_scale_equivariance_and_shift_invariance(self):
        rng = np.random.default_rng(3)
        series = rng.normal(size=1000)
        cfg = default_config(1000)
        base = dfa_curve(series, cfg)
        scaled = dfa_curve(2.5 * series, cfg)
        assert scaled == pytest.approx(2.5 * base, rel=1e-9)
        shifted = dfa_curve(series + 42.0, cfg)
        assert shifted == pytest.approx(base, rel=1e-9)

        ms = cfg.window_sizes
        h0 = estimate_hurst(ms, base).h
        assert estimate_hurst(ms, scaled).h == pytest.approx(h0, abs=1e-9)
        assert estimate_hurst(ms, scaled).intercept == pytest.approx(
            estimate_hurst(ms, base).intercept + math.log(2.5), abs=1e-9)


class TestHurstEstimate:
    def test_exact_power_law(self):
        ms = [8, 16, 32, 64, 128]
        est = estimate_hurst(ms, [m ** 0.75 for m in ms])
        assert est.h == pytest.approx(0.75, abs=1e-9)
        assert est.fit_r2 == pytest.approx(1.0, abs=1e-12)

    def test_power_law_with_prefactor(self):
        ms = [8, 16, 32, 64, 128]
        est = estimate_hurst(ms, [2 * m ** 0.5 for m in ms])
        assert est.h == pytest.approx(0.5, abs=1e-9)
        assert est.intercept == pytest.approx(math.log(2), abs=1e-9)

    @staticmethod
    def _polyfit_estimate(m, f):
        """(slope, intercept, r2) of the fit through `np.polyfit`."""
        mask = f > 0
        lm = np.log(m[mask])
        lf = np.log(f[mask])
        slope, intercept = np.polyfit(lm, lf, 1)
        ss_res = np.sum((lf - (slope * lm + intercept)) ** 2)
        return slope, intercept, 1.0 - ss_res / np.sum((lf - lf.mean()) ** 2)

    @pytest.mark.parametrize("n, num", [(300, 16), (2000, 16), (15000, 16),
                                        (300, 5), (5000, 40)])
    @pytest.mark.parametrize("zero_at", [None, 0, 2, -1])
    def test_matches_polyfit(self, n, num, zero_at):
        rng = np.random.default_rng(n + num)
        cfg = default_config(n, num=num)
        m = np.array(cfg.window_sizes)
        f = dfa_curve(rng.gamma(2.0, 5.0, size=n), cfg)
        if zero_at is not None:
            # a curve with a point at zero fits the points it keeps
            f[zero_at] = 0.0
        est = estimate_hurst(m, f)
        slope, intercept, r2 = self._polyfit_estimate(m, f)
        assert est.h == pytest.approx(slope, rel=1e-12, abs=0)
        assert est.intercept == pytest.approx(intercept, rel=1e-12, abs=0)
        assert est.fit_r2 == pytest.approx(r2, rel=1e-12, abs=0)

    def test_grid_weights_cached_read_only(self):
        cfg = default_config(3000)
        f = dfa_curve(np.random.default_rng(8).normal(size=3000), cfg)
        estimate_hurst(cfg.window_sizes, f)
        hits = dfa._grid_fit.cache_info().hits
        estimate_hurst(cfg.window_sizes, f)
        assert dfa._grid_fit.cache_info().hits == hits + 1
        log_m, log_m_mean, weights = dfa._grid_fit(cfg.window_sizes)
        assert log_m_mean == log_m.mean()
        for arr in (log_m, weights):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
        assert np.array_equal(log_m, np.log(cfg.window_sizes))

    @staticmethod
    def _two_branch_estimate(m, f):
        """(slope, intercept, r2) by the fit's former formula: the grid's
        weights for a curve with no zero point, and weights of its own for
        the points a curve with a zero point keeps."""
        mask = f > 0
        if mask.all():
            lm = np.log(np.array(tuple(m.tolist()), dtype=float))
            lf = np.log(f)
        else:
            lm = np.log(m[mask])
            lf = np.log(f[mask])
        centered = lm - lm.mean()
        weights = centered / np.dot(centered, centered)
        slope = float(np.dot(weights, lf))
        lf_mean = lf.mean()
        intercept = float(lf_mean - slope * lm.mean())
        resid = lf - (slope * lm + intercept)
        ss_res = float(np.dot(resid, resid))
        deviation = lf - lf_mean
        ss_tot = float(np.dot(deviation, deviation))
        r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
        return slope, intercept, r2

    @staticmethod
    def _curve(n, num, zero_at):
        """(window sizes, fluctuations) of a gamma series, with one point
        set to zero unless `zero_at` is None."""
        rng = np.random.default_rng(n + num)
        cfg = default_config(n, num=num)
        f = dfa_curve(rng.gamma(2.0, 5.0, size=n), cfg)
        if zero_at is not None:
            f[{"first": 0, "middle": f.size // 2, "last": -1}[zero_at]] = 0.0
        return np.array(cfg.window_sizes), f

    @pytest.mark.parametrize("n, num", [(300, 16), (2000, 16), (15000, 16),
                                        (300, 5), (5000, 40)])
    @pytest.mark.parametrize("zero_at", [None, "first", "middle", "last"])
    def test_bits_equal_the_two_branch_fit(self, n, num, zero_at):
        m, f = self._curve(n, num, zero_at)
        est = estimate_hurst(m, f)
        assert (est.h, est.intercept, est.fit_r2) == \
            self._two_branch_estimate(m, f)

    def test_zero_point_weights_cached_read_only(self):
        m, f = self._curve(3000, 16, "middle")
        estimate_hurst(m, f)
        hits = dfa._grid_fit.cache_info().hits
        estimate_hurst(m, f)
        assert dfa._grid_fit.cache_info().hits == hits + 1
        kept = m[f > 0]
        log_m, log_m_mean, weights = dfa._grid_fit(tuple(kept.tolist()))
        assert log_m_mean == log_m.mean()
        for arr in (log_m, weights):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
        assert np.array_equal(log_m, np.log(kept))

    def test_degenerate_all_zero_curve(self):
        with pytest.raises(DegenerateInputError):
            estimate_hurst(np.array([8, 16, 32, 64]), np.zeros(4))

    def test_insufficient_points(self):
        with pytest.raises(DegenerateInputError):
            estimate_hurst(np.array([8, 16, 32]), np.array([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("m, f", [
        ([8, 16, 32, 64], [1.0, 2.0, 3.0]),
        ([8, 16, 32], [1.0, 2.0, 3.0, 4.0]),
        ([[8, 16, 32, 64]], [[1.0, 2.0, 3.0, 4.0]]),
    ])
    def test_one_fluctuation_per_window_size(self, m, f):
        with pytest.raises(ValueError,
                           match="^need one fluctuation per window size$"):
            estimate_hurst(m, f)


class TestShuffled:
    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        series = rng.normal(size=1500)
        cfg = default_config(1500)
        assert shuffled_hurst(series, cfg, 123) == shuffled_hurst(
            series, cfg, 123)

    def test_seed_changes_permutation(self):
        rng = np.random.default_rng(5)
        series = rng.normal(size=1500)
        cfg = default_config(1500)
        a = shuffled_hurst(series, cfg, 1)
        b = shuffled_hurst(series, cfg, 2)
        assert a != b

    @pytest.mark.parametrize("seed", [0, 7, (5 << 64) ^ 12345])
    @pytest.mark.parametrize("scale", [1.0, 2.0 ** -541])
    def test_is_the_slope_of_the_permutation(self, seed, scale):
        # at 2**-541 the squared residuals of the smaller windows round
        # to zero: F is zero there, and the fit keeps the other points
        series = np.random.default_rng(3).integers(1, 30, 300) * scale
        cfg = default_config(300)
        shuffled = np.random.default_rng(seed).permutation(series)
        positive = np.count_nonzero(dfa_curve(shuffled, cfg))
        if scale == 1.0:
            assert positive == len(cfg.window_sizes)
        else:
            assert dfa.MIN_FIT_POINTS <= positive < len(cfg.window_sizes)
        assert shuffled_hurst(series, cfg, seed) == \
            hurst_of_series(shuffled, cfg).h

    def test_iid_series_near_half(self):
        series = np.random.default_rng(6).standard_normal(8000)
        cfg = default_config(8000)
        assert 0.4 < shuffled_hurst(series, cfg, 0) < 0.6


def _fraction_inverse(matrix):
    """The inverse of a square matrix of integers, exactly, by
    Gauss-Jordan elimination in Fraction."""
    k = len(matrix)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j))
                                          for j in range(k)]
            for i, row in enumerate(matrix)]
    for c in range(k):
        p = next(r for r in range(c, k) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c][c]
        rows[c] = [x / pivot for x in rows[c]]
        for r in range(k):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [row[k:] for row in rows]


def exact_residual_operator(m, deg):
    """I - V (V^T V)^-1 V^T in Fraction, V the (m, deg + 1) Vandermonde
    matrix of 0, 1, ..., m - 1: the degree-deg residual operator, exactly,
    built apart from `_residual_operator`'s Gram-Schmidt."""
    k = deg + 1
    v = [[i ** a for a in range(k)] for i in range(m)]
    gram = [[sum(row[a] * row[b] for row in v) for b in range(k)]
            for a in range(k)]
    inverse = _fraction_inverse(gram)
    h = [[sum(row[a] * inverse[a][b] for a in range(k)) for b in range(k)]
         for row in v]
    return [[int(i == j) - sum(h[i][b] * v[j][b] for b in range(k))
             for j in range(m)] for i in range(m)]


#: a_l of the permutation-expected squared fluctuation at degree l
_SHUFFLE_A = {1: Fraction(1, 15), 2: Fraction(3, 70), 3: Fraction(2, 63)}


class TestShuffledClosedForm:
    """The shuffled control's expectation in closed form.  Under a uniform
    permutation the centred values have covariance
    sigma^2 n / (n - 1) (I - J / n), so a window's profile has covariance
    proportional to Min[i, j] = min(i, j) + 1 plus terms constant or
    linear in each index, which the degree-l fit removes.  A window's
    expected squared residual is then sigma^2 n / (n - 1) tr(R Min) / m,
    R the residual operator, whatever the window's position, and
    tr(R Min) / m = a_l (m^2 - (l + 1)^2) / m."""

    @pytest.mark.parametrize("deg", [1, 2, 3])
    def test_operator_and_trace(self, deg):
        for m in range(deg + 2, 33):
            exact = exact_residual_operator(m, deg)
            # each entry correctly rounded: Fraction's float is
            assert _residual_operator(m, deg).tolist() == [
                [float(x) for x in row] for row in exact]
            trace = sum(exact[i][j] * (min(i, j) + 1)
                        for i in range(m) for j in range(m))
            assert trace / m == _SHUFFLE_A[deg] * (
                m * m - (deg + 1) ** 2) / m

    @pytest.mark.parametrize("deg", [1, 2])
    def test_mean_of_the_seeded_permutations(self, deg):
        # 400 permutations drawn as hurst_with_control draws its controls:
        # their mean F^2 lies within 4 standard errors of the closed form
        # at every window of the default grid, sigma^2 the population
        # variance; degree 3's closed form is checked by the trace alone
        n, draws = 300, 400
        series = np.random.default_rng(13).integers(1, 40, n)
        cfg = default_config(n, detrend_degree=deg)
        squares = np.array([
            [fluctuation(integrate_profile(
                np.random.default_rng(dfa._shuffle_seed(
                    0, "book/N_w", k)).permutation(series)), m, deg) ** 2
             for m in cfg.window_sizes]
            for k in range(draws)])
        m = np.array(cfg.window_sizes)
        expected = series.var() * n / (n - 1) * float(_SHUFFLE_A[deg]) * (
            m * m - (deg + 1) ** 2) / m
        error = squares.std(axis=0, ddof=1) / math.sqrt(draws)
        assert len(m) == 16
        assert np.all(np.abs(squares.mean(axis=0) - expected) <= 4 * error)


_CONFIG_200 = default_config(200)
#: every DFA entry point that takes a series, with its other arguments
_ENTRY_POINTS = {
    "integrate_profile": integrate_profile,
    "dfa_curve": lambda s: dfa_curve(s, _CONFIG_200),
    "hurst_of_series": lambda s: hurst_of_series(s, _CONFIG_200),
    "shuffled_hurst": lambda s: shuffled_hurst(s, _CONFIG_200, 0),
    "hurst_with_control": lambda s: dfa.hurst_with_control(
        s, _CONFIG_200, 0, "book/N_w"),
}


def _row_with(value):
    row = np.random.default_rng(8).integers(1, 40, 200).astype(float)
    row[17] = value
    return row


class TestRefusal:
    """Every DFA entry point reads its series through `rank_table`, so it
    refuses what the rank tests refuse, before any arithmetic warns."""

    @pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
    @pytest.mark.parametrize("series, match", [
        (np.random.default_rng(8).integers(1, 40, (2, 200)).astype(float),
         "one-dimensional"),
        (_row_with(math.nan), "finite"),
        (_row_with(math.inf), "finite"),
        (_row_with(-math.inf), "finite"),
    ], ids=["2-d", "nan", "+inf", "-inf"])
    def test_refused(self, entry, series, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                _ENTRY_POINTS[entry](series)

    def test_fluctuation_refuses_a_2d_profile(self):
        profile = integrate_profile(_row_with(3.0)).reshape(2, 100)
        with pytest.raises(ValueError, match="one-dimensional"):
            fluctuation(profile, 8)


def _outcome(fn, *args):
    """What fn returns, as exact bytes or repr, or the error it raises."""
    try:
        value = fn(*args)
    except DegenerateInputError as exc:
        return "DegenerateInputError", str(exc)
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.tobytes()
    return repr(value)


def _old_dfa_curve(series, config):
    """dfa_curve before it read a table: the profile of the series as a
    float array, in integrate_profile's arithmetic."""
    series = np.asarray(series, dtype=float)
    profile = (series - np.add.reduce(series) / series.size).cumsum()
    return np.array([fluctuation(profile, m, config.detrend_degree)
                     for m in config.window_sizes])


def _old_shuffled_hurst(series, config, seed):
    """shuffled_hurst before it read a table: the slope of the curve of a
    permutation of the series as a float array."""
    shuffled = np.random.default_rng(seed).permutation(
        np.asarray(series, dtype=float))
    return estimate_hurst(config.window_sizes,
                          _old_dfa_curve(shuffled, config)).h


class TestTableOrRow:
    """A series and its table give the same bits through every DFA entry
    point, and the bits of the paths that took the series as an array."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(n=st.integers(50, 2000), seed=st.integers(0, 2 ** 32 - 1),
           top=st.integers(2, 60))
    def test_same_bits(self, n, seed, top):
        row = np.random.default_rng(seed).integers(0, top, n)
        table = rank_table(row)
        config = default_config(n)
        for series in (row, table):
            assert _outcome(dfa_curve, series, config) == _outcome(
                _old_dfa_curve, row, config)
            assert _outcome(hurst_of_series, series, config) == _outcome(
                lambda s, c: estimate_hurst(c.window_sizes,
                                            _old_dfa_curve(s, c)),
                row, config)
            assert _outcome(shuffled_hurst, series, config, seed) == (
                _outcome(_old_shuffled_hurst, row, config, seed))


class TestHurstWithControl:
    @pytest.mark.parametrize("seed, key, k, expected", [
        (0, "book/N_w", 0, 13690432689586129352),
        (3, "book/N_Sl", 7, 63384892111170119806),
    ])
    def test_shuffle_seed_is_pinned(self, seed, key, k, expected):
        # seed << 64 xor the first 8 bytes of sha256(f"{key}/{k}"): another
        # seed moves every h_shuffled the outputs hold
        assert dfa._shuffle_seed(seed, key, k) == expected

    @pytest.mark.parametrize("n", [300, 2000])
    def test_is_the_real_estimate_and_the_mean_control(self, n):
        series = np.random.default_rng(n).integers(1, 40, n)
        cfg = default_config(n)
        est = dfa.hurst_with_control(series, cfg, 5, "key")
        assert dataclasses.replace(est, h_shuffled=math.nan) == \
            hurst_of_series(series, cfg)
        assert est.h_shuffled == float(np.mean([
            shuffled_hurst(series, cfg, dfa._shuffle_seed(5, "key", k))
            for k in range(dfa.N_SHUFFLES)]))

    def test_one_real_curve_and_eight_shuffled(self, monkeypatch):
        calls = {"fluctuation": 0, "shuffled_hurst": 0,
                 "hurst_of_series": 0}

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return call

        for name in calls:
            monkeypatch.setattr(dfa, name, counted(name, getattr(dfa, name)))
        series = np.random.default_rng(4).integers(1, 40, 300)
        cfg = default_config(300)
        assert len(cfg.window_sizes) == 16
        dfa.hurst_with_control(series, cfg, 0, "book/N_w")
        # nine curves of 16 windows: the real series and N_SHUFFLES
        assert calls == {"fluctuation": 144, "shuffled_hurst": 8,
                         "hurst_of_series": 1}


def test_white_noise_hurst_near_half():
    series = np.random.default_rng(7).standard_normal(10000)
    h = hurst_of_series(series, default_config(10000)).h
    assert 0.4 < h < 0.6
