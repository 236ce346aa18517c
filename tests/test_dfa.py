import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentlen import dfa
from sentlen.dfa import (
    DfaConfig,
    _detrend_basis,
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


def mean_fluctuation(profile, m, deg):
    """F(m) as the (2s, m) window block, its projection residual and
    np.mean of the squares, the arithmetic fluctuation must keep bit for
    bit."""
    n = profile.size
    s = n // m
    windows = np.concatenate([profile[:s * m].reshape(s, m),
                              profile[n - s * m:].reshape(s, m)])
    basis = _detrend_basis(m, deg)
    return float(np.sqrt(np.mean((windows - (windows @ basis) @ basis.T)
                                 ** 2)))


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

    @pytest.mark.parametrize("m, deg", [(2, 1), (3, 2), (4, 3), (26, 1),
                                        (26, 3)])
    def test_bad_window_rejected_before_the_cache(self, m, deg):
        before = _detrend_basis.cache_info()
        with pytest.raises(ValueError):
            fluctuation(np.arange(100.0), m, deg)
        after = _detrend_basis.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)


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
        log_m, weights = dfa._grid_fit(cfg.window_sizes)
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
        log_m, weights = dfa._grid_fit(tuple(kept.tolist()))
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

    def test_iid_series_near_half(self):
        series = np.random.default_rng(6).standard_normal(8000)
        cfg = default_config(8000)
        assert 0.4 < shuffled_hurst(series, cfg, 0) < 0.6


def test_white_noise_hurst_near_half():
    series = np.random.default_rng(7).standard_normal(10000)
    h = hurst_of_series(series, default_config(10000)).h
    assert 0.4 < h < 0.6
