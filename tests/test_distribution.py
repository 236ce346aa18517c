import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import corpusgen
from sentlen.distribution import (
    _sup_distance,
    kolmogorov_sf,
    ks_after_linear_map,
    ks_distance,
    ks_pairwise,
    ks_two_sample,
    mean_normalize,
)
from sentlen.exceptions import DegenerateInputError
from sentlen.harness import PAIR_INDICES


class TestMeanNormalize:
    def test_basic(self):
        assert mean_normalize([2, 4, 6]) == pytest.approx([0.5, 1.0, 1.5])

    def test_constant(self):
        assert mean_normalize([7, 7]) == pytest.approx([1.0, 1.0])

    def test_output_mean_is_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.uniform(0.1, 10, size=rng.integers(2, 200))
            assert mean_normalize(x).mean() == pytest.approx(1.0, abs=1e-12)

    def test_empty(self):
        with pytest.raises(DegenerateInputError):
            mean_normalize([])

    def test_zero_mean(self):
        with pytest.raises(DegenerateInputError):
            mean_normalize([-1, 1])

    def test_two_dimensional(self):
        # read through rank_table, as every statistic reads its series
        with pytest.raises(ValueError, match="one-dimensional"):
            mean_normalize(np.arange(1.0, 13.0).reshape(3, 4))


class TestKsDistance:
    def test_identical(self):
        e = [1, 2, 3]
        assert ks_distance(e, e) == 0.0

    def test_disjoint_supports(self):
        a = [1, 2]
        b = [3, 4]
        assert ks_distance(a, b) == 1.0

    def test_hand_enumerated(self):
        a = [1, 2, 3]
        b = [2, 3, 4]
        assert ks_distance(a, b) == pytest.approx(1 / 3, abs=1e-15)

    def test_empty_sample(self):
        for a, b in (([], [1, 2]), ([1, 2], []), ([], [])):
            with pytest.raises(DegenerateInputError):
                ks_distance(a, b)

    def test_symmetric_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = rng.normal(size=rng.integers(1, 30))
            b = rng.normal(size=rng.integers(1, 30))
            d = ks_distance(a, b)
            assert d >= 0
            assert d == ks_distance(b, a)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            e = [rng.integers(0, 10, size=rng.integers(1, 20))
                 for _ in range(3)]
            assert ks_distance(e[0], e[2]) <= (
                ks_distance(e[0], e[1]) + ks_distance(e[1], e[2]) + 1e-15)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=40)
        b = rng.normal(size=25)
        base = ks_distance(a, b)
        for f in (np.exp, np.arctan, lambda v: v ** 3):
            assert ks_distance(f(a), f(b)) == pytest.approx(base, abs=1e-15)

    def test_scaling_invariance_after_mean_normalization(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(1, 10, size=50)
        b = rng.uniform(1, 10, size=30)
        base = ks_distance(mean_normalize(a), mean_normalize(b))
        scaled = ks_distance(mean_normalize(3.7 * a), mean_normalize(3.7 * b))
        assert scaled == pytest.approx(base, abs=1e-12)


def full_grid_ks_distance(a, b):
    """Both right-continuous ECDFs read at all n_a + n_b merged sample
    points: the oracle for ks_distance's distinct-value grid."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    grid = np.concatenate([a, b])
    return float(np.max(np.abs(np.searchsorted(a, grid, side="right") / a.size
                               - np.searchsorted(b, grid, side="right") / b.size)))


#: integer-valued sentence lengths; a narrow range gives heavy ties
lengths = st.lists(st.integers(1, 40), min_size=1, max_size=300)
#: values where equal runs, signed zeros and one-element sides abound
tie_values = st.lists(st.sampled_from([-0.0, 0.0, 1.0, -1.0, 2.5]),
                      min_size=1, max_size=40)


class TestKsDistanceBits:
    """ks_distance reads the ECDFs at the distinct values of each side; the
    result must be the merged-grid result bit for bit (==, not approx)."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(a=lengths, b=lengths)
    def test_mean_normalized_lengths(self, a, b):
        # the plain-KS input: integer-valued series over their mean
        a, b = mean_normalize(a), mean_normalize(b)
        assert ks_distance(a, b) == full_grid_ks_distance(a, b)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(x=lengths, y=lengths,
           alpha=st.one_of(
               st.floats(-1e3, -1e-300),
               st.just(0.0), st.just(-0.0),
               st.sampled_from([5e-324, 1e-300, 1e-17, -1e-17]),
               st.floats(1e-300, 1e3)),
           beta=st.floats(-1e3, 1e3))
    def test_mapped_against_integer_lengths(self, x, y, alpha, beta):
        # the mapped-KS input: alpha * x + beta against the raw y
        mapped = alpha * np.asarray(x, dtype=float) + beta
        y = np.asarray(y, dtype=float)
        assert ks_distance(mapped, y) == full_grid_ks_distance(mapped, y)
        assert ks_distance(y, mapped) == full_grid_ks_distance(y, mapped)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(a=tie_values, b=tie_values)
    def test_ties_signed_zeros_and_single_points(self, a, b):
        assert ks_distance(a, b) == full_grid_ks_distance(a, b)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(a=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                      min_size=1, max_size=50),
           b=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                      min_size=1, max_size=50))
    def test_any_finite_floats(self, a, b):
        assert ks_distance(a, b) == full_grid_ks_distance(a, b)

    @pytest.mark.parametrize("a, b, expected", [
        ([1.0], [2.0], 1.0),
        ([2.0], [1.0], 1.0),
        ([3.0] * 7, [3.0] * 4, 0.0),
        ([3.0] * 7, [4.0] * 4, 1.0),
        ([-0.0, 0.0, 0.0], [0.0, -0.0], 0.0),
        ([-0.0, 1.0], [0.0, 0.0, 1.0, 1.0], 0.0),
        ([1.0, 1.0, 1.0, 2.0], [1.0, 2.0, 2.0, 2.0], 0.5),
    ])
    def test_hand_cases(self, a, b, expected):
        assert ks_distance(a, b) == expected
        assert full_grid_ks_distance(a, b) == expected


class TestPairwiseKs:
    """One grid of the run ends of k sorted rows gives every pair the kappa
    of its own two-row grid, bit for bit (==, not approx)."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(rows=st.lists(st.one_of(lengths.map(mean_normalize), tie_values),
                         min_size=6, max_size=6))
    def test_fifteen_pairs_match_two_row_distance(self, rows):
        # rows of different lengths, heavy ties and signed zeros
        rows = [np.sort(np.asarray(r, dtype=float)) for r in rows]
        pairs = PAIR_INDICES + tuple((j, i) for i, j in PAIR_INDICES)
        kappas = _sup_distance(rows, pairs)
        assert all(type(k) is float for k in kappas)
        assert kappas == [ks_distance(rows[i], rows[j]) for i, j in pairs]
        assert kappas == [full_grid_ks_distance(rows[i], rows[j])
                          for i, j in pairs]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(rows=st.lists(st.lists(st.integers(1, 40), min_size=5,
                                  max_size=120),
                         min_size=6, max_size=6))
    def test_each_test_is_the_two_sample_test(self, rows):
        rows = [mean_normalize(r) for r in rows]
        assert ks_pairwise(rows, PAIR_INDICES, 0.05) == [
            ks_two_sample(rows[i], rows[j], 0.05) for i, j in PAIR_INDICES]

    def test_undersized_side_of_any_pair(self):
        rows = [[1, 2, 3, 4, 5], [2, 3, 4, 5, 6], [1, 2, 3, 4]]
        assert len(ks_pairwise(rows, [(0, 1)])) == 1
        with pytest.raises(DegenerateInputError, match="got 5 and 4"):
            ks_pairwise(rows, [(0, 1), (1, 2)])


class TestKsTwoSample:
    def test_identical_samples(self):
        r = ks_two_sample([1, 2, 3, 4, 5], [1, 2, 3, 4, 5])
        assert r.kappa == 0.0
        assert r.p_value == 1.0
        assert r.accepted

    def test_undersized(self):
        with pytest.raises(DegenerateInputError):
            ks_two_sample([1, 2, 3], [1, 2, 3, 4, 5])

    def test_different_distributions_rejected(self):
        rng = np.random.default_rng(5)
        u = rng.uniform(size=2000)
        r = ks_two_sample(u, u ** 2)
        assert not r.accepted
        assert r.p_value < 0.01

    def test_split_halves_accept(self):
        # two halves of one shuffled series come from the same distribution
        rng = np.random.default_rng(6)
        values = corpusgen.sentence_word_counts(2000, 0.75, rng).astype(float)
        accepted = 0
        n_trials = 60
        for _ in range(n_trials):
            perm = rng.permutation(values)
            r = ks_two_sample(perm[:1000], perm[1000:])
            accepted += r.accepted
        assert accepted >= 0.95 * n_trials

    @pytest.mark.parametrize("n", [20, 200, 2000])
    def test_against_scipy_ks_2samp(self, n):
        """kappa equals scipy's statistic exactly.  The p-value is Stephens'
        small-sample-corrected asymptotic one, which scipy omits: it equals
        scipy's Kolmogorov survival function at the corrected lambda, and
        differs from `ks_2samp(method="asymp")` (the exact one-sample law
        at n_e) by at most 0.25 / sqrt(n_e), a gap that closes as the
        samples grow."""
        rng = np.random.default_rng(n)
        for trial in range(40):
            a = rng.integers(1, 30, size=n)
            b = rng.integers(1, 30 + trial % 5, size=n + 7 * trial)
            r = ks_two_sample(a, b)
            ref = scipy.stats.ks_2samp(a, b, method="asymp")
            assert r.kappa == ref.statistic
            n_e = a.size * b.size / (a.size + b.size)
            lam = (math.sqrt(n_e) + 0.12 + 0.11 / math.sqrt(n_e)) * r.kappa
            assert r.p_value == pytest.approx(
                scipy.stats.kstwobign.sf(lam), abs=1e-10)
            assert abs(r.p_value - ref.pvalue) <= 0.25 / math.sqrt(n_e)

    def test_kolmogorov_sf_is_scipy_kolmogorov(self):
        # the truncated series stays within 6e-10 relative of scipy's
        # survival function (largest near lambda = 1.88) up to lambda = 3.7;
        # above about 3.76 its first term is below the cut-off, and it
        # returns 0
        lams = np.append(np.geomspace(1e-4, 3.7, 4001), 1.8823256629641012)
        got = np.array([kolmogorov_sf(lam) for lam in lams])
        assert got == pytest.approx(scipy.special.kolmogorov(lams),
                                    rel=1e-9, abs=0)

    def test_p_monotone_in_kappa(self):
        lams = np.linspace(0.01, 3, 200)
        ps = [kolmogorov_sf(l) for l in lams]
        # small-lambda plateau at 1.0 carries truncation noise ~1e-12
        assert all(a >= b - 1e-9 for a, b in zip(ps, ps[1:]))
        assert all(0 <= p <= 1 for p in ps)


class TestKsAfterLinearMap:
    def test_exact_map(self):
        x = np.arange(1, 101, dtype=float)
        r = ks_after_linear_map(x, 3 * x + 1)
        assert r.kappa == pytest.approx(0.0, abs=1e-12)
        assert r.accepted

    def test_identity(self):
        x = np.arange(1, 51, dtype=float)
        r = ks_after_linear_map(x, x)
        assert r.kappa == pytest.approx(0.0, abs=1e-12)

    def test_constant_x(self):
        with pytest.raises(DegenerateInputError):
            ks_after_linear_map(np.ones(20), np.arange(20.0))


class TestKsThreshold:
    """Both KS tests accept exactly when the p-value is at or above the
    threshold they are given."""
    X = [28, 19, 20, 27, 17, 23, 25, 7, 2, 9, 9, 26, 27, 1]
    Y = [27, 35, 1, 41, -3, 21, 40, -3, -6, -3, 19, 13, 51, -2]

    @pytest.mark.parametrize("test, a, b", [
        (ks_two_sample, np.random.default_rng(7).normal(size=40),
         np.random.default_rng(8).normal(0.4, 1, size=40)),
        (ks_after_linear_map, X, Y),
    ])
    def test_accepted_only_at_or_above_the_threshold(self, test, a, b):
        p = test(a, b).p_value
        assert 0 < p < 1
        at_p = test(a, b, p)
        above_p = test(a, b, np.nextafter(p, 1))
        assert at_p.p_value == above_p.p_value == p
        assert at_p.accepted
        assert not above_p.accepted
