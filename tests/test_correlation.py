import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import sentlen
from sentlen import correlation
from sentlen.correlation import (
    _count_inversions,
    _midranks,
    _t_two_sided_p,
    _ties,
    concordance_counts,
    fit_linear_map,
    goodman_kruskal_gamma,
    kendall_tau,
    pearson,
    rank_table,
    spearman,
)
from sentlen.distribution import (
    ks_after_linear_map,
    ks_distance,
    ks_two_sample,
    mean_normalize,
)
from sentlen.exceptions import DegenerateInputError


def brute_pair_counts(x, y):
    """O(n^2) concordant/discordant enumeration, the acceptance oracle."""
    x = [float(v) for v in x]
    y = [float(v) for v in y]
    c = d = tx = ty = 0
    n = len(x)
    for i in range(n - 1):
        for j in range(i + 1, n):
            sx = (x[i] > x[j]) - (x[i] < x[j])
            sy = (y[i] > y[j]) - (y[i] < y[j])
            if sx == 0:
                tx += 1
            if sy == 0:
                ty += 1
            if sx * sy > 0:
                c += 1
            elif sx * sy < 0:
                d += 1
    return c, d, n * (n - 1) // 2, tx, ty


def merge_sort_inversions(values) -> int:
    """Strict inversions by recursive merge sort on a Python list."""
    values = list(values)

    def count(vals):
        n = len(vals)
        if n < 2:
            return 0
        left, right = vals[:n // 2], vals[n // 2:]
        total = count(left) + count(right)
        i = j = 0
        merged = []
        while i < len(left) and j < len(right):
            if left[i] <= right[j]:
                merged.append(left[i])
                i += 1
            else:
                # left[i..] all exceed right[j]
                total += len(left) - i
                merged.append(right[j])
                j += 1
        vals[:] = merged + left[i:] + right[j:]
        return total

    return count(values)


def brute_inversions(values) -> int:
    """Strict inversions by the O(n^2) double loop."""
    values = list(values)
    n = len(values)
    return sum(values[i] > values[j]
               for i in range(n - 1) for j in range(i + 1, n))


class TestPearson:
    def test_identical_series(self):
        x = [1.0, 4.0, 2.0, 7.0]
        assert pearson(x, x) == pytest.approx(1.0, abs=1e-15)

    def test_reversed(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-15)

    def test_derived_value(self):
        assert pearson([1, 2, 3, 4], [2, 4, 5, 4]) == pytest.approx(
            0.71823, abs=1e-4)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(DegenerateInputError):
            pearson([1], [2])

    def test_zero_variance(self):
        with pytest.raises(DegenerateInputError):
            pearson([1, 1, 1], [1, 2, 3])
        with pytest.raises(DegenerateInputError):
            pearson([1, 2, 3], [5, 5, 5])

    def test_affine_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(size=30)
            a = rng.uniform(0.1, 5)
            b = rng.uniform(-10, 10)
            assert pearson(x, a * x + b) == pytest.approx(1.0, abs=1e-12)
            assert pearson(x, -a * x + b) == pytest.approx(-1.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=50)
        y = rng.normal(size=50)
        assert pearson(x, y) == pytest.approx(pearson(y, x), abs=1e-15)


class TestKendall:
    def test_monotone(self):
        r = kendall_tau([1, 2, 3, 4], [10, 20, 30, 40])
        assert r.statistic == 1.0

    def test_reversed(self):
        r = kendall_tau([1, 2, 3, 4], [40, 30, 20, 10])
        assert r.statistic == -1.0

    def test_pair_enumeration_value(self):
        # C=7, D=3 over 10 pairs
        r = kendall_tau([1, 2, 3, 4, 5], [3, 1, 4, 2, 5])
        assert r.statistic == pytest.approx(0.4, abs=1e-15)

    def test_all_tied(self):
        with pytest.raises(DegenerateInputError):
            kendall_tau([1, 1, 1], [1, 2, 3])

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(3, 40))
            x = rng.integers(0, 6, size=n).astype(float)
            y = rng.integers(0, 6, size=n).astype(float)
            c, d, n0, tx, ty = brute_pair_counts(list(x), list(y))
            if tx == n0 or ty == n0:
                continue
            expected = (c - d) / math.sqrt((n0 - tx) * (n0 - ty))
            assert kendall_tau(x, y).statistic == expected

    def test_large_n_rejects_strong_association(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=500)
        y = x + 0.3 * rng.normal(size=500)
        r = kendall_tau(x, y)
        assert r.rejected
        assert r.p_value < 1e-10


class TestGamma:
    def test_monotone(self):
        assert goodman_kruskal_gamma([1, 2, 3], [4, 5, 6]).statistic == 1.0

    def test_reversed(self):
        assert goodman_kruskal_gamma([1, 2, 3], [6, 5, 4]).statistic == -1.0

    def test_balanced_ties(self):
        # C = D = 1, the four x,y tie pairs excluded
        assert goodman_kruskal_gamma([1, 1, 2, 2], [1, 2, 1, 2]).statistic == 0.0

    def test_all_pairs_tied(self):
        with pytest.raises(DegenerateInputError):
            goodman_kruskal_gamma([1, 1, 1], [2, 2, 2])

    def test_equals_tau_without_ties(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(3, 30))
            x = rng.permutation(n).astype(float)
            y = rng.permutation(n).astype(float)
            g = goodman_kruskal_gamma(x, y).statistic
            t = kendall_tau(x, y).statistic
            assert g == pytest.approx(t, abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            n = int(rng.integers(3, 40))
            x = rng.integers(0, 5, size=n).astype(float)
            y = rng.integers(0, 5, size=n).astype(float)
            c, d, *_ = brute_pair_counts(list(x), list(y))
            if c + d == 0:
                continue
            assert goodman_kruskal_gamma(x, y).statistic == (c - d) / (c + d)


class TestSpearman:
    def test_monotone(self):
        r = spearman([1, 2, 3, 4], [2, 9, 11, 40])
        assert r.statistic == pytest.approx(1.0, abs=1e-12)

    def test_derived_value(self):
        assert spearman([1, 2, 3], [1, 3, 2]).statistic == pytest.approx(
            0.5, abs=1e-12)

    def test_constant_y(self):
        with pytest.raises(DegenerateInputError):
            spearman([1, 2, 3], [5, 5, 5])

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=60)
        y = rng.normal(size=60)
        base = spearman(x, y).statistic
        assert spearman(np.exp(x), y).statistic == pytest.approx(base, abs=1e-12)
        assert spearman(x, y ** 3).statistic == pytest.approx(base, abs=1e-12)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(pairs=st.one_of(
        # small non-negative integers, ties in both
        st.lists(st.tuples(st.integers(0, 6), st.integers(0, 9)),
                 min_size=10, max_size=80),
        # fractions, signed zeros and a huge value
        st.lists(st.tuples(
            st.floats(-1e6, 1e6),
            st.sampled_from([-2.5, -0.0, 0.0, 0.5, 3.0, 1e300])),
            min_size=10, max_size=80),
        # a few points, down to n = 2, where rho's t test has no degree
        # of freedom
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                 min_size=2, max_size=7),
        # a constant x
        st.lists(st.integers(0, 9), min_size=2, max_size=40).map(
            lambda ys: [(7, y) for y in ys])))
    def test_rho_is_pearson_of_midranks(self, pairs):
        x, y = (np.asarray(v, dtype=float) for v in zip(*pairs))
        rho = _outcome(lambda a, b: spearman(a, b).statistic, x, y)
        assert rho == _outcome(pearson, _midranks(*_ties(x)),
                               _midranks(*_ties(y)))
        if np.ptp(x) == 0 or np.ptp(y) == 0:
            assert rho == (DegenerateInputError,
                           "zero variance input to pearson")

    def test_rank_invariance_applies_to_tau_and_gamma(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=40)
        y = rng.normal(size=40)
        assert kendall_tau(np.exp(x), y).statistic == kendall_tau(x, y).statistic
        assert (goodman_kruskal_gamma(np.exp(x), y).statistic
                == goodman_kruskal_gamma(x, y).statistic)


class TestThreshold:
    """Each rank test rejects exactly when its p-value is below the
    threshold it is given: a pair of 14 points whose three p-values lie
    strictly between 0 and 1."""
    X = [28, 19, 20, 27, 17, 23, 25, 7, 2, 9, 9, 26, 27, 1]
    Y = [27, 35, 1, 41, -3, 21, 40, -3, -6, -3, 19, 13, 51, -2]

    @pytest.mark.parametrize("test", [spearman, kendall_tau,
                                      goodman_kruskal_gamma])
    def test_rejected_only_below_the_threshold(self, test):
        p = test(self.X, self.Y).p_value
        assert 0 < p < 1
        at_p = test(self.X, self.Y, p)
        above_p = test(self.X, self.Y, np.nextafter(p, 1))
        assert at_p.p_value == above_p.p_value == p
        assert not at_p.rejected
        assert above_p.rejected


class TestConcordanceCounts:
    def test_matches_enumeration(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            n = int(rng.integers(2, 35))
            x = rng.integers(0, 8, size=n).astype(float)
            y = rng.integers(0, 8, size=n).astype(float)
            assert concordance_counts(x, y) == brute_pair_counts(list(x), list(y))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(pairs=st.lists(st.tuples(
        st.sampled_from([-2.5, -0.0, 0.0, 0.3, 7.0, 1e300]),
        st.integers(0, 4)), min_size=2, max_size=40))
    def test_signed_zeros_and_extremes_match_enumeration(self, pairs):
        x, y = (np.asarray(v, dtype=float) for v in zip(*pairs))
        assert concordance_counts(x, y) == brute_pair_counts(x, y)


def _counts_by_path(x, y):
    """concordance_counts(x, y) as called, through the merge (cell budget
    0) and through the table (no budget), after checking that all three
    equal the O(n^2) enumeration."""
    expected = brute_pair_counts(x, y)
    results = [concordance_counts(x, y)]
    for budget in (0, 10**12):
        with mock.patch.object(correlation, "_CELLS_PER_POINT", budget):
            results.append(concordance_counts(x, y))
    assert results == [expected] * 3
    return results


class TestConcordancePaths:
    """The count table and the merge give the same exact counts."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(pairs=st.one_of(
        st.lists(st.tuples(st.integers(0, 9), st.integers(0, 30)),
                 min_size=2, max_size=60),
        st.lists(st.tuples(
            st.sampled_from([-2.5, -0.0, 0.0, 0.5, 3.0, 1e300]),
            st.one_of(st.sampled_from([-0.0, 0.0, 0.25, -7.5]),
                      st.floats(-1e6, 1e6))),
            min_size=2, max_size=60)))
    def test_integer_and_float_pairs(self, pairs):
        x, y = (np.asarray(v, dtype=float) for v in zip(*pairs))
        _counts_by_path(x, y)

    @pytest.mark.parametrize("x, y", [
        ([0.0, 1.0], [1.0, 0.0]),
        ([2.0, 2.0], [5.0, 1.0]),
        ([0.5, 3.0], [7.0, 7.0]),
        ([4.0, 4.0], [4.0, 4.0]),
    ])
    def test_two_points(self, x, y):
        _counts_by_path(np.array(x), np.array(y))

    def test_all_tied_row_and_column(self):
        rng = np.random.default_rng(18)
        varied = rng.integers(0, 6, size=25).astype(float)
        tied = np.full(25, 3.0)
        for x, y in [(tied, varied), (varied, tied), (tied, tied)]:
            c, d, n0, tx, ty = _counts_by_path(x, y)[0]
            assert c == d == 0

    def test_signed_zeros(self):
        x = np.array([-0.0, 0.0, -0.0, 1.0, 0.0, -1.0])
        y = np.array([0.0, -0.0, 2.0, -0.0, 1.0, 0.0])
        _counts_by_path(x, y)
        _counts_by_path(y, x)

    @pytest.mark.parametrize("extra, uses_merge", [(0, False), (1, True)])
    def test_either_side_of_the_cell_budget(self, extra, uses_merge,
                                            monkeypatch):
        # kx * ky at the budget (the table), then one row past it (the merge)
        budget = correlation._CELLS_PER_POINT
        n = budget + 8
        rng = np.random.default_rng(19)
        x = rng.permutation(np.arange(n) % (budget + extra)).astype(float)
        y = rng.permutation(n).astype(float)
        merges = []
        merge = correlation._count_inversions

        def spy(*args):
            merges.append(args)
            return merge(*args)

        monkeypatch.setattr(correlation, "_count_inversions", spy)
        assert concordance_counts(x, y) == brute_pair_counts(x, y)
        assert bool(merges) is uses_merge
        monkeypatch.undo()
        _counts_by_path(x, y)

    @pytest.mark.parametrize("n, ky", [
        # all-distinct floats would need an n x n table, 72 MB at n = 3000
        (3000, None),
        (3000, 90),
        # the most padding: 2049 points pad to 4096
        (2049, 511),
    ])
    def test_peak_memory_is_linear_in_n(self, n, ky):
        # each shape's n x ky value pairs exceed the cell budget, so the
        # count goes through _count_inversions
        rng = np.random.default_rng(21 if ky is None else 22)
        x = rng.normal(size=n)
        y = (rng.normal(size=n) if ky is None
             else rng.permutation(np.arange(n) % ky).astype(float))
        expected = concordance_counts(x, y)
        if ky is not None:
            assert expected == brute_pair_counts(x, y)
        self._assert_peak_below(400 * n, x, y, expected)

    @staticmethod
    def _assert_peak_below(limit, x, y, expected):
        tracemalloc.start()
        try:
            assert concordance_counts(x, y) == expected
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit


class TestLinearMap:
    def test_exact_affine(self):
        x = np.array([1.0, 2.0, 5.0, 9.0])
        lm = fit_linear_map(x, 2 * x + 3)
        assert lm.alpha == pytest.approx(2.0, abs=1e-12)
        assert lm.beta == pytest.approx(3.0, abs=1e-12)

    def test_identity(self):
        x = np.array([1.0, 2.0, 3.0])
        lm = fit_linear_map(x, x)
        assert lm.alpha == pytest.approx(1.0, abs=1e-12)
        assert lm.beta == pytest.approx(0.0, abs=1e-12)

    def test_closed_form_value(self):
        lm = fit_linear_map([1, 2, 3], [2, 3, 5])
        assert lm.alpha == pytest.approx(1.5, abs=1e-12)
        assert lm.beta == pytest.approx(1 / 3, abs=1e-12)

    def test_constant_x(self):
        with pytest.raises(DegenerateInputError):
            fit_linear_map([2, 2, 2], [1, 2, 3])

    def test_residuals_orthogonal_to_x(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            x = rng.normal(size=100)
            y = 3 * x + rng.normal(size=100)
            lm = fit_linear_map(x, y)
            resid = y - (lm.alpha * x + lm.beta)
            assert abs(np.dot(resid, x - x.mean())) < 1e-9


_TIED_INTS = st.lists(st.integers(0, 6), max_size=80)
_TIED_FLOATS = st.lists(
    st.sampled_from([-2.5, -0.0, 0.0, 1e-300, 0.1, 0.3, 7.0, 1e300]),
    max_size=80)


def _dense(values):
    """`_count_inversions`' arguments for `values`: its dense ranks and
    their count."""
    ranks, counts = _ties(np.asarray(values))
    return ranks, counts.size


class TestCountInversions:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(values=st.one_of(_TIED_INTS, _TIED_FLOATS),
           as_float=st.booleans())
    def test_matches_both_oracles(self, values, as_float):
        arr = np.asarray(values, dtype=float if as_float else None)
        result = _count_inversions(*_dense(arr))
        assert type(result) is int
        assert result == merge_sort_inversions(values)
        assert result == brute_inversions(values)

    @pytest.mark.parametrize("values, expected", [
        ([], 0), ([3.0], 0), ([1.0, 2.0], 0), ([2.0, 1.0], 1),
        ([2.0, 2.0], 0),
    ])
    def test_tiny(self, values, expected):
        assert _count_inversions(*_dense(values)) == expected

    @pytest.mark.parametrize("n", [3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65])
    def test_sizes_around_powers_of_two(self, n):
        rng = np.random.default_rng(n)
        values = rng.integers(0, 5, size=n)
        assert _count_inversions(*_dense(values)) == brute_inversions(values)
        assert _count_inversions(*_dense(np.zeros(n))) == 0
        assert _count_inversions(*_dense(np.arange(n)[::-1])) == \
            n * (n - 1) // 2
        assert _count_inversions(*_dense(np.arange(n))) == 0

    def test_long_tied_series_matches_merge_sort(self):
        values = np.random.default_rng(15).integers(1, 40, size=15000)
        assert _count_inversions(*_dense(values)) == \
            merge_sort_inversions(values)

    def test_long_descending_is_exact(self):
        n = 15000
        assert _count_inversions(*_dense(np.arange(n, 0, -1))) == \
            n * (n - 1) // 2

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_block_table_and_merge_match_enumeration(self, data):
        # the block edge and the first merge level, wherever _BLOCK is
        b = correlation._BLOCK
        n = data.draw(st.one_of(
            st.sampled_from([1, 2, b - 1, b, b + 1, 2 * b - 1, 2 * b,
                             2 * b + 1, 1025]),
            st.integers(0, 300)), label="n")
        n_ranks = data.draw(st.one_of(
            st.integers(1, 2 * n + 2),
            st.sampled_from([1, 2, 127, 128, 129, 32767, 32768])),
            label="n_ranks")
        shape = data.draw(st.sampled_from(
            ["random", "equal", "sorted", "reversed"]), label="shape")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        ranks = rng.integers(0, n_ranks, size=n)
        if shape == "equal":
            ranks[:] = ranks[:1]
        elif shape != "random":
            ranks.sort()
            if shape == "reversed":
                ranks = ranks[::-1]
        result = _count_inversions(ranks, n_ranks)
        assert type(result) is int
        assert result == brute_inversions(ranks.tolist())

    @pytest.mark.parametrize("ranks, n_ranks, expected", [
        ([126, 0, 127, 3], 128, 3),        # the pad needs int16
        ([32767, 0, 1], 32768, 2),         # the pad needs int32
        ([2**31 - 1, 0, 2**31 - 1, 5], 2**31, 3),   # the pad needs int64
    ])
    def test_pad_rank_past_a_narrow_type(self, ranks, n_ranks, expected):
        assert _count_inversions(np.array(ranks), n_ranks) == expected

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_one_block_edge_matches_enumeration(self, data):
        # both sides of the one-block limit, a few distinct ranks (heavy
        # ties), and the largest rank at the int8 and int16 edges of the
        # narrow type the points are compared in
        edge = correlation._ONE_BLOCK
        n = data.draw(st.one_of(
            st.sampled_from([edge - 1, edge, edge + 1]),
            st.integers(edge - 40, edge + 40)), label="n")
        n_ranks = data.draw(st.sampled_from(
            [1, 2, 3, 126, 127, 128, 129, 32766, 32767, 32768, 32769]),
            label="n_ranks")
        levels = data.draw(st.integers(1, 6), label="levels")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        values = np.unique(np.append(rng.integers(0, n_ranks, levels - 1),
                                     n_ranks - 1))
        ranks = rng.choice(values, size=n)
        result = _count_inversions(ranks, n_ranks)
        assert type(result) is int
        assert result == brute_inversions(ranks.tolist())

    def test_reads_the_given_ranks_without_ranking_again(self, monkeypatch):
        def no_unique(*args, **kwargs):
            raise AssertionError("np.unique called")

        monkeypatch.setattr(np, "unique", no_unique)
        assert _count_inversions(np.array([2, 0, 1, 0]), 3) == 4


class TestAgainstScipy:
    """Differential checks against scipy's reference implementations, on
    long tied integer series like sentence lengths."""

    @pytest.fixture(scope="class")
    def tied_pairs(self):
        rng = np.random.default_rng(16)
        pairs = []
        for n, high in [(500, 8), (3000, 30), (15000, 25)]:
            x = rng.integers(1, high, size=n)
            y = x + rng.integers(0, high, size=n)
            pairs.append((x, y))
            pairs.append((x, rng.integers(1, high, size=n)))
        return pairs

    def test_kendall_tau_b(self, tied_pairs):
        for x, y in tied_pairs:
            expected = scipy.stats.kendalltau(x, y, variant="b").statistic
            assert kendall_tau(x, y).statistic == pytest.approx(
                expected, abs=1e-12)

    @pytest.mark.parametrize("n,high", [(3, 4), (9, 4), (500, 8),
                                        (3000, 30)])
    def test_kendall_tau_pvalue(self, n, high):
        # the normal approximation at every n, a few points included; a
        # strong, a weaker and no dependence
        rng = np.random.default_rng(n)
        x = rng.integers(1, high, size=n)
        for y in (x + rng.integers(0, high, size=n),
                  x + rng.integers(0, 3 * high, size=n),
                  rng.integers(1, high, size=n)):
            expected = scipy.stats.kendalltau(
                x, y, variant="b", method="asymptotic").pvalue
            assert kendall_tau(x, y).p_value == pytest.approx(
                expected, rel=1e-11, abs=0)

    def test_spearman_rho(self, tied_pairs):
        for x, y in tied_pairs:
            expected = scipy.stats.spearmanr(x, y).statistic
            assert spearman(x, y).statistic == pytest.approx(
                expected, abs=1e-12)


class TestRankTable:
    """Spearman's midranks and p-value, without scipy.stats."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(values=st.one_of(_TIED_INTS, _TIED_FLOATS),
           as_float=st.booleans())
    def test_midranks_equal_rankdata(self, values, as_float):
        arr = np.asarray(values, dtype=float if as_float else None)
        assert np.array_equal(_midranks(*_ties(arr)),
                              scipy.stats.rankdata(arr))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(values=st.one_of(
        st.lists(st.one_of(
            st.integers(0, 40).map(float),
            st.sampled_from([-0.0, 0.0, -1.0, -2.5, 0.5, 2.5, 2.0**53,
                             2.0**53 + 2, 9.3e18, 1e19, 1e300, -1e300])),
            max_size=60).map(lambda v: np.array(v, dtype=float)),
        st.lists(st.one_of(
            st.integers(-3, 40),
            st.sampled_from([2**53 + 1, 2**62, 2**63 - 1, -2**63])),
            max_size=60).map(lambda v: np.array(v, dtype=np.int64))))
    def test_ties_equal_unique(self, values):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dense, counts = _ties(values)
        _, dense_u, counts_u = np.unique(values, return_inverse=True,
                                         return_counts=True)
        for got, want in [(dense, dense_u), (counts, counts_u)]:
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [3, 4, 9, 10, 11, 50, 3000])
    def test_spearman_pvalue_is_scipy_t_sf(self, n):
        rng = np.random.default_rng(n)
        x = rng.integers(1, 20, size=n)
        y = x + rng.integers(0, 40, size=n)
        result = spearman(x, y)
        rho = result.statistic
        t_stat = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
        assert result.p_value == pytest.approx(
            2.0 * scipy.stats.t.sf(abs(t_stat), n - 2), rel=1e-11, abs=0)

    @pytest.mark.parametrize("y", [[0, 1], [1, 0], [5, 5.5]])
    def test_spearman_pvalue_is_1_at_two_points(self, y):
        # two points leave the t test no degree of freedom; rho rounds to
        # just below 1 on [(0, 0), (1, 1)]
        result = spearman([0, 1], y)
        assert abs(result.statistic) == pytest.approx(1.0, abs=1e-15)
        assert result.p_value == 1.0
        assert not result.rejected

    def test_cli_import_leaves_scipy_stats_out(self):
        code = ("import sys, sentlen.cli; print(sorted(m for m in sys.modules "
                "if m == 'scipy' or m.startswith('scipy.')))")
        src = str(Path(sentlen.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, env=env).stdout
        assert out.strip() == "[]"


def _outcome(fn, x, y):
    """fn(x, y), or the type and message of what it raised."""
    try:
        return fn(x, y)
    except (ValueError, DegenerateInputError) as exc:
        return type(exc), str(exc)


_RANKED_FNS = (spearman, kendall_tau, goodman_kruskal_gamma,
               concordance_counts)


class TestRankTableArguments:
    """Every rank statistic gives the same result from rank tables as from
    the arrays they were built from."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(pairs=st.one_of(
        # small non-negative integers, ties in both
        st.lists(st.tuples(st.integers(0, 6), st.integers(0, 9)),
                 min_size=10, max_size=60),
        # negatives, signed zeros and fractions
        st.lists(st.tuples(
            st.sampled_from([-2.5, -0.0, 0.0, 0.5, 3.0, 1e300]),
            st.one_of(st.sampled_from([-7.5, 0.25, 0.0]),
                      st.floats(-1e6, 1e6))),
            min_size=10, max_size=60),
        # a few points, down to n = 2
        st.lists(st.tuples(st.sampled_from([-1.5, 0.0, 2.0, 2.5]),
                           st.integers(0, 3)), min_size=2, max_size=7)))
    def test_table_equals_array(self, pairs):
        x, y = (np.asarray(v, dtype=float) for v in zip(*pairs))
        rx, ry = rank_table(x), rank_table(y)
        for budget in (0, correlation._CELLS_PER_POINT):
            # a budget of 0 sends every concordance count through Knight's;
            # the memo would answer the second budget from the first
            correlation._concordance.cache_clear()
            with mock.patch.object(correlation, "_CELLS_PER_POINT", budget):
                for fn in _RANKED_FNS:
                    expected = _outcome(fn, x, y)
                    assert _outcome(fn, rx, ry) == expected
                    assert _outcome(fn, rx, y) == expected
                    assert _outcome(fn, x, ry) == expected

    def test_table_is_read_only(self):
        table = rank_table([3.0, 1.0, 3.0, 2.0])
        assert table.dense.tolist() == [2, 0, 2, 1]
        assert table.counts.tolist() == [1, 1, 2]
        assert table.midranks.row.tolist() == [3.5, 1.0, 3.5, 2.0]
        for arr in (table.dense, table.counts, table.midranks.row):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_tables_of_two_lengths_rejected(self):
        for fn in _RANKED_FNS:
            with pytest.raises(ValueError, match="length mismatch"):
                fn(rank_table(np.arange(12.0)), rank_table(np.arange(11.0)))


_TABLE_FNS = (pearson, spearman, kendall_tau, goodman_kruskal_gamma,
              concordance_counts, fit_linear_map, ks_distance, ks_two_sample,
              ks_after_linear_map)


def _pair_of(x, shape, draw):
    """x and a partner y: free values, a decreasing function of x (a
    negative slope), a constant (slope 0), or, for an arithmetic x in
    place of the given one, values with exactly zero covariance with it
    (slope 0 from a non-constant y)."""
    n = x.size
    if shape == "free":
        return x, np.asarray(draw(st.lists(
            st.sampled_from([-7.5, -0.0, 0.0, 0.25, 3.0, 1e6]),
            min_size=n, max_size=n)), dtype=float)
    if shape == "decreasing":
        return x, -2.0 * x + np.asarray(draw(st.lists(
            st.integers(0, 2), min_size=n, max_size=n)), dtype=float)
    if shape == "constant":
        return x, np.full(n, draw(st.sampled_from([-0.0, 0.0, 4.0])))
    # symmetric about the middle of an arithmetic x: sum dx * dy is 0
    half = np.asarray(draw(st.lists(st.integers(0, 5), min_size=n // 2,
                                    max_size=n // 2)), dtype=float)
    middle = [3.0] if n % 2 else []
    return np.arange(n, dtype=float), np.concatenate([half, middle,
                                                       half[::-1]])


class TestTablesEqualArrays:
    """Every statistic that takes a table gives the same result (or the
    same error) from two tables, from a table and an array, and from the
    two arrays the tables were built from."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_every_statistic(self, data):
        x = np.asarray(data.draw(st.lists(
            st.sampled_from([-2.5, -0.0, 0.0, 1.0, 3.0, 3.0, 40.0]),
            min_size=2, max_size=60), label="x"), dtype=float)
        shape = data.draw(st.sampled_from(
            ["free", "decreasing", "constant", "uncorrelated"]), label="y")
        x, y = _pair_of(x, shape, data.draw)
        rx, ry = rank_table(x), rank_table(y)
        for fn in _TABLE_FNS:
            expected = _outcome(fn, x.copy(), y.copy())
            assert _outcome(fn, rx, ry) == expected
            assert _outcome(fn, rx, y) == expected
            assert _outcome(fn, x, ry) == expected

    @pytest.mark.parametrize("slope", [2.5, 0.0, -0.0, -1.5])
    def test_mapped_ks_reads_the_sorted_row(self, slope):
        # with alpha >= 0 the mapped sorted x is sorted, with alpha < 0
        # it is sorted in reverse; either way the same KS as mapping and
        # sorting the values
        rng = np.random.default_rng(23)
        x = rng.integers(1, 12, size=40).astype(float)
        y = slope * x + rng.integers(0, 3, size=40)
        if slope == 0.0:
            y = np.full(40, 5.0)
        lm = fit_linear_map(x, y)
        assert (lm.alpha < 0) == (slope < 0)
        got = ks_after_linear_map(rank_table(x), rank_table(y))
        assert got == ks_two_sample(lm.alpha * x + lm.beta, y)


class TestConcordanceMemo:
    """concordance_counts is memoized on the pair of tables: a pair of
    tables is counted once, an array is never answered from the memo, and
    the memo is bounded."""

    @staticmethod
    def _calls():
        info = correlation._concordance.cache_info()
        return info.misses, info.hits

    def test_one_count_per_pair_of_tables(self):
        x = np.arange(30.0) % 7
        y = np.arange(30.0) % 5
        rx, ry = rank_table(x), rank_table(y)
        misses, hits = self._calls()
        kendall_tau(rx, ry)
        goodman_kruskal_gamma(rx, ry)
        assert self._calls() == (misses + 1, hits + 1)

    def test_arrays_are_never_stale(self):
        x = np.arange(30.0) % 7
        y = np.arange(30.0) % 5
        before = kendall_tau(x, y)
        misses, hits = self._calls()
        x[:10] = x[:10][::-1].copy()
        after = kendall_tau(x, y)
        assert self._calls() == (misses + 1, hits)
        assert after == kendall_tau(x.copy(), y.copy())
        assert after != before

    def test_path_checks_count_every_call(self):
        # _counts_by_path compares the table and the merge on the same
        # arrays; each of its calls must count, not read the memo
        x = np.arange(40.0) % 9
        y = np.arange(40.0)[::-1] % 6
        misses, hits = self._calls()
        _counts_by_path(x, y)
        assert self._calls() == (misses + 3, hits)

    def test_bounded(self):
        size = correlation._concordance.cache_info().maxsize
        assert size is not None
        x = np.arange(12.0)
        for _ in range(size + 5):
            concordance_counts(rank_table(x), rank_table(x))
        assert correlation._concordance.cache_info().currsize == size


class TestTableFields:
    def test_fields_are_computed_on_first_read(self):
        table = rank_table([3.0, 1.0, 3.0, 2.0])
        assert "sorted" not in vars(table) and "centred" not in vars(table)
        concordance_counts(table, table)
        # the ranks alone were read
        assert {"sorted", "mean", "centred", "midranks"}.isdisjoint(
            vars(table))
        assert table.sorted.tolist() == [1.0, 2.0, 3.0, 3.0]
        assert table.centred.tolist() == [0.75, -1.25, 0.75, -0.25]
        assert table.sum_sq == 2.75
        assert table.tie_sums == (2 * 9, 2, 0)

    def test_every_array_is_read_only(self):
        values = np.array([3.0, 1.0, 3.0, 2.0])
        table = rank_table(values)
        for arr in (table.row, table.centred, table.dense, table.counts,
                    table.midranks.row, table.midranks.centred, table.sorted):
            with pytest.raises(ValueError):
                arr[0] = 0
        # the caller's array stays writeable, and a table is its own table
        values[0] = 4.0
        assert rank_table(table) is table

    def test_constant_series(self):
        # ranks, sums and norms of a constant series raise nothing; the
        # correlations say why they cannot use it
        table = rank_table(np.full(12, 7.0))
        assert table.sum_sq == 0 and table.midranks.sum_sq == 0
        other = rank_table(np.arange(12.0))
        for fn in (pearson, spearman):
            with pytest.raises(DegenerateInputError, match="zero variance"):
                fn(table, other)


def _scipy_t_pvalue(df, t):
    return 2.0 * scipy.special.stdtr(df, -np.abs(t))


def _t_where_pvalue_reaches(df, target):
    """Per df, the smallest t (to 1 ulp) with 2 stdtr(df, -t) <= target,
    by bisection over [0, 1e5]; NaN where none is that small."""
    lo = np.zeros(df.shape)
    hi = np.full(df.shape, 1e5)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = _scipy_t_pvalue(df, mid) <= target
        lo, hi = np.where(below, lo, mid), np.where(below, mid, hi)
    return np.where(_scipy_t_pvalue(df, hi) <= target, hi, np.nan)


class TestStudentTPvalue:
    """Spearman's t p-value against scipy.special.stdtr, which computed it
    before: 6 significant digits everywhere (the output's precision,
    exact 0 included) and 1e-11 relative wherever p >= 1e-300."""

    DFS = np.unique(np.concatenate([
        np.geomspace(8, 20_000, 70).round(),
        # the cutoff to 0 lies in Boost's y >= 0.3 branch for df ~ 3500-3970
        np.arange(3_450, 4_000, 50),
    ]))

    @staticmethod
    def _check(df, t):
        df, t = np.broadcast_arrays(np.asarray(df, dtype=float), t)
        df, t = df.ravel(), t.ravel()
        keep = np.isfinite(t)
        df, t = df[keep], t[keep]
        ref = _scipy_t_pvalue(df, t)
        got = np.array([_t_two_sided_p(float(ti), int(di))
                        for di, ti in zip(df, t)])
        six = [format(g, ".6g") == format(r, ".6g") for g, r in zip(got, ref)]
        assert all(six), list(zip(df[~np.array(six)], t[~np.array(six)]))
        big = ref >= 1e-300
        np.testing.assert_allclose(got[big], ref[big], rtol=1e-11, atol=0)
        return ref

    def test_grid(self):
        t = np.concatenate([[0.0, 1e-8], np.geomspace(1e-3, 1e5, 150)])
        ref = self._check(self.DFS[:, None], t[None, :])
        assert (ref == 1.0).any() and (ref == 0.0).any()

    def test_both_sides_of_the_df_equals_2t2_switch(self):
        rel = np.array([-1e-3, -1e-9, 0.0, 1e-9, 1e-3])
        self._check(self.DFS[:, None],
                    np.sqrt(self.DFS / 2)[:, None] * (1 + rel[None, :]))

    @pytest.mark.parametrize("target", [1e-290, 1e-300, 1e-305, 3e-308])
    def test_near_1e_300(self, target):
        rel = np.array([-1e-6, 0.0, 1e-6])
        t = _t_where_pvalue_reaches(self.DFS, target)
        self._check(self.DFS[:, None], t[:, None] * (1 + rel[None, :]))

    def test_subnormal_band_and_the_cutoff_to_zero(self):
        t0 = _t_where_pvalue_reaches(self.DFS, 0.0)
        assert np.isfinite(t0).sum() > 40
        steps = 10.0 ** -np.arange(3, 11)
        rel = np.concatenate([-steps, steps])
        ref = self._check(self.DFS[:, None], t0[:, None] * (1 + rel[None, :]))
        assert ((ref > 0) & (ref < sys.float_info.min)).sum() > 100
        assert (ref == 0).sum() > 100


@pytest.mark.parametrize("fn", [
    pearson, spearman, kendall_tau, goodman_kruskal_gamma, fit_linear_map,
    ks_two_sample,
    pytest.param(lambda x, y: (mean_normalize(x), mean_normalize(y)),
                 id="mean_normalize"),
])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_input_rejected(fn, bad):
    x = np.arange(12.0)
    y = x[::-1].copy()
    y[5] = bad
    with pytest.raises(ValueError, match="finite"):
        fn(x, y)
    with pytest.raises(ValueError, match="finite"):
        fn(y, x)
