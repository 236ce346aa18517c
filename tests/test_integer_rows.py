"""An integer series and its float64 copy give the same bits through every
public statistic, and `rank_table` alone decides a row's dtype: int64 for
signed-integer input, float64 for anything else."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentlen.correlation import (
    concordance_counts,
    fit_linear_map,
    goodman_kruskal_gamma,
    kendall_tau,
    pearson,
    rank_table,
    spearman,
)
from sentlen.dfa import (
    default_config,
    dfa_curve,
    hurst_of_series,
    integrate_profile,
    shuffled_hurst,
)
from sentlen.distribution import (
    ks_after_linear_map,
    ks_distance,
    ks_pairwise,
    ks_two_sample,
    mean_normalize,
)
from sentlen.exceptions import DegenerateInputError

#: every integer drawn has |x| < 2**31
_BOUND = 2 ** 31 - 1

_PAIR_FNS = (pearson, spearman, kendall_tau, goodman_kruskal_gamma,
             concordance_counts, fit_linear_map, ks_distance, ks_two_sample,
             ks_after_linear_map,
             lambda a, b: ks_pairwise([a, b, a], [(0, 1), (1, 0), (2, 1)]))


def _dfa_config(n):
    try:
        return default_config(n)
    except DegenerateInputError:
        return None


def _series_fns(n):
    """The statistics of one series of length n, each a function of the
    series alone."""
    config = _dfa_config(n)
    fns = [mean_normalize, integrate_profile]
    if config is not None:
        fns += [lambda s: dfa_curve(s, config),
                lambda s: hurst_of_series(s, config),
                lambda s: shuffled_hurst(s, config, 11)]
    return fns


def _outcome(fn, *args):
    """What fn returns, as exact bytes or repr, or the error it raises."""
    try:
        value = fn(*args)
    except (ValueError, DegenerateInputError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return repr(value)


@st.composite
def _integer_pairs(draw):
    """Two int64 series of one length n, 5 <= n <= 2000, |x| < 2**31:
    free values of a drawn spread (down to a constant), a noisy linear
    function of x, x itself or its negation."""
    n = draw(st.integers(5, 2000), label="n")
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1),
                                     label="seed"))
    spread = draw(st.sampled_from([0, 1, 3, 40, 1000, _BOUND]),
                  label="spread")
    x = rng.integers(-spread, spread, n, endpoint=True)
    shape = draw(st.sampled_from(["free", "linear", "same", "negated"]),
                 label="shape")
    if shape == "free":
        y_spread = draw(st.sampled_from([0, 2, 50, _BOUND]), label="y")
        y = rng.integers(-y_spread, y_spread, n, endpoint=True)
    elif shape == "linear":
        y = (x // 4) * 3 + rng.integers(0, 5, n)
    elif shape == "same":
        y = x.copy()
    else:
        y = -x
    return x, y


@st.composite
def _small_pairs(draw):
    """Two short lists of integers with many ties and the extremes."""
    values = st.one_of(st.integers(-3, 3),
                       st.sampled_from([-_BOUND, _BOUND, 2 ** 30]))
    n = draw(st.integers(5, 40))
    x = draw(st.lists(values, min_size=n, max_size=n))
    y = draw(st.lists(values, min_size=n, max_size=n))
    return np.array(x, dtype=np.int64), np.array(y, dtype=np.int64)


class TestIntegerEqualsFloat:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(pair=st.one_of(_integer_pairs(), _small_pairs()))
    def test_same_bits(self, pair):
        x, y = pair
        assert x.dtype == y.dtype == np.int64
        assert np.abs(x).max() < 2 ** 31 and np.abs(y).max() < 2 ** 31
        xf, yf = x.astype(float), y.astype(float)
        for fn in _PAIR_FNS:
            expected = _outcome(fn, xf, yf)
            assert _outcome(fn, x, y) == expected
            assert _outcome(fn, x, yf) == expected
            assert _outcome(fn, xf, y) == expected
        for fn in _series_fns(x.size):
            for a, af in ((x, xf), (y, yf)):
                assert _outcome(fn, a) == _outcome(fn, af)


_SEVEN_Y = np.array([4, 1, 1, 9, 0, 7, 3])


class TestRowDtype:
    """Signed integers keep an int64 row; everything else becomes the
    float64 row `np.asarray(values, dtype=float)` gives.  Either way the
    results are those of that float64 copy."""

    @pytest.mark.parametrize("values, dtype", [
        (np.array([True, False, True, True, False, False, True]),
         np.float64),
        (np.array([3, 0, 255, 7, 7, 1, 2], dtype=np.uint8), np.float64),
        (np.array([2 ** 64 - 1, 0, 2 ** 63, 5, 5, 1, 9], dtype=np.uint64),
         np.float64),
        # past int64: numpy holds them as Python ints in an object array
        ([2 ** 70, -3, 2 ** 64 + 5, 0, 0, 11, -2 ** 65], np.float64),
        ([1.5, 2, 0, 0, 7, -3, 4], np.float64),
        (np.array([1, 2, 0, 0, 7, -3, 4], dtype=np.float32), np.float64),
        (np.array([4, -2, 0, 0, 9, 1, 1], dtype=np.int8), np.int64),
        (np.array([4, -2, 0, 0, 9, 1, 1], dtype=np.int32), np.int64),
        ([4, -2, 0, 0, 9, 1, 1], np.int64),
    ], ids=["bool", "uint8", "uint64", "object", "list-float", "float32",
            "int8", "int32", "list-int"])
    def test_row_and_results(self, values, dtype):
        copy = np.asarray(values, dtype=float)
        row = rank_table(values).row
        assert row.dtype == dtype
        assert row.astype(float).tobytes() == copy.tobytes()
        for fn in _PAIR_FNS:
            assert _outcome(fn, values, _SEVEN_Y) == _outcome(
                fn, copy, _SEVEN_Y)
        for fn in _series_fns(7):
            assert _outcome(fn, values) == _outcome(fn, copy)

    def test_int64_array_not_copied(self):
        values = np.arange(10, dtype=np.int64) % 3
        # a writeable array is viewed, read-only, and a read-only one is
        # the row itself
        row = rank_table(values).row
        assert np.shares_memory(row, values) and not row.flags.writeable
        assert values.flags.writeable
        values.setflags(write=False)
        assert rank_table(values).row is values
