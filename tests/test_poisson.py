"""Poisson probabilities, moment tables, and expectation engines."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multitails.errors import EvaluationError
from multitails.poisson import (
    _window_weights,
    central_moment,
    central_moment_coeffs,
    compensated_row_sums,
    expect_fn,
    log_poisson_pmf,
    poisson_pmf,
    window_table,
)

from _closed_forms import expect_fn_forward_diff, raw_moment, raw_moment_coeffs


def series_central_moment(v, lam, terms=400):
    # direct summation oracle, independent of the coefficient recursion
    return math.fsum(
        (k - lam) ** v * poisson_pmf(k, lam) for k in range(terms)
    )


def partition_coeff(l, v):
    """Coefficient of lambda^l in mu_v / v! by enumerating set partitions.

    The centered Poisson variable has first cumulant 0 and every higher
    cumulant lambda, so mu_v counts set partitions of v items into
    blocks of size >= 2, weighted by lambda^{number of blocks}.
    """
    total = Fraction(0)

    def rec(remaining, blocks, min_size, acc):
        nonlocal total
        if remaining == 0:
            if blocks == l:
                total += acc
            return
        if blocks >= l:
            return
        for size in range(min_size, remaining + 1):
            ways = math.comb(remaining - 1, size - 1)
            rec(remaining - size, blocks + 1, 2, acc * ways)

    # fix the block containing the first element to avoid overcounting
    rec(v, 0, 2, Fraction(1))
    return total / math.factorial(v)


class TestPmf:
    def test_simple_values(self):
        assert poisson_pmf(0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)
        assert poisson_pmf(2, 2.0) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-14)

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            poisson_pmf(1, 0.0)
        with pytest.raises(ValueError):
            poisson_pmf(1, -2.0)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            poisson_pmf(-1, 1.0)

    @pytest.mark.parametrize("lam", [0.3, 1.0, 7.5, 40.0, 100.0])
    def test_normalization(self, lam):
        upper = int(lam + 20.0 * math.sqrt(lam) + 60.0)
        total = math.fsum(poisson_pmf(k, lam) for k in range(upper + 1))
        assert abs(total - 1.0) <= 1e-12

    def test_log_route_matches(self):
        for k, lam in [(0, 0.5), (3, 2.0), (40, 25.0), (200, 150.0)]:
            assert math.exp(log_poisson_pmf(k, lam)) == pytest.approx(
                poisson_pmf(k, lam), rel=1e-13
            )


class TestCentralMoments:
    def test_low_orders(self):
        lam = 1.7
        assert central_moment(0, lam) == 1.0
        assert central_moment(1, lam) == 0.0
        assert central_moment(2, lam) == pytest.approx(lam, rel=1e-14)
        # third central moment of a Poisson variable equals its rate
        assert central_moment(3, 2.0) == pytest.approx(2.0, rel=1e-14)
        # fourth: 3 lam^2 + lam
        assert central_moment(4, 1.0) == pytest.approx(4.0, rel=1e-14)

    @pytest.mark.parametrize("lam", [0.1, 1.0, 5.0, 20.0])
    @pytest.mark.parametrize("v", range(2, 11))
    def test_recursion_matches_series(self, v, lam):
        direct = series_central_moment(v, lam)
        assert central_moment(v, lam) == pytest.approx(direct, rel=1e-10)

    @pytest.mark.parametrize("v", range(2, 11))
    def test_coeffs_match_partition_enumeration(self, v):
        table = central_moment_coeffs(v)
        assert len(table.coeffs) == v // 2
        for l, coeff in enumerate(table.coeffs, start=1):
            exact = partition_coeff(l, v)
            assert coeff == pytest.approx(float(exact), rel=1e-12), (l, v)

    def test_order_four_table(self):
        table = central_moment_coeffs(4)
        assert table.coeffs[0] == pytest.approx(1.0 / 24.0, rel=1e-15)
        assert table.coeffs[1] == pytest.approx(0.125, rel=1e-15)

    @pytest.mark.parametrize("v", range(2, 21))
    def test_coeff_bounds(self, v):
        table = central_moment_coeffs(v)
        for l, coeff in enumerate(table.coeffs, start=1):
            assert 0.0 < coeff < 1.0 / math.factorial(l)

    def test_low_order_rejected(self):
        with pytest.raises(ValueError):
            central_moment_coeffs(1)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 5.0])
    @pytest.mark.parametrize("v", range(2, 9))
    def test_growth_lower_bound(self, v, lam):
        assert (v + 1) * lam * central_moment(v, lam) < central_moment(v + 2, lam)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 5.0])
    @pytest.mark.parametrize("v", range(2, 9))
    def test_growth_upper_bound(self, v, lam):
        # the printed constant is too tight at v = 3 once lam > 4.25,
        # where mu_5 / mu_3 = 10 lam + 1 outgrows 6(lam + 3); the
        # counterexample below pins the exact failure
        if (v, lam) == (3, 5.0):
            pytest.xfail("upper constant violated at v=3, lam=5")
        m2 = central_moment(v + 2, lam)
        assert m2 <= 2.0 * v * (lam + v) * central_moment(v, lam)

    def test_growth_upper_bound_counterexample(self):
        # mu_5(5) = 5 + 10*25 = 255 but 2*3*(5+3)*mu_3(5) = 240
        assert central_moment(5, 5.0) == pytest.approx(255.0, rel=1e-12)
        assert central_moment(5, 5.0) > 2.0 * 3.0 * (5.0 + 3.0) * central_moment(3, 5.0)

    @pytest.mark.parametrize("lam", [1.0, 2.5, 10.0])
    @pytest.mark.parametrize("v", range(2, 9))
    def test_nonstrict_monotonicity(self, v, lam):
        # equality is attained at v = 2, where both moments equal lam
        assert central_moment(v, lam) <= central_moment(v + 1, lam) * (1 + 1e-13)


class TestRawMoments:
    def test_trivial_orders(self):
        assert raw_moment(0, 3.3) == 1.0
        assert raw_moment(1, 3.3) == pytest.approx(3.3, rel=1e-14)

    def test_third_moment(self):
        lam = 1.5
        expected = lam**3 + 3.0 * lam**2 + lam
        assert raw_moment(3, lam) == pytest.approx(expected, rel=1e-14)
        assert expected == 11.625

    @pytest.mark.parametrize("k", range(0, 12))
    def test_matches_series(self, k):
        lam = 2.7
        direct = math.fsum(j**k * poisson_pmf(j, lam) for j in range(200))
        assert raw_moment(k, lam) == pytest.approx(direct, rel=1e-10)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_coeffs_are_stirling_partition_counts(self, k):
        # k-th raw moment = sum_l S(k, l) lam^l with S the second-kind
        # Stirling numbers; the scaled table entries S(k, l)/k! stay in (0, 1]
        coeffs = raw_moment_coeffs(k)
        assert len(coeffs) == k
        stirling = [[1]]
        for row in range(1, k + 1):
            prev = stirling[-1]
            cur = [0] * (row + 1)
            for l in range(1, row + 1):
                cur[l] = l * (prev[l] if l < len(prev) else 0) + prev[l - 1]
            stirling.append(cur)
        fact = math.factorial(k)
        for l in range(1, k + 1):
            assert coeffs[l - 1] == stirling[k][l]
            assert 0.0 < stirling[k][l] / fact <= 1.0


class TestExpectFn:
    def test_identity(self):
        assert expect_fn(lambda x: float(x), 3.0) == pytest.approx(3.0, rel=1e-12)

    def test_square(self):
        assert expect_fn(lambda x: float(x * x), 2.0) == pytest.approx(6.0, rel=1e-12)

    def test_indicator(self):
        got = expect_fn(lambda x: 1.0 if x == 1 else 0.0, 2.0)
        assert got == pytest.approx(poisson_pmf(1, 2.0), rel=1e-12)

    @pytest.mark.parametrize("lam", [0.1, 1.0, 5.0, 20.0, 1e3, 1e5])
    @pytest.mark.parametrize("v", [2, 3, 4, 6])
    def test_matches_central_moment(self, v, lam):
        got = expect_fn(lambda x: (x - lam) ** v, lam)
        assert got == pytest.approx(central_moment(v, lam), rel=1e-10)

    def test_weights_sum_to_one_at_large_rate(self):
        assert expect_fn(lambda k: 1.0, 1e5) == 1.0

    def test_nonfinite_value_reported(self):
        with pytest.raises(EvaluationError) as err:
            expect_fn(lambda x: math.inf if x == 3 else 1.0, 2.0)
        assert "3" in str(err.value)


# one entry k -> c sin(a k + b) k^p of a tuple-valued fn
entries = st.tuples(
    st.floats(-3.0, 3.0), st.floats(0.01, 2.0), st.floats(-3.0, 3.0), st.integers(0, 3)
)
# (entry, where in the window as a fraction of its half-width, value)
bad_values = st.none() | st.tuples(
    st.integers(0, 3), st.floats(-1.0, 1.0), st.sampled_from([math.inf, -math.inf, math.nan])
)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    # windows start at 0 up to a rate of about 233 and above 0 past it
    lam=st.floats(0.05, 2000.0) | st.floats(225.0, 245.0),
    params=st.lists(entries, min_size=1, max_size=4),
    bad=bad_values,
)
def test_tuple_entries_equal_scalar_expectations(lam, params, bad):
    bad_k = None
    if bad is not None:
        bad_k = max(0, int(lam + bad[1] * (12.0 * math.sqrt(lam) + 50.0)))

    def entry(j):
        c, a, b, p = params[j]

        def f(k):
            if bad is not None and bad[0] % len(params) == j and k == bad_k:
                return bad[2]
            return c * math.sin(a * k + b) * k**p

        return f

    fns = [entry(j) for j in range(len(params))]
    scalars, bad_indices = [], []
    for f in fns:
        try:
            scalars.append(expect_fn(f, lam))
        except EvaluationError as err:
            bad_indices.append(err.index)
    if bad_indices:
        # the tuple walk stops at the first k where any entry is not finite
        with pytest.raises(EvaluationError) as err:
            expect_fn(lambda k: tuple(f(k) for f in fns), lam)
        assert err.value.index == min(bad_indices)
    else:
        assert all(type(s) is float for s in scalars)
        assert expect_fn(lambda k: tuple(f(k) for f in fns), lam) == tuple(scalars)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    width=st.integers(1, 40) | st.integers(41, 8000),
    seed=st.integers(0, 2**32 - 1),
    spread=st.floats(0.0, 6.0),
    signed=st.booleans(),
    pad=st.integers(0, 300),
)
def test_compensated_sums_equal_fsum(width, seed, spread, signed, pad):
    rng = np.random.default_rng(seed)
    row = np.exp(spread * rng.standard_normal(width))
    if signed:
        row *= rng.standard_normal(width)
    total = compensated_row_sums(row)
    assert total.hex() == math.fsum(row.tolist()).hex()
    # trailing zeros, and other rows beside it, leave a row's sum as it is
    block = np.zeros((3, width + pad))
    block[1, :width] = row
    block[0, : width // 2] = row[: width // 2]
    block[2] = rng.standard_normal(width + pad)
    assert compensated_row_sums(block)[1] == total


class TestWindowTable:
    RATES = np.array([1e-3, 0.5, 3.0, 100.0, 232.9, 233.2, 240.0, 1e3, 1e5])

    def test_rows_are_the_scalar_windows(self):
        k, weights = window_table(self.RATES)
        for i, lam in enumerate(self.RATES.tolist()):
            lo, ref = _window_weights(lam)
            width = len(ref)
            if lo > 0:
                ref = [w / math.fsum(ref) for w in ref]
            assert k[i, 0] == lo
            assert list(k[i, :width]) == list(range(lo, lo + width))
            # padding repeats the last count and weighs nothing
            assert (k[i, width:] == lo + width - 1).all()
            assert (weights[i, width:] == 0.0).all()
            assert weights[i, :width] == pytest.approx(ref, rel=1e-13)
            assert compensated_row_sums(weights[i]) == pytest.approx(1.0, abs=1e-12)

    def test_rows_do_not_depend_on_their_neighbours(self):
        k, weights = window_table(self.RATES)
        for i, lam in enumerate(self.RATES):
            k1, w1 = window_table(self.RATES[i : i + 1])
            width = k1.shape[1]
            assert (k[i, :width] == k1[0]).all()
            assert (weights[i, :width] == w1[0]).all()


class TestForwardDiff:
    def test_identity(self):
        assert expect_fn_forward_diff(lambda x: float(x), 0.1, 5) == pytest.approx(
            0.1, rel=1e-14
        )

    def test_indicator_at_zero(self):
        got = expect_fn_forward_diff(lambda x: 1.0 if x == 0 else 0.0, 0.1, 20)
        assert got == pytest.approx(math.exp(-0.1), rel=1e-12)

    def test_falling_factorial(self):
        got = expect_fn_forward_diff(lambda x: float(x * (x - 1)), 0.2, 10)
        assert got == pytest.approx(0.04, rel=1e-12)

    @pytest.mark.parametrize("lam", [0.05, 0.2, 0.8])
    def test_agrees_with_series_expectation(self, lam):
        phi = lambda x: 1.0 / (1.0 + x)
        assert expect_fn_forward_diff(phi, lam, 30) == pytest.approx(
            expect_fn(phi, lam), rel=1e-10
        )

    def test_order_validated(self):
        with pytest.raises(ValueError):
            expect_fn_forward_diff(lambda x: 1.0, 0.1, -1)
