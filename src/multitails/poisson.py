"""Poisson moment machinery.

Everything downstream (moment summaries, correction coefficients, zone
rules) reduces to expectations of functions of independent Poisson
variables.  This module provides the pmf, exact central/raw moment
polynomials in the rate, and two generic expectation evaluators: a sum
over one fixed window of k around the rate, and a forward-difference form
useful as an independent cross-check at small rates.  window_table and
compensated_row_sums give the same windows and sums for many rates at once.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import EvaluationError

__all__ = [
    "CentralMomentTable",
    "poisson_pmf",
    "log_poisson_pmf",
    "central_moment",
    "central_moment_coeffs",
    "raw_moment",
    "raw_moment_coeffs",
    "expect_fn",
    "expect_fn_forward_diff",
    "window_bounds",
    "window_table",
    "compensated_row_sums",
]


@dataclass(frozen=True)
class CentralMomentTable:
    """Coefficients of the central moment polynomial of a Poisson variable.

    For order ``v >= 2`` the v-th central moment is a polynomial in the
    rate with no constant or linear-free term:

        E(X - lam)^v = v! * sum_{l=1}^{floor(v/2)} coeffs[l-1] * lam^l

    ``coeffs[l-1]`` lies strictly between 0 and 1/l!.
    """

    order: int
    coeffs: tuple[float, ...]


def poisson_pmf(k: int, lam: float) -> float:
    """P{X = k} for X Poisson with rate lam > 0, evaluated in log space."""
    return math.exp(log_poisson_pmf(k, lam))


def log_poisson_pmf(k: int, lam: float) -> float:
    """log P{X = k}; stable for large k and lam."""
    if k < 0 or k != int(k):
        raise ValueError(f"k must be a nonnegative integer, got {k}")
    if not (lam > 0.0) or not math.isfinite(lam):
        raise ValueError(f"rate must be a positive finite real, got {lam}")
    return k * math.log(lam) - lam - math.lgamma(k + 1)


@lru_cache(maxsize=None)
def _central_coeff_rows(vmax: int) -> tuple[tuple[Fraction, ...], ...]:
    # rows[v][l-1] = c_{l,v} as exact rationals; rows 0 and 1 are empty.
    # Recursion: (v+1) c_{l,v+1} = l c_{l,v} + c_{l-1,v-1}, with c_{0,*} = 0
    # and out-of-range entries zero.  Base row: c_{1,2} = 1/2.
    rows: list[tuple[Fraction, ...]] = [(), (), (Fraction(1, 2),)]
    for v in range(2, vmax):
        prev = rows[v]
        prev2 = rows[v - 1]
        nxt = []
        for l in range(1, (v + 1) // 2 + 1):
            a = l * prev[l - 1] if l - 1 < len(prev) else Fraction(0)
            b = prev2[l - 2] if 1 <= l - 1 <= len(prev2) else Fraction(0)
            nxt.append((a + b) / (v + 1))
        rows.append(tuple(nxt))
    return tuple(rows[: vmax + 1])


def central_moment_coeffs(v: int) -> CentralMomentTable:
    """Coefficient table for the v-th Poisson central moment, v >= 2."""
    if v < 2:
        raise ValueError(f"central moment coefficients start at order 2, got {v}")
    row = _central_coeff_rows(max(v, 2))[v]
    return CentralMomentTable(order=v, coeffs=tuple(float(c) for c in row))


def central_moment(v: int, lam: float) -> float:
    """E(X - lam)^v for X Poisson with rate lam.

    Exact polynomial evaluation; orders 0 and 1 give 1 and 0.
    """
    if v < 0:
        raise ValueError(f"moment order must be nonnegative, got {v}")
    if not (lam > 0.0):
        raise ValueError(f"rate must be positive, got {lam}")
    if v == 0:
        return 1.0
    if v == 1:
        return 0.0
    row = _central_coeff_rows(max(v, 2))[v]
    fact = math.factorial(v)
    # Horner in lam over the exact coefficients.
    acc = Fraction(0)
    for c in reversed(row):
        acc = acc * Fraction(lam) + c
    return float(fact * acc * Fraction(lam))


@lru_cache(maxsize=None)
def _stirling_rows(kmax: int) -> tuple[tuple[int, ...], ...]:
    # rows[k][l-1] = number of ways to partition k labelled items into l
    # nonempty blocks; triangle rule S(k,l) = l S(k-1,l) + S(k-1,l-1).
    rows: list[tuple[int, ...]] = [(), (1,)]
    for k in range(1, kmax):
        prev = rows[k]
        nxt = []
        for l in range(1, k + 2):
            a = l * prev[l - 1] if l - 1 < len(prev) else 0
            b = prev[l - 2] if 1 <= l - 1 <= len(prev) else 0
            nxt.append(a + b)
        rows.append(tuple(nxt))
    return tuple(rows[: kmax + 1])


def raw_moment_coeffs(k: int) -> tuple[int, ...]:
    """Integer coefficients (S(k,1), ..., S(k,k)) with E X^k = sum_l S(k,l) lam^l."""
    if k < 1:
        raise ValueError(f"raw moment coefficients start at order 1, got {k}")
    return _stirling_rows(k)[k]


def raw_moment(k: int, lam: float) -> float:
    """E X^k for X Poisson with rate lam; exact polynomial evaluation."""
    if k < 0:
        raise ValueError(f"moment order must be nonnegative, got {k}")
    if not (lam > 0.0):
        raise ValueError(f"rate must be positive, got {lam}")
    if k == 0:
        return 1.0
    acc = 0.0
    for s in reversed(_stirling_rows(k)[k]):
        acc = acc * lam + s
    return acc * lam


def window_bounds(lam):
    """(lo, hi) as floats: the window lam -+ (12 sqrt(lam) + 50) of a rate or rates.

    Past it the pmf is below e^-72 of its mode and falls faster than geometrically.
    """
    half = 12.0 * np.sqrt(lam) + 50.0
    return np.maximum(0.0, np.ceil(lam - half)), np.floor(lam + half)


def _window_weights(lam: float) -> tuple[int, list[float]]:
    """(lo, [P{X = k} for k = lo..hi]) over the window of lam.

    A window from 0 (lam up to about 233) steps its log pmf up from the
    exact e^-lam.  A window above 0 takes its first weight from lgamma and
    steps the weights by lam / k, so their rounding stays at the size of
    the window, not of lam.
    """
    half = 12.0 * math.sqrt(lam) + 50.0
    lo, hi = max(0, math.ceil(lam - half)), int(lam + half)
    weights = []
    if lo == 0:
        log_lam = math.log(lam)
        log_pmf = -lam
        for k in range(hi + 1):
            weights.append(math.exp(log_pmf))
            log_pmf += log_lam - math.log(k + 1)
    else:
        w = poisson_pmf(lo, lam)
        for k in range(lo, hi + 1):
            weights.append(w)
            w *= lam / (k + 1)
    return lo, weights


def window_table(rates: np.ndarray, bounds=None) -> tuple[np.ndarray, np.ndarray]:
    """(k, weights): one row per ascending rate, its window's counts and weights.

    The weights are built as _window_weights builds them, and a window
    above 0 is divided by its total.  Rows are padded to the widest window
    by repeating their last count with weight 0.  bounds, if given, is
    window_bounds(rates).
    """
    rates = np.asarray(rates, dtype=float)
    lo, hi = window_bounds(rates) if bounds is None else bounds
    k = lo[:, None] + np.arange(int((hi - lo).max()) + 1)
    lam = rates[:, None]
    beyond = k > hi[:, None]
    weights = np.empty_like(k)
    # lo grows with the rate, so the windows from 0 come first; k[:, 1:] is k + 1
    split = int(np.count_nonzero(lo == 0))
    if split:
        steps = np.log(lam[:split]) - np.log(k[:split, 1:])
        weights[:split] = np.exp(np.cumsum(np.concatenate([-lam[:split], steps], 1), 1))
    if split < rates.size:
        first = [[poisson_pmf(int(a), b)] for a, b in zip(lo[split:], rates[split:].tolist())]
        w = np.cumprod(np.concatenate([first, lam[split:] / k[split:, 1:]], 1), 1)
        w[beyond[split:]] = 0.0
        weights[split:] = w / compensated_row_sums(w)[:, None]
    weights[beyond] = 0.0
    return np.minimum(k, hi[:, None]), weights


def compensated_row_sums(terms: np.ndarray) -> np.ndarray:
    """Sums over the last axis of finite terms, equal to math.fsum of each row
    unless the exact sum lies within about eps^2 times the row's size of a
    rounding boundary.

    A row is split at a power of two sigma above (nonzero terms + 2) times
    its largest |term| (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 2008):
    the high parts (sigma + t) - sigma add up exactly in any order, and the
    exact remainders are folded in halves of a power-of-two row.  So zeros
    appended to a row do not change its sum.
    """
    x = np.asarray(terms, dtype=float)
    _, top = np.frexp(np.abs(x).max(axis=-1, keepdims=True))
    _, spread = np.frexp(np.count_nonzero(x, axis=-1, keepdims=True) + 1.0)
    sigma = np.ldexp(1.0, top + spread)
    high = (sigma + x) - sigma
    low = x - high
    width = x.shape[-1]
    size = 1 << (width - 1).bit_length()
    if size != width:
        low = np.concatenate([low, np.zeros(x.shape[:-1] + (size - width,))], axis=-1)
    while size > 1:
        size //= 2
        low = low[..., :size] + low[..., size:]
    return high.sum(axis=-1) + low[..., 0]


def expect_fn(fn, lam: float) -> float | tuple[float, ...]:
    """E fn(X) for X Poisson with rate lam, summed over one fixed window.

    The terms fn(k) P{X = k}, k in [max(0, lam - 12 sqrt(lam) - 50),
    lam + 12 sqrt(lam) + 50], are added by math.fsum with one rounding.
    fn(k) may return a tuple of floats; each entry is then summed on its
    own and a tuple comes back, so one walk of the window gives several
    expectations.  A plain float is summed as a 1-tuple.
    A window above 0 is divided by its total weight, so its weights sum
    to 1 and expect_fn(lambda k: 1.0, lam) == 1.0.  A window that starts
    at 0 already holds the mass to within rounding and is not divided:
    a total an ulp off 1 would move exact results, such as the chi-square
    variance 2N on a uniform model of N cells, by an ulp.
    """
    if not (lam > 0.0) or not math.isfinite(lam):
        raise ValueError(f"rate must be a positive finite real, got {lam}")
    lo, weights = _window_weights(lam)
    rows = [fn(k) for k in range(lo, lo + len(weights))]
    tupled = isinstance(rows[0], tuple)
    cols = list(zip(*rows)) if tupled else [rows]
    if not all(all(map(math.isfinite, col)) for col in cols):
        k = lo + next(i for i, row in enumerate(zip(*cols)) if not all(map(math.isfinite, row)))
        raise EvaluationError(
            f"fn({k}) is not finite in Poisson expectation at rate {lam}", index=k
        )
    # x / 1.0 == x, so a window from 0 is left as summed
    mass = 1.0 if lo == 0 else math.fsum(weights)
    sums = tuple(math.fsum(map(operator.mul, col, weights)) / mass for col in cols)
    return sums if tupled else sums[0]


def expect_fn_forward_diff(fn, lam: float, max_order: int) -> float:
    """E fn(X) via the forward-difference expansion around zero.

    Uses E fn(X) = sum_{v=0}^{max_order} lam^v / v! * (Delta^v fn)(0).
    Exact once max_order reaches the degree for polynomial fn; for
    general fn it is an independent cross-check that converges quickly
    when lam is small.  Repeated differencing cancels catastrophically
    for large max_order, so this is a diagnostic tool, not the primary
    evaluation path.
    """
    if not (lam > 0.0) or not math.isfinite(lam):
        raise ValueError(f"rate must be a positive finite real, got {lam}")
    if max_order < 0:
        raise ValueError(f"max_order must be nonnegative, got {max_order}")
    row = [float(fn(j)) for j in range(max_order + 1)]
    for j, val in enumerate(row):
        if not math.isfinite(val):
            raise EvaluationError(
                f"fn({j}) is not finite in forward-difference expectation",
                index=j,
            )
    terms = [row[0]]
    weight = 1.0
    for v in range(1, max_order + 1):
        row = [row[j + 1] - row[j] for j in range(len(row) - 1)]
        weight *= lam / v
        terms.append(weight * row[0])
    return math.fsum(terms)
