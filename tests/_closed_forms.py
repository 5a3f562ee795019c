"""Closed forms and writers that only the tests use.

Raw Poisson moments, a forward-difference expectation, small-rate
expansions of the unfilled statistic, the crude Gaussian tail asymptote
and atom-by-atom queries of an exact distribution are independent
cross-checks on the package; the CSV writers round-trip through its
readers.
"""

import math
from functools import lru_cache

from multitails.errors import EvaluationError

# -- Poisson moments and expectations ------------------------------------------


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


def expect_fn_forward_diff(fn, lam: float, max_order: int) -> float:
    """E fn(X) via the forward-difference expansion around zero.

    Uses E fn(X) = sum_{v=0}^{max_order} lam^v / v! * (Delta^v fn)(0).
    Exact once max_order reaches the degree for polynomial fn; for
    general fn it converges quickly when lam is small.  Repeated
    differencing cancels catastrophically for large max_order.
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


# -- unfilled cells at small rates ---------------------------------------------


def zero_mass(levels) -> float:
    """P{level = 0}: the fraction of cells that can never be unfilled."""
    return levels.pmf[0][1] if levels.pmf[0][0] == 0 else 0.0


def min_positive_level(levels) -> int:
    return next(l for l, _ in levels.pmf if l > 0)


def lead_coefficient(levels) -> float:
    """P{level = G} / G! for G the smallest positive level."""
    g = min_positive_level(levels)
    return levels.prob(g) / math.factorial(g)


def tau_sparse_approx(levels, lam: float) -> float:
    """Small-rate expansion of the per-cell unfilled probability.

    tau(lam) = 1 - P{level = 0} - (P{level = G}/G!) lam^G + O(lam^{G+1})
    with G the smallest positive level.
    """
    g = min_positive_level(levels)
    return 1.0 - zero_mass(levels) - lead_coefficient(levels) * lam**g


def unfilled_sparse_expansion(levels, lam: float, num_cells: int) -> tuple[float, float]:
    """Leading-order (mean, variance) of the unfilled count at small rates:
    mean ~ N tau_approx and variance ~ N beta0 (1 - beta0), beta0 the zero-level mass."""
    beta0 = zero_mass(levels)
    return (
        num_cells * tau_sparse_approx(levels, lam),
        num_cells * beta0 * (1.0 - beta0),
    )


# -- exact distributions atom by atom -----------------------------------------


def tail_prob_by_atoms(dist, threshold: float, side: str, strict: bool) -> float:
    """P{value > threshold} (or >=, <, <=): fsum over the atoms that qualify."""
    if side == "upper":
        keep = [v > threshold if strict else v >= threshold for v in dist.values]
    else:
        keep = [v < threshold if strict else v <= threshold for v in dist.values]
    return math.fsum(p for p, k in zip(dist.probs, keep) if k)


def mean_by_atoms(dist) -> float:
    return math.fsum(v * p for v, p in zip(dist.values, dist.probs))


def moment_by_atoms(dist, k: int, center: float = 0.0) -> float:
    return math.fsum((v - center) ** k * p for v, p in zip(dist.values, dist.probs))


def var_by_atoms(dist) -> float:
    return moment_by_atoms(dist, 2, mean_by_atoms(dist))


# -- tails and files -----------------------------------------------------------


def log_tail_asymptote(x: float) -> float:
    """Crude exponential order of the standardized tail, -x^2/2."""
    return -0.5 * x * x


def probs_to_csv(probs) -> str:
    """One probability per line at 17 significant digits (lossless for float64)."""
    return "\n".join(f"{float(p):.17g}" for p in probs) + "\n"


def levels_to_csv(levels) -> str:
    """'level,probability' lines at 17 significant digits."""
    return "\n".join(f"{l},{p:.17g}" for l, p in levels.pmf) + "\n"
