"""Multinomial allocation models and regime classification.

A model is n particles dropped independently into N cells with cell
probabilities p.  The Poissonized view replaces the fixed total by
independent Poisson counts with rates n*p_m conditioned on their sum;
everything in this package keys off the per-cell rates n*p_m, the fill
ratio n/N, and how small the extreme rates are.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ModelValidationError

__all__ = [
    "Regime",
    "RegimeTag",
    "MultinomialModel",
    "uniform_model",
    "power_law_model",
    "perturbed_uniform_model",
    "explicit_model",
    "classify_regime",
    "probs_from_csv",
]

# Rate thresholds separating the asymptotic regimes.  All cells at least
# this full counts as dense; all cells at most the second counts as very
# sparse; anything else is the intermediate sparse band.
DENSE_MIN_RATE = 10.0
VERY_SPARSE_MAX_RATE = 0.2

_PROB_SUM_TOL = 1e-12
_UNIFORM_REL_TOL = 1e-12


class RegimeTag(enum.Enum):
    DENSE = "dense"
    SPARSE = "sparse"
    VERY_SPARSE = "very_sparse"


@dataclass(frozen=True)
class Regime:
    """Regime tag plus whether the model is uniform.

    Both facts steer the closed forms and the trust-zone rules, so they
    travel together.
    """

    tag: RegimeTag
    uniform: bool

    @property
    def dense(self) -> bool:
        return self.tag is RegimeTag.DENSE

    @property
    def very_sparse(self) -> bool:
        return self.tag is RegimeTag.VERY_SPARSE


@dataclass(frozen=True, eq=False)
class MultinomialModel:
    """n particles over N = len(probs) cells; probs sum to one exactly."""

    n: int
    probs: np.ndarray
    family: str = "explicit"

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool):
            raise ModelValidationError(f"n must be an integer, got {self.n!r}")
        if self.n < 1:
            raise ModelValidationError(f"n must be at least 1, got {self.n}")
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or probs.size < 2:
            raise ModelValidationError(
                f"probs must be a vector of at least 2 cells, got shape {probs.shape}"
            )
        if not np.all(np.isfinite(probs)) or np.any(probs <= 0.0):
            raise ModelValidationError("cell probabilities must be finite and positive")
        total = math.fsum(probs.tolist())
        if abs(total - 1.0) > _PROB_SUM_TOL:
            raise ModelValidationError(
                f"cell probabilities must sum to 1 within {_PROB_SUM_TOL}, "
                f"got sum {total!r}"
            )
        # Normalize exactly so downstream identities hold to machine precision.
        probs = probs / total
        probs.flags.writeable = False
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "probs", probs)

    @property
    def num_cells(self) -> int:
        return self.probs.size

    @property
    def fill_ratio(self) -> float:
        """Mean particles per cell, n/N."""
        return self.n / self.num_cells

    @cached_property
    def rates(self) -> np.ndarray:
        """Poissonized per-cell rates n * p_m, computed once, read-only."""
        rates = self.n * self.probs
        rates.flags.writeable = False
        return rates

    @property
    def p_min(self) -> float:
        return float(self.probs.min())

    @property
    def p_max(self) -> float:
        return float(self.probs.max())

    @property
    def inv_min_rate(self) -> float:
        """Reciprocal of the smallest cell rate, clipped below at 1."""
        return max(1.0, 1.0 / (self.n * self.p_min))

    @property
    def is_uniform(self) -> bool:
        return bool(np.max(np.abs(self.probs * self.num_cells - 1.0)) <= _UNIFORM_REL_TOL)

    def rate_groups(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct per-cell rates and their multiplicities.

        Summaries loop over distinct rates instead of cells, which turns
        uniform and near-uniform models with 1e5 cells into a handful of
        evaluations.  Computed once; the arrays are read-only.
        """
        return self._rate_groups

    @cached_property
    def _rate_groups(self) -> tuple[np.ndarray, np.ndarray]:
        values, counts = np.unique(self.rates, return_counts=True)
        values.flags.writeable = False
        counts.flags.writeable = False
        return values, counts


def uniform_model(n: int, num_cells: int) -> MultinomialModel:
    """All cells equally likely."""
    probs = np.full(num_cells, 1.0 / num_cells)
    return MultinomialModel(n=n, probs=probs, family="uniform")


def power_law_model(n: int, num_cells: int, alpha: float) -> MultinomialModel:
    """Cell m gets weight proportional to m^-alpha, m = 1..N, renormalized."""
    if not math.isfinite(alpha):
        raise ModelValidationError(f"alpha must be finite, got {alpha}")
    m = np.arange(1, num_cells + 1, dtype=float)
    with np.errstate(over="ignore"):
        weights = m**-alpha
    try:
        total = math.fsum(weights.tolist())
    except OverflowError:
        total = math.inf
    if total == math.inf:
        raise ModelValidationError(f"alpha = {alpha} overflows the weights of {num_cells} cells")
    probs = weights / total
    return MultinomialModel(n=n, probs=probs, family="power_law")


def perturbed_uniform_model(
    n: int, num_cells: int, delta: float, ell
) -> MultinomialModel:
    """p_m = (1 + delta * ell_m) / N for a zero-sum perturbation vector ell."""
    ell = np.asarray(ell, dtype=float)
    if ell.shape != (num_cells,):
        raise ModelValidationError(
            f"perturbation vector must have length {num_cells}, got shape {ell.shape}"
        )
    if not np.all(np.isfinite(ell)) or not math.isfinite(delta):
        raise ModelValidationError("delta and the perturbation vector must be finite")
    if abs(math.fsum(ell.tolist())) > 1e-9 * max(1.0, float(np.abs(ell).max())):
        raise ModelValidationError("perturbation vector must sum to zero")
    scaled = 1.0 + delta * ell
    if np.any(scaled <= 0.0):
        raise ModelValidationError(
            "1 + delta * ell_m must stay positive for every cell"
        )
    probs = scaled / num_cells
    return MultinomialModel(n=n, probs=probs, family="perturbed_uniform")


def explicit_model(n: int, probs) -> MultinomialModel:
    """Model from an explicit probability vector."""
    return MultinomialModel(n=n, probs=np.asarray(probs, dtype=float))


def classify_regime(model: MultinomialModel) -> Regime:
    """Regime from the extreme per-cell rates.

    Dense means even the emptiest cell expects DENSE_MIN_RATE particles;
    very sparse means even the fullest cell expects at most
    VERY_SPARSE_MAX_RATE; everything between is sparse.  Invariant under
    scaling n and N together, since the rates only depend on n * p_m.
    """
    rates = model.rates
    if float(rates.min()) >= DENSE_MIN_RATE:
        tag = RegimeTag.DENSE
    elif float(rates.max()) <= VERY_SPARSE_MAX_RATE:
        tag = RegimeTag.VERY_SPARSE
    else:
        tag = RegimeTag.SPARSE
    return Regime(tag=tag, uniform=model.is_uniform)


# -- probability files ------------------------------------------------------

def probs_from_csv(text: str) -> np.ndarray:
    values = [float(line) for line in text.split() if line.strip()]
    if not values:
        raise ModelValidationError("probability file is empty")
    return np.array(values)

