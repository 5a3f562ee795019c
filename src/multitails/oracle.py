"""Independent checks: exact distributions, exact moments, Monte Carlo.

Everything here is deliberately computed by routes that do not share
code with the moment summaries or tail approximations: exact multinomial
probabilities in log space, full enumeration of the count vectors for
small models, binomial occupancy moments, and seeded simulation.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EvaluationError, UnsupportedCombinationError
from .kernels import Kernel, MomentSummary, statistic_value
from .model import MultinomialModel

__all__ = [
    "ExactDistribution",
    "McEstimate",
    "multinomial_log_pmf",
    "multinomial_pmf",
    "conditioned_poisson_log_pmf",
    "conditioned_poisson_pmf",
    "nu_n_constant",
    "enumerate_distribution",
    "exact_count_moments",
    "mc_tail_estimate",
]

# Two-sided 99% normal quantile for Wilson intervals.
_WILSON_Z = 2.5758293035489004

_PRUNE_LOG = math.log(1e-300)

# Enumerated statistic values this close (relative, floored at 1) are one atom.
_MERGE_RTOL = 1e-12

# Enumeration refuses models with more compositions than this.
_MAX_COMPOSITIONS = 2_000_000


def multinomial_log_pmf(counts, model: MultinomialModel) -> float:
    """Exact log probability of one count vector."""
    c = np.asarray(counts)
    if c.shape != model.probs.shape or c.sum() != model.n or (c < 0).any():
        raise EvaluationError(
            f"count vector must be nonnegative with shape {model.probs.shape} "
            f"summing to {model.n}"
        )
    terms = [math.lgamma(model.n + 1)]
    for ci, pi in zip(c.tolist(), model.probs.tolist()):
        terms.append(-math.lgamma(ci + 1))
        if ci:
            terms.append(ci * math.log(pi))
    return math.fsum(terms)


def multinomial_pmf(counts, model: MultinomialModel) -> float:
    return math.exp(multinomial_log_pmf(counts, model))


def conditioned_poisson_log_pmf(counts, model: MultinomialModel) -> float:
    """Same probability through independent Poisson counts given their total.

    log P{xi = c | sum xi = n} with xi_m Poisson at rate n p_m; agrees
    with the multinomial log pmf identically and provides an independent
    route for tests.
    """
    c = np.asarray(counts)
    if c.shape != model.probs.shape or c.sum() != model.n or (c < 0).any():
        raise EvaluationError(
            f"count vector must be nonnegative with shape {model.probs.shape} "
            f"summing to {model.n}"
        )
    n = model.n
    rates = model.rates
    log_joint = math.fsum(
        ci * math.log(lam) - lam - math.lgamma(ci + 1)
        for ci, lam in zip(c.tolist(), rates.tolist())
    )
    log_total = n * math.log(n) - n - math.lgamma(n + 1)
    return log_joint - log_total


def conditioned_poisson_pmf(counts, model: MultinomialModel) -> float:
    return math.exp(conditioned_poisson_log_pmf(counts, model))


def nu_n_constant(n: int) -> float:
    """n! e^n / (2 pi n^n sqrt(n)); times sqrt(2 pi) it tends to 1."""
    if n < 1:
        raise EvaluationError("n must be >= 1")
    return math.exp(math.lgamma(n + 1) + n - (n + 0.5) * math.log(n)) / (2.0 * math.pi)


@dataclass(frozen=True)
class ExactDistribution:
    """Finite distribution of a statistic: sorted atoms with probabilities."""

    values: tuple[float, ...]
    probs: tuple[float, ...]

    @property
    def total(self) -> float:
        return math.fsum(self.probs)

    def mean(self) -> float:
        return math.fsum(v * p for v, p in zip(self.values, self.probs))

    def moment(self, k: int, center: float = 0.0) -> float:
        return math.fsum((v - center) ** k * p for v, p in zip(self.values, self.probs))

    def var(self) -> float:
        return self.moment(2, self.mean())

    def tail_prob(self, threshold: float, side: str = "upper", strict: bool = True) -> float:
        if side == "upper":
            if strict:
                keep = (v > threshold for v in self.values)
            else:
                keep = (v >= threshold for v in self.values)
        elif side == "lower":
            if strict:
                keep = (v < threshold for v in self.values)
            else:
                keep = (v <= threshold for v in self.values)
        else:
            raise EvaluationError(f"side must be 'upper' or 'lower', got {side!r}")
        return math.fsum(p for p, k in zip(self.probs, keep) if k)


def enumerate_distribution(
    model: MultinomialModel,
    statistic: Kernel | Callable[[np.ndarray], float],
    frame: str = "canonical",
) -> ExactDistribution:
    """Exact distribution of a count-determined statistic by enumeration.

    Walks every composition of n over the cells with an incrementally
    maintained log probability, drops compositions whose probability
    underflows doubles, and merges statistic atoms that agree to
    a relative 1e-12.  The statistic is a Kernel or any callable taking the
    counts vector; statistics with their own randomness given the
    counts cannot be enumerated this way.
    """
    if isinstance(statistic, Kernel):
        if statistic.is_random:
            raise UnsupportedCombinationError(
                "enumeration needs a count-determined statistic"
            )
        kernel = statistic

        def evaluate(counts):
            return statistic_value(kernel, model, counts, frame)
    else:
        evaluate = statistic
    n = model.n
    num_cells = model.num_cells
    total = math.comb(n + num_cells - 1, num_cells - 1)
    if total > _MAX_COMPOSITIONS:
        raise UnsupportedCombinationError(
            f"{total} compositions exceed the enumeration cap {_MAX_COMPOSITIONS}"
        )
    log_p = np.log(model.probs)
    # lgamma(c+1) for c = 0..n, shared across cells
    lg = np.array([math.lgamma(c + 1) for c in range(n + 1)])
    base = math.lgamma(n + 1)
    counts = np.zeros(num_cells, dtype=np.int64)
    values = []
    probs = []

    def walk(cell: int, remaining: int, partial: float):
        if cell == num_cells - 1:
            counts[cell] = remaining
            lp = partial + remaining * log_p[cell] - lg[remaining]
            if lp >= _PRUNE_LOG:
                values.append(float(evaluate(counts)))
                probs.append(math.exp(lp))
            return
        for c in range(remaining + 1):
            counts[cell] = c
            walk(cell + 1, remaining - c, partial + c * log_p[cell] - lg[c])

    walk(0, n, base)
    order = np.argsort(values, kind="stable")
    merged_v = []
    merged_p = []
    for idx in order:
        v = values[idx]
        p = probs[idx]
        if merged_v and abs(v - merged_v[-1]) <= _MERGE_RTOL * max(1.0, abs(merged_v[-1])):
            merged_p[-1] += p
        else:
            merged_v.append(v)
            merged_p.append(p)
    return ExactDistribution(tuple(merged_v), tuple(merged_p))


def exact_count_moments(model: MultinomialModel, r: int) -> tuple[float, float]:
    """Exact mean and variance of the number of cells with count exactly r.

    Marginals P_i are binomial; pairs need the trinomial joint P_ij =
    P{c_i = r, c_j = r}, which vanishes when 2r > n.  The variance is
    sum P_i (1 - P_i) + sum_{i != j} P_i P_j expm1(L_ij) with
    L_ij = log(P_ij / (P_i P_j)) built from log1p terms, so it is never a
    difference of the nearly equal second moment and squared mean.
    """
    if r < 0 or r != int(r):
        raise EvaluationError("r must be a nonnegative integer")
    if r > model.n:
        return 0.0, 0.0
    n = model.n
    # the terms depend only on the cell probabilities: work on the distinct
    # ones q, weighted m_i m_j off the diagonal and m_i (m_i - 1) on it
    q, cells, m = np.unique(model.probs, return_inverse=True, return_counts=True)
    # P{Binomial(n, q) = r}
    pq = np.exp(
        math.lgamma(n + 1) - math.lgamma(r + 1) - math.lgamma(n - r + 1)
        + r * np.log(q) + (n - r) * np.log1p(-q)
    )
    marg = pq[cells]
    mean = float(math.fsum(marg.tolist()))
    single = math.fsum((marg * (1.0 - marg)).tolist())
    if 2 * r > n:
        ratio = np.full((q.size, q.size), -1.0)
    else:
        # P_ij / (P_i P_j) = prod_k (1 - r/(n - k)) over k < r
        #   * (1 - q_i q_j / ((1 - q_i)(1 - q_j)))^(n - 2r) / ((1 - q_i)(1 - q_j))^r
        log_q1 = np.log1p(-q)
        log_ratio = math.fsum(math.log1p(-r / (n - k)) for k in range(r)) - r * (
            log_q1[:, None] + log_q1[None, :]
        )
        if n > 2 * r:
            # q_i + q_j <= 1 keeps the fraction at most 1, where log1p gives -inf
            frac = np.minimum(np.outer(q, q) / np.outer(1.0 - q, 1.0 - q), 1.0)
            with np.errstate(divide="ignore"):
                log_ratio = log_ratio + (n - 2 * r) * np.log1p(-frac)
        ratio = np.expm1(log_ratio)
    cross = float(((np.outer(m, m) - np.diag(m)) * np.outer(pq, pq) * ratio).sum())
    return mean, single + cross


@dataclass(frozen=True)
class McEstimate:
    """Seeded Monte Carlo tail estimates with Wilson 99% intervals."""

    x: tuple[float, ...]
    threshold: tuple[float, ...]
    hits: tuple[int, ...]
    p_hat: tuple[float, ...]
    ci_low: tuple[float, ...]
    ci_high: tuple[float, ...]
    trials: int
    seed: int
    side: str

    def halfwidth(self, i: int) -> float:
        return 0.5 * (self.ci_high[i] - self.ci_low[i])

    def to_dict(self) -> dict:
        return {
            "x": list(self.x),
            "threshold": list(self.threshold),
            "hits": list(self.hits),
            "p_hat": list(self.p_hat),
            "ci_low": list(self.ci_low),
            "ci_high": list(self.ci_high),
            "trials": self.trials,
            "seed": self.seed,
            "side": self.side,
        }


def _block_rows(model: MultinomialModel) -> int:
    """Trials per Monte Carlo block: at most 2**16 counts, whatever the split."""
    return max(1, 2**16 // model.num_cells)


# Uniform blocks are drawn as n cell labels per row when n <= this many
# times N.  Labels plus bincount beat multinomial by 11-23x at n/N = 1/4,
# 4-9x at 1, 1.7-2.3x at 8 and 1.0-1.7x at 16, but lose at 32 (0.42-0.56x),
# where numpy's binomial switches to BTPE (timeit, N = 8..4096, 2-core VM).
_LABEL_MAX_FILL = 16


def _mc_chunk(args) -> np.ndarray:
    """Hits per threshold over trials start..stop, a run of whole blocks.

    Block b holds trials b*rows .. (b+1)*rows - 1, cut at the last trial.
    It is drawn from default_rng((seed, b)) as one (rows, N) count matrix,
    plus one (rows, N) level matrix for random kernels, and its rows are
    evaluated by one statistic call.  A uniform model with n <= 16 N draws
    the counts as n integer cell labels per row, counted by one bincount;
    every other model draws them with rng.multinomial.
    """
    model, kernel, frame, thresholds, side, seed, start, stop = args
    rows = _block_rows(model)
    n, cells = model.n, model.num_cells
    use_labels = model.is_uniform and n <= _LABEL_MAX_FILL * cells
    thr = np.asarray(thresholds)
    hits = np.zeros(thr.size, dtype=np.int64)
    for first in range(start, stop, rows):
        rng = np.random.default_rng((seed, first // rows))
        size = min(rows, stop - first)
        if use_labels:
            # row i's labels land in bins i*N .. (i+1)*N - 1
            idx = rng.integers(0, cells, size=(size, n))
            idx += np.arange(0, size * cells, cells)[:, None]
            counts = np.bincount(idx.ravel(), minlength=size * cells).reshape(size, cells)
        else:
            counts = rng.multinomial(n, model.probs, size=size)
        draws = kernel.levels.draw(rng, counts.shape) if kernel.is_random else None
        values = statistic_value(kernel, model, counts, frame, draws)[:, None]
        hits += (values > thr if side == "upper" else values < thr).sum(axis=0)
    return hits


def _usable_cpus() -> int:
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _wilson(hits: int, trials: int) -> tuple[float, float, float]:
    z = _WILSON_Z
    p_hat = hits / trials
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2.0 * trials)) / denom
    half = (
        z
        * math.sqrt(p_hat * (1.0 - p_hat) / trials + z * z / (4.0 * trials * trials))
        / denom
    )
    return p_hat, max(0.0, center - half), min(1.0, center + half)


def mc_tail_estimate(
    model: MultinomialModel,
    kernel: Kernel,
    summary: MomentSummary,
    x_list,
    trials: int,
    seed: int,
    side: str = "upper",
    frame: str = "canonical",
    workers: int = 1,
) -> McEstimate:
    """Monte Carlo estimate of P{T > mean + x sigma} (or the lower analog).

    Trials are drawn in fixed blocks of max(1, 2**16 // N) trials, each
    seeded by (seed, block).  The trials are split into min(workers,
    blocks) runs of whole blocks, which min(runs, usable CPUs) processes
    share, so results do not depend on the split.  A block of a uniform
    model with n <= 16 N is drawn as integer cell labels counted by one
    bincount, any other block by rng.multinomial.  Thresholds use strict
    exceedance; x may be any finite real, including negative values.
    """
    if trials < 1000:
        raise EvaluationError("tail estimation needs at least 1000 trials")
    if side not in ("upper", "lower"):
        raise EvaluationError(f"side must be 'upper' or 'lower', got {side!r}")
    workers = int(workers)
    if workers < 1:
        raise EvaluationError(f"workers must be at least 1, got {workers}")
    xs = [float(x) for x in x_list]
    if any(not math.isfinite(x) for x in xs):
        raise EvaluationError("x values must be finite")
    sigma = summary.sigma
    if side == "upper":
        thresholds = [summary.mean + x * sigma for x in xs]
    else:
        thresholds = [summary.mean - x * sigma for x in xs]

    rows = _block_rows(model)
    blocks = -(-trials // rows)
    edges = np.linspace(0, blocks, min(workers, blocks) + 1, dtype=int)
    bounds = [min(int(b) * rows, trials) for b in edges]
    jobs = [
        (model, kernel, frame, thresholds, side, seed, a, b)
        for a, b in zip(bounds[:-1], bounds[1:])
    ]
    # a fork pool starts every process at once: no more than runs or CPUs
    size = min(len(jobs), _usable_cpus())
    if size == 1:
        parts = list(map(_mc_chunk, jobs))
    else:
        with ProcessPoolExecutor(max_workers=size) as pool:
            parts = list(pool.map(_mc_chunk, jobs))
    hits = np.sum(parts, axis=0)
    wilson = [_wilson(h, trials) for h in hits.tolist()]
    return McEstimate(
        x=tuple(xs),
        threshold=tuple(thresholds),
        hits=tuple(int(h) for h in hits),
        p_hat=tuple(w[0] for w in wilson),
        ci_low=tuple(w[1] for w in wilson),
        ci_high=tuple(w[2] for w in wilson),
        trials=trials,
        seed=seed,
        side=side,
    )
