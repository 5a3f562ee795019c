"""Independent checks: exact distributions, exact moments, Monte Carlo.

Everything here is deliberately computed by routes that do not share
code with the moment summaries' expectations or tail approximations:
exact multinomial probabilities in log space, full enumeration of the
count vectors for small models, binomial occupancy moments, and seeded
simulation.  Only the per-cell kernel, which defines the statistic, is
shared: kernels.statistic_value sums the summaries' kernel table.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left, bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EvaluationError, UnsupportedCombinationError
from .kernels import Kernel, MomentSummary, resolve_frame, statistic_value
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
    "enumerate_distributions",
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

# Enumeration evaluates its compositions in blocks of at most this many
# rows and this many counts.
_BLOCK_ROWS = 2**16
_BLOCK_COUNTS = 2**22


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
    """Finite distribution of a statistic: atoms sorted by value, NaN last.

    Every query is bitwise the math.fsum of its terms taken atom by atom:
    tails sum a slice of the probabilities, and the moments form their
    terms with numpy, whose products and float_power (the C library's pow,
    as Python's ** calls) round as Python's operators do.
    """

    values: tuple[float, ...]
    probs: tuple[float, ...]

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        # the atoms as arrays, built on the first moment query
        return np.array(self.values), np.array(self.probs)

    @property
    def total(self) -> float:
        return math.fsum(self.probs)

    def mean(self) -> float:
        values, probs = self._arrays
        with np.errstate(invalid="ignore"):
            terms = values * probs
        return math.fsum(terms.tolist())

    def moment(self, k: int, center: float = 0.0) -> float:
        values, probs = self._arrays
        # inf - inf and inf * 0 give NaN as quietly as Python's operators
        with np.errstate(invalid="ignore"):
            terms = np.float_power(values - center, k) * probs
        return math.fsum(terms.tolist())

    def var(self) -> float:
        return self.moment(2, self.mean())

    def tail_prob(self, threshold: float, side: str = "upper", strict: bool = True) -> float:
        if side not in ("upper", "lower"):
            raise EvaluationError(f"side must be 'upper' or 'lower', got {side!r}")
        values = self.values
        # no comparison with NaN holds, and NaN atoms sort last
        if threshold != threshold:
            return 0.0
        stop = len(values)
        while stop and values[stop - 1] != values[stop - 1]:
            stop -= 1
        if side == "upper":
            cut = (bisect_right if strict else bisect_left)(values, threshold, 0, stop)
            return math.fsum(self.probs[cut:stop])
        cut = (bisect_left if strict else bisect_right)(values, threshold, 0, stop)
        return math.fsum(self.probs[:cut])


def enumerate_distribution(
    model: MultinomialModel, kernel: Kernel, frame: str = "canonical"
) -> ExactDistribution:
    """Exact distribution of one count-determined statistic by enumeration:
    enumerate_distributions with one kernel."""
    return enumerate_distributions(model, (kernel,), frame)[0]


def enumerate_distributions(
    model: MultinomialModel, kernels, frame: str = "canonical"
) -> tuple[ExactDistribution, ...]:
    """Exact distributions of count-determined statistics by one enumeration.

    Walks every composition of n over the cells in lexicographic order, in
    blocks: a loop over the counts of the first N - j cells, each prefix
    completed by the table of every composition of the items left into the
    last j cells.  j is the most cells, at least 1, for which all those
    tables together hold at most 2**16 rows and 2**22 counts, so no block
    is larger.  A prefix with no items left is a single row; such rows
    share blocks of that size, each flushed before the next other block so
    that rows keep their walk order.  Each block gets one vectorized log
    probability, added cell by cell in the order of a one-composition-at-a-
    time walk, and one statistic_value call per kernel; the probabilities
    are exponentiated once for all kernels.  Compositions whose probability
    underflows doubles are dropped, and statistic atoms that agree to a
    relative 1e-12 are merged.  Atoms and probabilities are bitwise those of
    the one-at-a-time walk.  Statistics with their own randomness given the
    counts cannot be enumerated, and a bad frame is refused before any
    composition table is built.
    """
    kernels = tuple(kernels)
    for kernel in kernels:
        if kernel.is_random:
            raise UnsupportedCombinationError("enumeration needs a count-determined statistic")
        resolve_frame(model, kernel, frame)
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
    limit = _block_limit(num_cells)
    tail_cells = _tail_cells(n, num_cells)
    fixed = num_cells - tail_cells
    # the last tail cell takes what is left, so the tables are read off the
    # compositions of at most n items into the tail cells but one
    head, used = _compositions(n, tail_cells - 1)
    tails = {}
    prefix = np.zeros(fixed, dtype=np.int64)
    values = [[] for _ in kernels]
    logs = []
    # kept rows with no items left, written into one block made when the
    # first comes and reused, and their log probabilities; the tail
    # columns stay zero
    empty = None
    empty_logs = []

    def evaluate(block, lp):
        for out, kernel in zip(values, kernels):
            out.append(statistic_value(kernel, model, block, frame))
        logs.append(lp)

    def flush():
        evaluate(empty[: len(empty_logs)], np.array(empty_logs))
        empty_logs.clear()

    # (cells fixed, count of the last of them, items left, log probability so far)
    stack = [(0, 0, n, math.lgamma(n + 1))]
    while stack:
        depth, count, left, partial = stack.pop()
        if depth:
            prefix[depth - 1] = count
        if depth < fixed and left:
            stack.extend(
                (depth + 1, c, left - c, partial + c * log_p[depth] - lg[c])
                for c in range(left, -1, -1)
            )
            continue
        # an empty cell adds -0.0 and takes 0.0 away, which leaves a log
        # probability bitwise as it was, so no items left means no more terms
        prefix[depth:] = 0
        if not left:
            # the row is the prefix padded with zeros
            if partial >= _PRUNE_LOG:
                if empty is None:
                    empty = np.zeros((limit, num_cells), dtype=np.int64)
                empty[len(empty_logs), :fixed] = prefix
                empty_logs.append(partial)
                if len(empty_logs) == limit:
                    flush()
            continue
        if empty_logs:
            flush()
        tail = tails.get(left)
        if tail is None:
            fits = used <= left
            tail = tails[left] = np.column_stack((head[fits], left - used[fits]))
        lp = np.full(len(tail), partial)
        # partial + c log p - lgamma(c + 1), cell after cell, as the walk adds
        for cell in range(fixed, num_cells):
            col = tail[:, cell - fixed]
            lp = lp + col * log_p[cell] - lg[col]
        if fixed:
            block = np.empty((len(tail), num_cells), dtype=np.int64)
            block[:, :fixed] = prefix
            block[:, fixed:] = tail
        else:
            block = tail
        keep = lp >= _PRUNE_LOG
        if not keep.all():
            block, lp = block[keep], lp[keep]
        if len(block):
            evaluate(block, lp)
    if empty_logs:
        flush()
    lp = np.concatenate(logs)
    # math.exp, not np.exp, which is an ulp off libm on some inputs
    probs = np.fromiter(map(math.exp, lp.tolist()), dtype=float, count=lp.size)
    return tuple(_merge_atoms(np.concatenate(v), probs) for v in values)


def _block_limit(num_cells: int) -> int:
    """Rows per block: at most 2**16, and at most 2**22 counts."""
    return min(_BLOCK_ROWS, _BLOCK_COUNTS // num_cells)


def _tail_cells(n: int, num_cells: int) -> int:
    """Cells j enumerated per block: the most, at least 1, such that every
    composition of at most n items into j cells fits the block bounds."""
    limit = _block_limit(num_cells)
    j = 1
    while j < num_cells and math.comb(n + j + 1, j + 1) <= limit:
        j += 1
    return j


def _compositions(n: int, cells: int) -> tuple[np.ndarray, np.ndarray]:
    """Every composition of at most n items into cells, one per row in
    lexicographic order, and the row sums.

    Grows one cell at a time: each row spawns one child per count the next
    cell can take, and the columns are read back through the parents.
    """
    used = np.zeros(1, dtype=np.int64)
    steps = []
    for _ in range(cells):
        spawn = n + 1 - used
        parent = np.repeat(np.arange(used.size), spawn)
        count = np.arange(parent.size) - np.repeat(np.cumsum(spawn) - spawn, spawn)
        used = used[parent] + count
        steps.append((parent, count))
    table = np.empty((used.size, cells), dtype=np.int64)
    row = np.arange(used.size)
    for col in range(cells - 1, -1, -1):
        parent, count = steps[col]
        table[:, col] = count[row]
        row = parent[row]
    return table, used


def _merge_atoms(values: np.ndarray, probs: np.ndarray) -> ExactDistribution:
    """Sort the atoms stably and merge values close to a group's first value.

    A group is anchored at its first value a and takes each later value v
    with |v - a| <= _MERGE_RTOL max(1, |a|); its probability is the sum of
    its members' in sorted order (bincount adds them one after another).
    """
    order = np.argsort(values, kind="stable")
    v = values[order]
    # starts[i]: sorted value i anchors a new atom.  Equal finite values
    # always join one group, so the chained rule only looks at the first of
    # each run of them.
    starts = np.ones(v.size, dtype=bool)
    starts[1:] = (v[1:] != v[:-1]) | ~np.isfinite(v[1:])
    heads = np.flatnonzero(starts)
    # A head more than twice the tolerance above the head before it is
    # farther still from any finite anchor at or below that one, so it
    # anchors an atom; the chained rule runs only over the other heads,
    # each run of them starting from the head just before it.
    hv = v[heads]
    with np.errstate(invalid="ignore"):
        near = np.abs(hv[1:] - hv[:-1]) <= 2 * _MERGE_RTOL * np.maximum(1.0, np.abs(hv[:-1]))
    if hv.size and hv[0] == -math.inf:
        # an anchor at -inf takes in every later value but NaN
        near[:] = True
    near = np.flatnonzero(near) + 1
    last = -2
    for i, x, before in zip(near.tolist(), hv[near].tolist(), hv[near - 1].tolist()):
        if i != last + 1:
            anchor = before
        last = i
        if abs(x - anchor) <= _MERGE_RTOL * max(1.0, abs(anchor)):
            starts[heads[i]] = False
        else:
            anchor = x
    sums = np.bincount(np.cumsum(starts) - 1, weights=probs[order])
    return ExactDistribution(tuple(v[starts].tolist()), tuple(sums.tolist()))


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


def _block_rows(model: MultinomialModel) -> int:
    """Trials per Monte Carlo block: at most 2**16 counts, whatever the split."""
    return max(1, 2**16 // model.num_cells)


# Uniform blocks are drawn as n cell labels per row when n <= this many
# times N.  Labels plus bincount beat multinomial by 11-23x at n/N = 1/4,
# 4-9x at 1, 1.7-2.3x at 8 and 1.0-1.7x at 16, but lose at 32 (0.42-0.56x),
# where numpy's binomial switches to BTPE (timeit, N = 8..4096, 2-core VM).
_LABEL_MAX_FILL = 16

# Non-uniform blocks are drawn as n alias-table labels per row when n <=
# this many times N, and by rng.multinomial above.  The alias step costs a
# second uniform matrix and two table lookups per label.  Multinomial time
# over alias-label time per block of 2**16 // N rows (powerlaw(0.5)
# probabilities, best of 5 x 10, 2-core VM):
#   N       n = N    2N     3N     4N
#   8        1.95   1.12   0.87   0.67
#   64       3.45   2.19   1.04   0.77
#   512      3.46   2.21   1.12   0.73
#   4096     3.55   2.14   1.05   0.89
_ALIAS_MAX_FILL = 2


def _alias_table(probs) -> tuple[np.ndarray, np.ndarray]:
    """Vose's alias table (keep, alias) for drawing a cell with probabilities probs.

    A label k drawn uniformly from the N cells stays k with probability
    keep[k] and becomes alias[k] otherwise, so cell k is drawn with
    probability (keep[k] + sum of 1 - keep[j] over j with alias[j] = k) / N.
    Two stacks, filled in index order, hold the cells below and at or above
    probability 1/N.  The top small cell keeps its own mass and takes the
    rest of its 1/N from the top large cell, which moves to the small
    stack once its excess is gone; the bits each such step rounds off are
    kept and handed back when that cell is topped up in turn.  A cell of
    probability 0 gets keep 0 and is no cell's alias, so it is never
    drawn.  Cells left over hold 1/N up to rounding and keep their label.
    """
    num = len(probs)
    scaled = (np.asarray(probs, dtype=float) * num).tolist()
    lost = [0.0] * num
    keep = [1.0] * num
    alias = list(range(num))
    small = [k for k, s in enumerate(scaled) if s < 1.0]
    large = [k for k, s in enumerate(scaled) if s >= 1.0]
    while small and large:
        s, g = small.pop(), large[-1]
        keep[s] = q = scaled[s] + lost[s]
        alias[s] = g
        # g gives up 1 - q; t - 1 is exact, and lost takes what t rounds off
        a = scaled[g]
        t = a + q
        b = t - a
        lost[g] += (a - (t - b)) + (q - b)
        scaled[g] = t - 1.0
        if scaled[g] < 1.0:
            small.append(large.pop())
    return np.array(keep), np.array(alias, dtype=np.intp)


def _mc_chunk(args) -> np.ndarray:
    """Hits per threshold over trials start..stop, a run of whole blocks.

    Block b holds trials b*rows .. (b+1)*rows - 1, cut at the last trial.
    It is drawn from default_rng((seed, b)) as one (rows, N) count matrix,
    plus one (rows, N) matrix of uniform coins for random kernels, and its
    rows are evaluated by one statistic call.  A sparse block (n <= 16 N
    for a uniform model, n <= 2 N for any other) draws its counts as n
    integer cell labels per row, counted by one bincount; a non-uniform
    model first moves each label k to alias[k] where a second uniform is
    at or above keep[k] (_alias_table), and a uniform one needs no second
    draw.  Denser blocks are drawn by rng.multinomial.
    """
    model, kernel, frame, thresholds, side, seed, start, stop = args
    rows = _block_rows(model)
    n, cells = model.n, model.num_cells
    uniform = model.is_uniform
    use_labels = n <= (_LABEL_MAX_FILL if uniform else _ALIAS_MAX_FILL) * cells
    if use_labels and not uniform:
        keep, alias = _alias_table(model.probs)
    thr = np.asarray(thresholds)
    hits = np.zeros(thr.size, dtype=np.int64)
    for first in range(start, stop, rows):
        rng = np.random.default_rng((seed, first // rows))
        size = min(rows, stop - first)
        if use_labels:
            idx = rng.integers(0, cells, size=(size, n))
            if not uniform:
                idx = np.where(rng.random((size, n)) < keep[idx], idx, alias[idx])
            # row i's labels land in bins i*N .. (i+1)*N - 1
            idx += np.arange(0, size * cells, cells)[:, None]
            counts = np.bincount(idx.ravel(), minlength=size * cells).reshape(size, cells)
        else:
            counts = rng.multinomial(n, model.probs, size=size)
        coins = rng.random(counts.shape) if kernel.is_random else None
        values = statistic_value(kernel, model, counts, frame, coins)[:, None]
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
    share, so results do not depend on the split.  A sparse block (n <=
    16 N for a uniform model, n <= 2 N for any other) is drawn as integer
    cell labels, passed through an alias table on non-uniform models and
    counted by one bincount; a denser block by rng.multinomial.  The
    unfilled statistic flips one uniform coin per cell against P{level >
    count}.  Thresholds use strict exceedance; x may be any finite real,
    including negative values.
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
