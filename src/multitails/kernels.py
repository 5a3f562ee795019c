"""Statistic families over cell counts and their Poissonized moment summaries.

Each supported statistic is a sum of per-cell kernels applied to the cell
counts: power-divergence statistics (parameter d > -1, with d = 1 the
quadratic cell-balance statistic, d = 0 the log-likelihood statistic and
d = -1/2 the squared-root-difference statistic), exact/at-least count
statistics, the collision total, and the unfilled-cell count for random
per-cell demand levels.

A moment summary collects the quantities that drive the corrected normal
tail approximation: the Poissonized mean, the regression coefficient of
the statistic on the total count, raw and regression-adjusted variances,
and third/fourth moment sums of the adjusted per-cell kernels.

Frames and families that differ by an exact per-cell affine map share one
frame algebra: FrameMap carries a summary, a statistic value and the
order-2 aggregates across such a map, and resolve_frame / frame_map are
the only code that knows which statistic is an image of which.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    EvaluationError,
    DegenerateVarianceError,
    ModelValidationError,
    UnsupportedCombinationError,
)
from .model import MultinomialModel, classify_regime
from .poisson import (
    compensated_row_sums,
    expect_fn,
    poisson_pmf,
    window_bounds,
    window_table,
)

__all__ = [
    "Kernel",
    "LevelDistribution",
    "MomentSummary",
    "FrameMap",
    "FRAMES",
    "frame_map",
    "resolve_frame",
    "statistic_value",
    "moment_summary",
    "g_second_moment_aggregates",
    "level_tau",
    "tau_sparse_approx",
    "unfilled_sparse_expansion",
    "parse_kernel_spec",
]

# Kernel forms of the power-divergence family; they differ by exact affine
# maps (see _affine_edge).
FRAMES = ("canonical", "power", "bare", "divergence")

# Cross-check tolerance used by the auto method when an exact closed form
# exists alongside the series path.
_AUTO_XCHECK_RTOL = 1e-8

# Divergence parameters within this distance of zero collapse to the
# logarithmic limit kernel.
_D_ZERO_SNAP = 1e-8


@dataclass(frozen=True)
class LevelDistribution:
    """Distribution of the per-cell demand level: pairs (level, probability).

    Levels are nonnegative integers; a cell with count below its drawn
    level counts as unfilled.  Some mass must sit on positive levels,
    otherwise no cell could ever be unfilled.
    """

    pmf: tuple[tuple[int, float], ...]

    def __post_init__(self):
        if not self.pmf:
            raise ModelValidationError("level distribution must not be empty")
        levels = [l for l, _ in self.pmf]
        probs = [p for _, p in self.pmf]
        if any(l < 0 or l != int(l) for l in levels):
            raise ModelValidationError("levels must be nonnegative integers")
        if len(set(levels)) != len(levels):
            raise ModelValidationError("levels must be distinct")
        if any(not (p > 0.0) or not math.isfinite(p) for p in probs):
            raise ModelValidationError("level probabilities must be positive and finite")
        total = math.fsum(probs)
        if abs(total - 1.0) > 1e-12:
            raise ModelValidationError(
                f"level probabilities must sum to 1 within 1e-12, got {total!r}"
            )
        pairs = tuple(
            sorted((int(l), float(p) / total) for l, p in zip(levels, probs))
        )
        if pairs[-1][0] == 0:
            raise ModelValidationError(
                "level distribution must put some mass on positive levels"
            )
        object.__setattr__(self, "pmf", pairs)

    @property
    def zero_mass(self) -> float:
        """P{level = 0}: the fraction of cells that can never be unfilled."""
        return self.pmf[0][1] if self.pmf[0][0] == 0 else 0.0

    @property
    def max_level(self) -> int:
        return self.pmf[-1][0]

    @property
    def min_positive_level(self) -> int:
        for l, _ in self.pmf:
            if l > 0:
                return l
        raise AssertionError("validated distribution has positive mass")

    def prob(self, level: int) -> float:
        for l, p in self.pmf:
            if l == level:
                return p
        return 0.0

    def survival(self, x: float) -> float:
        """P{level > x}."""
        return math.fsum(p for l, p in self.pmf if l > x)

    def lead_coefficient(self) -> float:
        """P{level = G} / G! for G the smallest positive level."""
        g = self.min_positive_level
        return self.prob(g) / math.factorial(g)

    @staticmethod
    def constant(level: int) -> "LevelDistribution":
        return LevelDistribution(((int(level), 1.0),))

    @staticmethod
    def from_csv(text: str) -> "LevelDistribution":
        pairs = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ModelValidationError(
                    f"level file lines must be 'level,probability', got {line!r}"
                )
            pairs.append((int(parts[0]), float(parts[1])))
        return LevelDistribution(tuple(pairs))

    def to_csv(self) -> str:
        return "\n".join(f"{l},{p:.17g}" for l, p in self.pmf) + "\n"

    def draw(self, rng: np.random.Generator, size: int | tuple[int, ...]) -> np.ndarray:
        levels = np.array([l for l, _ in self.pmf])
        probs = np.array([p for _, p in self.pmf])
        return rng.choice(levels, size=size, p=probs)


@dataclass(frozen=True)
class Kernel:
    """A statistic family tag plus its parameters."""

    family: str
    d: float | None = None
    r: int | None = None
    levels: LevelDistribution | None = None

    def __post_init__(self):
        if self.family == "pds":
            if self.d is None or not math.isfinite(self.d) or self.d <= -1.0:
                raise ModelValidationError(
                    f"power-divergence parameter must be a finite real > -1, got {self.d}"
                )
            # The d -> 0 limit is a separate code path (logarithmic kernel);
            # anything this close to zero would hit catastrophic cancellation
            # in the generic power form, so snap it to the limit exactly.
            if abs(self.d) < _D_ZERO_SNAP:
                object.__setattr__(self, "d", 0.0)
        elif self.family == "count_exact":
            if self.r is None or self.r < 0:
                raise ModelValidationError("count_exact requires an integer r >= 0")
        elif self.family == "count_at_least":
            if self.r is None or self.r < 1:
                raise ModelValidationError("count_at_least requires an integer r >= 1")
        elif self.family == "collisions":
            pass
        elif self.family == "unfilled":
            if self.levels is None:
                raise ModelValidationError("unfilled requires a level distribution")
        else:
            raise ModelValidationError(f"unknown kernel family {self.family!r}")

    @staticmethod
    def pds(d: float) -> "Kernel":
        """Power-divergence family; d = 1, 0, -1/2 are the classical cases."""
        return Kernel("pds", d=float(d))

    @staticmethod
    def count_exact(r: int) -> "Kernel":
        return Kernel("count_exact", r=int(r))

    @staticmethod
    def count_at_least(r: int) -> "Kernel":
        return Kernel("count_at_least", r=int(r))

    @staticmethod
    def collisions() -> "Kernel":
        return Kernel("collisions")

    @staticmethod
    def unfilled(levels: LevelDistribution) -> "Kernel":
        return Kernel("unfilled", levels=levels)

    @property
    def is_random(self) -> bool:
        """True when the per-cell kernel has its own randomness given the count."""
        return self.family == "unfilled"

    def describe(self) -> str:
        if self.family == "pds":
            if self.d == 1.0:
                return "pds(1) [quadratic cell-balance]"
            if self.d == 0.0:
                return "pds(0) [log-likelihood]"
            if self.d == -0.5:
                return "pds(-1/2) [root-difference]"
            return f"pds({self.d:g})"
        if self.family == "count_exact":
            return f"cells with count exactly {self.r}"
        if self.family == "count_at_least":
            return f"cells with count at least {self.r}"
        if self.family == "collisions":
            return "collision total"
        return "unfilled cells"

    def to_spec(self) -> dict:
        spec: dict = {"family": self.family}
        if self.d is not None:
            spec["d"] = self.d
        if self.r is not None:
            spec["r"] = self.r
        if self.levels is not None:
            spec["levels"] = [[l, p] for l, p in self.levels.pmf]
        return spec


def parse_kernel_spec(text: str, load_levels=None) -> Kernel:
    """Parse a compact kernel spec string.

    Forms: ``pds:<d>``, ``count:<r>``, ``atleast:<r>``, ``collisions``,
    ``unfilled:<levels-file>``.  The caller supplies load_levels to turn
    the file reference into a LevelDistribution.
    """
    if text == "collisions":
        return Kernel.collisions()
    head, sep, arg = text.partition(":")
    if not sep:
        raise ModelValidationError(f"malformed kernel spec {text!r}")
    try:
        if head == "pds":
            return Kernel.pds(float(arg))
        if head == "count":
            return Kernel.count_exact(int(arg))
        if head == "atleast":
            return Kernel.count_at_least(int(arg))
    except ValueError:
        raise ModelValidationError(f"malformed kernel spec {text!r}") from None
    if head == "unfilled":
        if load_levels is None:
            raise ModelValidationError(
                "unfilled kernel spec needs a level-file loader"
            )
        return Kernel.unfilled(load_levels(arg))
    raise ModelValidationError(f"unknown kernel spec {text!r}")


# -- per-cell kernel functions ----------------------------------------------

def _form(kernel: Kernel, frame: str) -> str:
    """Name of the per-cell kernel that a (kernel, frame) pair sums.

    Power-divergence frames resolve to "centered", "power", "bare" or
    "divergence": the canonical frame is the centered quadratic kernel for
    d = 1 and the power sum otherwise, and the divergence form coincides
    with the centered kernel at d = 1 and with the power sum at d = 0.
    Every other family has a single kernel, named after the family.
    """
    if kernel.family != "pds":
        return kernel.family
    d = kernel.d
    if frame == "canonical" or (frame == "divergence" and d in (0.0, 1.0)):
        return "centered" if d == 1.0 else "power"
    return frame


def _kernel_table(kernel: Kernel, frame: str, k: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """The per-cell kernel summed in the frame, at counts k of cells with rates lam.

    For the unfilled family the value is the conditional unfilled
    probability P{level > k}, since the kernel is a coin flip given the
    count.  The divergence form, collisions and occupied cells are summed
    through their affine sources (see resolve_frame), so they need none.
    """
    form = _form(kernel, frame)
    if form in ("centered", "power", "bare"):
        # float_power is the C library's pow; numpy's vectorized power is an
        # ulp off on some counts, which moved variances at rate 1e5 by 1e-12
        return _pds_terms(kernel.d, form, lam, k, np.float_power)
    if form == "unfilled":
        levels = kernel.levels
        top = levels.max_level
        survival = np.array([levels.survival(x) for x in range(top)] + [0.0])
        return survival[np.minimum(k, top).astype(np.intp)]
    if form == "count_exact":
        return (k == kernel.r).astype(float)
    return (k >= kernel.r).astype(float)


def _pds_terms(d: float, form: str, rates, c: np.ndarray, power=np.power) -> np.ndarray:
    """Power-divergence kernel in a centered, power or bare form at counts c."""
    if form == "centered":
        return (c - rates) ** 2 / rates
    if d == 0.0:
        # counts are whole, so max(c, 1) only changes c = 0, where c log(.)
        # is 0 either way: every cell is summed without a log of 0, and a
        # block row adds up as its lone vector does
        ones = np.maximum(c, 1.0)
        return 2.0 * c * np.log(ones if form == "bare" else ones / rates)
    if form == "bare":
        return power(c, 1.0 + d)
    return power(rates, -d) * power(c, 1.0 + d)


# -- frame algebra -----------------------------------------------------------

class FrameMap(NamedTuple):
    """Per-cell affine map h' = a h + alpha x + c_m, the constants c_m summing to beta.

    On counts that sum to n the statistic maps as T' = a T + alpha n + beta.
    The adjusted per-cell kernels map as g' = a g, so the variance picks
    up a^2, the third/fourth moment sums a^3 and a^4, and the order-2
    aggregates a^4 and a^2.
    """

    a: float = 1.0
    alpha: float = 0.0
    beta: float = 0.0

    def value(self, t: float, n: int) -> float:
        return self.a * t + self.alpha * n + self.beta

    def summary(self, s: "MomentSummary", n: int, frame: str) -> "MomentSummary":
        a, alpha = self.a, self.alpha
        return MomentSummary(
            mean=self.value(s.mean, n),
            tau=a * s.tau + alpha,
            raw_var=a * a * s.raw_var + 2.0 * a * alpha * n * s.tau + alpha * alpha * n,
            var=a * a * s.var,
            beta3=a**3 * s.beta3,
            beta4=a**4 * s.beta4,
            frame=frame,
            approximate=s.approximate,
            aggregates=self.aggregates(s.aggregates),
        )

    def aggregates(self, aggregates: tuple[float, float]) -> tuple[float, float]:
        s_sq, s_cross = aggregates
        return self.a**4 * s_sq, self.a**2 * s_cross

    def inverse(self) -> "FrameMap":
        return FrameMap(1.0 / self.a, -self.alpha / self.a, -self.beta / self.a)

    def then(self, other: "FrameMap") -> "FrameMap":
        """This map followed by other."""
        return FrameMap(
            other.a * self.a,
            other.a * self.alpha + other.alpha,
            other.a * self.beta + other.beta,
        )


_IDENTITY = FrameMap()

_EMPTY_CELLS = Kernel.count_exact(0)


def _affine_edge(model: MultinomialModel, kernel: Kernel, form: str):
    """(source kernel, source frame, map) when a form is an affine image.

    The only place that knows which statistic is an exact affine image of
    which, per cell:
    - collisions (x - 1)^+ = 1{x = 0} + x - 1 and occupied cells
      1{x >= 1} = 1 - 1{x = 0} are images of the empty-cell count;
    - for d not in {0, 1} the divergence form is 2/(d(d+1)) times the
      power sum minus n;
    - for d = 1 the power sum x^2/rate = (x - rate)^2/rate + 2x - rate is
      an image of the centered kernel;
    - on uniform models (rate = n/N everywhere) the bare kernel is an
      image of the power sum: x^(1+d) = rate^d (rate^-d x^(1+d)) and
      2x log x = 2x log(x/rate) + 2 log(rate) x.
    """
    n = model.n
    num_cells = float(model.num_cells)
    if form == "collisions":
        return _EMPTY_CELLS, "canonical", FrameMap(1.0, 1.0, -num_cells)
    if form == "count_at_least" and kernel.r == 1:
        return _EMPTY_CELLS, "canonical", FrameMap(-1.0, 0.0, num_cells)
    if form == "divergence":
        a = 2.0 / (kernel.d * (kernel.d + 1.0))
        return kernel, "power", FrameMap(a, 0.0, -a * n)
    if form == "power" and kernel.d == 1.0:
        return kernel, "canonical", FrameMap(1.0, 2.0, float(-n))
    if form == "bare" and model.is_uniform:
        lam = model.fill_ratio
        if kernel.d == 0.0:
            return kernel, "power", FrameMap(1.0, 2.0 * math.log(lam), 0.0)
        return kernel, "power", FrameMap(lam**kernel.d, 0.0, 0.0)
    return None


def resolve_frame(model: MultinomialModel, kernel: Kernel, frame: str = "canonical"):
    """(kernel, frame, map): what a statistic is summed as, and the map from it.

    The divergence form for d not in {0, 1}, the collision total and the
    occupied-cell count are derived from their affine sources.  The
    centered, power and bare kernels are summed as they stand, even where
    they are images too.
    """
    form = _form(kernel, frame)
    if form not in ("centered", "power", "bare"):
        edge = _affine_edge(model, kernel, form)
        if edge is not None:
            return edge
    return kernel, frame, _IDENTITY


def frame_map(
    model: MultinomialModel, kernel: Kernel, src: str, dst: str
) -> FrameMap | None:
    """Exact map from the statistic in frame src to the one in frame dst.

    None when no exact map exists, which happens only for the bare frame
    on a non-uniform model.
    """
    if _form(kernel, src) == _form(kernel, dst):
        return _IDENTITY
    from_src = _from_power(model, kernel, src)
    to_dst = _from_power(model, kernel, dst)
    if from_src is None or to_dst is None:
        return None
    return from_src.inverse().then(to_dst)


def _from_power(model, kernel, frame) -> FrameMap | None:
    form = _form(kernel, frame)
    if form == "power":
        return _IDENTITY
    if form == "centered":
        return _affine_edge(model, kernel, "power")[2].inverse()
    edge = _affine_edge(model, kernel, form)
    return None if edge is None else edge[2]


def _check_frame(frame: str) -> str:
    if frame not in FRAMES:
        raise ModelValidationError(f"unknown frame {frame!r}; expected one of {FRAMES}")
    return frame


# -- statistic evaluation on count vectors ----------------------------------

def statistic_value(
    kernel: Kernel,
    model: MultinomialModel,
    counts: np.ndarray,
    frame: str = "canonical",
    level_draws: np.ndarray | None = None,
) -> float | np.ndarray:
    """Value of the statistic on a vector of cell counts, or on each row of a block.

    The cells run along the last axis: one count vector gives a float, a
    (rows, N) block gives an array of one value per row, and each row's
    value is bitwise the value of that row on its own.  The frame only
    matters for the power-divergence family, where the frames differ by
    exact affine maps on the full-count surface.  The unfilled statistic
    needs the drawn per-cell levels, shaped like counts, since it is not a
    function of counts alone.
    """
    counts = np.asarray(counts)
    family = kernel.family
    if family == "count_exact":
        cells = counts == kernel.r
    elif family == "count_at_least":
        cells = counts >= kernel.r
    elif family == "collisions":
        return _per_row(np.maximum(counts - 1, 0).sum(axis=-1))
    elif family == "unfilled":
        if level_draws is None:
            raise EvaluationError(
                "unfilled statistic needs drawn per-cell levels; it is not a "
                "function of the counts alone"
            )
        cells = counts < level_draws
    else:
        _, source, fmap = resolve_frame(model, kernel, _check_frame(frame))
        value = _per_row(
            _pds_sum(kernel.d, _form(kernel, source), model.rates, counts.astype(float))
        )
        return value if fmap is _IDENTITY else fmap.value(value, model.n)
    # count_nonzero is the fast count on one vector but takes a slow generic
    # path when given an axis, so blocks sum instead
    if cells.ndim == 1:
        return float(np.count_nonzero(cells))
    return cells.sum(axis=-1).astype(float)


def _per_row(total):
    """A float for one count vector, a float array for a block of them."""
    return float(total) if total.ndim == 0 else total.astype(float)


def _pds_sum(d: float, form: str, rates: np.ndarray, c: np.ndarray):
    """Sum of the per-cell kernel over the last axis of c."""
    return _pds_terms(d, form, rates, c).sum(axis=-1)


# -- moment summaries --------------------------------------------------------

@dataclass(frozen=True)
class MomentSummary:
    """Poissonized moment summary of a statistic.

    mean     - expected statistic under independent Poisson cell counts
    tau      - regression coefficient of the statistic on the total count
    raw_var  - variance before removing the total-count regression,
               var + n * tau^2
    var      - sum over cells of E g^2 for the adjusted kernels
               g = h - E h - tau (x - rate): the variance that
               standardizes tails
    beta3    - sum over cells of E g^3
    beta4    - sum over cells of E g^4
    frame    - which kernel form these numbers describe
    approximate - True for leading-order closed forms (small-rate expansions)
    aggregates - (sum (E g^2)^2, sum E g^2 (x - rate)) over cells, the order-2
               inputs of correction_coeffs; nan on approximate summaries
    """

    mean: float
    tau: float
    raw_var: float
    var: float
    beta3: float
    beta4: float
    frame: str = "canonical"
    approximate: bool = False
    aggregates: tuple[float, float] = (math.nan, math.nan)

    def __post_init__(self):
        if not self.approximate and not (self.var > 0.0):
            raise DegenerateVarianceError(
                f"adjusted variance must be positive, got {self.var!r}"
            )

    @property
    def sigma(self) -> float:
        return math.sqrt(self.var)

    def to_dict(self) -> dict:
        return {
            "mean": self.mean,
            "tau": self.tau,
            "raw_var": self.raw_var,
            "var": self.var,
            "beta3": self.beta3,
            "beta4": self.beta4,
            "frame": self.frame,
            "approximate": self.approximate,
        }


def moment_summary(
    model: MultinomialModel,
    kernel: Kernel,
    method: str = "auto",
    frame: str = "canonical",
) -> MomentSummary:
    """Moment summary for a statistic on a model.

    method: "series" sums every per-cell expectation directly (the
    authoritative path), "closed_form" uses exact or leading-order
    formulas where they exist, "auto" runs the series, cross-checks its
    mean, tau and variances against an exact closed form when one is
    available, and checks the window tables against one scalar expect_fn
    walk at the smallest distinct rate.

    frame (power-divergence only): "canonical" uses the centered
    quadratic kernel for d = 1 and the power sum otherwise; "power" and
    "bare" force the scaled/unscaled power sums; "divergence" the
    normalized divergence form.  Closed forms for the very sparse regime
    are leading-order expansions and come back flagged approximate.
    """
    _check_frame(frame)
    if kernel.family != "pds" and frame != "canonical":
        raise ModelValidationError(
            f"frame {frame!r} only applies to the power-divergence family"
        )
    if method not in ("auto", "series", "closed_form"):
        raise ModelValidationError(f"unknown method {method!r}")
    source, source_frame, fmap = resolve_frame(model, kernel, frame)
    if method == "closed_form":
        base = _closed_summary(model, source, source_frame)
    else:
        base, reference = _series_summary(model, source, source_frame)
        if method == "auto":
            _cross_check(model, base, _closed_moments(model, source, source_frame))
            _reference_walk(*reference)
    return base if fmap is _IDENTITY else fmap.summary(base, model.n, frame)


def _cross_check(model, series: MomentSummary, closed) -> None:
    if closed is None:
        return
    mean, tau, raw_var, _ = closed
    exact = {
        "mean": mean, "tau": tau, "raw_var": raw_var,
        "var": raw_var - model.n * tau * tau,
    }
    for name, b in exact.items():
        a = getattr(series, name)
        if abs(a - b) > _AUTO_XCHECK_RTOL * max(1.0, abs(a), abs(b)):
            raise EvaluationError(
                f"series and closed-form summaries disagree on {name}: "
                f"{a!r} vs {b!r}"
            )


def _reference_walk(lam, lo, row, center, cov) -> None:
    """Check the table sums at one rate against a scalar expect_fn walk of the
    table's own kernel values (row, from count lo): weights, padding,
    chunking and sums, not the kernel formulas."""
    walk = expect_fn(lambda x: (h := row[x - lo], h * (x - lam)), lam)
    for name, a, b in zip(("E h", "E h (x - rate)"), (center, cov), walk):
        if abs(a - b) > _AUTO_XCHECK_RTOL * max(1.0, abs(a), abs(b)):
            raise EvaluationError(
                f"window table and reference walk disagree on {name} at rate {lam}: "
                f"{a!r} vs {b!r}"
            )


# window tables ---------------------------------------------------------------

# Rates are summed in chunks of at most this many padded window points (or
# one window), so memory is flat in the number of rates; in cache, they ran
# a 10^4-rate summary 1.7x faster than 2^16.  Rows are summed on their own
# and zero padding does not change a sum, so no result depends on it.
_CHUNK_POINTS = 1 << 12


def _window_tables(rates, kernel, frame):
    """A function giving (rows, k, weights, h) per chunk of rates, once per pass.

    A chunk is a run of the ascending rates whose padded windows fit in
    _CHUNK_POINTS.  One chunk is kept; several are rebuilt on each pass.
    """
    lo, hi = window_bounds(rates)
    widths = np.maximum.accumulate(hi - lo + 1)
    chunks, start = [], 0
    while start < rates.size:
        fits = np.arange(1, rates.size - start + 1) * widths[start:] <= _CHUNK_POINTS
        stop = start + max(1, int(np.count_nonzero(fits)))
        chunks.append(slice(start, stop))
        start = stop

    def build(rows):
        k, weights = window_table(rates[rows], (lo[rows], hi[rows]))
        return rows, k, weights, _kernel_table(kernel, frame, k, rates[rows, None])

    if len(chunks) == 1:
        kept = [build(chunks[0])]
        return lambda: kept
    return lambda: map(build, chunks)


def _expectations(columns, weights, k, rates) -> np.ndarray:
    """E of each column for each row's rate: one compensated sum per row and column."""
    terms = np.array(columns)
    sums = compensated_row_sums(terms * weights)
    finite = np.isfinite(sums)
    if not finite.all():
        # a row's sum is not finite when a term is not, or nears the float limit
        bad = ~np.isfinite(terms).all(axis=0) | ~finite.all(axis=0)[:, None]
        i, j = np.argwhere(bad)[0]
        raise EvaluationError(
            f"Poisson expectation at rate {rates[i]} is not finite at count {int(k[i, j])}",
            index=int(k[i, j]),
        )
    return sums


# series path ---------------------------------------------------------------

def _series_summary(model, kernel, frame):
    """(summary, arguments of _reference_walk at the smallest distinct rate)."""
    n = model.n
    rates, mults = model.rate_groups()
    tables = _window_tables(rates, kernel, frame)
    centers = np.empty_like(rates)
    cov = np.empty_like(rates)
    widths = np.empty_like(rates)
    for rows, k, weights, h in tables():
        if rows.start == 0:
            row = (int(k[0, 0]), h[0].tolist())
        centers[rows], cov[rows] = _expectations(
            [h, h * (k - rates[rows, None])], weights, k, rates[rows]
        )
        widths[rows] = k[:, -1] - k[:, 0] + 1.0
    tau = float(mults @ cov) / n
    var, beta3, beta4, aggregates = _adjusted_sums(model, kernel, frame, centers, tau, tables)
    # E h over W points is off by up to about W eps |E h| (the weights of a
    # window from 0 sum to 1 only to that), so a variance at or below the
    # sum of (4 W eps E h)^2 is rounding noise of the centring
    floor = float(mults @ (4.0 * widths * np.finfo(float).eps * centers) ** 2)
    if var <= floor:
        raise DegenerateVarianceError(
            f"adjusted variance {var!r} is within the rounding floor {floor!r} of its centring"
        )
    summary = MomentSummary(
        mean=float(mults @ centers), tau=tau, raw_var=var + n * tau**2, var=var,
        beta3=beta3, beta4=beta4, frame=frame, aggregates=aggregates,
    )
    return summary, (float(rates[0]), *row, float(centers[0]), float(cov[0]))


def _adjusted_sums(model, kernel, frame, centers, tau, tables=None):
    """(sum E g^2, sum E g^3, sum E g^4, aggregates) over cells, one table pass.

    g = h - E h - tau (x - rate) is the adjusted per-cell kernel; centers
    holds E h per distinct rate.  The series and closed-form routes share it.
    """
    rates, mults = model.rate_groups()
    if tables is None:
        tables = _window_tables(rates, kernel, frame)
    sums = np.empty((4, rates.size))
    for rows, k, weights, h in tables():
        x = k - rates[rows, None]
        center = centers[rows, None]
        if kernel.is_random:
            # Bernoulli(h) given the count: average the branches of (value - shift)^p
            shift = center + tau * x
            g2, g3, g4 = (h * (1.0 - shift) ** p + (1.0 - h) * (-shift) ** p for p in (2, 3, 4))
        else:
            g = h - center - tau * x
            g2, g3, g4 = g**2, g**3, g**4
        sums[:, rows] = _expectations([g2, g3, g4, g2 * x], weights, k, rates[rows])
    eg2, eg3, eg4, eg2x = sums
    return (
        float(mults @ eg2), float(mults @ eg3), float(mults @ eg4),
        (float(mults @ (eg2 * eg2)), float(mults @ eg2x)),
    )


def g_second_moment_aggregates(
    model: MultinomialModel, kernel: Kernel, summary: MomentSummary
) -> tuple[float, float]:
    """(sum over cells of (E g^2)^2, sum over cells of E g^2 (x - rate)).

    These feed the second correction coefficient.  The summary pass sums
    them and FrameMap.summary maps them, so this reads summary.aggregates.
    """
    return summary.aggregates


# closed forms ---------------------------------------------------------------

def _closed_summary(model, kernel, frame) -> MomentSummary:
    closed = _closed_moments(model, kernel, frame)
    if closed is not None:
        mean, tau, raw_var, centers = closed
        _, beta3, beta4, aggregates = _adjusted_sums(model, kernel, frame, centers, tau)
        return MomentSummary(
            mean=mean, tau=tau, raw_var=raw_var, var=raw_var - model.n * tau * tau,
            beta3=beta3, beta4=beta4, frame=frame, aggregates=aggregates,
        )
    if kernel.family == "pds":
        if classify_regime(model).very_sparse:
            return _very_sparse_closed(model, kernel, frame)
        raise UnsupportedCombinationError(
            f"no closed-form summary for {kernel.describe()} in frame {frame!r} "
            f"outside the very sparse regime"
        )
    raise UnsupportedCombinationError(
        f"no closed-form summary for {kernel.describe()}"
    )


def _closed_moments(model, kernel, frame):
    """Exact (mean, tau, raw_var, E h per distinct rate), or None.

    Closed forms need no series: the centered quadratic kernel, the count
    kernels and the unfilled-cell kernel have them.
    """
    n = model.n
    rates, mults = model.rate_groups()
    form = _form(kernel, frame)
    if form == "centered":
        # Per-cell mean 1, covariance with the count exactly 1, variance
        # 2 + 1/rate.
        num_cells = model.num_cells
        raw_var = 2.0 * num_cells + float(math.fsum((1.0 / model.rates).tolist()))
        return float(num_cells), num_cells / n, raw_var, np.ones_like(rates)
    r = kernel.r
    if form == "count_exact":
        occ = np.array([poisson_pmf(r, lam) for lam in rates])
        cov = (r - rates) * occ
    elif form == "count_at_least":
        occ = np.array(
            [1.0 - math.fsum(poisson_pmf(k, lam) for k in range(r)) for lam in rates]
        )
        # E x 1{x >= r} = lam P{x >= r - 1}, so the covariance is
        # lam * P{x = r - 1}.
        cov = rates * np.array([poisson_pmf(r - 1, lam) for lam in rates])
    elif form == "unfilled":
        pairs = [level_tau(kernel.levels, lam) for lam in rates]
        occ = np.array([t for t, _ in pairs])
        cov = rates * np.array([t_prime for _, t_prime in pairs])
    else:
        return None
    return float(mults @ occ), float(mults @ cov) / n, float(mults @ (occ * (1.0 - occ))), occ


def _power_weight_sum(probs: np.ndarray, exponent: float) -> float:
    return float(math.fsum((probs**exponent).tolist()))


def _very_sparse_closed(model, kernel, frame) -> MomentSummary:
    """Leading-order summaries when every rate is small.

    For d != 0 these live in the power frame; for d = 0 the uniform
    closed form is stated for the bare log kernel and the non-uniform
    one for the scaled log kernel.  Requesting an incompatible frame is
    an error rather than a silent conversion.
    """
    n = model.n
    p = model.probs
    d = kernel.d
    if d == 0.0:
        if model.is_uniform:
            if frame not in ("canonical", "bare"):
                raise UnsupportedCombinationError(
                    "very sparse closed form for d = 0 on a uniform model is "
                    "stated for the bare log kernel; request frame 'bare'"
                )
            lam = model.fill_ratio
            ln2 = math.log(2.0)
            mean = 2.0 * ln2 * n * lam
            var = 8.0 * ln2 * ln2 * n * lam
            return MomentSummary(
                mean=mean, tau=0.0, raw_var=var, var=var,
                beta3=math.nan, beta4=math.nan, frame="bare", approximate=True,
            )
        if frame not in ("canonical", "power", "divergence"):
            raise UnsupportedCombinationError(
                "very sparse closed form for d = 0 on a non-uniform model is "
                "stated for the scaled log kernel"
            )
        # Log-rate moments under cell-probability weighting.
        z = -np.log(model.rates)
        ez = float(math.fsum((p * z).tolist()))
        ez2 = float(math.fsum((p * z * z).tolist()))
        return MomentSummary(
            mean=2.0 * n * ez, tau=2.0 * ez, raw_var=4.0 * n * ez2,
            var=4.0 * n * (ez2 - ez * ez),
            beta3=math.nan, beta4=math.nan, frame="power", approximate=True,
        )
    fmap = frame_map(model, kernel, "power", frame)
    if fmap is None:
        raise UnsupportedCombinationError(
            "bare-frame very sparse closed form is only stated for uniform models"
        )
    p1d = _power_weight_sum(p, 1.0 - d)
    p12d = _power_weight_sum(p, 1.0 - 2.0 * d)
    p22d = _power_weight_sum(p, 2.0 - 2.0 * d)
    p2d = _power_weight_sum(p, 2.0 - d)
    two_d = 2.0**d
    mean = n ** (1.0 - d) * p1d
    tau = n**-d * (p1d + 2.0 * (two_d - 1.0) * n * p2d)
    raw_var = n ** (1.0 - 2.0 * d) * p12d + 2.0 * (two_d**2 - 1.0) * n ** (2.0 - 2.0 * d) * p22d
    var = (
        n ** (1.0 - 2.0 * d) * (p12d - p1d * p1d)
        + 2.0 * n ** (2.0 - 2.0 * d)
        * ((two_d**2 - 1.0) * p22d - 2.0 * (two_d - 1.0) * p1d * p2d)
    )
    summary = MomentSummary(
        mean=mean, tau=tau, raw_var=raw_var, var=var,
        beta3=math.nan, beta4=math.nan, frame="power", approximate=True,
    )
    return summary if fmap is _IDENTITY else fmap.summary(summary, n, frame)


# -- unfilled-cell helpers ---------------------------------------------------

def level_tau(levels: LevelDistribution, lam: float) -> tuple[float, float]:
    """Unfilled probability of one cell and its rate derivative.

    tau(lam) = sum_l P{count = l} P{level > l} and
    tau'(lam) = -sum_l P{count = l} P{level = l + 1}; both are finite
    sums because the level distribution has bounded support.
    """
    if not (lam > 0.0) or not math.isfinite(lam):
        raise ModelValidationError(f"rate must be a positive finite real, got {lam}")
    top = levels.max_level
    tau = math.fsum(
        poisson_pmf(l, lam) * levels.survival(l) for l in range(top)
    )
    tau_prime = -math.fsum(
        poisson_pmf(l, lam) * levels.prob(l + 1) for l in range(top)
    )
    return tau, tau_prime


def tau_sparse_approx(levels: LevelDistribution, lam: float) -> float:
    """Small-rate expansion of the per-cell unfilled probability.

    tau(lam) = 1 - P{level = 0} - (P{level = G}/G!) lam^G + O(lam^{G+1})
    with G the smallest positive level.
    """
    g = levels.min_positive_level
    return 1.0 - levels.zero_mass - levels.lead_coefficient() * lam**g


def unfilled_sparse_expansion(
    levels: LevelDistribution, lam: float, num_cells: int
) -> tuple[float, float]:
    """Leading-order (mean, variance) of the unfilled count at small rates.

    Used only as a cross-check: mean ~ N * tau_approx and
    variance ~ N * beta0 (1 - beta0) with beta0 the zero-level mass.
    """
    beta0 = levels.zero_mass
    return (
        num_cells * tau_sparse_approx(levels, lam),
        num_cells * beta0 * (1.0 - beta0),
    )
