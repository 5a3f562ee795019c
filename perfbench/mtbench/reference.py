"""Independent references for every op the benchmark runs.

Nothing here imports the program.  Summaries are computed two ways: a
vectorized float64 grid over the Poisson window lam +- 40 sqrt(lam)
(``grid_summary``), and an mpmath series over the same window
(``mp_summary``), which certifies the grid on a seeded subsample of rates
or replaces it outright.  Both form the regression-adjusted kernel
g = h - E h - tau (x - lam) pointwise, so the adjusted variance is a sum
of nonnegative terms and never a cancelling difference.  Exact finite
laws come from a dynamic programme over cells (enumeration and rngtest)
and from inclusion-exclusion with integer arithmetic (empty cells); the
other Monte Carlo ops are compared with a separate batched sampler.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction

import mpmath
import numpy as np
from scipy.special import gammaln

WINDOW_SIGMAS = 40.0
_GRID_CELLS = 200_000  # rates x grid points per vectorized chunk
_MP_DPS = 30
_MP_NEGLIGIBLE = mpmath.mpf("1e-50")  # pmf ratio to the mode below which terms are dropped

SUMMARY_KEYS = ("mean", "tau", "raw_var", "var", "beta3", "beta4", "s_sq", "s_cross")


# -- kernels ------------------------------------------------------------------

class CellKernel:
    """Per-cell kernel of one statistic in one frame, as the CLI defines it.

    ``base`` is one of power, centered, count, atleast, collisions,
    unfilled; ``affine`` is the divergence-frame scale a (the per-cell
    shift is -a * lam) or None.
    """

    def __init__(self, spec: str, frame: str = "canonical", levels=None):
        self.spec = spec
        self.frame = frame
        self.affine = None
        self.param = None
        self.levels = levels
        if spec.startswith("pds:"):
            d = float(spec[4:])
            self.param = d
            if d == 1.0 and frame in ("canonical", "divergence"):
                self.base = "centered"
            else:
                self.base = "power"
                if frame == "divergence" and d != 0.0:
                    self.affine = 2.0 / (d * (d + 1.0))
        elif spec.startswith("count:"):
            self.base, self.param = "count", int(spec[6:])
        elif spec.startswith("atleast:"):
            self.base, self.param = "atleast", int(spec[8:])
        elif spec == "collisions":
            self.base = "collisions"
        elif spec == "unfilled":
            if levels is None:
                raise ValueError("unfilled kernel needs its level distribution")
            self.base = "unfilled"
        else:
            raise ValueError(f"unknown kernel spec {spec!r}")

    @property
    def random(self) -> bool:
        return self.base == "unfilled"

    def survival(self, k):
        """P{level > k} for the unfilled kernel (numpy or int argument)."""
        return sum(p * (np.asarray(k) < l) for l, p in self.levels)

    def values(self, k: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """Kernel values on a float grid; for unfilled, the fill probability."""
        if self.base == "power":
            d = self.param
            if d == 0.0:
                with np.errstate(divide="ignore", invalid="ignore"):
                    return np.where(k > 0, 2.0 * k * np.log(k / lam), 0.0)
            return lam**-d * k ** (1.0 + d)
        if self.base == "centered":
            return (k - lam) ** 2 / lam
        if self.base == "count":
            return (k == self.param).astype(float)
        if self.base == "atleast":
            return (k >= self.param).astype(float)
        if self.base == "collisions":
            return np.maximum(k - 1.0, 0.0)
        return self.survival(k)

    def value_mp(self, k: int, lam):
        if self.base == "power":
            d = self.param
            if d == 0.0:
                return 2 * k * mpmath.log(k / lam) if k > 0 else mpmath.mpf(0)
            return lam ** mpmath.mpf(-d) * mpmath.mpf(k) ** mpmath.mpf(1.0 + d)
        if self.base == "centered":
            return (k - lam) ** 2 / lam
        if self.base == "count":
            return mpmath.mpf(1 if k == self.param else 0)
        if self.base == "atleast":
            return mpmath.mpf(1 if k >= self.param else 0)
        if self.base == "collisions":
            return mpmath.mpf(max(k - 1, 0))
        return mpmath.mpf(self.survival(k))

    def cell_value(self, c: int, lam: float) -> float:
        """Value of one cell with count c, in the frame (affine included)."""
        v = float(self.values(np.array([float(c)]), np.array([lam]))[0])
        if self.affine is not None:
            v = self.affine * v - self.affine * lam
        return v


def _apply_affine(s: dict, a: float, n: int) -> dict:
    return {
        "mean": a * s["mean"] - a * n,
        "tau": a * s["tau"],
        "raw_var": a * a * s["raw_var"],
        "var": a * a * s["var"],
        "beta3": a**3 * s["beta3"],
        "beta4": a**4 * s["beta4"],
        "s_sq": a**4 * s["s_sq"],
        "s_cross": a**2 * s["s_cross"],
    }


def _window(lam: float) -> tuple[int, int]:
    half = WINDOW_SIGMAS * math.sqrt(lam)
    return max(0, int(math.floor(lam - half))), int(math.ceil(lam + half)) + 1


# -- float64 grid route -----------------------------------------------------

def _chunks(rates: np.ndarray):
    """Index ranges of sorted rates whose shared grid stays small."""
    start = 0
    while start < rates.size:
        lo, hi = _window(rates[start])
        stop = start + 1
        while stop < rates.size:
            lo2, hi2 = _window(rates[stop])
            if (stop + 1 - start) * (max(hi, hi2) - lo) > _GRID_CELLS:
                break
            hi = max(hi, hi2)
            stop += 1
        yield start, stop, lo, hi
        start = stop


def _grid(lam: np.ndarray, lo: int, hi: int):
    k = np.arange(lo, hi, dtype=float)[None, :]
    lam = lam[:, None]
    pmf = np.exp(k * np.log(lam) - lam - gammaln(k + 1.0))
    return k, lam, pmf


def grid_tables(rates, mults, n, kern: CellKernel) -> dict:
    """Per-rate moment tables on the float64 grid; see ``_combine``."""
    eh = np.empty_like(rates)
    cov = np.empty_like(rates)
    varh = np.empty_like(rates)
    for a, b, lo, hi in _chunks(rates):
        k, lam, pmf = _grid(rates[a:b], lo, hi)
        h = kern.values(k, lam)
        eh[a:b] = (pmf * h).sum(1)
        cov[a:b] = (pmf * h * (k - lam)).sum(1)
        if kern.random:
            varh[a:b] = eh[a:b] * (1.0 - eh[a:b])
        else:
            varh[a:b] = (pmf * (h - eh[a:b, None]) ** 2).sum(1)
    tau = float(mults @ cov) / n
    eg = {j: np.empty_like(rates) for j in (2, 3, 4)}
    eg2v = np.empty_like(rates)
    for a, b, lo, hi in _chunks(rates):
        k, lam, pmf = _grid(rates[a:b], lo, hi)
        h = kern.values(k, lam)
        v = k - lam
        shift = eh[a:b, None] + tau * v
        for j in (2, 3, 4):
            if kern.random:
                gj = h * (1.0 - shift) ** j + (1.0 - h) * (-shift) ** j
            else:
                gj = (h - shift) ** j
            eg[j][a:b] = (pmf * gj).sum(1)
            if j == 2:
                eg2v[a:b] = (pmf * gj * v).sum(1)
    return {"eh": eh, "cov": cov, "varh": varh, "tau": tau,
            "eg2": eg[2], "eg3": eg[3], "eg4": eg[4], "eg2v": eg2v}


def _combine(t: dict, mults) -> dict:
    return {
        "mean": float(mults @ t["eh"]),
        "tau": float(t["tau"]),
        "raw_var": float(mults @ t["varh"]),
        "var": float(mults @ t["eg2"]),
        "beta3": float(mults @ t["eg3"]),
        "beta4": float(mults @ t["eg4"]),
        "s_sq": float(mults @ (t["eg2"] ** 2)),
        "s_cross": float(mults @ t["eg2v"]),
    }


def rate_groups(probs: np.ndarray, n: int):
    rates, mults = np.unique(n * probs, return_counts=True)
    return rates, mults.astype(float)


def grid_summary(probs, n, kern: CellKernel) -> tuple[dict, dict]:
    """(summary in the kernel's frame, per-rate tables of the base kernel)."""
    rates, mults = rate_groups(probs, n)
    tables = grid_tables(rates, mults, n, kern)
    s = _combine(tables, mults)
    if kern.affine is not None:
        s = _apply_affine(s, kern.affine, n)
    return s, tables


# -- mpmath route -----------------------------------------------------------

def _mp_terms(lam: float):
    """(k, pmf) pairs over the window, dropping terms negligible at working precision."""
    lo, hi = _window(lam)
    L = mpmath.mpf(lam)
    mode = min(max(int(math.floor(lam)), lo), hi - 1)
    p_mode = mpmath.exp(mode * mpmath.log(L) - L - mpmath.loggamma(mode + 1))
    floor = p_mode * _MP_NEGLIGIBLE
    terms = [(mode, p_mode)]
    p = p_mode
    for k in range(mode + 1, hi):
        p = p * L / k
        if p < floor:
            break
        terms.append((k, p))
    p = p_mode
    for k in range(mode, lo, -1):
        p = p * k / L
        if p < floor:
            break
        terms.append((k - 1, p))
    return L, terms


def mp_rate_first(lam: float, kern: CellKernel) -> dict:
    """E h, Cov(h, x) and Var h at one rate in mpmath."""
    with mpmath.workdps(_MP_DPS):
        L, terms = _mp_terms(lam)
        hs = [kern.value_mp(k, L) for k, _ in terms]
        eh = mpmath.fsum(p * h for (_, p), h in zip(terms, hs))
        cov = mpmath.fsum(p * h * (k - L) for (k, p), h in zip(terms, hs))
        if kern.random:
            varh = eh * (1 - eh)
        else:
            varh = mpmath.fsum(p * (h - eh) ** 2 for (_, p), h in zip(terms, hs))
        return {"eh": eh, "cov": cov, "varh": varh, "_terms": (L, terms, hs)}


def mp_rate_second(first: dict, tau, kern: CellKernel) -> dict:
    """E g^2, E g^3, E g^4 and E g^2 (x - lam) at one rate for a given tau."""
    with mpmath.workdps(_MP_DPS):
        L, terms, hs = first["_terms"]
        tau = mpmath.mpf(tau)
        sums = {"eg2": [], "eg3": [], "eg4": [], "eg2v": []}
        for (k, p), h in zip(terms, hs):
            v = k - L
            shift = first["eh"] + tau * v
            if kern.random:
                g = [h * (1 - shift) ** j + (1 - h) * (-shift) ** j for j in (2, 3, 4)]
            else:
                r = h - shift
                g = [r**2, r**3, r**4]
            sums["eg2"].append(p * g[0])
            sums["eg3"].append(p * g[1])
            sums["eg4"].append(p * g[2])
            sums["eg2v"].append(p * g[0] * v)
        return {name: mpmath.fsum(vals) for name, vals in sums.items()}


def mp_summary(probs, n, kern: CellKernel) -> dict:
    """Summary with every distinct rate summed in mpmath."""
    rates, mults = rate_groups(probs, n)
    with mpmath.workdps(_MP_DPS):
        firsts = [mp_rate_first(float(lam), kern) for lam in rates]
        tau = mpmath.fsum(int(m) * f["cov"] for m, f in zip(mults, firsts)) / n
        seconds = [mp_rate_second(f, tau, kern) for f in firsts]

        def total(fn):
            return float(mpmath.fsum(int(m) * fn(f, s) for m, f, s in zip(mults, firsts, seconds)))

        s = {
            "mean": total(lambda f, s: f["eh"]),
            "tau": float(tau),
            "raw_var": total(lambda f, s: f["varh"]),
            "var": total(lambda f, s: s["eg2"]),
            "beta3": total(lambda f, s: s["eg3"]),
            "beta4": total(lambda f, s: s["eg4"]),
            "s_sq": total(lambda f, s: s["eg2"] ** 2),
            "s_cross": total(lambda f, s: s["eg2v"]),
        }
    if kern.affine is not None:
        s = _apply_affine(s, kern.affine, n)
    return s


CERT_RTOL = 1e-9
# mpmath drops terms below 1e-50 of the modal pmf, so entries this small
# (an indicator far out in a rate's tail) read as exactly zero there.
CERT_ATOL = 1e-30


def certify_grid(probs, n, kern: CellKernel, tables: dict, rng, count: int = 4) -> int:
    """Check the grid tables against mpmath on a seeded subsample of rates.

    Raises AssertionError naming the first disagreeing entry; returns the
    number of rates checked.
    """
    rates, _ = rate_groups(probs, n)
    picks = sorted(set(rng.choice(rates.size, size=min(count, rates.size), replace=False)))
    for i in picks:
        first = mp_rate_first(float(rates[i]), kern)
        second = mp_rate_second(first, tables["tau"], kern)
        sd = math.sqrt(float(first["varh"])) + 1e-300
        eg2 = float(second["eg2"])
        scales = {
            "eh": sd, "cov": sd * math.sqrt(rates[i]), "varh": 0.0,
            "eg2": 0.0, "eg3": eg2**1.5, "eg4": 0.0, "eg2v": eg2 * math.sqrt(rates[i]),
        }
        for name, scale in scales.items():
            ref = float(first[name] if name in first else second[name])
            got = float(tables[name][i])
            if abs(got - ref) > CERT_RTOL * (abs(ref) + scale) + CERT_ATOL:
                raise AssertionError(
                    f"grid reference disagrees with mpmath for {kern.spec} at rate "
                    f"{rates[i]!r}: {name} {got!r} vs {ref!r}"
                )
    return len(picks)


# -- closed forms -------------------------------------------------------------

def closed_summary(probs, n, kern: CellKernel) -> dict | None:
    """Exact mean, tau and raw variance where a closed form is stated."""
    rates = n * probs
    if kern.base == "centered":
        cells = rates.size
        return {"mean": float(cells), "tau": cells / n,
                "raw_var": 2.0 * cells + math.fsum((1.0 / rates).tolist())}
    if kern.base == "count":
        r = kern.param
        occ = np.exp(r * np.log(rates) - rates - gammaln(r + 1.0))
        return {"mean": math.fsum(occ.tolist()),
                "tau": math.fsum(((r - rates) * occ).tolist()) / n,
                "raw_var": math.fsum((occ * (1.0 - occ)).tolist())}
    return None


def exact_count_moments(probs, n, r) -> tuple[float, float]:
    """Exact multinomial mean and variance of the number of cells holding r items."""
    p = np.asarray(probs, dtype=float)
    lg = math.lgamma
    marg = np.exp(lg(n + 1) - lg(r + 1) - lg(n - r + 1) + r * np.log(p) + (n - r) * np.log1p(-p))
    mean = math.fsum(marg.tolist())
    cross = 0.0
    if 2 * r <= n:
        for a in range(p.size):
            for b in range(p.size):
                if a == b:
                    continue
                rest = 1.0 - p[a] - p[b]
                if n - 2 * r > 0 and rest <= 0.0:
                    continue
                cross += math.exp(
                    lg(n + 1) - 2 * lg(r + 1) - lg(n - 2 * r + 1)
                    + r * (math.log(p[a]) + math.log(p[b]))
                    + ((n - 2 * r) * math.log(rest) if n > 2 * r else 0.0)
                )
    return mean, mean + cross - mean * mean


# -- exact finite laws --------------------------------------------------------

class FiniteLaw:
    """Sorted atoms with probabilities, compared with a tolerance at atoms."""

    def __init__(self, atoms: dict):
        items = sorted(atoms.values())
        self.values = np.array([v for v, _ in items])
        self.probs = np.array([p for _, p in items])

    def mean(self) -> float:
        return math.fsum((self.values * self.probs).tolist())

    def var(self) -> float:
        m = self.mean()
        return math.fsum(((self.values - m) ** 2 * self.probs).tolist())

    def tail(self, t: float, side: str, atol: float = 1e-7) -> tuple[float, float]:
        """(P{T beyond t strictly}, mass of atoms within atol of t)."""
        near = np.abs(self.values - t) <= atol * max(1.0, abs(t))
        beyond = (self.values > t) if side == "upper" else (self.values < t)
        return (math.fsum(self.probs[beyond & ~near].tolist()),
                math.fsum(self.probs[near].tolist()))

    def cdf(self, t: float) -> float:
        return math.fsum(self.probs[self.values <= t].tolist())


def exact_law(probs, n: int, kern: CellKernel) -> FiniteLaw:
    """Exact law of the statistic by a dynamic programme over cells."""
    probs = [float(p) for p in probs]
    rates = [n * p for p in probs]
    states = {(0, 0): (0.0, 1.0)}
    last = len(probs) - 1
    for m, p in enumerate(probs):
        cell = [(c, kern.cell_value(c, rates[m]), p**c / math.factorial(c))
                for c in range(n + 1)]
        nxt: dict = defaultdict(lambda: [0.0, 0.0])
        for (used, _), (val, w) in states.items():
            choices = cell[n - used:n - used + 1] if m == last else cell[: n - used + 1]
            for c, hv, cw in choices:
                total = val + hv
                slot = nxt[(used + c, round(total * 1e8))]
                slot[0] = total
                slot[1] += w * cw
        states = {k: tuple(v) for k, v in nxt.items()}
    scale = math.factorial(n)
    return FiniteLaw({key: (v, w * scale) for key, (v, w) in states.items()})


def empty_cells_law(n: int, cells: int) -> dict:
    """Exact P{j empty cells} for uniform allocation, by inclusion-exclusion.

    P{exactly j empty} = C(N, j) S(n, N - j) / N^n with the surjection
    count S(n, m) = sum_i (-1)^i C(m, i) (m - i)^n in exact integers.
    """
    powers = [k**n for k in range(cells + 1)]
    denom = cells**n
    mean = cells * (1.0 - 1.0 / cells) ** n
    law = {}
    for j in range(cells):
        m = cells - j
        surj = 0
        binom = 1
        for i in range(m + 1):
            term = binom * powers[m - i]
            surj += -term if i % 2 else term
            binom = binom * (m - i) // (i + 1)
        prob = float(Fraction(math.comb(cells, j) * surj, denom))
        law[j] = prob
        if j > mean and prob < 1e-40:
            break
    return law


# -- Monte Carlo reference sampler ---------------------------------------------

def sampled_statistic(probs, n, kern: CellKernel, trials: int, seed, batch: int = 1000):
    """Sorted statistic values from an independent batched sampler."""
    rng = np.random.default_rng(seed)
    rates = n * np.asarray(probs)
    out = []
    done = 0
    while done < trials:
        size = min(batch, trials - done)
        counts = rng.multinomial(n, probs, size=size)
        if kern.base == "centered":
            vals = ((counts - rates) ** 2 / rates).sum(1)
        elif kern.base == "count":
            vals = (counts == kern.param).sum(1).astype(float)
        elif kern.base == "unfilled":
            levels = np.array([l for l, _ in kern.levels])
            lp = np.array([p for _, p in kern.levels])
            drawn = rng.choice(levels, size=counts.shape, p=lp / lp.sum())
            vals = (counts < drawn).sum(1).astype(float)
        else:
            raise ValueError(f"no reference sampler for {kern.spec}")
        out.append(vals)
        done += size
    return np.sort(np.concatenate(out))


# -- rngtest binning --------------------------------------------------------

def bin_words(data: bytes, word_bits: int, cells: int, draws: int):
    """(counts, words consumed, accepted) with unbiased rejection binning."""
    width = word_bits // 8
    words = np.frombuffer(data[: len(data) // width * width], dtype=f">u{width}")
    words = words.astype(object) if word_bits == 64 else words.astype(np.int64)
    limit = ((1 << word_bits) // cells) * cells
    accepted = np.flatnonzero(words < limit)
    if accepted.size < draws:
        raise ValueError("reference word stream too short")
    consumed = int(accepted[draws - 1]) + 1
    counts = np.bincount((words[accepted[:draws]] % cells).astype(np.int64), minlength=cells)
    return counts, consumed, draws
