"""Corrected normal tail approximations with their validity zones.

The standardized upper tail of a statistic is approximated by
(1 - Phi(x)) exp{M(x)} where M collects the leading cumulant
corrections: M(x) = mu0 x^3 + mu1 x^4 on the upper side and
M(x) = -mu0 x^3 + mu1 x^4 on the lower side.  The approximation is
quantitative only while x stays inside a model/kernel dependent zone;
outside it only the rough exponential order -x^2/2 survives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    DegenerateVarianceError,
    EvaluationError,
    ModelValidationError,
    UnsupportedCombinationError,
)
from .kernels import Kernel, LevelDistribution, MomentSummary, frame_map, level_tau
from .model import MultinomialModel, RegimeTag, classify_regime

__all__ = [
    "CorrectionCoeffs",
    "TailResult",
    "ZoneInfo",
    "check_zone_fraction",
    "correction_coeffs",
    "tail_probability",
    "zone_bound",
]

# Above this the first-order factor underflows gradually; work in logs.
_LOG_SWITCH = 8.0


@dataclass(frozen=True)
class CorrectionCoeffs:
    """Coefficients of the correction exponent and the truncation order.

    order 0 drops the correction entirely, order 1 keeps the cubic term,
    order 2 adds the quartic term.
    """

    mu0: float
    mu1: float
    order: int

    def exponent(self, x: float, side: str) -> float:
        if self.order == 0:
            return 0.0
        sign = 1.0 if side == "upper" else -1.0
        try:
            m = sign * self.mu0 * x**3
            if self.order >= 2:
                m += self.mu1 * x**4
        except OverflowError:
            m = math.inf
        if math.isinf(m):
            raise EvaluationError(f"the correction exponent overflows at x = {x!r}")
        return m


@dataclass(frozen=True)
class TailResult:
    x: float
    side: str
    p_first_order: float
    correction_exponent: float
    p_corrected: float
    log_p_first_order: float
    log_p_corrected: float
    zone: float
    in_zone: bool
    rule: str
    clamped: bool

    def to_dict(self) -> dict:
        return {
            "x": self.x,
            "side": self.side,
            "p_first_order": self.p_first_order,
            "correction_exponent": self.correction_exponent,
            "p_corrected": self.p_corrected,
            "log_p_first_order": self.log_p_first_order,
            "log_p_corrected": self.log_p_corrected,
            "zone": self.zone,
            "in_zone": self.in_zone,
            "rule": self.rule,
            "clamped": self.clamped,
        }


@dataclass(frozen=True)
class ZoneInfo:
    """Validity zone with the scale that caps the correction inside it."""

    zone: float
    rule: str
    nu: float
    scale: float

    def __post_init__(self):
        # zone rules mix numpy and builtin arithmetic; keep the fields
        # builtin so results serialize as plain JSON numbers
        for name in ("zone", "nu", "scale"):
            object.__setattr__(self, name, float(getattr(self, name)))

    def correction_cap(self, x: float) -> float:
        """In-zone ceiling 5/4 |x|^3 / scale^(1/(1+2 nu)) on |M(x)|."""
        return 1.25 * abs(x) ** 3 / self.scale ** (1.0 / (1.0 + 2.0 * self.nu))


def correction_coeffs(
    summary: MomentSummary,
    n: int,
    order: int = 1,
    aggregates: tuple[float, float] | None = None,
) -> CorrectionCoeffs:
    """Correction coefficients from a moment summary.

    order 2 additionally needs the per-cell second-moment aggregates
    (sum of (E g^2)^2, sum of E g^2 (x - rate)); the quartic coefficient
    is more fragile than the cubic one and is opt-in everywhere.
    """
    if order not in (0, 1, 2):
        raise ModelValidationError(f"order must be 0, 1 or 2, got {order!r}")
    if not (summary.var > 0.0):
        raise DegenerateVarianceError(
            f"cannot standardize with adjusted variance {summary.var!r}"
        )
    if order == 0:
        return CorrectionCoeffs(0.0, 0.0, 0)
    if not math.isfinite(summary.beta3):
        raise EvaluationError(
            "correction coefficients need third/fourth moment sums; "
            "approximate closed-form summaries do not carry them"
        )
    sigma = summary.sigma
    mu0 = summary.beta3 / (6.0 * sigma**3)
    if order == 1:
        return CorrectionCoeffs(mu0, 0.0, 1)
    if aggregates is None:
        raise EvaluationError(
            "order-2 coefficients need the per-cell second-moment aggregates"
        )
    s_sq, s_cross = aggregates
    mu1 = (
        summary.beta4 / (24.0 * sigma**4)
        - summary.beta3**2 / (8.0 * sigma**6)
        + s_cross**2 / (n * sigma**4)
        - s_sq / (8.0 * sigma**4)
    )
    return CorrectionCoeffs(mu0, mu1, 2)


def check_zone_fraction(zone_fraction: float) -> None:
    """Raise ModelValidationError unless the zone fraction is positive and finite."""
    if not (zone_fraction > 0.0) or not math.isfinite(zone_fraction):
        raise ModelValidationError(
            f"zone fraction must be positive and finite, got {zone_fraction!r}"
        )


def tail_probability(
    x: float,
    side: str,
    summary: MomentSummary,
    coeffs: CorrectionCoeffs,
    zone: ZoneInfo | float,
    zone_fraction: float = 0.5,
) -> TailResult:
    """Corrected tail approximation at standardized deviation x >= 0.

    The upper side approximates P{T >= mean + x sigma}, the lower side
    P{T <= mean - x sigma}.  in_zone reports whether x is within
    zone_fraction of the zone boundary; outside it the numbers are
    extrapolation, reported but not certified.  A corrected p above 1,
    including one whose exponential overflows, is clamped to 1; a
    correction exponent that overflows a float is an EvaluationError.
    """
    if not (x >= 0.0) or not math.isfinite(x):
        raise ModelValidationError(f"standardized deviation must be >= 0, got {x!r}")
    check_zone_fraction(zone_fraction)
    if side not in ("upper", "lower"):
        raise ModelValidationError(f"side must be 'upper' or 'lower', got {side!r}")
    if isinstance(zone, ZoneInfo):
        zone_value, rule = zone.zone, zone.rule
    else:
        zone_value, rule = float(zone), ""

    m = coeffs.exponent(x, side)
    log_p1 = _log_normal_tail(x)
    log_p = log_p1 + m
    clamped = False
    if x > _LOG_SWITCH:
        p1 = math.exp(log_p1)
        if log_p > 0.0:
            p = 1.0
            clamped = True
        else:
            p = math.exp(log_p)
    else:
        p1 = _normal_tail(x)
        try:
            p = p1 * math.exp(m)
        except OverflowError:
            # p1 >= 1 - Phi(8) > 6e-16, so p is far above 1
            p = math.inf
        if p > 1.0:
            p = 1.0
            clamped = True
    return TailResult(
        x=x,
        side=side,
        p_first_order=p1,
        correction_exponent=m,
        p_corrected=p,
        log_p_first_order=log_p1,
        log_p_corrected=log_p,
        zone=zone_value,
        in_zone=bool(x <= zone_fraction * zone_value),
        rule=rule,
        clamped=clamped,
    )


def _normal_tail(x: float) -> float:
    """1 - Phi(x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def _log_normal_tail(x: float) -> float:
    """log(1 - Phi(x)), x >= 0; past 37, where erfc nears the smallest
    normal float, the Mills ratio series (next term 945 / x^10 < 3e-13)."""
    if x <= 37.0:
        return math.log(_normal_tail(x))
    z = 1.0 / (x * x)
    series = z * (-1.0 + z * (3.0 + z * (-15.0 + 105.0 * z)))
    return -0.5 * x * x - math.log(x * math.sqrt(2.0 * math.pi)) + math.log1p(series)


# -- validity zones ----------------------------------------------------------

def zone_bound(
    model: MultinomialModel,
    kernel: Kernel,
    summary: MomentSummary,
) -> ZoneInfo:
    """Validity zone for a model/kernel pair.

    The summary must describe the canonical frame for count and unfilled
    kernels; power-divergence summaries in other frames are mapped back
    to the power frame where a rule needs variance ratios.
    """
    regime = classify_regime(model)
    if kernel.family == "pds":
        return _pds_zone(model, kernel, summary, regime)
    if kernel.family == "unfilled":
        return _unfilled_zone(model, kernel.levels, summary, regime)
    return _count_zone(model, kernel, summary, regime)


def _pds_zone(model, kernel, summary, regime) -> ZoneInfo:
    d = kernel.d
    num_cells = model.num_cells
    n = model.n
    dstar = max(0.0, d)
    if regime.very_sparse and regime.uniform:
        lam = model.fill_ratio
        w = math.sqrt(n * lam**3)
        zone = min(n**0.25, (n * lam**3) ** (1.0 / (2.0 * (1.0 + 2.0 * dstar))))
        return ZoneInfo(zone, "pds-very-sparse-uniform", dstar, w)
    if d == 1.0 and not regime.very_sparse:
        return _chi_square_zone(model)
    # the remaining rules read variance ratios of the power sum
    to_power = frame_map(model, kernel, summary.frame, "power")
    if to_power is None:
        raise UnsupportedCombinationError(
            "bare-frame summaries map to the power frame only for uniform models"
        )
    view = to_power.summary(summary, n, "power")
    if regime.very_sparse:
        np_min = n * model.p_min
        sigma3 = view.var ** 1.5
        if d == 0.0:
            w = sigma3 / (view.raw_var * abs(math.log(np_min)))
        else:
            w = sigma3 * np_min**d / view.raw_var
        zone = min(n**0.25, w ** (1.0 / (1.0 + 2.0 * dstar)))
        return ZoneInfo(zone, "pds-very-sparse", dstar, w)
    ratio = view.var**1.5 / view.raw_var
    if regime.dense:
        zone = min(num_cells ** (1.0 / 6.0), model.p_max**-0.25)
        return ZoneInfo(zone, "pds-dense", 1.0, ratio)
    if d > 0.0:
        zone = min(
            num_cells ** (1.0 / 6.0),
            num_cells ** (1.0 / (2.0 * (1.0 + 2.0 * d))),
        )
        return ZoneInfo(zone, "pds-sparse-positive", d, ratio)
    return ZoneInfo(math.sqrt(num_cells), "pds-sparse-nonpositive", 0.0, ratio)


def _chi_square_zone(model) -> ZoneInfo:
    """Quadratic-divergence zone, valid in the sparse and dense regimes.

    The scale is the variance ratio damped by the reciprocal of the
    smallest rate once cells fall below one expected particle.  With all
    rates at least one the classical square-root-free bound applies.
    """
    n = model.n
    num_cells = model.num_cells
    inv_lam = num_cells / n
    sigma_tilde = 2.0 * num_cells
    sigma_sq = 2.0 * num_cells
    for rate, count in zip(*model.rate_groups()):
        sigma_tilde += count / rate
        sigma_sq += count * (1.0 / rate - inv_lam)
    w = sigma_sq**1.5 / (sigma_tilde * model.inv_min_rate)
    p_quarter = model.p_max**-0.25
    if model.inv_min_rate > 1.0:
        zone = min(w ** (1.0 / 3.0), n ** (1.0 / 6.0), p_quarter)
        return ZoneInfo(zone, "chi-square-low-rate", 1.0, w)
    zone = min(num_cells ** (1.0 / 6.0), p_quarter)
    return ZoneInfo(zone, "chi-square", 1.0, w)


def _count_zone(model, kernel, summary, regime) -> ZoneInfo:
    n = model.n
    num_cells = model.num_cells
    ratio = summary.var**1.5 / summary.raw_var
    general = kernel.family == "count_at_least" and kernel.r >= 2
    if not general:
        if regime.tag is RegimeTag.SPARSE:
            return ZoneInfo(math.sqrt(num_cells), "count-sparse", 0.0, ratio)
        if regime.very_sparse:
            return ZoneInfo(n**0.25, "count-very-sparse", 0.0, ratio)
    zone = min(ratio, n**0.25, (n * model.p_max**2) ** -0.25)
    rule = "count-general" if general else "count-dense"
    return ZoneInfo(zone, rule, 0.0, ratio)


def _unfilled_zone(model, levels: LevelDistribution, summary, regime) -> ZoneInfo:
    n = model.n
    num_cells = model.num_cells
    lam = model.fill_ratio
    # Uniform-style scale at the average rate: the per-cell unfilled
    # probability enters through the summary mean.
    tau_bar = summary.mean / num_cells
    _, tau_prime = level_tau(levels, lam)
    spread = tau_bar * (1.0 - tau_bar) - lam * tau_prime**2
    if not (spread > 0.0) or not (tau_bar > 0.0):
        raise DegenerateVarianceError(
            "unfilled-cell zone needs a nondegenerate per-cell spread"
        )
    w = math.sqrt(num_cells) * spread**1.5 / tau_bar
    if regime.tag is RegimeTag.SPARSE:
        return ZoneInfo(math.sqrt(num_cells), "unfilled-sparse", 0.0, w)
    if regime.very_sparse:
        return ZoneInfo(n**0.25, "unfilled-very-sparse", 0.0, w)
    chi = levels.max_level - 1
    loglog = math.log(math.log(num_cells)) if num_cells > math.e else 0.0
    delta = (lam - chi * max(0.0, loglog)) / math.log(num_cells)
    if not (0.0 < delta < 1.0):
        raise UnsupportedCombinationError(
            f"dense unfilled-cell zone needs the fill ratio inside the "
            f"supported window; got normalized ratio {delta:.4g}"
        )
    zone = min((num_cells / lam) ** 0.25, num_cells ** ((1.0 - delta) / 2.0))
    return ZoneInfo(zone, "unfilled-dense", 0.0, w)
