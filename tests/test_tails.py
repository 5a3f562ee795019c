"""Corrected tail approximations and validity zones."""

import math

import mpmath
import pytest
from scipy.special import ndtr

from multitails.errors import (
    DegenerateVarianceError,
    EvaluationError,
    ModelValidationError,
    UnsupportedCombinationError,
)
from multitails.kernels import (
    Kernel,
    LevelDistribution,
    MomentSummary,
    level_tau,
    moment_summary,
)
from multitails.model import explicit_model, uniform_model
from multitails.tails import (
    _log_normal_tail,
    _normal_tail,
    CorrectionCoeffs,
    TailResult,
    ZoneInfo,
    correction_coeffs,
    tail_probability,
    zone_bound,
)

from _closed_forms import log_tail_asymptote

PHI_TAIL_1 = 0.15865525393145707
PHI_TAIL_2 = 0.022750131948179195


def plain_summary(var=4.0, beta3=12.0, beta4=96.0, tau=0.0, raw=None):
    return MomentSummary(
        mean=0.0, tau=tau, raw_var=var if raw is None else raw, var=var,
        beta3=beta3, beta4=beta4,
    )


class TestCorrectionCoeffs:
    def test_order_zero(self):
        coeffs = correction_coeffs(plain_summary(), n=100, order=0)
        assert coeffs == CorrectionCoeffs(0.0, 0.0, 0)
        assert coeffs.exponent(3.0, "upper") == 0.0

    def test_order_one_cubic(self):
        # beta3 / (6 sigma^3) with sigma = 2
        coeffs = correction_coeffs(plain_summary(var=4.0, beta3=12.0), n=100, order=1)
        assert coeffs.mu0 == pytest.approx(12.0 / (6.0 * 8.0), rel=1e-14)
        assert coeffs.mu1 == 0.0
        assert coeffs.exponent(2.0, "upper") == pytest.approx(0.25 * 8.0, rel=1e-14)
        assert coeffs.exponent(2.0, "lower") == pytest.approx(-0.25 * 8.0, rel=1e-14)

    def test_order_two_formula(self):
        summary = plain_summary(var=1.0, beta3=0.6, beta4=2.4)
        coeffs = correction_coeffs(summary, n=10, order=2, aggregates=(0.8, 0.5))
        # 2.4/24 - 0.36/8 + 0.25/10 - 0.8/8
        assert coeffs.mu1 == pytest.approx(-0.02, rel=1e-12)
        assert coeffs.exponent(1.0, "upper") == pytest.approx(0.1 - 0.02, rel=1e-12)
        assert coeffs.exponent(1.0, "lower") == pytest.approx(-0.1 - 0.02, rel=1e-12)

    def test_order_two_needs_aggregates(self):
        with pytest.raises(EvaluationError):
            correction_coeffs(plain_summary(), n=10, order=2)

    def test_bad_order(self):
        with pytest.raises(ModelValidationError):
            correction_coeffs(plain_summary(), n=10, order=3)

    def test_approximate_summary_refused(self):
        summary = MomentSummary(
            mean=1.0, tau=0.0, raw_var=1.0, var=1.0,
            beta3=math.nan, beta4=math.nan, approximate=True,
        )
        with pytest.raises(EvaluationError):
            correction_coeffs(summary, n=10, order=1)
        # order 0 never touches the moment sums
        assert correction_coeffs(summary, n=10, order=0).order == 0

    def test_degenerate_variance(self):
        summary = MomentSummary(
            mean=1.0, tau=0.0, raw_var=1.0, var=0.0,
            beta3=math.nan, beta4=math.nan, approximate=True,
        )
        with pytest.raises(DegenerateVarianceError):
            correction_coeffs(summary, n=10, order=0)


class TestTailProbability:
    ZERO = CorrectionCoeffs(0.0, 0.0, 0)

    def test_at_zero(self):
        res = tail_probability(0.0, "upper", plain_summary(), self.ZERO, 10.0)
        assert res.p_first_order == pytest.approx(0.5, rel=1e-14)
        assert res.p_corrected == pytest.approx(0.5, rel=1e-14)
        assert res.correction_exponent == 0.0

    def test_first_order_golden(self):
        res = tail_probability(1.0, "upper", plain_summary(), self.ZERO, 10.0)
        assert res.p_first_order == pytest.approx(PHI_TAIL_1, rel=1e-12)
        assert res.p_corrected == res.p_first_order

    def test_corrected_golden(self):
        coeffs = CorrectionCoeffs(0.01, 0.0, 1)
        res = tail_probability(2.0, "upper", plain_summary(), coeffs, 10.0)
        assert res.correction_exponent == pytest.approx(0.08, rel=1e-14)
        assert res.p_corrected == pytest.approx(PHI_TAIL_2 * math.exp(0.08), rel=1e-12)

    def test_lower_side_flips_cubic(self):
        coeffs = CorrectionCoeffs(0.01, 0.0, 1)
        upper = tail_probability(2.0, "upper", plain_summary(), coeffs, 10.0)
        lower = tail_probability(2.0, "lower", plain_summary(), coeffs, 10.0)
        assert lower.p_first_order == upper.p_first_order
        assert lower.correction_exponent == pytest.approx(-0.08, rel=1e-14)
        assert lower.p_corrected == pytest.approx(PHI_TAIL_2 * math.exp(-0.08), rel=1e-12)

    def test_order_two_same_quartic_both_sides(self):
        coeffs = CorrectionCoeffs(0.01, 0.002, 2)
        upper = tail_probability(2.0, "upper", plain_summary(), coeffs, 10.0)
        lower = tail_probability(2.0, "lower", plain_summary(), coeffs, 10.0)
        assert upper.correction_exponent == pytest.approx(0.08 + 0.032, rel=1e-13)
        assert lower.correction_exponent == pytest.approx(-0.08 + 0.032, rel=1e-13)

    @pytest.mark.parametrize("x", [-0.5, math.nan, math.inf])
    def test_bad_x(self, x):
        with pytest.raises(ModelValidationError):
            tail_probability(x, "upper", plain_summary(), self.ZERO, 10.0)

    def test_bad_side(self):
        with pytest.raises(ModelValidationError):
            tail_probability(1.0, "both", plain_summary(), self.ZERO, 10.0)

    def test_zone_fraction_gate(self):
        res_in = tail_probability(2.0, "upper", plain_summary(), self.ZERO, 4.0)
        assert res_in.in_zone  # boundary x = 0.5 * zone counts as inside
        res_out = tail_probability(2.01, "upper", plain_summary(), self.ZERO, 4.0)
        assert not res_out.in_zone
        res_wide = tail_probability(
            3.9, "upper", plain_summary(), self.ZERO, 4.0, zone_fraction=1.0
        )
        assert res_wide.in_zone

    @pytest.mark.parametrize("fraction", [0.0, -0.5, math.nan, math.inf])
    def test_bad_zone_fraction(self, fraction):
        with pytest.raises(ModelValidationError, match="zone fraction"):
            tail_probability(
                1.0, "upper", plain_summary(), self.ZERO, 4.0, zone_fraction=fraction
            )

    def test_zone_info_propagates_rule(self):
        info = ZoneInfo(zone=4.0, rule="demo-rule", nu=0.0, scale=2.0)
        res = tail_probability(1.0, "upper", plain_summary(), self.ZERO, info)
        assert res.zone == 4.0
        assert res.rule == "demo-rule"

    def test_log_path_matches_normal_tail(self):
        res = tail_probability(10.0, "upper", plain_summary(), self.ZERO, 100.0)
        assert res.p_first_order == pytest.approx(float(ndtr(-10.0)), rel=1e-12)
        assert res.log_p_first_order == pytest.approx(
            math.log(res.p_first_order), rel=1e-12
        )

    def test_tail_against_asymptotic_expansion(self):
        # at x = 6 the one-term expansion phi(x)/x overshoots by < 3%
        res = tail_probability(6.0, "upper", plain_summary(), self.ZERO, 100.0)
        mills = math.exp(-18.0) / (6.0 * math.sqrt(2.0 * math.pi))
        assert abs(res.p_first_order - mills) / res.p_first_order < 0.03
        # the crude asymptote -x^2/2 is an upper envelope; the gap is
        # the log of the Mills prefactor x sqrt(2 pi), up to O(x^-2)
        prefactor = math.log(6.0 * math.sqrt(2.0 * math.pi))
        assert log_tail_asymptote(6.0) > res.log_p_first_order
        assert res.log_p_first_order == pytest.approx(
            log_tail_asymptote(6.0) - prefactor, abs=0.05
        )

    def test_clamp_normal_path(self):
        coeffs = CorrectionCoeffs(1.0, 0.0, 1)
        res = tail_probability(3.0, "upper", plain_summary(), coeffs, 10.0)
        assert res.clamped
        assert res.p_corrected == 1.0

    def test_clamp_log_path(self):
        coeffs = CorrectionCoeffs(1.0, 0.0, 1)
        res = tail_probability(10.0, "upper", plain_summary(), coeffs, 100.0)
        assert res.clamped
        assert res.p_corrected == 1.0

    def test_log_path_corrected_value(self):
        coeffs = CorrectionCoeffs(1e-4, 0.0, 1)
        res = tail_probability(9.0, "upper", plain_summary(), coeffs, 100.0)
        assert not res.clamped
        assert res.p_corrected == pytest.approx(
            float(ndtr(-9.0)) * math.exp(1e-4 * 729.0), rel=1e-10
        )

    def test_result_dict_round_trip(self):
        res = tail_probability(1.0, "upper", plain_summary(), self.ZERO, 10.0)
        payload = res.to_dict()
        assert payload["x"] == 1.0
        assert payload["in_zone"] is True
        assert set(payload) == set(TailResult.__dataclass_fields__)

    def test_asymptote(self):
        assert log_tail_asymptote(3.0) == -4.5


class TestNormalTail:
    """The first-order tail against 50-digit mpmath values."""

    @pytest.mark.parametrize("x", [i / 8 for i in range(65)])
    def test_normal_tail(self, x):
        with mpmath.workdps(50):
            want = mpmath.ncdf(-x)
            assert abs(_normal_tail(x) - want) <= 1.5e-14 * want

    # erfc up to 37, the asymptotic series past it
    @pytest.mark.parametrize("x", [0.0, 0.5, 10.0, 36.9, 37.0, 37.1, 40.0, 100.0, 1000.0])
    def test_log_normal_tail(self, x):
        with mpmath.workdps(50):
            want = mpmath.log(mpmath.ncdf(-x))
            assert abs(_log_normal_tail(x) - want) <= 1e-15 * abs(want)


class TestZoneInfo:
    def test_correction_cap(self):
        info = ZoneInfo(zone=3.0, rule="r", nu=1.0, scale=25.6)
        assert info.correction_cap(2.0) == pytest.approx(
            1.25 * 8.0 / 25.6 ** (1.0 / 3.0), rel=1e-13
        )
        flat = ZoneInfo(zone=3.0, rule="r", nu=0.0, scale=4.0)
        assert flat.correction_cap(-2.0) == pytest.approx(1.25 * 8.0 / 4.0, rel=1e-13)


class TestQuadraticZones:
    def test_sparse_uniform_golden(self):
        model = uniform_model(1024, 512)
        summary = moment_summary(model, Kernel.pds(1.0))
        info = zone_bound(model, Kernel.pds(1.0), summary)
        assert info.rule == "chi-square"
        assert info.zone == pytest.approx(512.0 ** (1.0 / 6.0), rel=1e-13)
        assert info.zone == pytest.approx(2.8284271247461903, rel=1e-12)
        assert info.nu == 1.0
        assert info.scale == pytest.approx(1024.0**1.5 / 1280.0, rel=1e-12)

    def test_low_rate_uniform_golden(self):
        # rates 1/2, so the low-rate damping is active: w = 8, zone = 2
        model = uniform_model(256, 512)
        summary = moment_summary(model, Kernel.pds(1.0))
        info = zone_bound(model, Kernel.pds(1.0), summary)
        assert info.rule == "chi-square-low-rate"
        assert info.scale == pytest.approx(8.0, rel=1e-12)
        assert info.zone == pytest.approx(2.0, rel=1e-12)

    def test_zone_ignores_summary_frame(self):
        model = uniform_model(1024, 512)
        canonical = moment_summary(model, Kernel.pds(1.0))
        divergence = moment_summary(model, Kernel.pds(1.0), frame="divergence")
        a = zone_bound(model, Kernel.pds(1.0), canonical)
        b = zone_bound(model, Kernel.pds(1.0), divergence)
        assert a == b

    def test_skew_cap_binds(self):
        # one heavy cell drags p_max^(-1/4) below N^(1/6)
        model = explicit_model(4096, [0.7] + [0.3 / 2047] * 2047)
        summary = moment_summary(model, Kernel.pds(1.0))
        info = zone_bound(model, Kernel.pds(1.0), summary)
        assert info.zone == pytest.approx(0.7**-0.25, rel=1e-12)


class TestPowerDivergenceZones:
    def test_sparse_positive(self):
        model = uniform_model(1024, 512)
        summary = moment_summary(model, Kernel.pds(0.5))
        info = zone_bound(model, Kernel.pds(0.5), summary)
        assert info.rule == "pds-sparse-positive"
        assert info.nu == 0.5
        assert info.zone == pytest.approx(
            min(512.0 ** (1.0 / 6.0), 512.0 ** 0.25), rel=1e-13
        )
        assert info.scale == pytest.approx(summary.var**1.5 / summary.raw_var, rel=1e-12)

    def test_sparse_nonpositive(self):
        model = uniform_model(1024, 512)
        for d in (0.0, -0.5):
            summary = moment_summary(model, Kernel.pds(d))
            info = zone_bound(model, Kernel.pds(d), summary)
            assert info.rule == "pds-sparse-nonpositive"
            assert info.nu == 0.0
            assert info.zone == pytest.approx(math.sqrt(512.0), rel=1e-13)

    def test_dense(self):
        model = uniform_model(100_000, 100)
        summary = moment_summary(model, Kernel.pds(0.5))
        info = zone_bound(model, Kernel.pds(0.5), summary)
        assert info.rule == "pds-dense"
        assert info.nu == 1.0
        assert info.zone == pytest.approx(100.0 ** (1.0 / 6.0), rel=1e-13)

    def test_very_sparse_uniform(self):
        model = uniform_model(100, 10_000)  # fill ratio 0.01
        summary = moment_summary(model, Kernel.pds(1.0), frame="power")
        info = zone_bound(model, Kernel.pds(1.0), summary)
        assert info.rule == "pds-very-sparse-uniform"
        assert info.nu == 1.0
        w = math.sqrt(100.0 * 0.01**3)
        assert info.scale == pytest.approx(w, rel=1e-13)
        assert info.zone == pytest.approx(
            min(100.0**0.25, (100.0 * 0.01**3) ** (1.0 / 6.0)), rel=1e-13
        )

    def test_very_sparse_nonuniform_power_scale(self):
        import numpy as np

        probs = np.array([1.5] * 200 + [0.5] * 200) / 400.0
        model = explicit_model(8, probs)
        d = 0.5
        summary = moment_summary(model, Kernel.pds(d), frame="power")
        info = zone_bound(model, Kernel.pds(d), summary)
        assert info.rule == "pds-very-sparse"
        np_min = 8.0 * model.p_min
        want = summary.var**1.5 * np_min**d / summary.raw_var
        assert info.scale == pytest.approx(want, rel=1e-12)
        assert info.zone == pytest.approx(
            min(8.0**0.25, want ** (1.0 / 2.0)), rel=1e-12
        )

    def test_very_sparse_nonuniform_log_scale(self):
        import numpy as np

        probs = np.array([1.5] * 200 + [0.5] * 200) / 400.0
        model = explicit_model(8, probs)
        summary = moment_summary(model, Kernel.pds(0.0))
        info = zone_bound(model, Kernel.pds(0.0), summary)
        assert info.rule == "pds-very-sparse"
        assert info.nu == 0.0
        np_min = 8.0 * model.p_min
        want = summary.var**1.5 / (summary.raw_var * abs(math.log(np_min)))
        assert info.scale == pytest.approx(want, rel=1e-12)

    def test_frame_equivalence(self):
        model = uniform_model(1024, 512)
        d = 0.5
        power = moment_summary(model, Kernel.pds(d), frame="power")
        div = moment_summary(model, Kernel.pds(d), frame="divergence")
        a = zone_bound(model, Kernel.pds(d), power)
        b = zone_bound(model, Kernel.pds(d), div)
        assert a.zone == pytest.approx(b.zone, rel=1e-12)
        assert a.scale == pytest.approx(b.scale, rel=1e-10)


class TestCountZones:
    def test_sparse(self):
        model = uniform_model(1024, 512)
        summary = moment_summary(model, Kernel.count_exact(0))
        info = zone_bound(model, Kernel.count_exact(0), summary)
        assert info.rule == "count-sparse"
        assert info.nu == 0.0
        assert info.zone == pytest.approx(math.sqrt(512.0), rel=1e-13)
        assert info.scale == pytest.approx(summary.var**1.5 / summary.raw_var, rel=1e-12)

    def test_collisions_shares_count_rules(self):
        model = uniform_model(1024, 512)
        summary = moment_summary(model, Kernel.collisions())
        info = zone_bound(model, Kernel.collisions(), summary)
        assert info.rule == "count-sparse"
        assert info.zone == pytest.approx(math.sqrt(512.0), rel=1e-13)

    def test_very_sparse(self):
        model = uniform_model(100, 10_000)
        summary = moment_summary(model, Kernel.count_exact(1))
        info = zone_bound(model, Kernel.count_exact(1), summary)
        assert info.rule == "count-very-sparse"
        assert info.zone == pytest.approx(100.0**0.25, rel=1e-13)

    def test_dense(self):
        model = uniform_model(1000, 100)  # rates 10
        summary = moment_summary(model, Kernel.count_exact(10))
        info = zone_bound(model, Kernel.count_exact(10), summary)
        assert info.rule == "count-dense"
        ratio = summary.var**1.5 / summary.raw_var
        want = min(ratio, 1000.0**0.25, (1000.0 * 0.01**2) ** -0.25)
        assert info.zone == pytest.approx(want, rel=1e-12)

    def test_at_least_two_always_general(self):
        model = uniform_model(1024, 512)  # sparse regime
        summary = moment_summary(model, Kernel.count_at_least(2))
        info = zone_bound(model, Kernel.count_at_least(2), summary)
        assert info.rule == "count-general"
        ratio = summary.var**1.5 / summary.raw_var
        want = min(ratio, 1024.0**0.25, (1024.0 / 512.0**2) ** -0.25)
        assert info.zone == pytest.approx(want, rel=1e-12)


class TestUnfilledZones:
    LEVELS = LevelDistribution(((1, 0.7), (2, 0.3)))

    def test_sparse(self):
        model = uniform_model(1024, 512)
        kernel = Kernel.unfilled(self.LEVELS)
        summary = moment_summary(model, kernel)
        info = zone_bound(model, kernel, summary)
        assert info.rule == "unfilled-sparse"
        assert info.zone == pytest.approx(math.sqrt(512.0), rel=1e-13)
        tau_bar = summary.mean / 512.0
        _, tau_prime = level_tau(self.LEVELS, 2.0)
        spread = tau_bar * (1.0 - tau_bar) - 2.0 * tau_prime**2
        assert info.scale == pytest.approx(
            math.sqrt(512.0) * spread**1.5 / tau_bar, rel=1e-12
        )

    def test_very_sparse(self):
        model = uniform_model(100, 10_000)
        kernel = Kernel.unfilled(self.LEVELS)
        summary = moment_summary(model, kernel)
        info = zone_bound(model, kernel, summary)
        assert info.rule == "unfilled-very-sparse"
        assert info.zone == pytest.approx(100.0**0.25, rel=1e-13)

    def test_dense_window(self):
        model = uniform_model(10 * 30_000, 30_000)  # fill ratio 10
        kernel = Kernel.unfilled(self.LEVELS)
        summary = moment_summary(model, kernel)
        info = zone_bound(model, kernel, summary)
        assert info.rule == "unfilled-dense"
        log_n_cells = math.log(30_000.0)
        delta = (10.0 - math.log(log_n_cells)) / log_n_cells
        want = min((30_000.0 / 10.0) ** 0.25, 30_000.0 ** ((1.0 - delta) / 2.0))
        assert info.zone == pytest.approx(want, rel=1e-12)

    def test_dense_window_refused_when_too_full(self):
        model = uniform_model(20_000, 1000)  # fill ratio 20 vs log N ~ 6.9
        kernel = Kernel.unfilled(LevelDistribution.constant(1))
        summary = moment_summary(model, kernel)
        with pytest.raises(UnsupportedCombinationError):
            zone_bound(model, kernel, summary)
