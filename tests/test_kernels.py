"""Kernels, frames, and Poissonized moment summaries."""

import json
import math
import types

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    g_second_moment_aggregates,
    level_tau,
    moment_summary,
    parse_kernel_spec,
    statistic_value,
)
from multitails import kernels
from multitails.kernels import resolve_frame
from multitails.model import explicit_model, power_law_model, uniform_model
from multitails.poisson import expect_fn, poisson_pmf

from _closed_forms import (
    lead_coefficient,
    levels_to_csv,
    min_positive_level,
    tau_sparse_approx,
    unfilled_sparse_expansion,
    zero_mass,
)

TWO_LEVEL = LevelDistribution(((1, 0.7), (2, 0.3)))
WITH_ZERO = LevelDistribution(((0, 0.4), (2, 0.6)))


class TestLevelDistribution:
    def test_validation(self):
        with pytest.raises(ModelValidationError):
            LevelDistribution(())
        with pytest.raises(ModelValidationError):
            LevelDistribution(((-1, 0.5), (1, 0.5)))
        with pytest.raises(ModelValidationError):
            LevelDistribution(((1, 0.5), (1, 0.5)))
        with pytest.raises(ModelValidationError):
            LevelDistribution(((1, 0.5), (2, 0.6)))
        with pytest.raises(ModelValidationError):
            LevelDistribution(((0, 1.0),))

    def test_accessors(self):
        assert zero_mass(TWO_LEVEL) == 0.0
        assert TWO_LEVEL.max_level == 2
        assert min_positive_level(TWO_LEVEL) == 1
        assert zero_mass(WITH_ZERO) == pytest.approx(0.4, rel=1e-15)
        assert min_positive_level(WITH_ZERO) == 2
        assert lead_coefficient(WITH_ZERO) == pytest.approx(0.3, rel=1e-15)

    def test_survival(self):
        assert TWO_LEVEL.survival(0) == pytest.approx(1.0, rel=1e-15)
        assert TWO_LEVEL.survival(1) == pytest.approx(0.3, rel=1e-15)
        assert TWO_LEVEL.survival(1.5) == pytest.approx(0.3, rel=1e-15)
        assert TWO_LEVEL.survival(2) == 0.0

    def test_constant_builder(self):
        levels = LevelDistribution.constant(3)
        assert levels.pmf == ((3, 1.0),)
        assert levels.survival(2) == 1.0

    def test_csv_round_trip(self):
        text = levels_to_csv(TWO_LEVEL)
        assert LevelDistribution.from_csv(text) == TWO_LEVEL

    def test_csv_comments_and_blanks(self):
        levels = LevelDistribution.from_csv("# demand levels\n\n1,0.7\n2,0.3\n")
        assert levels == TWO_LEVEL

    def test_csv_malformed_line(self):
        with pytest.raises(ModelValidationError):
            LevelDistribution.from_csv("1;0.7\n")

    def test_coins_flip_at_the_survival(self):
        # a cell with count c is unfilled when its coin falls below
        # P{level > c}: 1 at c = 0, 0.3 at c = 1 and 0 from c = 2 on
        model = explicit_model(3, [1 / 3.0] * 3)
        counts = np.tile([0, 1, 2], (4000, 1))
        coins = np.random.default_rng(0).random(counts.shape)
        kernel = Kernel.unfilled(TWO_LEVEL)
        values = statistic_value(kernel, model, counts, coins=coins)
        assert set(np.unique(values)) <= {1.0, 2.0}
        assert np.mean(values == 2.0) == pytest.approx(0.3, abs=0.03)


class TestKernelConstruction:
    def test_pds_validation(self):
        for bad in (-1.0, -2.0, math.inf, math.nan):
            with pytest.raises(ModelValidationError):
                Kernel.pds(bad)

    def test_pds_zero_snap(self):
        assert Kernel.pds(1e-12).d == 0.0
        assert Kernel.pds(-1e-9).d == 0.0
        assert Kernel.pds(1e-7).d == 1e-7

    def test_count_validation(self):
        with pytest.raises(ModelValidationError):
            Kernel.count_exact(-1)
        with pytest.raises(ModelValidationError):
            Kernel.count_at_least(0)

    def test_unknown_family(self):
        with pytest.raises(ModelValidationError):
            Kernel("entropy")

    def test_unfilled_needs_levels(self):
        with pytest.raises(ModelValidationError):
            Kernel("unfilled")

    def test_is_random(self):
        assert Kernel.unfilled(TWO_LEVEL).is_random
        assert not Kernel.pds(1.0).is_random
        assert not Kernel.collisions().is_random

    def test_describe_nonempty(self):
        kernels = [
            Kernel.pds(1.0), Kernel.pds(0.0), Kernel.pds(-0.5), Kernel.pds(0.3),
            Kernel.count_exact(0), Kernel.count_at_least(2), Kernel.collisions(),
            Kernel.unfilled(TWO_LEVEL),
        ]
        assert all(k.describe() for k in kernels)

    def test_spec_round_trip(self):
        # the spec the CLI prints survives JSON and names every parameter
        for kernel, spec in (
            (Kernel.pds(0.5), {"family": "pds", "d": 0.5}),
            (Kernel.count_exact(3), {"family": "count_exact", "r": 3}),
            (Kernel.count_at_least(2), {"family": "count_at_least", "r": 2}),
            (Kernel.collisions(), {"family": "collisions"}),
            (
                Kernel.unfilled(TWO_LEVEL),
                {"family": "unfilled", "levels": [[1, 0.7], [2, 0.3]]},
            ),
        ):
            assert json.loads(json.dumps(kernel.to_spec())) == spec


class TestParseKernelSpec:
    def test_forms(self):
        assert parse_kernel_spec("pds:1") == Kernel.pds(1.0)
        assert parse_kernel_spec("pds:-0.5") == Kernel.pds(-0.5)
        assert parse_kernel_spec("count:0") == Kernel.count_exact(0)
        assert parse_kernel_spec("atleast:2") == Kernel.count_at_least(2)
        assert parse_kernel_spec("collisions") == Kernel.collisions()

    def test_unfilled_uses_loader(self):
        seen = []

        def load(arg):
            seen.append(arg)
            return TWO_LEVEL

        kernel = parse_kernel_spec("unfilled:demand.csv", load)
        assert kernel == Kernel.unfilled(TWO_LEVEL)
        assert seen == ["demand.csv"]

    def test_unfilled_without_loader(self):
        with pytest.raises(ModelValidationError):
            parse_kernel_spec("unfilled:demand.csv")

    @pytest.mark.parametrize(
        "bad", ["pds:abc", "count:", "count:two", "atleast:0", "pds", "frobnicate", ""]
    )
    def test_malformed(self, bad):
        with pytest.raises(ModelValidationError):
            parse_kernel_spec(bad)


class TestStatisticValue:
    # n = 8 over 4 cells, rate 2 everywhere
    MODEL = uniform_model(8, 4)
    COUNTS = np.array([3, 2, 2, 1])

    def test_chi_square_canonical(self):
        value = statistic_value(Kernel.pds(1.0), self.MODEL, self.COUNTS)
        assert value == pytest.approx((1 + 0 + 0 + 1) / 2.0, rel=1e-14)

    def test_chi_square_divergence_matches_canonical(self):
        canonical = statistic_value(Kernel.pds(1.0), self.MODEL, self.COUNTS)
        divergence = statistic_value(
            Kernel.pds(1.0), self.MODEL, self.COUNTS, frame="divergence"
        )
        assert divergence == pytest.approx(canonical, rel=1e-14)

    def test_chi_square_power_minus_n(self):
        # on the full-count surface the power sum exceeds the centered
        # form by exactly n
        power = statistic_value(Kernel.pds(1.0), self.MODEL, self.COUNTS, frame="power")
        centered = statistic_value(Kernel.pds(1.0), self.MODEL, self.COUNTS)
        assert power - self.MODEL.n == pytest.approx(centered, rel=1e-12)

    def test_power_frame_half(self):
        expected = math.fsum(2.0**-0.5 * c**1.5 for c in self.COUNTS)
        value = statistic_value(Kernel.pds(0.5), self.MODEL, self.COUNTS, frame="power")
        assert value == pytest.approx(expected, rel=1e-14)

    def test_bare_frame_half(self):
        expected = math.fsum(c**1.5 for c in self.COUNTS)
        value = statistic_value(Kernel.pds(0.5), self.MODEL, self.COUNTS, frame="bare")
        assert value == pytest.approx(expected, rel=1e-14)

    def test_divergence_frame_half(self):
        a = 2.0 / (0.5 * 1.5)
        power = statistic_value(Kernel.pds(0.5), self.MODEL, self.COUNTS, frame="power")
        value = statistic_value(
            Kernel.pds(0.5), self.MODEL, self.COUNTS, frame="divergence"
        )
        assert value == pytest.approx(a * (power - self.MODEL.n), rel=1e-13)

    def test_log_kernel_skips_empty_cells(self):
        counts = np.array([3, 2, 2, 1])
        expected = 2.0 * math.fsum(c * math.log(c / 2.0) for c in counts)
        value = statistic_value(Kernel.pds(0.0), self.MODEL, counts)
        assert value == pytest.approx(expected, rel=1e-14)
        with_zero = np.array([4, 0, 3, 1])
        expected0 = 2.0 * math.fsum(
            c * math.log(c / 2.0) for c in with_zero if c > 0
        )
        assert statistic_value(Kernel.pds(0.0), self.MODEL, with_zero) == pytest.approx(
            expected0, rel=1e-14
        )

    def test_log_divergence_matches_power(self):
        value_div = statistic_value(
            Kernel.pds(0.0), self.MODEL, self.COUNTS, frame="divergence"
        )
        value_pow = statistic_value(
            Kernel.pds(0.0), self.MODEL, self.COUNTS, frame="power"
        )
        assert value_div == value_pow

    def test_count_kernels(self):
        counts = np.array([2, 0, 1, 0, 1])
        model = explicit_model(4, [0.2] * 5)
        assert statistic_value(Kernel.count_exact(0), model, counts) == 2.0
        assert statistic_value(Kernel.count_at_least(1), model, counts) == 3.0
        assert statistic_value(Kernel.collisions(), model, counts) == 1.0

    @pytest.mark.parametrize(
        "counts", [[3, 2, 2, 1], [0, 0, 8, 0], [8, 0, 0, 0], [2, 2, 2, 2]]
    )
    def test_collision_identity(self, counts):
        # on the full-count surface the collision total equals the
        # empty-cell count plus n - N
        counts = np.array(counts)
        empties = statistic_value(Kernel.count_exact(0), self.MODEL, counts)
        collisions = statistic_value(Kernel.collisions(), self.MODEL, counts)
        assert collisions == empties + (self.MODEL.n - self.MODEL.num_cells)

    def test_unfilled_needs_coins(self):
        with pytest.raises(EvaluationError):
            statistic_value(Kernel.unfilled(TWO_LEVEL), self.MODEL, self.COUNTS)

    def test_unfilled_counts_coins_below_survival(self):
        # P{level > c} is 1, 0.3 and 0 at counts 0, 1 and 2
        kernel = Kernel.unfilled(TWO_LEVEL)
        model = explicit_model(3, [1 / 3.0] * 3)
        counts = np.array([0, 1, 2])
        assert statistic_value(kernel, model, counts, coins=np.array([0.5, 0.5, 0.5])) == 1.0
        assert statistic_value(kernel, model, counts, coins=np.array([0.99, 0.29, 0.0])) == 2.0
        assert statistic_value(kernel, model, counts, coins=np.array([0.0, 0.3, 0.0])) == 1.0

    def test_unknown_frame(self):
        with pytest.raises(ModelValidationError):
            statistic_value(Kernel.pds(0.5), self.MODEL, self.COUNTS, frame="scaled")

    def test_frame_outside_pds_refused(self):
        with pytest.raises(ModelValidationError, match="power-divergence"):
            statistic_value(Kernel.count_exact(0), self.MODEL, self.COUNTS, "power")


class TestCellFunctions:
    # rate 2 in every cell; each statistic sums its per-cell kernel
    MODEL = uniform_model(8, 4)

    def test_pds_power_form(self):
        value = statistic_value(
            Kernel.pds(1.0), self.MODEL, np.array([3, 2, 2, 1]), frame="power"
        )
        assert value == pytest.approx((9.0 + 4.0 + 4.0 + 1.0) / 2.0, rel=1e-14)

    def test_chi_square_centered(self):
        kernel = Kernel.pds(1.0)
        assert statistic_value(kernel, self.MODEL, np.array([3, 2, 2, 1])) == pytest.approx(
            0.5 + 0.5, rel=1e-14
        )
        assert statistic_value(kernel, self.MODEL, np.array([2, 2, 2, 2])) == 0.0

    def test_count_indicator(self):
        counts = np.array([3, 2, 2, 1])
        assert statistic_value(Kernel.count_exact(2), self.MODEL, counts) == 2.0
        assert statistic_value(Kernel.count_exact(3), self.MODEL, counts) == 1.0

    def test_collisions_positive_part(self):
        counts = np.array([0, 1, 4, 3])
        assert statistic_value(Kernel.collisions(), self.MODEL, counts) == 3.0 + 2.0

    def test_unfilled_is_survival(self):
        # the summed per-cell kernel is the conditional unfilled
        # probability P{level > x}
        s = moment_summary(self.MODEL, Kernel.unfilled(TWO_LEVEL), method="series")
        assert s.mean == pytest.approx(4 * expect_fn(TWO_LEVEL.survival, 2.0), rel=1e-14)


class TestMomentSummary:
    def test_degenerate_variance_rejected(self):
        with pytest.raises(DegenerateVarianceError):
            MomentSummary(mean=1.0, tau=0.0, raw_var=1.0, var=0.0, beta3=0.0, beta4=0.0)

    def test_approximate_skips_variance_gate(self):
        summary = MomentSummary(
            mean=1.0, tau=0.0, raw_var=1.0, var=0.0,
            beta3=math.nan, beta4=math.nan, approximate=True,
        )
        assert summary.approximate

    def test_sigma_and_dict(self):
        summary = MomentSummary(mean=1.0, tau=0.5, raw_var=5.0, var=4.0, beta3=1.0, beta4=2.0)
        assert summary.sigma == 2.0
        assert summary.to_dict()["var"] == 4.0
        assert summary.to_dict()["frame"] == "canonical"


class TestChiSquareSummary:
    def test_uniform_closed_values(self):
        model = uniform_model(1024, 512)
        s = moment_summary(model, Kernel.pds(1.0), method="closed_form")
        assert s.mean == 512.0
        assert s.tau == pytest.approx(0.5, rel=1e-14)
        assert s.raw_var == pytest.approx(2.0 * 512 + 512 / 2.0, rel=1e-14)
        assert s.var == pytest.approx(2.0 * 512, rel=1e-14)

    def test_nonuniform_closed_values(self):
        model = explicit_model(100, [0.1, 0.2, 0.3, 0.4])
        s = moment_summary(model, Kernel.pds(1.0), method="closed_form")
        inv_rates = math.fsum(1.0 / (100 * p) for p in [0.1, 0.2, 0.3, 0.4])
        assert s.mean == 4.0
        assert s.raw_var == pytest.approx(8.0 + inv_rates, rel=1e-13)
        assert s.var == pytest.approx(8.0 + inv_rates - 4.0**2 / 100.0, rel=1e-13)

    def test_variance_floor(self):
        # the adjustment can only remove the thin-cell excess, never dip
        # below twice the cell count
        for model in (uniform_model(1024, 512), explicit_model(100, [0.1, 0.2, 0.3, 0.4])):
            s = moment_summary(model, Kernel.pds(1.0), method="closed_form")
            assert s.var >= 2.0 * model.num_cells - 1e-9

    def test_series_matches_closed(self):
        model = explicit_model(100, [0.1, 0.2, 0.3, 0.4])
        series = moment_summary(model, Kernel.pds(1.0), method="series")
        closed = moment_summary(model, Kernel.pds(1.0), method="closed_form")
        for name in ("mean", "tau", "raw_var", "var", "beta3", "beta4"):
            assert getattr(series, name) == pytest.approx(
                getattr(closed, name), rel=1e-9, abs=1e-9
            )

    def test_large_rate_variance_does_not_cancel(self):
        # rate 1e5: raw_var - n tau^2 would lose every digit of the
        # adjusted variance; the sum of E g^2 keeps it
        s = moment_summary(uniform_model(10**6, 10), Kernel.pds(0.5))
        assert s.var == pytest.approx(2.8124953125, rel=1e-8)
        assert s.raw_var == s.var + 10**6 * s.tau**2

    def test_large_rate_third_moment_matches_mpmath(self):
        # the Poisson weights at rate 1e5 sum to 1, so the odd moment of the
        # adjusted kernel is not thrown off centre (mpmath: 4.21873154297534)
        s = moment_summary(uniform_model(10**6, 10), Kernel.pds(0.5))
        assert s.beta3 == pytest.approx(4.21873154297534, rel=1e-8)

    def test_invariant_var_identity(self):
        model = uniform_model(64, 16)
        s = moment_summary(model, Kernel.pds(1.0))
        assert s.var == pytest.approx(s.raw_var - model.n * s.tau**2, rel=1e-12)


class TestCountSummaries:
    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_exact_count_closed_values(self, r):
        model = uniform_model(24, 8)  # rate 3
        lam = 3.0
        s = moment_summary(model, Kernel.count_exact(r), method="closed_form")
        occ = poisson_pmf(r, lam)
        assert s.mean == pytest.approx(8 * occ, rel=1e-13)
        assert s.tau == pytest.approx(8 * (r - lam) * occ / 24.0, rel=1e-13, abs=1e-15)
        assert s.raw_var == pytest.approx(8 * occ * (1 - occ), rel=1e-13)

    def test_at_least_two_closed_values(self):
        model = uniform_model(24, 8)
        lam = 3.0
        s = moment_summary(model, Kernel.count_at_least(2), method="closed_form")
        surv = 1.0 - poisson_pmf(0, lam) - poisson_pmf(1, lam)
        assert s.mean == pytest.approx(8 * surv, rel=1e-13)
        assert s.tau == pytest.approx(8 * lam * poisson_pmf(1, lam) / 24.0, rel=1e-13)

    # 1 - P{x >= r} cancels at these rates: a variance formed from it is off
    # by 1.3e-5, 2.2e-3 and 27% relative, and below zero at rate 50
    @pytest.mark.parametrize("lam, r", [(30, 2), (35, 2), (40, 2), (50, 3)])
    def test_at_least_closed_variance_without_cancellation(self, lam, r):
        s = moment_summary(uniform_model(10 * lam, 10), Kernel.count_at_least(r), "closed_form")
        with mpmath.workdps(50):
            # P{x < r} for x Poisson at rate lam
            rest = mpmath.fsum(
                mpmath.exp(-lam) * mpmath.mpf(lam) ** k / mpmath.factorial(k) for k in range(r)
            )
            want = float(10 * rest * (1 - rest))
        assert s.raw_var == pytest.approx(want, rel=1e-14, abs=0.0)

    # 1 - e^-rate cancels at these rates: a variance formed from it is off
    # by 1.6e-11 and 1.1e-9 relative.  The closed form reads only n and the
    # rate groups, so a stand-in for uniform(n, cells) spares the GBs of the
    # probability vector.
    @pytest.mark.parametrize("n, cells", [(10, 10**7), (1, 10**8)])
    def test_empty_cells_closed_variance_without_cancellation(self, n, cells):
        rates, mults = np.array([n / cells]), np.array([float(cells)])
        model = types.SimpleNamespace(n=n, rate_groups=lambda: (rates, mults))
        _, _, raw_var, _ = kernels._closed_moments(model, Kernel.count_exact(0), "canonical")
        with mpmath.workdps(50):
            occ = mpmath.exp(-mpmath.mpf(n) / cells)
            want = float(cells * occ * (1 - occ))
        assert raw_var == pytest.approx(want, rel=4 * 2**-52, abs=0.0)

    def test_at_least_one_is_occupied_complement(self):
        model = uniform_model(24, 8)
        empty = moment_summary(model, Kernel.count_exact(0))
        occupied = moment_summary(model, Kernel.count_at_least(1))
        assert occupied.mean == pytest.approx(8 - empty.mean, rel=1e-12)
        assert occupied.tau == pytest.approx(-empty.tau, rel=1e-12)
        assert occupied.var == pytest.approx(empty.var, rel=1e-12)
        assert occupied.raw_var == pytest.approx(empty.raw_var, rel=1e-12)
        assert occupied.beta3 == pytest.approx(-empty.beta3, rel=1e-12)
        assert occupied.beta4 == pytest.approx(empty.beta4, rel=1e-12)

    def test_at_least_one_against_direct_series(self):
        # independent expectation of the occupancy indicator
        model = uniform_model(24, 8)
        lam = 3.0
        s = moment_summary(model, Kernel.count_at_least(1))
        assert s.mean == pytest.approx(8 * (1 - math.exp(-lam)), rel=1e-12)
        assert s.tau == pytest.approx(8 * lam * math.exp(-lam) / 24.0, rel=1e-12)
        p_occ = 1 - math.exp(-lam)
        assert s.raw_var == pytest.approx(8 * p_occ * (1 - p_occ), rel=1e-12)

    def test_collisions_summary(self):
        model = uniform_model(24, 8)
        empty = moment_summary(model, Kernel.count_exact(0))
        coll = moment_summary(model, Kernel.collisions())
        assert coll.mean == pytest.approx(empty.mean + (24 - 8), rel=1e-12)
        assert coll.var == pytest.approx(empty.var, rel=1e-12)
        assert coll.tau == pytest.approx(empty.tau + 1.0, rel=1e-12)
        assert coll.beta3 == pytest.approx(empty.beta3, rel=1e-12)
        assert coll.raw_var == pytest.approx(
            empty.raw_var + 2.0 * 24 * empty.tau + 24, rel=1e-12
        )

    def test_series_matches_closed_nonuniform(self):
        model = explicit_model(12, [0.1, 0.2, 0.3, 0.4])
        for kernel in (Kernel.count_exact(0), Kernel.count_at_least(2), Kernel.collisions()):
            series = moment_summary(model, kernel, method="series")
            closed = moment_summary(model, kernel, method="closed_form")
            for name in ("mean", "tau", "raw_var", "var", "beta3", "beta4"):
                assert getattr(series, name) == pytest.approx(
                    getattr(closed, name), rel=1e-9, abs=1e-12
                ), (kernel.family, name)


class TestUnfilledSummary:
    def test_level_tau_constant_one(self):
        tau, tau_prime = level_tau(LevelDistribution.constant(1), 2.0)
        assert tau == pytest.approx(math.exp(-2.0), rel=1e-13)
        assert tau_prime == pytest.approx(-math.exp(-2.0), rel=1e-13)

    def test_level_tau_constant_two(self):
        tau, tau_prime = level_tau(LevelDistribution.constant(2), 1.0)
        assert tau == pytest.approx(2.0 * math.exp(-1.0), rel=1e-13)
        assert tau_prime == pytest.approx(-poisson_pmf(1, 1.0), rel=1e-13)

    def test_level_tau_rejects_bad_rate(self):
        with pytest.raises(ModelValidationError):
            level_tau(TWO_LEVEL, 0.0)
        with pytest.raises(ModelValidationError):
            level_tau(TWO_LEVEL, math.inf)

    @pytest.mark.parametrize("lam", [0.3, 1.0, 2.7])
    def test_tau_prime_is_rate_derivative(self, lam):
        eps = 1e-6
        up = level_tau(TWO_LEVEL, lam + eps)[0]
        down = level_tau(TWO_LEVEL, lam - eps)[0]
        assert level_tau(TWO_LEVEL, lam)[1] == pytest.approx(
            (up - down) / (2 * eps), rel=1e-6, abs=1e-9
        )

    def test_closed_values(self):
        model = uniform_model(12, 6)  # rate 2
        s = moment_summary(model, Kernel.unfilled(TWO_LEVEL), method="closed_form")
        tau2, tau2p = level_tau(TWO_LEVEL, 2.0)
        assert s.mean == pytest.approx(6 * tau2, rel=1e-12)
        assert s.tau == pytest.approx(6 * 2.0 * tau2p / 12.0, rel=1e-12)
        assert s.raw_var == pytest.approx(6 * tau2 * (1 - tau2), rel=1e-12)

    def test_series_matches_closed(self):
        model = explicit_model(12, [0.1, 0.2, 0.3, 0.4])
        series = moment_summary(model, Kernel.unfilled(TWO_LEVEL), method="series")
        closed = moment_summary(model, Kernel.unfilled(TWO_LEVEL), method="closed_form")
        for name in ("mean", "tau", "raw_var", "var", "beta3", "beta4"):
            assert getattr(series, name) == pytest.approx(
                getattr(closed, name), rel=1e-9, abs=1e-12
            ), name

    def test_sparse_approx(self):
        assert tau_sparse_approx(LevelDistribution.constant(1), 0.01) == pytest.approx(
            0.99, rel=1e-14
        )
        assert tau_sparse_approx(LevelDistribution.constant(2), 0.1) == pytest.approx(
            1.0 - 0.005, rel=1e-14
        )
        # the expansion tracks the exact value to the next power of the rate
        for lam in (0.001, 0.01, 0.05):
            exact = level_tau(TWO_LEVEL, lam)[0]
            approx = tau_sparse_approx(TWO_LEVEL, lam)
            assert abs(exact - approx) < 3.0 * lam**2

    def test_sparse_expansion_mean_var(self):
        mean, var = unfilled_sparse_expansion(WITH_ZERO, 0.01, 100)
        assert mean == pytest.approx(100 * tau_sparse_approx(WITH_ZERO, 0.01), rel=1e-14)
        assert var == pytest.approx(100 * 0.4 * 0.6, rel=1e-14)


class TestFrames:
    MODEL = uniform_model(64, 16)  # rate 4

    def test_frame_rejected_off_family(self):
        with pytest.raises(ModelValidationError):
            moment_summary(self.MODEL, Kernel.count_exact(0), frame="power")

    def test_unknown_method(self):
        with pytest.raises(ModelValidationError):
            moment_summary(self.MODEL, Kernel.pds(1.0), method="guess")

    def test_divergence_affine_of_power(self):
        d = 0.5
        a = 2.0 / (d * (d + 1.0))
        power = moment_summary(self.MODEL, Kernel.pds(d), frame="power")
        div = moment_summary(self.MODEL, Kernel.pds(d), frame="divergence")
        assert div.mean == pytest.approx(a * power.mean - a * self.MODEL.n, rel=1e-12)
        assert div.tau == pytest.approx(a * power.tau, rel=1e-12)
        assert div.raw_var == pytest.approx(a * a * power.raw_var, rel=1e-12)
        assert div.var == pytest.approx(a * a * power.var, rel=1e-12)
        assert div.beta3 == pytest.approx(a**3 * power.beta3, rel=1e-12)
        assert div.beta4 == pytest.approx(a**4 * power.beta4, rel=1e-12)

    def test_divergence_one_matches_canonical(self):
        canonical = moment_summary(self.MODEL, Kernel.pds(1.0))
        div = moment_summary(self.MODEL, Kernel.pds(1.0), frame="divergence")
        for name in ("mean", "tau", "raw_var", "var", "beta3", "beta4"):
            assert getattr(div, name) == pytest.approx(
                getattr(canonical, name), rel=1e-12
            )

    def test_canonical_is_power_for_noncanonical_d(self):
        s_canonical = moment_summary(self.MODEL, Kernel.pds(0.5))
        s_power = moment_summary(self.MODEL, Kernel.pds(0.5), frame="power")
        assert s_canonical.mean == pytest.approx(s_power.mean, rel=1e-13)
        assert s_canonical.frame in ("canonical", "power")

    def test_bare_vs_power_uniform(self):
        # on a uniform model the bare kernel is the power kernel times
        # rate^d, so the summary maps by that scale
        d = 0.5
        scale = 4.0**d
        power = moment_summary(self.MODEL, Kernel.pds(d), frame="power")
        bare = moment_summary(self.MODEL, Kernel.pds(d), frame="bare")
        assert bare.mean == pytest.approx(scale * power.mean, rel=1e-11)
        assert bare.var == pytest.approx(scale**2 * power.var, rel=1e-11)

    def test_var_identity_across_frames(self):
        for frame in ("canonical", "power", "bare", "divergence"):
            s = moment_summary(self.MODEL, Kernel.pds(0.5), frame=frame)
            assert s.var == pytest.approx(
                s.raw_var - self.MODEL.n * s.tau**2, rel=1e-10
            ), frame


class TestVerySparseClosed:
    # all rates 0.02
    UNIFORM = uniform_model(8, 400)

    @pytest.mark.parametrize("d", [-0.5, 1.0, 0.3])
    def test_uniform_power_frame_agreement(self, d):
        closed = moment_summary(self.UNIFORM, Kernel.pds(d), method="closed_form",
                                frame="power")
        series = moment_summary(self.UNIFORM, Kernel.pds(d), method="series",
                                frame="power")
        assert closed.approximate
        assert closed.mean == pytest.approx(series.mean, rel=0.05)
        assert closed.var == pytest.approx(series.var, rel=0.15)
        assert math.isnan(closed.beta3) and math.isnan(closed.beta4)

    def test_uniform_leading_order_formulas(self):
        lam = 0.02
        n = 8
        for d in (-0.5, 0.3):
            closed = moment_summary(self.UNIFORM, Kernel.pds(d), method="closed_form",
                                    frame="power")
            assert closed.mean == pytest.approx(n * lam**-d, rel=1e-10)
            lead_var = 2.0 * (2.0**d - 1.0) ** 2 * n * lam ** (1.0 - 2.0 * d)
            assert closed.var == pytest.approx(lead_var, rel=0.05)

    def test_log_uniform_bare_frame(self):
        lam = 0.02
        closed = moment_summary(self.UNIFORM, Kernel.pds(0.0), method="closed_form")
        assert closed.frame == "bare"
        assert closed.mean == pytest.approx(2.0 * math.log(2.0) * 8 * lam, rel=1e-12)
        assert closed.var == pytest.approx(8.0 * math.log(2.0) ** 2 * 8 * lam, rel=1e-12)
        series = moment_summary(self.UNIFORM, Kernel.pds(0.0), method="series",
                                frame="bare")
        assert closed.mean == pytest.approx(series.mean, rel=0.05)
        assert closed.var == pytest.approx(series.var, rel=0.1)

    def test_log_uniform_power_frame_refused(self):
        with pytest.raises(UnsupportedCombinationError):
            moment_summary(self.UNIFORM, Kernel.pds(0.0), method="closed_form",
                           frame="power")

    def test_log_nonuniform_power_frame(self):
        probs = np.array([1.5] * 200 + [0.5] * 200) / 400.0
        model = explicit_model(8, probs)
        closed = moment_summary(model, Kernel.pds(0.0), method="closed_form")
        series = moment_summary(model, Kernel.pds(0.0), method="series", frame="power")
        assert closed.frame == "power"
        assert closed.mean == pytest.approx(series.mean, rel=0.05)
        assert closed.var == pytest.approx(series.var, rel=0.15)

    def test_log_nonuniform_bare_refused(self):
        probs = np.array([1.5] * 200 + [0.5] * 200) / 400.0
        model = explicit_model(8, probs)
        with pytest.raises(UnsupportedCombinationError):
            moment_summary(model, Kernel.pds(0.0), method="closed_form", frame="bare")

    def test_bare_nonuniform_refused(self):
        probs = np.array([1.5] * 200 + [0.5] * 200) / 400.0
        model = explicit_model(8, probs)
        with pytest.raises(UnsupportedCombinationError):
            moment_summary(model, Kernel.pds(0.5), method="closed_form", frame="bare")

    def test_closed_form_refused_outside_regime(self):
        with pytest.raises(UnsupportedCombinationError):
            moment_summary(uniform_model(64, 16), Kernel.pds(0.5), method="closed_form")

    def test_divergence_frame_scaling(self):
        d = 0.5
        a = 2.0 / (d * (d + 1.0))
        power = moment_summary(self.UNIFORM, Kernel.pds(d), method="closed_form",
                               frame="power")
        div = moment_summary(self.UNIFORM, Kernel.pds(d), method="closed_form",
                             frame="divergence")
        assert div.mean == pytest.approx(a * power.mean - a * 8, rel=1e-12)
        assert div.var == pytest.approx(a * a * power.var, rel=1e-12)


class TestAggregates:
    def manual(self, model, kernel_fn_by_rate, summary):
        # independent re-computation straight from expect_fn
        rates, mults = model.rate_groups()
        s_sq = s_cross = 0.0
        for lam, mult in zip(rates, mults):
            fn = kernel_fn_by_rate(lam)
            center = expect_fn(fn, lam)
            def g2(x, fn=fn, center=center, lam=lam):
                return (fn(x) - center - summary.tau * (x - lam)) ** 2
            eg2 = expect_fn(g2, lam)
            eg2x = expect_fn(lambda x: g2(x) * (x - lam), lam)
            s_sq += mult * eg2 * eg2
            s_cross += mult * eg2x
        return s_sq, s_cross

    def test_chi_square_matches_manual(self):
        model = uniform_model(64, 16)
        kernel = Kernel.pds(1.0)
        summary = moment_summary(model, kernel)
        got = g_second_moment_aggregates(model, kernel, summary)
        want = self.manual(
            model, lambda lam: (lambda x: (x - lam) ** 2 / lam), summary
        )
        assert got[0] == pytest.approx(want[0], rel=1e-10)
        assert got[1] == pytest.approx(want[1], rel=1e-10)

    def test_count_matches_manual(self):
        model = explicit_model(12, [0.1, 0.2, 0.3, 0.4])
        kernel = Kernel.count_exact(0)
        summary = moment_summary(model, kernel)
        got = g_second_moment_aggregates(model, kernel, summary)
        want = self.manual(
            model, lambda lam: (lambda x: 1.0 if x == 0 else 0.0), summary
        )
        assert got[0] == pytest.approx(want[0], rel=1e-10)
        assert got[1] == pytest.approx(want[1], rel=1e-10, abs=1e-12)

    def test_affine_families_share_base(self):
        model = uniform_model(24, 8)
        base_kernel = Kernel.count_exact(0)
        base = g_second_moment_aggregates(
            model, base_kernel, moment_summary(model, base_kernel)
        )
        for kernel in (Kernel.count_at_least(1), Kernel.collisions()):
            got = g_second_moment_aggregates(model, kernel, moment_summary(model, kernel))
            assert got[0] == pytest.approx(base[0], rel=1e-12)
            assert got[1] == pytest.approx(base[1], rel=1e-12)

    def test_divergence_scales_aggregates(self):
        model = uniform_model(64, 16)
        kernel = Kernel.pds(0.5)
        a = 2.0 / (0.5 * 1.5)
        power = g_second_moment_aggregates(
            model, kernel, moment_summary(model, kernel, frame="power")
        )
        div = g_second_moment_aggregates(
            model, kernel, moment_summary(model, kernel, frame="divergence")
        )
        assert div[0] == pytest.approx(a**4 * power[0], rel=1e-11)
        assert div[1] == pytest.approx(a**2 * power[1], rel=1e-11)

    @pytest.mark.parametrize(
        "kernel, frame, method",
        [
            (kernel, "canonical", method)
            for kernel in (Kernel.collisions(), Kernel.count_at_least(1))
            for method in ("auto", "series", "closed_form")
        ]
        # no closed form for the divergence outside the very sparse regime
        + [(Kernel.pds(d), "divergence", m) for d in (0.5, 2.0) for m in ("auto", "series")],
    )
    def test_affine_images_carry_mapped_source_aggregates(self, kernel, frame, method):
        model = explicit_model(30, [0.05, 0.15, 0.2, 0.25, 0.35])
        source, source_frame, fmap = resolve_frame(model, kernel, frame)
        base = moment_summary(model, source, method=method, frame=source_frame)
        got = moment_summary(model, kernel, method=method, frame=frame)
        assert got.aggregates == fmap.aggregates(base.aggregates)
        assert g_second_moment_aggregates(model, kernel, got) == got.aggregates

    def test_approximate_summary_carries_no_aggregates(self):
        model = uniform_model(8, 400)
        summary = moment_summary(model, Kernel.pds(0.5), method="closed_form")
        assert summary.approximate
        assert all(math.isnan(a) for a in summary.aggregates)


class TestWindowWalks:
    """Summaries sum window tables; only auto walks one window with expect_fn."""

    MODEL = power_law_model(60, 30, 0.7)
    KERNELS = [
        Kernel.pds(1.0), Kernel.pds(0.0), Kernel.pds(-0.5), Kernel.pds(2.0 / 3.0),
        Kernel.count_exact(0), Kernel.count_exact(2), Kernel.count_at_least(1),
        Kernel.count_at_least(2), Kernel.collisions(), Kernel.unfilled(TWO_LEVEL),
    ]

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def counted(fn, lam):
            calls.append(lam)
            return expect_fn(fn, lam)

        monkeypatch.setattr(kernels, "expect_fn", counted)
        return calls

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.describe())
    @pytest.mark.parametrize("method", ["auto", "series", "closed_form"])
    def test_calls_per_distinct_rate(self, calls, kernel, method):
        model = self.MODEL
        try:
            summary = moment_summary(model, kernel, method=method)
        except UnsupportedCombinationError:
            assert method == "closed_form"
            return
        # auto's reference walk is the one scalar walk, at the smallest rate
        assert calls == ([model.rate_groups()[0][0]] if method == "auto" else [])
        del calls[:]
        g_second_moment_aggregates(model, kernel, summary)
        assert calls == []


def _scalar_kernel(kernel, frame, lam):
    """The per-cell kernel at one rate as a per-count function, for scalar walks."""
    form = kernels._form(kernel, frame)
    d = kernel.d
    if form == "centered":
        return lambda x: (x - lam) ** 2 / lam
    if form in ("power", "bare"):
        scale = 1.0 if form == "bare" else lam**-d
        if d == 0.0:
            return lambda x: 2.0 * x * math.log(x if form == "bare" else x / lam) if x > 0 else 0.0
        return lambda x: scale * x ** (1.0 + d)
    if form == "unfilled":
        return kernel.levels.survival
    if form == "count_exact":
        return lambda x: 1.0 if x == kernel.r else 0.0
    return lambda x: 1.0 if x >= kernel.r else 0.0


def _scalar_summary(model, kernel, frame):
    """Summary fields and the scale of each, summed one rate at a time by expect_fn."""
    n = model.n
    rates, mults = model.rate_groups()
    first = []
    for lam in rates.tolist():
        f = _scalar_kernel(kernel, frame, lam)
        first.append(expect_fn(lambda x: (h := f(x), h * (x - lam), abs(h), abs(h * (x - lam))), lam))
    centers, cov, abs_h, abs_cov = (np.array(col) for col in zip(*first))
    tau = float(mults @ cov) / n
    second = []
    for lam, center in zip(rates.tolist(), centers.tolist()):
        f = _scalar_kernel(kernel, frame, lam)

        def terms(x):
            shift = center + tau * (x - lam)
            # g is rounded at the size of the terms it is computed from
            size = abs(f(x)) + abs(center) + abs(tau * (x - lam)) + 1.0
            if kernel.is_random:
                w = f(x)
                g2, g3, g4 = (w * (1 - shift) ** p + (1 - w) * (-shift) ** p for p in (2, 3, 4))
            else:
                g = f(x) - shift
                g2, g3, g4 = g**2, g**3, g**4
            return g2, g3, g4, g2 * (x - lam), size**2, size**3, size**4, size**2 * abs(x - lam)

        second.append(expect_fn(terms, lam))
    eg2, eg3, eg4, eg2x, u2, u3, u4, u2x = (np.array(col) for col in zip(*second))
    fields = {
        "mean": (mults @ centers, mults @ abs_h),
        "tau": (tau, (mults @ abs_cov) / n),
        "var": (mults @ eg2, mults @ u2),
        "beta3": (mults @ eg3, mults @ u3),
        "beta4": (mults @ eg4, mults @ u4),
        "s_sq": (mults @ (eg2 * eg2), mults @ (u2 * u2)),
        "s_cross": (mults @ eg2x, mults @ u2x),
    }
    return {name: (float(a), float(b)) for name, (a, b) in fields.items()}


# (kernel, frame) pairs covering every per-cell kernel form the tables evaluate
TABLE_FORMS = [
    (Kernel.pds(1.0), "canonical"), (Kernel.pds(1.0), "bare"),
    (Kernel.pds(0.0), "power"), (Kernel.pds(0.0), "bare"),
    (Kernel.pds(-0.5), "power"), (Kernel.pds(-0.5), "bare"),
    (Kernel.pds(2.0 / 3.0), "power"), (Kernel.pds(2.0), "bare"),
    (Kernel.count_exact(0), "canonical"), (Kernel.count_exact(3), "canonical"),
    (Kernel.count_at_least(2), "canonical"), (Kernel.unfilled(TWO_LEVEL), "canonical"),
    (Kernel.unfilled(WITH_ZERO), "canonical"),
]


def _model_with_rates(rates):
    """A model with two cells at about each of the rates."""
    weights = np.repeat(rates, 2)
    total = math.fsum(weights.tolist())
    return explicit_model(max(1, round(total)), weights / total)


class TestWindowTables:
    """The table engine against scalar walks, and its independence of chunking."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        form=st.sampled_from(TABLE_FORMS),
        # windows start at 0 up to a rate of about 233 and above 0 past it
        rates=st.lists(
            st.floats(0.05, 8.0) | st.floats(220.0, 250.0) | st.floats(900.0, 3000.0),
            min_size=1, max_size=10, unique=True,
        ),
        chunk=st.sampled_from([1, 300, 2000, kernels._CHUNK_POINTS]),
    )
    def test_engine_matches_scalar_walks(self, form, rates, chunk):
        kernel, frame = form
        model = _model_with_rates(rates)
        want = _scalar_summary(model, kernel, frame)
        original = kernels._CHUNK_POINTS
        kernels._CHUNK_POINTS = chunk
        try:
            got = kernels._series_summary(model, kernel, frame)[0]
        except DegenerateVarianceError:
            # an indicator that is 1 on every window point has no variance
            assert want["var"][0] <= 1e-20 * want["mean"][1] ** 2
            return
        finally:
            kernels._CHUNK_POINTS = original
        values = {
            "mean": got.mean, "tau": got.tau, "var": got.var, "beta3": got.beta3,
            "beta4": got.beta4, "s_sq": got.aggregates[0], "s_cross": got.aggregates[1],
        }
        for name, (value, scale) in want.items():
            assert abs(values[name] - value) <= 1e-13 * scale, name

    MODELS = [
        power_law_model(2000, 1000, 0.7),
        _model_with_rates([0.3, 2.0, 231.0, 233.4, 234.0, 240.0, 1500.0]),
        uniform_model(10**6, 10),
    ]

    @pytest.mark.parametrize("model", MODELS, ids=["powerlaw", "straddle", "dense"])
    @pytest.mark.parametrize("form", TABLE_FORMS, ids=lambda f: f"{f[0].describe()}-{f[1]}")
    def test_chunk_size_changes_nothing(self, monkeypatch, model, form):
        kernel, frame = form

        def summary():
            try:
                return moment_summary(model, kernel, method="series", frame=frame)
            except DegenerateVarianceError as err:
                return str(err)

        whole = summary()
        monkeypatch.setattr(kernels, "_CHUNK_POINTS", 1)
        assert summary() == whole

    def test_auto_walk_catches_a_bad_weight(self, monkeypatch):
        model = uniform_model(1024, 512)
        kernel = Kernel.pds(0.5)
        table = kernels.window_table

        def off(rates, bounds=None):
            k, weights = table(rates, bounds)
            weights[0, np.argmax(weights[0])] *= 1.0 + 1e-6
            return k, weights

        monkeypatch.setattr(kernels, "window_table", off)
        moment_summary(model, kernel, method="series")
        with pytest.raises(EvaluationError, match="reference walk"):
            moment_summary(model, kernel, method="auto")

    @pytest.mark.parametrize("model", [uniform_model(10**6, 10), power_law_model(10**5, 50, 0.5)])
    @pytest.mark.parametrize("method", ["auto", "series", "closed_form"])
    def test_rounding_noise_is_no_variance(self, model, method):
        # 1{x >= 2} is 1 on every window point, so the series variance is
        # pure rounding of the centring, about 1e-31
        with pytest.raises(DegenerateVarianceError):
            moment_summary(model, Kernel.count_at_least(2), method=method)


class TestAutoCrossCheck:
    @pytest.mark.parametrize(
        "kernel",
        [
            Kernel.pds(1.0), Kernel.count_exact(0), Kernel.count_exact(2),
            Kernel.count_at_least(1), Kernel.count_at_least(2),
            Kernel.collisions(), Kernel.unfilled(TWO_LEVEL),
        ],
        ids=lambda k: k.describe(),
    )
    def test_auto_accepts_series(self, kernel):
        # for every family with an exact closed form, auto must agree
        # with it or it would raise
        model = explicit_model(20, [0.1, 0.15, 0.25, 0.5])
        summary = moment_summary(model, kernel, method="auto")
        assert summary.var > 0.0
