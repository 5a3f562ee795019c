"""Model builders, regime classification, and probability files."""

import dataclasses
import math

import numpy as np
import pytest

from multitails.errors import ModelValidationError
from multitails.model import (
    DENSE_MIN_RATE,
    VERY_SPARSE_MAX_RATE,
    MultinomialModel,
    Regime,
    RegimeTag,
    classify_regime,
    explicit_model,
    perturbed_uniform_model,
    power_law_model,
    probs_from_csv,
    uniform_model,
)

from _closed_forms import probs_to_csv


class TestBuilders:
    def test_uniform_probs(self):
        model = uniform_model(1024, 512)
        assert model.num_cells == 512
        assert model.n == 1024
        np.testing.assert_allclose(model.probs, 1.0 / 512, rtol=1e-15)
        assert model.family == "uniform"

    def test_power_law_weights(self):
        model = power_law_model(100, 4, 0.5)
        weights = np.array([1.0, 2.0**-0.5, 3.0**-0.5, 4.0**-0.5])
        np.testing.assert_allclose(model.probs, weights / weights.sum(), rtol=1e-14)

    def test_power_law_zero_alpha_is_uniform(self):
        model = power_law_model(50, 8, 0.0)
        assert model.is_uniform
        assert model.family == "power_law"

    def test_perturbed_probs(self):
        model = perturbed_uniform_model(100, 4, 0.1, (1.0, -1.0, 1.0, -1.0))
        np.testing.assert_allclose(model.probs, [0.275, 0.225, 0.275, 0.225], rtol=1e-14)

    def test_perturbed_zero_delta_is_uniform(self):
        model = perturbed_uniform_model(100, 4, 0.0, (1.0, -1.0, 1.0, -1.0))
        assert model.is_uniform

    def test_explicit(self):
        model = explicit_model(4, [0.1, 0.2, 0.3, 0.4])
        np.testing.assert_allclose(model.probs, [0.1, 0.2, 0.3, 0.4], rtol=1e-15)
        assert model.family == "explicit"


class TestValidation:
    @pytest.mark.parametrize("n", [0, -3, 2.5, "10"])
    def test_bad_n(self, n):
        with pytest.raises(ModelValidationError):
            MultinomialModel(n=n, probs=np.array([0.5, 0.5]))

    def test_single_cell_rejected(self):
        with pytest.raises(ModelValidationError):
            explicit_model(10, [1.0])

    def test_matrix_probs_rejected(self):
        with pytest.raises(ModelValidationError):
            MultinomialModel(n=10, probs=np.full((2, 2), 0.25))

    @pytest.mark.parametrize("bad", [0.0, -0.1, math.nan, math.inf])
    def test_nonpositive_prob_rejected(self, bad):
        with pytest.raises(ModelValidationError):
            explicit_model(10, [bad, 0.5, 0.5])

    def test_sum_off_by_percent_rejected(self):
        with pytest.raises(ModelValidationError):
            explicit_model(10, [0.5, 0.51])

    def test_sum_within_tolerance_renormalized(self):
        probs = np.array([0.5, 0.5 + 4e-13])
        model = MultinomialModel(n=10, probs=probs)
        assert math.fsum(model.probs.tolist()) == pytest.approx(1.0, abs=1e-15)

    def test_probs_read_only(self):
        model = uniform_model(10, 4)
        with pytest.raises(ValueError):
            model.probs[0] = 0.5

    def test_frozen(self):
        model = uniform_model(10, 4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.n = 20

    def test_perturbation_wrong_length(self):
        with pytest.raises(ModelValidationError):
            perturbed_uniform_model(10, 4, 0.1, (1.0, -1.0))

    def test_perturbation_not_zero_sum(self):
        with pytest.raises(ModelValidationError):
            perturbed_uniform_model(10, 2, 0.1, (1.0, -0.5))

    def test_perturbation_kills_a_cell(self):
        with pytest.raises(ModelValidationError):
            perturbed_uniform_model(10, 2, 1.0, (1.0, -1.0))

    def test_power_law_alpha_must_be_finite(self):
        with pytest.raises(ModelValidationError):
            power_law_model(10, 4, math.inf)


class TestDerivedQuantities:
    def test_fill_ratio_and_rates(self):
        model = uniform_model(1024, 512)
        assert model.fill_ratio == 2.0
        np.testing.assert_allclose(model.rates, 2.0, rtol=1e-15)

    def test_rates_computed_once_read_only(self):
        model = power_law_model(100, 7, 0.5)
        rates = model.rates
        assert model.rates is rates
        assert not rates.flags.writeable
        np.testing.assert_array_equal(rates, model.n * model.probs)
        values, counts = model.rate_groups()
        assert model.rate_groups()[0] is values
        assert not values.flags.writeable and not counts.flags.writeable

    def test_extreme_probs(self):
        model = power_law_model(100, 4, 0.5)
        assert model.p_max == model.probs[0]
        assert model.p_min == model.probs[3]

    def test_inv_min_rate_clips_at_one(self):
        # smallest rate is 2, so the reciprocal clips to 1
        assert uniform_model(1024, 512).inv_min_rate == 1.0
        assert uniform_model(100, 10_000).inv_min_rate == pytest.approx(100.0, rel=1e-12)

    def test_rate_groups_uniform_collapses(self):
        values, counts = uniform_model(1024, 512).rate_groups()
        assert values.shape == (1,)
        assert values[0] == pytest.approx(2.0, rel=1e-15)
        assert counts[0] == 512

    def test_rate_groups_two_level(self):
        ell = np.concatenate([np.ones(256), -np.ones(256)])
        model = perturbed_uniform_model(1024, 512, 0.5, ell)
        values, counts = model.rate_groups()
        np.testing.assert_allclose(values, [1.0, 3.0], rtol=1e-12)
        np.testing.assert_array_equal(counts, [256, 256])

    def test_rate_groups_cover_all_cells(self):
        model = power_law_model(64, 7, 1.3)
        values, counts = model.rate_groups()
        assert counts.sum() == 7
        assert math.fsum((values * counts).tolist()) == pytest.approx(64.0, rel=1e-12)


class TestRegime:
    def test_spec_example_sparse(self):
        regime = classify_regime(uniform_model(1024, 512))
        assert regime.tag is RegimeTag.SPARSE
        assert regime.uniform
        assert not regime.dense
        assert not regime.very_sparse

    def test_spec_example_dense(self):
        regime = classify_regime(uniform_model(100_000, 100))
        assert regime.tag is RegimeTag.DENSE
        assert regime.dense

    def test_spec_example_very_sparse(self):
        regime = classify_regime(uniform_model(100, 10_000))
        assert regime.tag is RegimeTag.VERY_SPARSE
        assert regime.very_sparse

    def test_boundaries_inclusive(self):
        # rate exactly at a threshold lands in the extreme regime
        assert classify_regime(uniform_model(1000, 100)).tag is RegimeTag.DENSE
        assert classify_regime(uniform_model(20, 100)).tag is RegimeTag.VERY_SPARSE

    def test_thresholds_exported(self):
        assert DENSE_MIN_RATE == 10.0
        assert VERY_SPARSE_MAX_RATE == 0.2

    def test_scale_invariance(self):
        # rates depend only on n * p_m, so scaling n and N together is a no-op
        small = classify_regime(uniform_model(1024, 512))
        large = classify_regime(uniform_model(8 * 1024, 8 * 512))
        assert small == large

    def test_mixed_rates_are_sparse(self):
        # one cell above the dense floor, one below the very sparse cap
        model = explicit_model(100, [0.9, 0.001, 0.099])
        assert classify_regime(model).tag is RegimeTag.SPARSE
        assert not classify_regime(model).uniform

    def test_tag_values(self):
        assert RegimeTag.DENSE.value == "dense"
        assert RegimeTag.SPARSE.value == "sparse"
        assert RegimeTag.VERY_SPARSE.value == "very_sparse"

    def test_regime_is_frozen(self):
        regime = Regime(tag=RegimeTag.SPARSE, uniform=True)
        with pytest.raises(dataclasses.FrozenInstanceError):
            regime.uniform = False


class TestSerialization:
    def test_probs_csv_bit_exact(self):
        rng = np.random.default_rng(7)
        raw = rng.random(64)
        probs = raw / math.fsum(raw.tolist())
        parsed = probs_from_csv(probs_to_csv(probs))
        np.testing.assert_array_equal(parsed, probs)

    def test_probs_csv_awkward_values(self):
        values = np.array([1.0 / 3.0, 0.1, 1e-17, 1.0 - 1e-16])
        parsed = probs_from_csv(probs_to_csv(values))
        np.testing.assert_array_equal(parsed, values)

    def test_probs_csv_empty_rejected(self):
        with pytest.raises(ModelValidationError):
            probs_from_csv("\n  \n")
