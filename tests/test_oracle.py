"""Exact distributions, exact moments, and seeded Monte Carlo."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from multitails.errors import EvaluationError, UnsupportedCombinationError
from multitails.kernels import Kernel, LevelDistribution, moment_summary, statistic_value
from multitails.model import explicit_model, uniform_model
from multitails import oracle
from multitails.oracle import (
    ExactDistribution,
    _block_rows,
    _mc_chunk,
    conditioned_poisson_log_pmf,
    conditioned_poisson_pmf,
    enumerate_distribution,
    exact_count_moments,
    mc_tail_estimate,
    multinomial_log_pmf,
    multinomial_pmf,
    nu_n_constant,
)

MIXED = explicit_model(4, [0.1, 0.2, 0.3, 0.4])


def all_compositions(n, cells):
    if cells == 1:
        yield (n,)
        return
    for c in range(n + 1):
        for rest in all_compositions(n - c, cells - 1):
            yield (c,) + rest


class TestExactPmf:
    def test_half_half_golden(self):
        model = uniform_model(4, 2)
        assert multinomial_pmf([2, 2], model) == pytest.approx(6.0 / 16.0, rel=1e-13)

    def test_corner_vector(self):
        assert multinomial_pmf([4, 0, 0, 0], MIXED) == pytest.approx(0.1**4, rel=1e-12)

    def test_normalization(self):
        total = math.fsum(
            multinomial_pmf(c, MIXED) for c in all_compositions(4, 4)
        )
        assert total == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize(
        "bad", [[1, 2], [3, 0, 0, 0], [5, -1, 0, 0]]
    )
    def test_invalid_count_vectors(self, bad):
        with pytest.raises(EvaluationError):
            multinomial_log_pmf(bad, MIXED)
        with pytest.raises(EvaluationError):
            conditioned_poisson_log_pmf(bad, MIXED)

    def test_conditioned_poisson_identity(self):
        # the conditioned-Poisson route must reproduce the multinomial
        # probabilities exactly; this is the core Poissonization fact
        for model in (uniform_model(4, 3), MIXED):
            for c in all_compositions(model.n, model.num_cells):
                direct = multinomial_pmf(c, model)
                conditioned = conditioned_poisson_pmf(c, model)
                assert conditioned == pytest.approx(direct, rel=1e-12, abs=1e-300)


class TestNuConstant:
    def test_first_value(self):
        assert nu_n_constant(1) == pytest.approx(math.e / (2.0 * math.pi), rel=1e-13)

    def test_stirling_correction(self):
        want = (1.0 + 1.0 / 120.0) / math.sqrt(2.0 * math.pi)
        assert nu_n_constant(10) == pytest.approx(want, abs=1e-4)

    def test_tends_to_inverse_root_two_pi(self):
        limit = 1.0 / math.sqrt(2.0 * math.pi)
        assert abs(nu_n_constant(10_000) - limit) < 1e-5

    def test_requires_positive(self):
        with pytest.raises(EvaluationError):
            nu_n_constant(0)


class TestExactDistribution:
    DIST = ExactDistribution(values=(0.0, 1.0, 2.0), probs=(0.25, 0.5, 0.25))

    def test_moments(self):
        assert self.DIST.total == 1.0
        assert self.DIST.mean() == 1.0
        assert self.DIST.var() == 0.5
        assert self.DIST.moment(2) == 1.5

    def test_tail_strict_vs_weak(self):
        assert self.DIST.tail_prob(1.0, "upper") == 0.25
        assert self.DIST.tail_prob(1.0, "upper", strict=False) == 0.75
        assert self.DIST.tail_prob(1.0, "lower") == 0.25
        assert self.DIST.tail_prob(1.0, "lower", strict=False) == 0.75

    def test_tail_side_validation(self):
        with pytest.raises(EvaluationError):
            self.DIST.tail_prob(1.0, "middle")


class TestEnumeration:
    def test_chi_square_two_cells(self):
        model = uniform_model(2, 2)
        dist = enumerate_distribution(model, Kernel.pds(1.0))
        assert dist.values == (0.0, 2.0)
        assert dist.probs[0] == pytest.approx(0.5, rel=1e-13)
        assert dist.probs[1] == pytest.approx(0.5, rel=1e-13)

    def test_empty_cells_three_over_two(self):
        model = uniform_model(3, 2)
        dist = enumerate_distribution(model, Kernel.count_exact(0))
        assert dist.values == (0.0, 1.0)
        assert dist.probs == (pytest.approx(0.75, rel=1e-13), pytest.approx(0.25, rel=1e-13))

    def test_collision_identity_three_over_two(self):
        # collision total sits exactly n - N above the empty-cell count
        model = uniform_model(3, 2)
        dist = enumerate_distribution(model, Kernel.collisions())
        assert dist.values == (1.0, 2.0)
        assert dist.probs == (pytest.approx(0.75, rel=1e-13), pytest.approx(0.25, rel=1e-13))

    def test_total_mass(self):
        dist = enumerate_distribution(MIXED, Kernel.pds(1.0))
        assert dist.total == pytest.approx(1.0, abs=1e-12)

    def test_chi_square_mean_identity(self):
        # E chi^2 = N - 1 exactly under the full multinomial
        for model in (uniform_model(4, 3), MIXED):
            dist = enumerate_distribution(model, Kernel.pds(1.0))
            assert dist.mean() == pytest.approx(model.num_cells - 1.0, abs=1e-12)

    def test_callable_matches_kernel(self):
        model = uniform_model(4, 3)
        kernel = Kernel.pds(0.5)
        via_kernel = enumerate_distribution(model, kernel)
        via_callable = enumerate_distribution(
            model, lambda c: statistic_value(kernel, model, c)
        )
        assert via_kernel.values == via_callable.values
        assert via_kernel.probs == via_callable.probs

    def test_power_frame_shifts_by_n(self):
        model = uniform_model(4, 3)
        canonical = enumerate_distribution(model, Kernel.pds(1.0))
        power = enumerate_distribution(model, Kernel.pds(1.0), frame="power")
        assert power.probs == canonical.probs
        for vc, vp in zip(canonical.values, power.values):
            assert vp == pytest.approx(vc + 4.0, rel=1e-12)

    def test_random_kernel_refused(self):
        levels = LevelDistribution(((1, 1.0),))
        with pytest.raises(UnsupportedCombinationError):
            enumerate_distribution(uniform_model(3, 2), Kernel.unfilled(levels))

    def test_composition_cap(self):
        # C(49, 19), about 1.9e13 compositions, is far above the cap
        with pytest.raises(UnsupportedCombinationError, match="enumeration cap"):
            enumerate_distribution(uniform_model(30, 20), Kernel.pds(1.0))


class TestExactCountMoments:
    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_against_enumeration_uniform(self, r):
        model = uniform_model(4, 3)
        dist = enumerate_distribution(model, Kernel.count_exact(r))
        mean, var = exact_count_moments(model, r)
        assert mean == pytest.approx(dist.mean(), abs=1e-12)
        assert var == pytest.approx(dist.var(), abs=1e-12)

    @pytest.mark.parametrize("r", [0, 1, 3])
    def test_against_enumeration_mixed(self, r):
        dist = enumerate_distribution(MIXED, Kernel.count_exact(r))
        mean, var = exact_count_moments(MIXED, r)
        assert mean == pytest.approx(dist.mean(), abs=1e-12)
        assert var == pytest.approx(dist.var(), abs=1e-12)

    def test_counts_partition_cells(self):
        # each cell has exactly one count, so the means sum to N
        total = math.fsum(exact_count_moments(MIXED, r)[0] for r in range(5))
        assert total == pytest.approx(4.0, abs=1e-12)

    def test_balanced_pair_edge(self):
        # n = 2r: the pair event forces the two cells to absorb everything
        model = uniform_model(2, 2)
        mean, var = exact_count_moments(model, 1)
        assert mean == pytest.approx(1.0, abs=1e-13)
        assert var == pytest.approx(1.0, abs=1e-13)

    def test_r_above_n(self):
        assert exact_count_moments(MIXED, 9) == (0.0, 0.0)

    def test_memory_grows_with_distinct_probabilities(self):
        # N x N pair matrices would take several GB here
        num_cells = 16384
        n = 2 * num_cells
        model = uniform_model(n, num_cells)
        tracemalloc.start()
        try:
            mean, var = exact_count_moments(model, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20
        want_mean = num_cells * (1.0 - 1.0 / num_cells) ** n
        pairs = num_cells * (num_cells - 1) * (1.0 - 2.0 / num_cells) ** n
        assert mean == pytest.approx(want_mean, rel=1e-12)
        assert var == pytest.approx(want_mean + pairs - want_mean**2, rel=1e-8)

    def test_variance_without_cancellation(self):
        # 50-digit value of N P (1 - P) + N (N - 1) (P2 - P^2), P = (1 - 1/N)^n
        # and P2 = (1 - 2/N)^n: the variance is about 1317 beside a squared
        # mean of about 4.9e6
        num_cells, n = 16384, 32768
        with mpmath.workdps(50):
            one = (1 - mpmath.mpf(1) / num_cells) ** n
            pair = (1 - mpmath.mpf(2) / num_cells) ** n
            want = num_cells * one * (1 - one) + num_cells * (num_cells - 1) * (pair - one * one)
            _, var = exact_count_moments(uniform_model(n, num_cells), 0)
            assert abs(var - want) <= 1e-14 * want

    def test_r_validation(self):
        with pytest.raises(EvaluationError):
            exact_count_moments(MIXED, -1)


class TestSampling:
    # one Monte Carlo block, observed through _mc_chunk: the count matrix it
    # hands to the statistic is recorded on the way through
    MODEL = uniform_model(16, 8)
    ROWS = _block_rows(MODEL)

    @pytest.fixture
    def draw_block(self, monkeypatch):
        seen = []

        def record(kernel, model, counts, frame, level_draws):
            seen.append(counts.copy())
            return statistic_value(kernel, model, counts, frame, level_draws)

        monkeypatch.setattr(oracle, "statistic_value", record)

        def draw(seed, block, thresholds=(0.0,), model=self.MODEL):
            rows = _block_rows(model)
            first = block * rows
            hits = _mc_chunk(
                (model, Kernel.pds(1.0), "canonical", thresholds, "upper",
                 seed, first, first + rows)
            )
            return seen.pop(), hits

        return draw

    def test_block_rows_depend_on_the_model_only(self):
        assert self.ROWS == 2**16 // 8
        assert _block_rows(uniform_model(1024, 512)) == 128
        assert _block_rows(uniform_model(10, 2**17)) == 1

    @staticmethod
    def label_counts(model, seed, block):
        # n cell labels per row from default_rng((seed, block)), counted per row
        cells = model.num_cells
        labels = np.random.default_rng((seed, block)).integers(
            0, cells, size=(_block_rows(model), model.n)
        )
        return (labels[:, :, None] == np.arange(cells)).sum(axis=1)

    def test_deterministic_in_seed_and_block(self, draw_block):
        first, _ = draw_block(3, 1)
        np.testing.assert_array_equal(first, draw_block(3, 1)[0])
        # block b of a uniform model is the label stream of default_rng((seed, b))
        np.testing.assert_array_equal(first, self.label_counts(self.MODEL, 3, 1))
        assert not np.array_equal(first, draw_block(3, 2)[0])
        assert not np.array_equal(first, draw_block(4, 1)[0])

    def test_labels_up_to_the_fill_cut(self, draw_block):
        # n = 16 N still draws labels
        model = uniform_model(32, 2)
        counts, _ = draw_block(3, 1, model=model)
        np.testing.assert_array_equal(counts, self.label_counts(model, 3, 1))

    # a non-uniform model, and a uniform one with n > 16 N
    @pytest.mark.parametrize("model", [MIXED, uniform_model(64, 2)], ids=["non-uniform", "dense"])
    def test_other_blocks_are_the_multinomial_stream(self, draw_block, model):
        counts, _ = draw_block(3, 1, model=model)
        stream = np.random.default_rng((3, 1))
        np.testing.assert_array_equal(
            counts, stream.multinomial(model.n, model.probs, size=_block_rows(model))
        )

    def test_counts_shape_and_total(self, draw_block):
        counts, _ = draw_block(0, 0)
        assert counts.shape == (self.ROWS, 8)
        # every row is one trial: n particles over the cells
        np.testing.assert_array_equal(counts.sum(axis=1), 16)
        empty = statistic_value(Kernel.count_exact(0), self.MODEL, counts)
        occupied = statistic_value(Kernel.count_at_least(1), self.MODEL, counts)
        np.testing.assert_array_equal(empty + occupied, 8.0)
        # collisions = empty cells + n - N only when the counts sum to n
        collisions = statistic_value(Kernel.collisions(), self.MODEL, counts)
        np.testing.assert_array_equal(collisions, empty + 16 - 8)

    def test_hits_count_the_block_rows(self, draw_block):
        thresholds = np.array([4.0, 8.0, 12.0])
        counts, hits = draw_block(5, 2, thresholds)
        values = statistic_value(Kernel.pds(1.0), self.MODEL, counts)
        np.testing.assert_array_equal(hits, (values[:, None] > thresholds).sum(axis=0))


class TestMcTailEstimate:
    MODEL = uniform_model(16, 8)
    KERNEL = Kernel.pds(1.0)
    SUMMARY = moment_summary(MODEL, KERNEL)

    def test_pinned_hits(self):
        est = mc_tail_estimate(
            self.MODEL, self.KERNEL, self.SUMMARY, [0.5, 1.5], 1000, seed=11
        )
        assert est.hits == (148, 35)
        assert est.threshold == (10.0, 14.0)
        assert est.p_hat == (0.148, 0.035)

    def test_worker_split_invariance(self):
        one = mc_tail_estimate(
            self.MODEL, self.KERNEL, self.SUMMARY, [0.5, 1.5], 1000, seed=11, workers=1
        )
        three = mc_tail_estimate(
            self.MODEL, self.KERNEL, self.SUMMARY, [0.5, 1.5], 1000, seed=11, workers=3
        )
        assert one == three

    def test_matches_enumeration(self):
        est = mc_tail_estimate(
            self.MODEL, self.KERNEL, self.SUMMARY, [0.5, 1.5], 1000, seed=11
        )
        dist = enumerate_distribution(self.MODEL, self.KERNEL)
        for i, thr in enumerate(est.threshold):
            exact = dist.tail_prob(thr, "upper")
            assert est.ci_low[i] - 1e-12 <= exact <= est.ci_high[i] + 1e-12

    def test_interval_narrows_with_trials(self):
        short = mc_tail_estimate(self.MODEL, self.KERNEL, self.SUMMARY, [0.5], 1000, seed=11)
        long = mc_tail_estimate(self.MODEL, self.KERNEL, self.SUMMARY, [0.5], 4000, seed=11)
        assert short.halfwidth(0) / long.halfwidth(0) == pytest.approx(2.0, rel=0.1)

    def test_interval_brackets_p_hat(self):
        est = mc_tail_estimate(self.MODEL, self.KERNEL, self.SUMMARY, [1.0], 1000, seed=5)
        assert 0.0 <= est.ci_low[0] < est.p_hat[0] < est.ci_high[0] <= 1.0

    def test_negative_x_allowed(self):
        est = mc_tail_estimate(
            self.MODEL, self.KERNEL, self.SUMMARY, [-1.0, 1.0], 1000, seed=2
        )
        assert est.p_hat[0] > est.p_hat[1]

    def test_sides_are_complementary_up_to_atoms(self):
        upper = mc_tail_estimate(self.MODEL, self.KERNEL, self.SUMMARY, [0.0], 1000, seed=4)
        lower = mc_tail_estimate(
            self.MODEL, self.KERNEL, self.SUMMARY, [0.0], 1000, seed=4, side="lower"
        )
        assert upper.hits[0] + lower.hits[0] <= 1000

    def test_random_kernel_supported(self):
        levels = LevelDistribution(((1, 0.7), (2, 0.3)))
        kernel = Kernel.unfilled(levels)
        summary = moment_summary(self.MODEL, kernel)
        est = mc_tail_estimate(self.MODEL, kernel, summary, [1.0], 1000, seed=9)
        assert 0.0 <= est.p_hat[0] <= 1.0
        repeat = mc_tail_estimate(self.MODEL, kernel, summary, [1.0], 1000, seed=9)
        assert est == repeat

    def test_trials_floor(self):
        with pytest.raises(EvaluationError):
            mc_tail_estimate(self.MODEL, self.KERNEL, self.SUMMARY, [1.0], 999, seed=0)

    def test_side_validation(self):
        with pytest.raises(EvaluationError):
            mc_tail_estimate(
                self.MODEL, self.KERNEL, self.SUMMARY, [1.0], 1000, seed=0, side="both"
            )

    def test_x_must_be_finite(self):
        with pytest.raises(EvaluationError):
            mc_tail_estimate(
                self.MODEL, self.KERNEL, self.SUMMARY, [math.inf], 1000, seed=0
            )

    def test_workers_floor(self):
        with pytest.raises(EvaluationError, match="workers"):
            mc_tail_estimate(
                self.MODEL, self.KERNEL, self.SUMMARY, [1.0], 1000, seed=0, workers=0
            )

    @pytest.mark.parametrize(
        "workers, cpus, size",
        [(5000, 4, 4), (5000, 64, 10), (10**12, 4, 4), (3, 64, 3), (2, 1, None),
         (1, 64, None)],
    )
    def test_pool_size(self, monkeypatch, workers, cpus, size):
        # 20 000 trials of 2048-row blocks are 10 blocks; the fake pool maps
        # in this process and records its size
        model = uniform_model(64, 32)
        summary = moment_summary(model, self.KERNEL)
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(oracle, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(oracle, "_usable_cpus", lambda: cpus)
        est = mc_tail_estimate(
            model, self.KERNEL, summary, [0.5, 1.5], 20_000, seed=3, workers=workers
        )
        assert sizes == ([] if size is None else [size])
        monkeypatch.undo()
        assert est == mc_tail_estimate(model, self.KERNEL, summary, [0.5, 1.5], 20_000, seed=3)

    def test_dict_round_trip(self):
        est = mc_tail_estimate(self.MODEL, self.KERNEL, self.SUMMARY, [1.0], 1000, seed=0)
        payload = est.to_dict()
        assert payload["trials"] == 1000
        assert payload["hits"] == list(est.hits)
