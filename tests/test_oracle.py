"""Exact distributions, exact moments, and seeded Monte Carlo."""

import math
import tracemalloc
from unittest import mock

import mpmath
import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multitails.errors import EvaluationError, UnsupportedCombinationError
from multitails.kernels import FRAMES, Kernel, LevelDistribution, moment_summary, statistic_value
from multitails.model import explicit_model, uniform_model
from multitails import oracle
from multitails.oracle import (
    _ALIAS_MAX_FILL,
    ExactDistribution,
    _alias_table,
    _block_rows,
    _mc_chunk,
    conditioned_poisson_log_pmf,
    conditioned_poisson_pmf,
    enumerate_distribution,
    enumerate_distributions,
    exact_count_moments,
    mc_tail_estimate,
    multinomial_log_pmf,
    multinomial_pmf,
    nu_n_constant,
)

from _closed_forms import mean_by_atoms, moment_by_atoms, tail_prob_by_atoms, var_by_atoms

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

    def test_composition_cap(self, monkeypatch):
        def no_tables(*args):
            raise AssertionError("a composition table was built")

        monkeypatch.setattr(oracle, "_compositions", no_tables)
        # C(49, 19), about 1.9e13 compositions, is far above the cap
        with pytest.raises(UnsupportedCombinationError, match="enumeration cap"):
            enumerate_distribution(uniform_model(30, 20), Kernel.pds(1.0))

    # C(21, 7) = 116280 compositions, more than one block can hold; and
    # 45150 of 300 cells, where the count bound keeps blocks to 13695 rows
    @pytest.mark.parametrize("n, cells", [(14, 8), (2, 300)])
    def test_blocks_stay_within_the_bounds(self, monkeypatch, n, cells):
        model = uniform_model(n, cells)
        total = math.comb(n + cells - 1, cells - 1)
        rows = []

        def recording(kernel, model, counts, frame="canonical"):
            assert counts.ndim == 2 and counts.shape[1] == cells
            assert (counts.sum(axis=1) == n).all()
            rows.append(len(counts))
            return statistic_value(kernel, model, counts, frame)

        monkeypatch.setattr(oracle, "statistic_value", recording)
        dist = enumerate_distribution(model, Kernel.count_exact(0))
        assert 1 < len(rows) < total
        assert max(rows) <= oracle._BLOCK_ROWS == 2**16
        assert max(rows) * cells <= oracle._BLOCK_COUNTS == 2**22
        # no composition of these uniform models underflows
        assert sum(rows) == total
        assert dist.total == pytest.approx(1.0, abs=1e-12)

    def test_deep_walks_need_no_recursion(self, monkeypatch):
        # one-row blocks: the loop fixes 2999 cells, far past the recursion limit
        monkeypatch.setattr(oracle, "_BLOCK_ROWS", 1)
        rows = record_block_rows(monkeypatch)
        dist = enumerate_distribution(uniform_model(1, 3000), Kernel.count_exact(1))
        # the lone item walks from the last cell to the first
        assert rows == [tuple(int(i == j) for i in range(3000)) for j in range(2999, -1, -1)]
        assert dist.values == (1.0,)
        assert dist.probs == (pytest.approx(1.0, rel=1e-12),)

    @pytest.mark.parametrize("block_rows", [1, 7, 2**16])
    def test_blocks_hold_every_row_in_order(self, monkeypatch, block_rows):
        monkeypatch.setattr(oracle, "_BLOCK_ROWS", block_rows)
        rows = record_block_rows(monkeypatch)
        enumerate_distribution(explicit_model(4, [0.1, 0.2, 0.3, 0.4]), Kernel.pds(1.0))
        assert rows == list(all_compositions(4, 4))

    def test_wide_sparse_rows_share_blocks(self, monkeypatch):
        # 257 of the 400 cells are looped over, and 33153 of the 80200
        # compositions put both items there: each such prefix is one row
        n, cells = 2, 400
        model = uniform_model(n, cells)
        total = math.comb(n + cells - 1, cells - 1)
        fixed = cells - oracle._tail_cells(n, cells)
        limit = oracle._block_limit(cells)
        # prefixes with items left: each is one block, and may end a run of
        # rows with no items left, flushed before it
        with_items = sum(math.comb(s + fixed - 1, fixed - 1) for s in range(n))
        sizes = []
        rows = record_block_rows(monkeypatch, sizes)
        got = enumerate_distribution(model, Kernel.count_exact(0))
        assert len(rows) == total
        assert len(sizes) <= math.ceil(total / limit) + 2 * with_items + 1
        monkeypatch.undo()
        assert (got.values, got.probs) == _recursive_walk(model, Kernel.count_exact(0), "canonical")

    def test_pruned_compositions_are_dropped(self, monkeypatch):
        # two or three items in the first cell is below 1e-300: pruned
        model = explicit_model(3, [1e-160, 0.5, 0.5 - 1e-160])
        rows = record_block_rows(monkeypatch)
        enumerate_distribution(model, Kernel.count_exact(0))
        assert rows == [c for c in all_compositions(3, 3) if c[0] <= 1]


def record_block_rows(monkeypatch, sizes=None):
    """Patch oracle.statistic_value to record the rows of every block it gets,
    and each block's row count in sizes if given."""
    rows = []

    def recording(kernel, model, counts, frame="canonical"):
        assert counts.ndim == 2 and counts.dtype == np.int64
        rows.extend(map(tuple, counts.tolist()))
        if sizes is not None:
            sizes.append(len(counts))
        return statistic_value(kernel, model, counts, frame)

    monkeypatch.setattr(oracle, "statistic_value", recording)
    return rows


def _recursive_walk(model, kernel, frame):
    """The one-composition-at-a-time walk the block walk must equal bitwise."""
    n = model.n
    num_cells = model.num_cells
    log_p = np.log(model.probs)
    lg = np.array([math.lgamma(c + 1) for c in range(n + 1)])
    counts = np.zeros(num_cells, dtype=np.int64)
    values = []
    probs = []
    # c log p and lgamma(c + 1) at c = 0, as Python floats of the same bits
    empty_terms = (0 * log_p).tolist()
    lg_empty = float(lg[0])

    def walk(cell, remaining, partial):
        if not remaining:
            # every cell left takes no item: the same terms, added in a loop
            # that does not recurse once per cell
            counts[cell:] = 0
            for term in empty_terms[cell : num_cells - 1]:
                partial = partial + term - lg_empty
            cell = num_cells - 1
        if cell == num_cells - 1:
            counts[cell] = remaining
            lp = partial + remaining * log_p[cell] - lg[remaining]
            if lp >= oracle._PRUNE_LOG:
                values.append(float(statistic_value(kernel, model, counts, frame)))
                probs.append(math.exp(lp))
            return
        for c in range(remaining + 1):
            counts[cell] = c
            walk(cell + 1, remaining - c, partial + c * log_p[cell] - lg[c])

    walk(0, n, math.lgamma(n + 1))
    return _chained_merge(values, probs)


def _chained_merge(values, probs):
    merged_v = []
    merged_p = []
    for idx in np.argsort(values, kind="stable"):
        v = values[idx]
        p = probs[idx]
        if merged_v and abs(v - merged_v[-1]) <= oracle._MERGE_RTOL * max(1.0, abs(merged_v[-1])):
            merged_p[-1] += p
        else:
            merged_v.append(v)
            merged_p.append(p)
    return tuple(merged_v), tuple(merged_p)


WALK_PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)

count_kernels = st.one_of(
    st.sampled_from([1.0, 0.0, -0.5, 2.0 / 3.0, 0.5]).map(Kernel.pds),
    st.floats(-0.9, 3.0).map(Kernel.pds),
    st.integers(0, 3).map(Kernel.count_exact),
    st.integers(1, 3).map(Kernel.count_at_least),
    st.just(Kernel.collisions()),
)

# weights of 1e-40 make some compositions fall under the prune threshold
tiny_models = st.one_of(
    st.builds(uniform_model, st.integers(1, 10), st.integers(2, 6)),
    st.builds(
        lambda n, w: explicit_model(n, np.array(w) / math.fsum(w)),
        st.integers(1, 10),
        st.lists(st.sampled_from([1e-40, 0.05, 0.3, 1.0, 2.5]), min_size=2, max_size=6),
    ),
)


@WALK_PROPERTY
@given(tiny_models, count_kernels)
# values a few ulps apart, which the chained merge rule joins
@example(uniform_model(10, 6), Kernel.pds(0.5))
@example(explicit_model(8, [0.1, 0.2, 0.3, 0.4]), Kernel.pds(2.0 / 3.0))
@example(explicit_model(10, [1e-40, 0.25, 0.25, 0.5 - 1e-40]), Kernel.pds(0.0))
@example(uniform_model(10, 6), Kernel.count_exact(1))
def test_block_walk_equals_the_recursive_walk(model, kernel):
    frames = FRAMES if kernel.family == "pds" else ("canonical",)
    for frame in frames:
        want = _recursive_walk(model, kernel, frame)
        for rows in (1, 7, 2**16):
            with mock.patch.object(oracle, "_BLOCK_ROWS", rows):
                got = enumerate_distribution(model, kernel, frame)
            assert (got.values, got.probs) == want


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


probability_lists = st.lists(
    st.one_of(st.just(0.0), st.floats(1e-6, 1e3), st.floats(1.0, 2.0)), min_size=1, max_size=300
).filter(lambda w: any(w))


def check_alias_table(probs):
    keep, alias = _alias_table(probs)
    cells = probs.size
    assert keep.shape == alias.shape == (cells,)
    assert ((keep >= 0.0) & (keep <= 1.0)).all()
    assert ((alias >= 0) & (alias < cells)).all()
    # cell k is drawn with probability (keep[k] + sum over alias[j] = k of
    # 1 - keep[j]) / N, each summed exactly
    terms = [[q] for q in keep.tolist()]
    for q, k in zip(keep.tolist(), alias.tolist()):
        terms[k].append(1.0 - q)
    pmf = np.array([math.fsum(t) / cells for t in terms])
    # within 2 ulps of 1, the scale on which the probabilities sum
    np.testing.assert_array_less(np.abs(pmf - probs), 2 * np.finfo(float).eps)
    # a cell of probability 0 is never drawn, not even as an alias
    zero = probs == 0.0
    np.testing.assert_array_equal(pmf[zero], 0.0)
    assert not zero[alias[keep < 1.0]].any()


def normalized(weights):
    total = math.fsum(weights)
    return np.array([w / total for w in weights])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(probability_lists)
@example([1.0])
@example([0.0, 1.0])
@example([1e-6] * 299 + [1e3])
def test_alias_table_gives_the_probabilities(weights):
    check_alias_table(normalized(weights))


@pytest.mark.parametrize("shape", [0.3, 0.5])
def test_alias_table_on_heavy_tails(shape):
    # 4096 Pareto weights: long runs of cells topped up by one large cell,
    # whose rounding, were it not handed back, reaches 2.5 and 10 ulps of 1
    weights = np.random.default_rng(5).pareto(shape, 4096)
    check_alias_table(normalized(weights.tolist()))


class TestSampling:
    # one Monte Carlo block, observed through _mc_chunk: the count matrix it
    # hands to the statistic is recorded on the way through
    MODEL = uniform_model(16, 8)
    ROWS = _block_rows(MODEL)

    @pytest.fixture
    def draw_block(self, monkeypatch):
        seen = []

        def record(kernel, model, counts, frame, coins):
            seen.append(counts.copy())
            return statistic_value(kernel, model, counts, frame, coins)

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

    @staticmethod
    def alias_counts(model, seed, block):
        # n cell labels per row from default_rng((seed, block)), then one
        # uniform per label from the same stream: label k moves to alias[k]
        # where its uniform is at or above keep[k]; counted per row
        cells, shape = model.num_cells, (_block_rows(model), model.n)
        stream = np.random.default_rng((seed, block))
        labels = stream.integers(0, cells, size=shape)
        moves = stream.random(shape)
        keep, alias = _alias_table(model.probs)
        labels = np.where(moves >= keep[labels], alias[labels], labels)
        return (labels[:, :, None] == np.arange(cells)).sum(axis=1)

    # non-uniform models at n = N and at the alias cut n = 2 N
    @pytest.mark.parametrize(
        "model", [MIXED, explicit_model(_ALIAS_MAX_FILL * 4, MIXED.probs)],
        ids=["non-uniform", "alias-cut"],
    )
    def test_sparse_non_uniform_blocks_are_the_alias_stream(self, draw_block, model):
        counts, _ = draw_block(3, 1, model=model)
        np.testing.assert_array_equal(counts, self.alias_counts(model, 3, 1))
        assert not np.array_equal(counts, draw_block(3, 2, model=model)[0])

    # a non-uniform model with n > 2 N, and a uniform one with n > 16 N
    @pytest.mark.parametrize(
        "model", [explicit_model(_ALIAS_MAX_FILL * 4 + 1, MIXED.probs), uniform_model(64, 2)],
        ids=["non-uniform-dense", "dense"],
    )
    def test_dense_blocks_are_the_multinomial_stream(self, draw_block, model):
        counts, _ = draw_block(3, 1, model=model)
        stream = np.random.default_rng((3, 1))
        np.testing.assert_array_equal(
            counts, stream.multinomial(model.n, model.probs, size=_block_rows(model))
        )

    def test_alias_counts_follow_the_multinomial_law(self, draw_block):
        # 2**17 rows of MIXED (n = N = 4) in 8 blocks: the frequencies of its
        # 35 compositions against their exact probabilities, every expected
        # count at least 13
        blocks = 8
        counts = np.concatenate([draw_block(17, b, model=MIXED)[0] for b in range(blocks)])
        rows = len(counts)
        assert rows == blocks * 2**14
        found = {}
        for row in map(tuple, counts.tolist()):
            found[row] = found.get(row, 0) + 1
        comps = list(all_compositions(4, 4))
        assert set(found) <= set(comps)
        expected = [rows * multinomial_pmf(c, MIXED) for c in comps]
        assert min(expected) > 13
        chi2 = math.fsum((found.get(c, 0) - e) ** 2 / e for c, e in zip(comps, expected))
        # 34 degrees of freedom, a false alarm in 10**6 seeds
        assert chi2 < scipy.stats.chi2.isf(1e-6, 34)

    def test_unfilled_mean_on_a_non_uniform_model(self, monkeypatch):
        # the mean unfilled count over Monte Carlo rows against
        # sum over compositions of pmf * sum_i P{level > c_i}
        levels = LevelDistribution(((0, 0.2), (1, 0.3), (3, 0.5)))
        kernel = Kernel.unfilled(levels)
        values = []

        def record(*args):
            values.append(statistic_value(*args))
            return values[-1]

        monkeypatch.setattr(oracle, "statistic_value", record)
        rows = 8 * _block_rows(MIXED)
        _mc_chunk((MIXED, kernel, "canonical", (0.0,), "upper", 23, 0, rows))
        sample = np.concatenate(values)
        assert sample.size == rows
        exact = math.fsum(
            multinomial_pmf(c, MIXED) * math.fsum(levels.survival(x) for x in c)
            for c in all_compositions(4, 4)
        )
        stderr = sample.std(ddof=1) / math.sqrt(rows)
        assert abs(sample.mean() - exact) < 4 * stderr

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


# near-equal values, signed zeros and non-finite values, which the chained
# rule treats one by one (an infinite anchor joins nothing equal to it)
merge_values = st.one_of(
    st.sampled_from([
        0.0, -0.0, 1.0, 1.0 + 2**-52, 1.0 + 1e-12, 1.0 + 2e-12, -3.0, -3.0 - 4e-12,
        1e20, 1e20 * (1 + 1e-13), math.inf, -math.inf, math.nan,
    ]),
    st.floats(-5.0, 5.0),
)


@WALK_PROPERTY
@given(st.lists(st.tuples(merge_values, st.floats(0.0, 1.0)), min_size=1, max_size=40))
def test_merge_equals_the_chained_rule(atoms):
    values = [v for v, _ in atoms]
    probs = [p for _, p in atoms]
    want = _chained_merge(values, probs)
    got = oracle._merge_atoms(np.array(values), np.array(probs))
    assert [v.hex() for v in got.values] == [v.hex() for v in want[0]]
    assert [p.hex() for p in got.probs] == [p.hex() for p in want[1]]


def _hexes(dist):
    return [v.hex() for v in dist.values], [p.hex() for p in dist.probs]


@WALK_PROPERTY
@given(tiny_models, st.lists(count_kernels, min_size=1, max_size=4))
def test_one_walk_gives_every_kernels_distribution(model, kernels):
    tables = []
    compositions = oracle._compositions

    def counting(*args):
        tables.append(args)
        return compositions(*args)

    with mock.patch.object(oracle, "_compositions", counting):
        got = enumerate_distributions(model, kernels)
    assert len(tables) == 1
    assert len(got) == len(kernels)
    for dist, kernel in zip(got, kernels):
        assert _hexes(dist) == _hexes(enumerate_distribution(model, kernel))


# values with NaN and infinite atoms, which argsort puts last and first
atom_values = st.one_of(
    st.floats(-1e6, 1e6),
    st.sampled_from([0.0, -0.0, 1.0, 1.0 + 2**-52, math.inf, -math.inf, math.nan]),
)


def _bits(query, *args):
    """A query's bits, or the error it raises."""
    try:
        return query(*args).hex()
    except ValueError as exc:
        return repr(exc)


@WALK_PROPERTY
@given(
    st.lists(st.tuples(atom_values, st.floats(0.0, 1.0)), max_size=12),
    st.data(),
)
def test_queries_equal_the_atom_by_atom_forms(atoms, data):
    order = np.argsort([v for v, _ in atoms], kind="stable")
    dist = ExactDistribution(
        tuple(atoms[i][0] for i in order), tuple(atoms[i][1] for i in order)
    )
    known = st.sampled_from(dist.values) if atoms else st.nothing()
    threshold = data.draw(st.one_of(known, atom_values, st.floats()))
    for side in ("upper", "lower"):
        for strict in (True, False):
            assert _bits(dist.tail_prob, threshold, side, strict) == _bits(
                tail_prob_by_atoms, dist, threshold, side, strict
            )
    assert _bits(dist.mean) == _bits(mean_by_atoms, dist)
    assert _bits(dist.var) == _bits(var_by_atoms, dist)
    k = data.draw(st.integers(0, 4))
    center = data.draw(st.one_of(st.just(0.0), atom_values))
    assert _bits(dist.moment, k, center) == _bits(moment_by_atoms, dist, k, center)
