"""Property tests of block evaluation and block-seeded Monte Carlo."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multitails.kernels import (
    FRAMES,
    FrameMap,
    Kernel,
    LevelDistribution,
    _form,
    moment_summary,
    resolve_frame,
    statistic_value,
)
from multitails.model import explicit_model, uniform_model
from multitails.oracle import _ALIAS_MAX_FILL, _block_rows, mc_tail_estimate

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
# every example starts two process pools
POOLED = settings(max_examples=6, deadline=None, derandomize=True, database=None)

LEVELS = LevelDistribution(((0, 0.2), (1, 0.3), (3, 0.5)))

kernels = st.one_of(
    st.sampled_from([1.0, 0.0, -0.5, 2.0 / 3.0, 2.0]).map(Kernel.pds),
    st.floats(-0.9, 3.0).map(Kernel.pds),
    st.integers(0, 4).map(Kernel.count_exact),
    st.integers(1, 4).map(Kernel.count_at_least),
    st.just(Kernel.collisions()),
    st.just(Kernel.unfilled(LEVELS)),
)
count_kernels = kernels.filter(lambda k: not k.is_random)


def _two_rate_model(n, cells, heavy, ratio):
    # heavy cells get ratio times the probability of the others
    weights = np.ones(cells)
    weights[:heavy] = ratio
    return explicit_model(n, weights / weights.sum())


models = st.one_of(
    st.builds(uniform_model, st.integers(1, 60), st.integers(2, 40)),
    st.integers(2, 40).flatmap(
        lambda cells: st.builds(
            _two_rate_model, st.integers(1, 60), st.just(cells),
            st.integers(1, cells - 1), st.floats(1.5, 8.0),
        )
    ),
)


@PROPERTY
@given(models, kernels, st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_block_rows_equal_single_vectors(model, kernel, rows, seed):
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(model.n, model.probs, size=rows)
    coins = rng.random(counts.shape) if kernel.is_random else None
    frames = FRAMES if kernel.family == "pds" else ("canonical",)
    for frame in frames:
        block = statistic_value(kernel, model, counts, frame, coins)
        assert block.shape == (rows,) and block.dtype == np.float64
        for i in range(rows):
            row_coins = None if coins is None else coins[i]
            single = statistic_value(kernel, model, counts[i], frame, row_coins)
            assert isinstance(single, float)
            assert block[i] == single


def _reference_value(kernel, model, counts, frame):
    """A count-determined statistic by its per-family formula, one vector or a block."""
    family = kernel.family
    if family == "collisions":
        total = np.maximum(counts - 1, 0).sum(axis=-1)
        return float(total) if counts.ndim == 1 else total.astype(float)
    if family != "pds":
        cells = counts == kernel.r if family == "count_exact" else counts >= kernel.r
        if counts.ndim == 1:
            return float(np.count_nonzero(cells))
        return cells.sum(axis=-1).astype(float)
    _, source, fmap = resolve_frame(model, kernel, frame)
    form, d, rates, c = _form(kernel, source), kernel.d, model.rates, counts.astype(float)
    if form == "centered":
        terms = (c - rates) ** 2 / rates
    elif d == 0.0:
        ones = np.maximum(c, 1.0)
        terms = 2.0 * c * np.log(ones if form == "bare" else ones / rates)
    elif form == "bare":
        terms = np.power(c, 1.0 + d)
    else:
        terms = np.power(rates, -d) * np.power(c, 1.0 + d)
    total = terms.sum(axis=-1)
    value = float(total) if counts.ndim == 1 else total.astype(float)
    return value if fmap == FrameMap() else fmap.value(value, model.n)


@PROPERTY
@given(models, count_kernels, st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_values_equal_the_family_formulas(model, kernel, rows, seed):
    # the statistic sums the summaries' kernel table; each family's own
    # formula must give bitwise the same values, on blocks and on rows
    counts = np.random.default_rng(seed).multinomial(model.n, model.probs, size=rows)
    frames = FRAMES if kernel.family == "pds" else ("canonical",)
    for frame in frames:
        want = _reference_value(kernel, model, counts, frame)
        assert statistic_value(kernel, model, counts, frame).tobytes() == want.tobytes()
        for i in range(rows):
            single = statistic_value(kernel, model, counts[i], frame)
            assert single.hex() == _reference_value(kernel, model, counts[i], frame).hex()


@POOLED
@given(
    st.integers(100, 700),
    st.integers(0, 3),
    st.integers(0, 10**6),
    st.sampled_from([Kernel.pds(1.0), Kernel.count_exact(0), Kernel.unfilled(LEVELS)]),
    st.integers(0, 2**31 - 1),
    st.sampled_from(["labels", "alias", "multinomial"]),
)
@example(512, 0, 0, Kernel.pds(1.0), 7, "alias")  # 1024 trials, exactly 8 blocks
@example(512, 0, 0, Kernel.pds(1.0), 7, "labels")
@example(512, 0, 0, Kernel.unfilled(LEVELS), 7, "multinomial")
def test_worker_split_invariance(cells, more_blocks, extra, kernel, seed, path):
    # at n = 2 N a uniform model draws its blocks as cell labels and the
    # two-rate model as alias-table labels; above the alias cut the
    # two-rate model goes through rng.multinomial
    if path == "labels":
        model = uniform_model(2 * cells, cells)
    elif path == "alias":
        model = _two_rate_model(2 * cells, cells, cells // 3, 2.0)
    else:
        model = _two_rate_model((_ALIAS_MAX_FILL + 1) * cells, cells, cells // 3, 2.0)
    rows = _block_rows(model)
    # at least 1000 trials, a last block cut short unless extra % rows == 0
    trials = rows * (-(-1000 // rows) + more_blocks) + extra % rows
    # thresholds around the mean of the statistic, so that hits vary
    summary = moment_summary(model, kernel)
    xs = [-0.5, 0.0, 1.0]
    one = mc_tail_estimate(model, kernel, summary, xs, trials, seed, workers=1)
    assert 0 < sum(one.hits) < len(xs) * trials
    for workers in (2, 3):
        assert mc_tail_estimate(model, kernel, summary, xs, trials, seed, workers=workers) == one
