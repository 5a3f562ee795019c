"""Property tests of the frame algebra: affine maps between frames and families."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from multitails.kernels import (
    FRAMES,
    FrameMap,
    Kernel,
    MomentSummary,
    frame_map,
    moment_summary,
    resolve_frame,
    statistic_value,
)
from multitails.model import explicit_model, uniform_model

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

scales = st.floats(0.25, 4.0).flatmap(lambda a: st.sampled_from([a, -a]))
maps = st.builds(FrameMap, scales, st.floats(-4.0, 4.0), st.floats(-1e3, 1e3))
summaries = st.builds(
    lambda mean, tau, var, beta3, beta4, n: (
        MomentSummary(
            mean=mean, tau=tau, raw_var=var + n * tau * tau, var=var,
            beta3=beta3, beta4=beta4,
        ),
        n,
    ),
    st.floats(-1e4, 1e4),
    st.floats(-4.0, 4.0),
    st.floats(1e-2, 1e4),
    st.floats(-1e4, 1e4),
    st.floats(1e-2, 1e6),
    st.integers(1, 10_000),
)


def _term_scales(fmap, s, n):
    # magnitude of the largest terms the forward and inverse maps add up,
    # per field: the round trip can only be as exact as these allow
    a, alpha, beta = abs(fmap.a), abs(fmap.alpha), abs(fmap.beta)
    ai = 1.0 / a
    mean_fwd = a * abs(s.mean) + alpha * n + beta
    tau_fwd = a * abs(s.tau) + alpha
    raw_fwd = a * a * s.raw_var + 2.0 * a * alpha * n * abs(s.tau) + alpha * alpha * n
    return {
        "mean": ai * (mean_fwd + alpha * n + beta),
        "tau": ai * (tau_fwd + alpha),
        "raw_var": ai * ai * (raw_fwd + 2.0 * alpha * n * tau_fwd + alpha * alpha * n),
        "var": s.var,
        "beta3": abs(s.beta3),
        "beta4": s.beta4,
    }


@PROPERTY
@given(maps, summaries)
def test_inverse_undoes_map_on_summaries(fmap, summary_n):
    s, n = summary_n
    back = fmap.inverse().summary(fmap.summary(s, n, "power"), n, s.frame)
    for name, scale in _term_scales(fmap, s, n).items():
        assert abs(getattr(back, name) - getattr(s, name)) <= 1e-12 * scale, name
    assert back.frame == s.frame


count_vectors = st.lists(st.integers(0, 12), min_size=2, max_size=8).filter(lambda c: sum(c) > 0)
divergence_params = st.sampled_from([1.0, 0.0, -0.5, 0.5, 2.0 / 3.0, 2.0]) | st.floats(-0.9, 3.0)


@st.composite
def models_and_counts(draw):
    counts = np.array(draw(count_vectors))
    n, cells = int(counts.sum()), counts.size
    if draw(st.booleans()):
        return uniform_model(n, cells), counts
    weights = np.array(draw(st.lists(st.floats(0.2, 5.0), min_size=cells, max_size=cells)))
    return explicit_model(n, weights / weights.sum()), counts


def _power_terms(d, rates, c):
    # absolute per-cell terms of the power sum and of the bare/centered
    # forms, the scale a direct sum is accurate to
    pos = c > 0
    if d == 0.0:
        logs = np.abs(np.log(c[pos] / rates[pos])) + np.abs(np.log(c[pos]))
        return float(2.0 * (c[pos] * logs).sum())
    return float((rates**-d * c ** (1.0 + d) + c ** (1.0 + d)).sum())


@PROPERTY
@given(models_and_counts(), divergence_params)
def test_statistic_frames_are_resolver_images(model_counts, d):
    model, counts = model_counts
    kernel = Kernel.pds(d)
    n = model.n
    centered = float((((counts - model.rates) ** 2) / model.rates).sum())
    terms = _power_terms(kernel.d, model.rates, counts.astype(float)) + centered
    values = {f: statistic_value(kernel, model, counts, frame=f) for f in FRAMES}
    for src in FRAMES:
        for dst in FRAMES:
            fmap = frame_map(model, kernel, src, dst)
            if fmap is None:
                # only the bare frame on a non-uniform model has no exact map
                assert "bare" in (src, dst) and not model.is_uniform
                continue
            scale = (
                1.0 + abs(fmap.a) * (terms + abs(values[src]))
                + abs(fmap.alpha) * n + abs(fmap.beta) + abs(values[dst])
            )
            got = fmap.value(values[src], n)
            assert abs(values[dst] - got) <= 1e-11 * scale, (src, dst)


@PROPERTY
@given(models_and_counts())
def test_count_families_are_images_of_empty_cells(model_counts):
    model, counts = model_counts
    empty = statistic_value(Kernel.count_exact(0), model, counts)
    for kernel in (Kernel.collisions(), Kernel.count_at_least(1)):
        source, frame, fmap = resolve_frame(model, kernel)
        assert source == Kernel.count_exact(0) and frame == "canonical"
        assert statistic_value(kernel, model, counts) == fmap.value(empty, model.n)


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(models_and_counts())
def test_count_family_summaries_are_mapped_empty_cell_summary(model_counts):
    model, _ = model_counts
    n = model.n
    empty = moment_summary(model, Kernel.count_exact(0), method="series")
    # independent per-cell moments of the occupancy indicator 1{x >= 1}
    occupied = 1.0 - np.exp(-model.rates)
    occupied_mean = math.fsum(occupied)
    occupied_tau = math.fsum(model.rates * np.exp(-model.rates)) / n
    occupied_raw = math.fsum(occupied * (1.0 - occupied))
    direct = {
        Kernel.count_at_least(1): (occupied_mean, occupied_tau, occupied_raw),
        Kernel.collisions(): (
            n - model.num_cells + math.fsum(np.exp(-model.rates)),
            1.0 - occupied_tau,
            occupied_raw - 2.0 * n * occupied_tau + n,
        ),
    }
    for kernel, (mean, tau, raw_var) in direct.items():
        got = moment_summary(model, kernel, method="series")
        _, _, fmap = resolve_frame(model, kernel)
        want = fmap.summary(empty, n, "canonical")
        for name in ("mean", "tau", "raw_var", "var", "beta3", "beta4"):
            a, b = getattr(got, name), getattr(want, name)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b)), (kernel.family, name)
        assert math.isclose(got.mean, mean, rel_tol=1e-10, abs_tol=1e-10)
        assert math.isclose(got.tau, tau, rel_tol=1e-10, abs_tol=1e-10)
        assert math.isclose(got.raw_var, raw_var, rel_tol=1e-9, abs_tol=1e-9 * n)
