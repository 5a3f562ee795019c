"""Tests of the benchmark itself: tracing, failure counting, percentiles
and the references.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402
from mtbench import checks, reference, tracer, workloads  # noqa: E402
from mtbench.loop import Passes  # noqa: E402
from mtbench.stats import percentile  # noqa: E402

TAIL_ARGV = ["tail", "--model", "uniform", "--n", "64", "--cells", "32",
             "--kernel", "pds:1", "--x=0.5,1.5"]


def _owners():
    out = []
    for path, attr, _, _ in tracer.PATCHES:
        owner = tracer._target(path)
        out.append((owner, attr, owner.__dict__[attr]))
    return out


def test_tracer_restores_every_patched_attribute():
    from multitails import cli

    before = _owners()
    t = tracer.Tracer()
    t.install()
    try:
        for owner, attr, original in before:
            assert owner.__dict__[attr] is not original, f"{attr} was not wrapped"
        t.start_op(0)
        assert t.span("cli.main", cli.main)(TAIL_ARGV) == 0
    finally:
        t.restore()
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original, f"{attr} was not restored"
    assert t.calls["poisson.expect_fn"] > 0
    assert t.calls["kernels.moment_summary"] >= 1
    metrics = t.metrics(1, 0)
    assert metrics["poisson.expect_fn.terms"] > metrics["poisson.expect_fn.calls"]
    assert metrics["kernels.moment_summary.us_per_rate"] > 0


def test_restore_after_a_failing_op():
    from multitails import cli

    before = _owners()
    t = tracer.Tracer()
    t.install()
    try:
        rc = t.span("cli.main", cli.main)(
            ["tail", "--model", "uniform", "--n", "10", "--cells", "5", "--kernel", "pds:-3",
             "--x=1"])
    finally:
        t.restore()
    assert rc == 2
    assert all(owner.__dict__[attr] is original for owner, attr, original in before)
    assert not t.stack


def _two_op_workload():
    model = workloads.uniform(64, 32)
    good = workloads.Op(id=0, cmd="tail", argv=TAIL_ARGV, model=model.key,
                        kernel="pds:1", xs=(0.5, 1.5))
    bad = workloads.Op(id=1, cmd="tail",
                       argv=["tail", "--model", "uniform", "--n", "10", "--cells", "5",
                             "--kernel", "pds:-3", "--x=1"],
                       model=model.key, kernel="pds:1", xs=(1.0,))
    return workloads.Workload("test", [good, bad], {model.key: model}, "distinct rates summarized")


def test_typed_error_and_reference_miss_each_count_once():
    from multitails import cli

    wl = _two_op_workload()
    refs, _ = checks.build_refs(wl, 0)
    passes = Passes()
    passes.run([{"id": op.id, "argv": op.argv} for op in wl.ops], cli.main, 0.0)
    run_dict = passes.to_dict()

    tally = run._tally(run_dict, run._verdicts(wl, refs, run_dict))
    assert tally == {"attempted": 2, "typed": 1, "misses": 0, "crashes": 0, "failed": 1}

    refs[0]["summary"] = dict(refs[0]["summary"], mean=refs[0]["summary"]["mean"] + 1.0)
    tally = run._tally(run_dict, run._verdicts(wl, refs, run_dict))
    assert tally == {"attempted": 2, "typed": 1, "misses": 1, "crashes": 0, "failed": 2}


def test_p90_needs_ten_samples_beyond_it():
    with pytest.raises(ValueError):
        percentile(range(99), 0.9)
    assert percentile(range(100), 0.9) == 89
    assert percentile(range(1, 201), 0.5) == 100


def test_exact_law_matches_uniform_chi_square_closed_form():
    n, cells = 9, 4
    law = reference.exact_law(np.full(cells, 1.0 / cells), n, reference.CellKernel("pds:1"))
    assert math.fsum(law.probs) == pytest.approx(1.0, abs=1e-12)
    assert law.mean() == pytest.approx(cells - 1.0, rel=1e-12)
    assert law.var() == pytest.approx(2.0 * (cells - 1) * (n - 1) / n, rel=1e-12)


def test_exact_count_moments_match_exact_law():
    probs = np.array([0.1, 0.2, 0.3, 0.4])
    law = reference.exact_law(probs, 7, reference.CellKernel("count:1"))
    mean, var = reference.exact_count_moments(probs, 7, 1)
    assert mean == pytest.approx(law.mean(), rel=1e-12)
    assert var == pytest.approx(law.var(), rel=1e-12)


def test_empty_cells_law_is_a_distribution_with_the_exact_mean():
    n, cells = 40, 16
    law = reference.empty_cells_law(n, cells)
    assert math.fsum(law.values()) == pytest.approx(1.0, abs=1e-12)
    mean = math.fsum(j * p for j, p in law.items())
    assert mean == pytest.approx(cells * (1.0 - 1.0 / cells) ** n, rel=1e-12)


@pytest.mark.parametrize("spec", ["pds:-0.5", "pds:0", "count:2", "collisions"])
def test_grid_route_agrees_with_mpmath(spec):
    probs = workloads.powerlaw(60, 30, 0.4).probs
    kern = reference.CellKernel(spec)
    grid, tables = reference.grid_summary(probs, 60, kern)
    assert reference.certify_grid(probs, 60, kern, tables, np.random.default_rng(0)) == 4
    mp = reference.mp_summary(probs, 60, kern)
    for key in reference.SUMMARY_KEYS:
        assert grid[key] == pytest.approx(mp[key], rel=1e-9, abs=1e-12), key


def test_seed_fixes_the_inputs(tmp_path):
    def argvs(seed, name):
        wl = workloads.generate("tail-sparse-powerlaw", seed, tmp_path / name)
        texts = [p.read_text() for p in sorted((tmp_path / name).iterdir())]
        return [[a.replace(str(tmp_path / name), "") for a in op.argv] for op in wl.ops], texts

    a, b, c = argvs(5, "a"), argvs(5, "b"), argvs(6, "c")
    assert a == b
    assert a[0] != c[0] and a[1] != c[1]
    assert [argv[0] for argv in a[0]] == [argv[0] for argv in c[0]]
