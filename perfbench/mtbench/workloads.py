"""Seeded input generator for the four benchmark workloads.

A workload is a fixed list of ops (one ``multitails.cli.main`` call each),
run in passes.  The seed picks the model parameters, profile and
probability files, level files, x grids, Monte Carlo seeds and the
rngtest word stream; it never changes the number or the kind of ops, so
every seed costs about the same.  The program only ever sees the argv
lists and the files written here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TWO_THIRDS = "pds:0.6666666666666666"

# One line each, with the models and op count; also recorded in BENCHMARK.json.
WHY = {
    "tail-sparse-powerlaw": (
        "tail/moments on powerlaw(2000,1000), powerlaw(200,100), perturbed(200,100), "
        "file(200,100), 15 ops/pass: per-rate expect_fn loops dominate (direction 2); "
        "no MC or enumeration"
    ),
    "moments-dense": (
        "uniform(1e6,10), uniform(1e5,100), uniform(1e5,10), uniform(2e4,10), "
        "powerlaw(1e5,50,0.5), 21 ops/pass: few expect_fn calls at rates 1e3-1e5; "
        "keeps the 2 known cancellation failures"
    ),
    "simulate-mc": (
        "simulate --workers 1, uniform(1024,512) pds:1/count:0/unfilled and "
        "powerlaw(1024,512,0.5) pds:1, 13 ops/pass of 1000-2000 trials: seeding, "
        "sampling, statistic dominate (direction 4)"
    ),
    "enumerate-exact": (
        "enumerate on uniform(16,6), uniform(10,8), file(12,6) (6e3-2e4 compositions) "
        "and 3 exact rngtest configs, 11 ops/pass: the composition walk dominates "
        "(direction 3)"
    ),
}

WORKLOADS = tuple(WHY)


@dataclass
class Model:
    """A model as the program is told about it, plus its exact probabilities."""

    key: str
    family: str
    n: int
    cells: int
    argv: list
    probs: np.ndarray


@dataclass
class Op:
    id: int
    cmd: str
    argv: list
    model: str | None = None
    kernel: str | None = None
    frame: str = "canonical"
    xs: tuple = ()
    side: str = "upper"
    order: int = 1
    trials: int = 0
    atoms: bool = False
    levels: tuple | None = None  # ((level, prob), ...) for unfilled kernels
    rng: dict = field(default_factory=dict)  # rngtest parameters
    units: int = 0  # work units for the workload's throughput metric


@dataclass
class Workload:
    name: str
    ops: list
    models: dict
    unit: str  # what the throughput metric counts


# -- model construction (mirrors the model families' definitions) -----------

def _fsum_normalize(w: np.ndarray) -> np.ndarray:
    return w / math.fsum(w.tolist())


def _write_floats(path: Path, values) -> list:
    text = "\n".join(f"{float(v):.17g}" for v in values) + "\n"
    path.write_text(text)
    # the program parses the file; read the values back the same way
    return [float(line) for line in text.split()]


def uniform(n: int, cells: int) -> Model:
    return Model(
        f"uniform({n},{cells})", "uniform", n, cells,
        ["--model", "uniform", "--n", str(n), "--cells", str(cells)],
        np.full(cells, 1.0 / cells),
    )


def powerlaw(n: int, cells: int, alpha: float) -> Model:
    alpha = float(f"{alpha:.6f}")
    m = np.arange(1, cells + 1, dtype=float)
    return Model(
        f"powerlaw({n},{cells},{alpha:g})", "powerlaw", n, cells,
        ["--model", "powerlaw", "--n", str(n), "--cells", str(cells),
         "--alpha", f"{alpha:g}"],
        _fsum_normalize(m**-alpha),
    )


def perturbed(n: int, cells: int, rng, work: Path, tag: str) -> Model:
    # With delta above 1/2 the smallest rate 2 (1 - delta) is below one on
    # every seed, so the chi-square zone takes its low-rate branch.
    delta = float(f"{rng.uniform(0.52, 0.6):.6f}")
    u = rng.uniform(-1.0, 1.0, cells)
    u -= u.mean()
    u /= -u.min()
    path = work / f"{tag}.ell"
    ell = np.array(_write_floats(path, u))
    return Model(
        f"perturbed({n},{cells},{delta:g})", "perturbed", n, cells,
        ["--model", "perturbed", "--n", str(n), "--cells", str(cells),
         "--delta", f"{delta:g}", "--ell-file", str(path)],
        _fsum_normalize(1.0 + delta * ell),
    )


def from_file(n: int, weights: np.ndarray, work: Path, tag: str) -> Model:
    path = work / f"{tag}.probs"
    probs = np.array(_write_floats(path, _fsum_normalize(weights)))
    return Model(
        f"file({n},{probs.size})", "file", n, probs.size,
        ["--model", "file", "--n", str(n), "--probs-file", str(path)],
        _fsum_normalize(probs),
    )


def level_file(rng, work: Path, tag: str) -> tuple[str, tuple]:
    """Per-cell demand levels 0..3 with seeded probabilities."""
    probs = rng.dirichlet(np.full(4, 2.0))
    probs = np.maximum(probs, 0.05)
    probs /= probs.sum()
    text = "\n".join(f"{l},{p:.6f}" for l, p in enumerate(probs[:-1]))
    last = 1.0 - sum(float(f"{p:.6f}") for p in probs[:-1])
    text += f"\n3,{last:.6f}\n"
    path = work / f"{tag}.levels"
    path.write_text(text)
    pairs = tuple(
        (int(a), float(b)) for a, b in (line.split(",") for line in text.split())
    )
    total = math.fsum(p for _, p in pairs)
    return str(path), tuple((l, p / total) for l, p in pairs)


def _x_grid(rng, k: int, lo: float, hi: float) -> tuple:
    return tuple(sorted(float(f"{x:.4f}") for x in rng.uniform(lo, hi, k)))


def _xs_arg(xs) -> str:
    return "--x=" + ",".join(f"{x:g}" for x in xs)


# -- the workloads ------------------------------------------------------------

class _Builder:
    def __init__(self, name: str, unit: str):
        self.wl = Workload(name, [], {}, unit)

    def model(self, m: Model) -> Model:
        self.wl.models[m.key] = m
        return m

    def add(self, **kw) -> Op:
        op = Op(id=len(self.wl.ops), **kw)
        self.wl.ops.append(op)
        return op

    def summary_op(self, cmd, m: Model, kernel: str, xs=(), frame="canonical",
                   side="upper", order=1, levels=None, level_path=None):
        spec = f"unfilled:{level_path}" if kernel == "unfilled" else kernel
        argv = [cmd, *m.argv, "--kernel", spec]
        if frame != "canonical":
            argv += ["--frame", frame]
        if cmd == "tail":
            argv += [_xs_arg(xs), "--side", side, "--order", str(order)]
        distinct = 1 if m.family == "uniform" else m.cells
        return self.add(cmd=cmd, argv=argv, model=m.key, kernel=kernel, frame=frame,
                        xs=tuple(xs), side=side, order=order, levels=levels,
                        units=distinct)


def _tail_sparse(rng, work: Path) -> Workload:
    b = _Builder("tail-sparse-powerlaw", "distinct rates summarized")
    big = b.model(powerlaw(2000, 1000, rng.uniform(0.10, 0.15)))
    pl = b.model(powerlaw(200, 100, rng.uniform(0.10, 0.15)))
    pt = b.model(perturbed(200, 100, rng, work, "tsp-perturbed"))
    fl = b.model(from_file(200, rng.lognormal(0.0, 0.4, 100), work, "tsp-file"))
    lpath, levels = level_file(rng, work, "tsp")

    def x3():
        return _x_grid(rng, 3, 0.3, 2.5)

    # Fifteen ops per pass put p90 halfway into the second-slowest op's
    # samples instead of on the edge between two ops.
    b.summary_op("tail", big, "pds:0", x3(), side="both", order=2)
    b.summary_op("tail", pl, "pds:1", x3(), side="both")
    b.summary_op("tail", pl, "pds:-0.5", x3(), frame="power")
    b.summary_op("moments", pl, TWO_THIRDS)
    b.summary_op("tail", pl, "atleast:2", x3(), order=2)
    b.summary_op("tail", pt, "pds:1", x3(), frame="divergence", side="both")
    b.summary_op("tail", pt, "pds:0", x3(), side="both")
    b.summary_op("moments", pt, "pds:-0.5")
    b.summary_op("tail", pt, "count:0", x3(), side="both", order=2)
    b.summary_op("tail", pt, "unfilled", x3(), levels=levels, level_path=lpath)
    b.summary_op("tail", fl, "pds:-0.5", x3(), frame="divergence", side="both")
    b.summary_op("tail", fl, TWO_THIRDS, x3(), order=2)
    b.summary_op("moments", fl, "pds:1")
    b.summary_op("tail", fl, "collisions", x3(), order=2)
    b.summary_op("moments", fl, "unfilled", levels=levels, level_path=lpath)
    return b.wl


def _moments_dense(rng, work: Path) -> Workload:
    b = _Builder("moments-dense", "distinct rates summarized")
    u6 = b.model(uniform(10**6, 10))
    u5 = b.model(uniform(10**5, 100))
    u4 = b.model(uniform(10**5, 10))
    u2 = b.model(uniform(2 * 10**4, 10))
    dpl = b.model(powerlaw(10**5, 50, 0.5))

    def x3():
        return _x_grid(rng, 3, 0.3, 2.5)

    def r_near(lam):
        return f"count:{int(round(lam + rng.integers(-20, 21) * math.sqrt(lam) / 20))}"

    # known cancellation cases: adjusted variance comes out negative
    b.summary_op("moments", u6, "pds:0.5")
    b.summary_op("tail", u6, "pds:-0.5", x3())
    mid_rate = float(dpl.n * dpl.probs[dpl.cells // 2])
    b.summary_op("tail", dpl, r_near(mid_rate), x3())
    for kernel in ("pds:1", "pds:0.5", "pds:-0.5"):
        b.summary_op("moments", u5, kernel)
    b.summary_op("tail", u5, "pds:1", x3(), side="both")
    b.summary_op("tail", u5, "pds:0.5", x3(), order=2)
    b.summary_op("tail", u5, "pds:-0.5", x3(), frame="divergence", side="both")
    b.summary_op("tail", u5, r_near(1e3), x3(), side="both")
    b.summary_op("moments", u5, r_near(1e3))
    b.summary_op("tail", u5, "pds:0.5", x3(), frame="power", side="both")
    b.summary_op("tail", u5, "pds:1", x3(), frame="power")
    b.summary_op("tail", u4, "pds:0.5", x3())
    b.summary_op("tail", u4, r_near(1e4), x3())
    b.summary_op("tail", u2, "pds:1", x3(), side="both")
    b.summary_op("moments", u2, "pds:-0.5")
    b.summary_op("tail", u2, "pds:0.5", x3(), frame="power")
    b.summary_op("tail", u2, r_near(2e3), x3(), side="both", order=2)
    b.summary_op("moments", u2, "pds:1")
    b.summary_op("tail", u2, "pds:-0.5", x3(), frame="divergence")
    return b.wl


def _simulate_mc(rng, work: Path) -> Workload:
    b = _Builder("simulate-mc", "Monte Carlo trials")
    u = b.model(uniform(1024, 512))
    pl = b.model(powerlaw(1024, 512, 0.5))
    lpath, levels = level_file(rng, work, "smc")

    def sim(m, kernel, trials, side="upper", lv=None):
        spec = f"unfilled:{lpath}" if kernel == "unfilled" else kernel
        xs = _x_grid(rng, 3, 0.25, 2.0)
        seed = int(rng.integers(1, 2**31))
        argv = ["simulate", *m.argv, "--kernel", spec, _xs_arg(xs), "--side", side,
                "--trials", str(trials), "--seed", str(seed), "--workers", "1"]
        b.add(cmd="simulate", argv=argv, model=m.key, kernel=kernel, xs=xs,
              side=side, trials=trials, levels=lv, units=trials)

    for _ in range(4):
        sim(u, "pds:1", 1000)
    for side in ("upper", "upper", "upper", "lower"):
        sim(u, "count:0", 1000, side)
    # Two slow ops of thirteen keep p90 inside their cluster rather than
    # on the slowest of the fast ops.
    for _ in range(2):
        sim(pl, "pds:1", 2000)
    for _ in range(3):
        sim(u, "unfilled", 1000, lv=levels)
    return b.wl


def _enumerate_exact(rng, work: Path) -> Workload:
    b = _Builder("enumerate-exact", "compositions enumerated")
    u16 = b.model(uniform(16, 6))
    u10 = b.model(uniform(10, 8))
    fl = b.model(from_file(12, rng.dirichlet(np.full(6, 4.0)) + 0.02, work, "enx-file"))

    def enum(m, kernel, frame="canonical", atoms=False):
        xs = _x_grid(rng, 3, 0.25, 2.0)
        argv = ["enumerate", *m.argv, "--kernel", kernel, _xs_arg(xs)]
        if frame != "canonical":
            argv += ["--frame", frame]
        if atoms:
            argv.append("--atoms")
        b.add(cmd="enumerate", argv=argv, model=m.key, kernel=kernel, frame=frame,
              xs=xs, atoms=atoms, units=math.comb(m.n + m.cells - 1, m.cells - 1))

    def rngtest(cells, draws, word_bits, tag):
        nbytes = 4 * draws * word_bits // 8
        path = work / f"{tag}.words"
        path.write_bytes(rng.integers(0, 256, nbytes, dtype=np.uint8).tobytes())
        argv = ["rngtest", "--input", str(path), "--word-bits", str(word_bits),
                "--cells", str(cells), "--draws", str(draws)]
        b.add(cmd="rngtest", argv=argv,
              rng={"cells": cells, "draws": draws, "word_bits": word_bits,
                   "path": str(path)},
              units=4 * math.comb(draws + cells - 1, cells - 1))

    enum(u16, "pds:1")
    enum(u16, "pds:0.5", atoms=True)
    enum(u16, "count:2")
    enum(u10, "count:0")
    enum(u10, "pds:-0.5", frame="divergence")
    enum(fl, "collisions")
    enum(fl, "pds:0", atoms=True)
    enum(fl, "atleast:2")
    rngtest(6, 12, 8, "enx-a")
    rngtest(5, 16, 16, "enx-b")
    rngtest(8, 8, 8, "enx-c")
    return b.wl


_BUILDERS = {
    "tail-sparse-powerlaw": _tail_sparse,
    "moments-dense": _moments_dense,
    "simulate-mc": _simulate_mc,
    "enumerate-exact": _enumerate_exact,
}


def generate(name: str, seed: int, work: Path) -> Workload:
    """Write the workload's input files under ``work`` and return its ops."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    work.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([int(seed), WORKLOADS.index(name)])
    return _BUILDERS[name](rng, work)
