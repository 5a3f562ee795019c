"""Reference values for each op and the checks of the program's output.

``build_refs`` runs before the timed loop and never imports the program.
``check_output`` returns the list of misses for one op output; an empty
list means the output matched every reference.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
from scipy.special import ndtr

from . import reference as R
from . import workloads

# The program's own series/closed-form cross-check tolerance; summaries
# are held to it.
SUMMARY_RTOL = 1e-8
# Monte Carlo agreement, in 99% Wilson half-widths (z = 2.576), so about
# five standard errors: a correct sampler misses it about once in 10^6.
MC_HALFWIDTHS = 2.0
MC_REFERENCE_TRIALS = 20_000
_Z99 = 2.5758293035489004
_DENSE_RATE = 100.0


# -- references ---------------------------------------------------------------

class RefBuilder:
    def __init__(self, workload, seed: int):
        self.wl = workload
        self.seed = seed
        self.rng = np.random.default_rng([seed, 101])
        self._summaries: dict = {}
        self._laws: dict = {}
        self._samples: dict = {}
        self.certified_rates = 0
        self.mp_rates = 0

    def kernel(self, op, frame=None):
        return R.CellKernel(op.kernel, frame or op.frame, op.levels)

    def summary(self, model, kern: R.CellKernel) -> dict:
        key = (model.key, kern.spec, kern.frame)
        if key in self._summaries:
            return self._summaries[key]
        rates, _ = R.rate_groups(model.probs, model.n)
        dense = float(rates.max()) >= _DENSE_RATE
        if kern.base == "power" and dense:
            s = R.mp_summary(model.probs, model.n, kern)
            self.mp_rates += rates.size
        else:
            s, tables = R.grid_summary(model.probs, model.n, kern)
            self.certified_rates += R.certify_grid(
                model.probs, model.n, kern, tables, self.rng, count=1 if dense else 4
            )
        closed = R.closed_summary(model.probs, model.n, kern)
        s = dict(s, closed=closed, n=model.n)
        self._summaries[key] = s
        return s

    def law(self, model, kern: R.CellKernel) -> R.FiniteLaw:
        key = (model.key, kern.spec, kern.frame)
        if key not in self._laws:
            self._laws[key] = R.exact_law(model.probs, model.n, kern)
        return self._laws[key]

    def build(self) -> dict:
        refs = {}
        for op in self.wl.ops:
            refs[op.id] = getattr(self, f"_ref_{op.cmd}")(op)
        return refs

    def _ref_tail(self, op):
        model = self.wl.models[op.model]
        return {"summary": self.summary(model, self.kernel(op))}

    def _ref_moments(self, op):
        model = self.wl.models[op.model]
        ref = {"summary": self.summary(model, self.kernel(op)), "frames": {}}
        if op.kernel.startswith("pds:"):
            for frame in ("power", "divergence"):
                ref["frames"][frame] = self.summary(model, self.kernel(op, frame=frame))
        return ref

    def _ref_simulate(self, op):
        model = self.wl.models[op.model]
        kern = self.kernel(op)
        ref = {"summary": self.summary(model, kern)}
        if kern.base == "count" and kern.param == 0 and model.family == "uniform":
            key = ("empty", model.key)
            if key not in self._laws:
                self._laws[key] = R.empty_cells_law(model.n, model.cells)
            ref["exact"] = self._laws[key]
        else:
            key = (model.key, op.kernel)
            if key not in self._samples:
                self._samples[key] = R.sampled_statistic(
                    model.probs, model.n, kern, MC_REFERENCE_TRIALS,
                    [self.seed, 202, len(self._samples)],
                )
            ref["sample"] = self._samples[key]
        return ref

    def _ref_enumerate(self, op):
        model = self.wl.models[op.model]
        kern = self.kernel(op)
        ref = {"law": self.law(model, kern), "summary": self.summary(model, kern)}
        if kern.base == "centered" and model.family == "uniform":
            n, cells = model.n, model.cells
            ref["closed"] = {"mean": cells - 1.0, "var": 2.0 * (cells - 1) * (n - 1) / n}
        elif kern.base == "count":
            mean, var = R.exact_count_moments(model.probs, model.n, kern.param)
            ref["closed"] = {"mean": mean, "var": var}
        return ref

    def _ref_rngtest(self, op):
        p = op.rng
        with open(p["path"], "rb") as fh:
            data = fh.read()
        counts, consumed, accepted = R.bin_words(data, p["word_bits"], p["cells"], p["draws"])
        model = workloads.uniform(p["draws"], p["cells"])
        stats = []
        for spec in ("pds:1", "pds:0", "count:0", "collisions"):
            kern = R.CellKernel(spec)
            lam = p["draws"] / p["cells"]
            observed = math.fsum(kern.cell_value(int(c), lam) for c in counts)
            law = self.law(model, kern)
            tail, _ = law.tail(observed, "upper", atol=1e-9)
            stats.append({"observed": observed, "p_value": tail,
                          "summary": self.summary(model, kern)})
        return {"consumed": consumed, "accepted": accepted, "stats": stats}


def build_refs(workload, seed: int) -> tuple[dict, dict]:
    """(references by op id, facts about how they were made)."""
    start = time.perf_counter()
    builder = RefBuilder(workload, seed)
    refs = builder.build()
    info = {"ref_s": time.perf_counter() - start,
            "certified_rates": builder.certified_rates, "mp_rates": builder.mp_rates}
    return refs, info


# -- checks -------------------------------------------------------------------

def _close(got, ref, rtol, scale=0.0) -> bool:
    return isinstance(got, (int, float)) and math.isfinite(got) and (
        abs(got - ref) <= rtol * (abs(ref) + scale)
    )


def _summary_misses(got: dict, ref: dict, label: str) -> list:
    if not isinstance(got, dict) or "mean" not in got:
        return [f"{label}: no summary ({got!r})"]
    var = abs(ref["var"])
    scales = {
        "mean": math.sqrt(ref["raw_var"]), "tau": math.sqrt(ref["raw_var"] / ref["n"]),
        "raw_var": 0.0, "var": 0.0, "beta3": var**1.5, "beta4": var**2,
    }
    misses = [
        f"{label} {q}: {got.get(q)!r} vs reference {ref[q]!r}"
        for q, scale in scales.items()
        if not _close(got.get(q), ref[q], SUMMARY_RTOL, scale)
    ]
    for q, value in (ref["closed"] or {}).items():
        if not _close(got.get(q), value, SUMMARY_RTOL, scales[q]):
            misses.append(f"{label} {q}: {got.get(q)!r} vs closed form {value!r}")
    return misses


def _coeffs(ref: dict, order: int) -> tuple[float, float, float]:
    """(mu0, mu1, scale of mu1's terms) from the reference summary."""
    if order == 0:
        return 0.0, 0.0, 0.0
    sigma = math.sqrt(ref["var"])
    mu0 = ref["beta3"] / (6.0 * sigma**3)
    if order == 1:
        return mu0, 0.0, 0.0
    terms = (
        ref["beta4"] / (24.0 * sigma**4),
        -ref["beta3"] ** 2 / (8.0 * sigma**6),
        ref["s_cross"] ** 2 / (ref["n"] * sigma**4),
        -ref["s_sq"] / (8.0 * sigma**4),
    )
    return mu0, math.fsum(terms), sum(abs(t) for t in terms)


def _check_tail(op, ref, payload) -> list:
    sref = ref["summary"]
    misses = _summary_misses(payload.get("summary"), sref, "summary")
    if misses:
        return misses
    mu0, mu1, mu1_scale = _coeffs(sref, op.order)
    if not _close(payload.get("mu0"), mu0, 1e-7, 1e-15):
        misses.append(f"mu0 {payload.get('mu0')!r} vs reference {mu0!r}")
    if not _close(payload.get("mu1"), mu1, 1e-7, mu1_scale + 1e-15):
        misses.append(f"mu1 {payload.get('mu1')!r} vs reference {mu1!r}")
    sides = ("upper", "lower") if op.side == "both" else (op.side,)
    rows = payload.get("tails", [])
    expected = [(x, s) for x in op.xs for s in sides]
    if [(r.get("x"), r.get("side")) for r in rows] != expected:
        return misses + [f"tail rows {[(r.get('x'), r.get('side')) for r in rows]} "
                         f"vs requested {expected}"]
    for row, (x, side) in zip(rows, expected):
        p1 = float(ndtr(-x))
        sign = 1.0 if side == "upper" else -1.0
        m = sign * mu0 * x**3 + mu1 * x**4
        p = min(1.0, p1 * math.exp(m))
        if not _close(row["p_first_order"], p1, 1e-12):
            misses.append(f"x={x} {side}: p_first_order {row['p_first_order']!r} vs ndtr {p1!r}")
        if not (0.0 <= row["p_corrected"] <= 1.0):
            misses.append(f"x={x} {side}: p_corrected {row['p_corrected']!r} outside [0, 1]")
        elif not _close(row["p_corrected"], p, 1e-6):
            misses.append(f"x={x} {side}: p_corrected {row['p_corrected']!r} vs reference {p!r}")
    return misses


def _check_moments(op, ref, payload) -> list:
    misses = _summary_misses(payload.get("summary"), ref["summary"], "summary")
    for frame, fref in ref["frames"].items():
        got = payload.get("frames", {}).get(frame)
        misses += _summary_misses(got, fref, f"frame {frame}")
    return misses


def _mc_allowed(p_ref: float, trials: int, ref_trials: int | None) -> float:
    var = p_ref * (1.0 - p_ref) * (1.0 / trials + (1.0 / ref_trials if ref_trials else 0.0))
    return MC_HALFWIDTHS * _Z99 * math.sqrt(var) + 1.0 / trials


def _check_simulate(op, ref, payload) -> list:
    got = payload.get("summary")
    misses = _summary_misses(got, ref["summary"], "summary")
    if misses:
        return misses
    if payload.get("trials") != op.trials:
        misses.append(f"trials {payload.get('trials')!r} vs requested {op.trials}")
    rows = payload.get("results", [])
    if [r.get("x") for r in rows] != list(op.xs):
        return misses + [f"result rows for x={[r.get('x') for r in rows]} vs {list(op.xs)}"]
    sigma = math.sqrt(got["var"])
    sign = 1.0 if op.side == "upper" else -1.0
    for row, x in zip(rows, op.xs):
        thr = row["threshold"]
        if not _close(thr, got["mean"] + sign * x * sigma, 1e-12, sigma):
            misses.append(f"x={x}: threshold {thr!r} is not mean {sign:+g} x sigma")
        p1 = float(ndtr(-x))
        if not _close(row["p_first_order"], p1, 1e-12):
            misses.append(f"x={x}: p_first_order {row['p_first_order']!r} vs ndtr {p1!r}")
        if not (0.0 <= row["p_corrected"] <= 1.0):
            misses.append(f"x={x}: p_corrected {row['p_corrected']!r} outside [0, 1]")
        if not (row["ci_low"] <= row["p_hat"] <= row["ci_high"]):
            misses.append(f"x={x}: p_hat {row['p_hat']!r} outside its own interval")
        if "exact" in ref:
            law = ref["exact"]
            beyond = (lambda j: j > thr) if op.side == "upper" else (lambda j: j < thr)
            p_ref = math.fsum(p for j, p in law.items() if beyond(j))
            allowed = _mc_allowed(p_ref, op.trials, None)
            source = "exact occupancy law"
        else:
            values = ref["sample"]
            if op.side == "upper":
                p_ref = 1.0 - np.searchsorted(values, thr, side="right") / values.size
            else:
                p_ref = np.searchsorted(values, thr, side="left") / values.size
            allowed = _mc_allowed(p_ref, op.trials, values.size)
            source = "reference sampler"
        if abs(row["p_hat"] - p_ref) > allowed:
            misses.append(f"x={x}: p_hat {row['p_hat']!r} vs {source} {p_ref!r} "
                          f"(allowed {allowed:.4g})")
    return misses


def _law_tail_misses(got, law, t, side, label) -> list:
    tail, near = law.tail(t, side)
    if isinstance(got, float) and tail - 1e-10 <= got <= tail + near + 1e-10:
        return []
    return [f"{label}: {got!r} vs exact {tail!r} (+{near!r} at the threshold)"]


def _check_enumerate(op, ref, payload) -> list:
    law = ref["law"]
    sref = ref["summary"]
    misses = []
    scale = math.sqrt(law.var()) + 1.0
    for q, value in (("mean", law.mean()), ("var", law.var())):
        if not _close(payload.get(q), value, 1e-9, scale):
            misses.append(f"{q} {payload.get(q)!r} vs exact law {value!r}")
    for q, value in ref.get("closed", {}).items():
        if not _close(payload.get(q), value, 1e-9, scale):
            misses.append(f"{q} {payload.get(q)!r} vs closed form {value!r}")
    sigma = math.sqrt(sref["var"])
    rows = payload.get("tails", [])
    if [r.get("x") for r in rows] != list(op.xs):
        return misses + [f"tail rows for x={[r.get('x') for r in rows]} vs {list(op.xs)}"]
    for row, x in zip(rows, op.xs):
        thr = sref["mean"] + x * sigma
        if not _close(row["threshold"], thr, 1e-8, sigma):
            misses.append(f"x={x}: threshold {row['threshold']!r} vs reference {thr!r}")
        misses += _law_tail_misses(row["p_upper_exact"], law, row["threshold"], "upper",
                                   f"x={x} upper")
        misses += _law_tail_misses(row["p_lower_exact"], law, sref["mean"] - x * sigma,
                                   "lower", f"x={x} lower")
    if op.atoms:
        atoms = payload.get("atoms", [])
        values = np.array([a["value"] for a in atoms])
        probs = np.array([a["prob"] for a in atoms])
        total = math.fsum(probs.tolist())
        if abs(total - 1.0) > 1e-12:
            misses.append(f"atom mass {total!r}, not 1")
        mids = 0.5 * (law.values[1:] + law.values[:-1])
        for t in mids:
            got = math.fsum(probs[values <= t].tolist())
            if abs(got - law.cdf(t)) > 1e-10:
                misses.append(f"atoms: cdf at {t!r} is {got!r} vs exact {law.cdf(t)!r}")
                break
    return misses


_RNG_NAMES = ("chi_square", "log_likelihood", "empty_cells", "collisions")


def _check_rngtest(op, ref, payload) -> list:
    misses = []
    if payload.get("words_consumed") != ref["consumed"]:
        misses.append(f"words_consumed {payload.get('words_consumed')!r} vs {ref['consumed']}")
    if payload.get("accepted") != ref["accepted"]:
        misses.append(f"accepted {payload.get('accepted')!r} vs {ref['accepted']}")
    stats = payload.get("statistics", [])
    if [s.get("statistic") for s in stats] != list(_RNG_NAMES):
        return misses + [f"statistics {[s.get('statistic') for s in stats]}"]
    for got, want in zip(stats, ref["stats"]):
        name = got["statistic"]
        if not _close(got["observed"], want["observed"], 1e-12, 1.0):
            misses.append(f"{name}: observed {got['observed']!r} vs {want['observed']!r}")
        s = want["summary"]
        if not _close(got["mean"], s["mean"], SUMMARY_RTOL, math.sqrt(s["raw_var"])):
            misses.append(f"{name}: mean {got['mean']!r} vs reference {s['mean']!r}")
        if not _close(got["sigma"], math.sqrt(s["var"]), SUMMARY_RTOL):
            misses.append(f"{name}: sigma {got['sigma']!r} vs reference {math.sqrt(s['var'])!r}")
        if got.get("rule") != "exact":
            misses.append(f"{name}: rule {got.get('rule')!r}, expected the exact branch")
        if not abs(got["p_value"] - want["p_value"]) <= 1e-10:
            misses.append(f"{name}: p_value {got['p_value']!r} vs exact {want['p_value']!r}")
    return misses


def check_output(op, ref, text: str) -> list:
    """Misses of one op output against its references."""
    try:
        payload = json.loads(text)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    try:
        return globals()[f"_check_{op.cmd}"](op, ref, payload)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"output lacks a checked field: {exc!r}"]
