"""Layer tracing from outside the program.

Each traced function is replaced, in the module namespace its caller
looks it up in, by a wrapper that records a span (name, start, end,
parent, op id) and adds its duration to the parent's child time, so
self time is a span's duration minus the time its child spans cover.
Hot leaf functions (``expect_fn`` and ``statistic_value``, called per
rate and per trial or composition) are aggregated per parent span name
instead of stored one by one.  ``restore`` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, attribute, span name, kind); the attribute is patched in the
# module that calls it, since each caller binds the name at import.
PATCHES = (
    ("multitails.kernels", "expect_fn", "poisson.expect_fn", "expect"),
    ("multitails.kernels", "moment_summary", "kernels.moment_summary", "summary"),
    ("multitails.cli", "moment_summary", "kernels.moment_summary", "summary"),
    ("multitails.cli", "g_second_moment_aggregates", "kernels.g_second_moment_aggregates", "span"),
    ("multitails.cli", "statistic_value", "kernels.statistic_value", "leaf"),
    ("multitails.oracle", "statistic_value", "kernels.statistic_value", "leaf"),
    ("multitails.cli", "zone_bound", "tails.zone_bound", "span"),
    ("multitails.cli", "correction_coeffs", "tails.correction_coeffs", "span"),
    ("multitails.cli", "tail_probability", "tails.tail_probability", "span"),
    ("multitails.cli", "mc_tail_estimate", "oracle.mc_tail_estimate", "mc"),
    ("multitails.cli", "enumerate_distribution", "oracle.enumerate_distribution", "enumerate"),
    ("multitails.cli", "uniform_model", "model.build", "build"),
    ("multitails.cli", "power_law_model", "model.build", "build"),
    ("multitails.cli", "perturbed_uniform_model", "model.build", "build"),
    ("multitails.cli", "explicit_model", "model.build", "build"),
    ("multitails.cli", "probs_from_csv", "model.build", "span"),
    ("multitails.model:MultinomialModel", "rate_groups", "model.rate_groups", "span"),
)

# Rate buckets for the per-call cost of one Poisson expectation.
LAM_BUCKETS = (
    ("lam_lt1", 1.0), ("lam_1_10", 10.0), ("lam_10_100", 100.0),
    ("lam_100_1e4", 1e4), ("lam_ge1e4", math.inf),
)


def _bucket(lam: float) -> str:
    for name, upper in LAM_BUCKETS:
        if lam < upper:
            return name
    return LAM_BUCKETS[-1][0]


def _target(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []  # [span index, child time, name]
        self.op = -1
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.leaf = defaultdict(lambda: [0, 0.0])  # (name, parent name) -> [calls, s]
        self.counts = defaultdict(float)
        self._distinct: dict = {}
        self._patches: list = []

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for path, attr, name, kind in PATCHES:
            owner = _target(path)
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, kind, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def start_op(self, op_id: int) -> None:
        self.op = op_id
        self._distinct.clear()

    def distinct_rates(self, model) -> int:
        key = id(model)
        if key not in self._distinct:
            self._distinct[key] = (model, int(np.unique(model.rates).size))
        return self._distinct[key][1]

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, kind: str, fn):
        if kind == "leaf":
            return self._leaf(name, fn)
        if kind == "expect":
            return self._expect(fn)
        return self.span(name, fn, getattr(self, f"_after_{kind}", None))

    def span(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            frame = [len(tracer.spans), 0.0, name]
            tracer.spans.append(None)
            tracer.stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                dur = end - start
                tracer.spans[frame[0]] = (name, start, end, parent[0] if parent else -1, tracer.op)
                tracer.calls[name] += 1
                tracer.total[name] += dur
                tracer.self_time[name] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _leaf_done(self, name: str, dur: float) -> None:
        parent = self.stack[-1] if self.stack else None
        slot = self.leaf[(name, parent[2] if parent else "")]
        slot[0] += 1
        slot[1] += dur
        self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur
        if parent is not None:
            parent[1] += dur

    def _leaf(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._leaf_done(name, perf_counter() - start)

        return wrapper

    def _expect(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(f, lam, *args, **kwargs):
            terms = [0]

            def counted(k):
                terms[0] += 1
                return f(k)

            start = perf_counter()
            try:
                return fn(counted, lam, *args, **kwargs)
            finally:
                dur = perf_counter() - start
                tracer._leaf_done("poisson.expect_fn", dur)
                bucket = _bucket(float(lam))
                tracer.counts["expect_fn.terms"] += terms[0]
                tracer.counts[f"expect_fn.{bucket}.calls"] += 1
                tracer.counts[f"expect_fn.{bucket}.s"] += dur

        return wrapper

    def _after_summary(self, args, kwargs, result) -> None:
        model = args[0] if args else kwargs["model"]
        self.counts["summary.rates"] += self.distinct_rates(model)

    def _after_build(self, args, kwargs, result) -> None:
        self.counts["build.models"] += 1
        self.counts["build.distinct_rates"] += self.distinct_rates(result)

    def _after_mc(self, args, kwargs, result) -> None:
        self.counts["mc.trials"] += result.trials

    def _after_enumerate(self, args, kwargs, result) -> None:
        model = args[0] if args else kwargs["model"]
        self.counts["enumerate.compositions"] += math.comb(
            model.n + model.num_cells - 1, model.num_cells - 1
        )

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        """Spans one JSON line each, then the leaf aggregates."""
        with open(path, "w") as fh:
            for span in self.spans:
                if span is not None:
                    name, start, end, parent, op = span
                    fh.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "op": op}) + "\n")
            for (name, parent), (calls, secs) in sorted(self.leaf.items()):
                fh.write(json.dumps({"leaf": name, "parent": parent,
                                     "calls": calls, "s": secs}) + "\n")

    def metrics(self, passes: int, bytes_emitted: int) -> dict:
        """Per-layer metrics, per pass of the workload's op list."""

        def per_pass(x):
            return x / passes

        def us(total, count):
            return 1e6 * total / count if count else 0.0

        c = self.counts
        stat_mc = self.leaf[("kernels.statistic_value", "oracle.mc_tail_estimate")]
        stat_enum = self.leaf[("kernels.statistic_value", "oracle.enumerate_distribution")]
        out = {
            "poisson.expect_fn.calls": per_pass(self.calls["poisson.expect_fn"]),
            "poisson.expect_fn.terms": per_pass(c["expect_fn.terms"]),
            "poisson.expect_fn.self_s": per_pass(self.self_time["poisson.expect_fn"]),
        }
        for bucket, _ in LAM_BUCKETS:
            out[f"poisson.expect_fn.us_per_call.{bucket}"] = us(
                c[f"expect_fn.{bucket}.s"], c[f"expect_fn.{bucket}.calls"])
        mc_us = us(self.total["oracle.mc_tail_estimate"], c["mc.trials"])
        stat_us = us(stat_mc[1], c["mc.trials"])
        out.update({
            "model.build_s": per_pass(self.total["model.build"]),
            "model.rate_groups.calls": per_pass(self.calls["model.rate_groups"]),
            "model.rate_groups.s": per_pass(self.total["model.rate_groups"]),
            "model.distinct_rates": (c["build.distinct_rates"] / c["build.models"]
                                     if c["build.models"] else 0.0),
            "kernels.moment_summary.calls": per_pass(self.calls["kernels.moment_summary"]),
            "kernels.moment_summary.self_s": per_pass(self.self_time["kernels.moment_summary"]),
            "kernels.moment_summary.us_per_rate": us(
                self.total["kernels.moment_summary"], c["summary.rates"]),
            "kernels.g_second_moment_aggregates.calls": per_pass(
                self.calls["kernels.g_second_moment_aggregates"]),
            "kernels.g_second_moment_aggregates.self_s": per_pass(
                self.self_time["kernels.g_second_moment_aggregates"]),
            "kernels.statistic_value.calls": per_pass(self.calls["kernels.statistic_value"]),
            "kernels.statistic_value.us_per_call": us(
                self.total["kernels.statistic_value"], self.calls["kernels.statistic_value"]),
            "tails.zone_bound.us_per_call": us(
                self.total["tails.zone_bound"], self.calls["tails.zone_bound"]),
            "tails.correction_coeffs.us_per_call": us(
                self.total["tails.correction_coeffs"], self.calls["tails.correction_coeffs"]),
            "tails.tail_probability.us_per_call": us(
                self.total["tails.tail_probability"], self.calls["tails.tail_probability"]),
            "oracle.mc.us_per_trial": mc_us,
            "oracle.mc.statistic_us_per_trial": stat_us,
            "oracle.mc.rng_us_per_trial": mc_us - stat_us,
            "oracle.enumerate.us_per_composition": us(
                self.total["oracle.enumerate_distribution"], c["enumerate.compositions"]),
            "oracle.enumerate.kept_ratio": (stat_enum[0] / c["enumerate.compositions"]
                                            if c["enumerate.compositions"] else 0.0),
            "cli.main.self_s": per_pass(self.self_time["cli.main"]),
            "cli.bytes_emitted": per_pass(bytes_emitted),
        })
        return out
