"""Command-line front end.

Subcommands: moments (summaries), tail (corrected approximations),
enumerate (exact small-model distributions), simulate (seeded Monte
Carlo against the approximations), rngtest (statistic suite over a raw
word stream).  Exit codes: 0 success, 2 configuration or evaluation
problem (including an unreadable or malformed input file), 3 unsupported
model/statistic combination, 4 input stream exhausted.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .errors import (
    EvaluationError,
    InputExhaustedError,
    ModelValidationError,
    UnsupportedCombinationError,
)
from .kernels import (
    FRAMES,
    Kernel,
    LevelDistribution,
    frame_map,
    g_second_moment_aggregates,
    moment_summary,
    parse_kernel_spec,
    statistic_value,
)
from .model import (
    MultinomialModel,
    classify_regime,
    explicit_model,
    perturbed_uniform_model,
    power_law_model,
    probs_from_csv,
    uniform_model,
)
from .oracle import enumerate_distribution, enumerate_distributions, mc_tail_estimate
from .tails import check_zone_fraction, correction_coeffs, tail_probability, zone_bound

__all__ = ["main"]


def _require(args, *names):
    for name in names:
        if getattr(args, name.replace("-", "_"), None) is None:
            raise ModelValidationError(f"--{name} is required for this invocation")


def _model_from_args(args) -> MultinomialModel:
    family = args.model
    if family == "uniform":
        _require(args, "n", "cells")
        return uniform_model(args.n, args.cells)
    if family == "powerlaw":
        _require(args, "n", "cells", "alpha")
        return power_law_model(args.n, args.cells, args.alpha)
    if family == "perturbed":
        _require(args, "n", "cells", "delta", "ell-file")
        ell = _read_input(args.ell_file, _floats_from_text, "perturbation file")
        return perturbed_uniform_model(args.n, args.cells, args.delta, ell)
    if family == "file":
        _require(args, "n", "probs-file")
        probs = _read_input(args.probs_file, probs_from_csv, "probability file")
        return explicit_model(args.n, probs)
    raise ModelValidationError(f"unknown model family {family!r}")


def _read_input(path: str, parse, what: str):
    """parse(text) of an input file; failing to read or parse it is a validation error."""
    try:
        return parse(Path(path).read_text())
    except OSError as exc:
        raise ModelValidationError(f"cannot read {what} {path!r}: {exc.strerror}") from None
    except ModelValidationError:
        raise
    except ValueError as exc:
        raise ModelValidationError(f"malformed {what} {path!r}: {exc}") from None


def _floats_from_text(text: str) -> list[float]:
    out = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            out.append(float(line))
    return out


def _kernel_from_args(args) -> Kernel:
    _require(args, "kernel")
    return parse_kernel_spec(
        args.kernel,
        load_levels=lambda path: _read_input(path, LevelDistribution.from_csv, "level file"),
    )


def _emit(payload: dict, rows: list[dict], fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(_json_text(payload) + "\n")
        return
    writer = csv.DictWriter(sys.stdout, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)


def _json_records(rows) -> str | None:
    """A non-empty list of dicts with the same str keys in the same order,
    every value a float (np.float64 included), as json.dumps(rows,
    indent=2) writes it as a value of a top-level dict; None for any other
    object.

    Each column is formatted by one call of the C encoder, whose float
    reprs hold no ", " to split on, and each row fills one template.
    """
    if type(rows) is not list or not rows or type(rows[0]) is not dict:
        return None
    keys = list(rows[0])
    if (
        not keys
        or not all(isinstance(k, str) for k in keys)
        or set(map(type, rows)) != {dict}
        or not all(map(keys.__eq__, map(list, rows)))
    ):
        return None
    cols = [[r[k] for r in rows] for k in keys]
    if not all(issubclass(t, float) for col in cols for t in set(map(type, col))):
        return None
    texts = [json.dumps(col)[1:-1].split(", ") for col in cols]
    template = (
        "{\n      "
        + ",\n      ".join(encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in keys)
        + "\n    }"
    )
    return "[\n    " + ",\n    ".join(template % r for r in zip(*texts)) + "\n  ]"


def _json_text(o) -> str:
    """json.dumps(o, indent=2), byte for byte.

    A top-level value of a str-keyed dict that _json_records takes is
    written as null by json.dumps and then spliced in by _json_records.
    """
    if type(o) is not dict or not all(isinstance(k, str) for k in o):
        return json.dumps(o, indent=2)
    records = {k: text for k, v in o.items() if (text := _json_records(v)) is not None}
    text = json.dumps({k: None if k in records else v for k, v in o.items()}, indent=2)
    for key, value in records.items():
        # json.dumps escapes every newline inside a string and indents
        # nested items by four or more spaces, so a newline, two spaces
        # and a quoted key can only start that key's top-level item.
        item = "\n  " + encode_basestring_ascii(key) + ": "
        text = text.replace(item + "null", item + value, 1)
    return text


def _header(model, kernel) -> dict:
    model_spec = {"n": model.n, "cells": model.num_cells, "family": model.family}
    return {"model": model_spec, "kernel": kernel.to_spec()}


def _zone_payload(model, kernel, summary):
    try:
        info = zone_bound(model, kernel, summary)
    except UnsupportedCombinationError as exc:
        return None, {"error": str(exc)}
    return info, {
        "zone": info.zone,
        "rule": info.rule,
        "nu": info.nu,
        "scale": info.scale,
    }


def _cmd_moments(args) -> int:
    model, kernel = _model_from_args(args), _kernel_from_args(args)
    regime = classify_regime(model)
    summary = moment_summary(model, kernel, method=args.method, frame=args.frame)
    _, zone = _zone_payload(model, kernel, summary)
    payload = {
        **_header(model, kernel),
        "regime": regime.tag.value,
        "uniform": regime.uniform,
        "method": args.method,
        "summary": summary.to_dict(),
        "zone": zone,
    }
    if kernel.family == "pds":
        # The raw power-sum and the calibrated divergence scalings are two
        # affine frames of the same statistic; report both, mapped from the
        # summary at hand where an exact map exists.  Closed forms are
        # stated per frame, so that route asks for each frame itself; a
        # frame it cannot reach is reported as such, not fatal.
        frames = {}
        for frame in ("power", "divergence"):
            fmap = None
            if args.method != "closed_form":
                fmap = frame_map(model, kernel, summary.frame, frame)
            try:
                if fmap is None:
                    derived = moment_summary(model, kernel, method=args.method, frame=frame)
                else:
                    derived = fmap.summary(summary, model.n, frame)
                frames[frame] = derived.to_dict()
            except UnsupportedCombinationError as exc:
                frames[frame] = {"error": str(exc)}
        payload["frames"] = frames
    row = {
        "n": model.n,
        "cells": model.num_cells,
        "kernel": args.kernel,
        "regime": payload["regime"],
        **summary.to_dict(),
    }
    _emit(payload, [row], args.format)
    return 0


def _corrections(model, kernel, summary, order):
    """(correction coefficients, zone) for a summary; order 2 needs the aggregates."""
    aggregates = g_second_moment_aggregates(model, kernel, summary) if order == 2 else None
    coeffs = correction_coeffs(summary, model.n, order=order, aggregates=aggregates)
    return coeffs, zone_bound(model, kernel, summary)


def _tail_rows(model, kernel, summary, xs, sides, order, zone_fraction):
    coeffs, info = _corrections(model, kernel, summary, order)
    rows = []
    for x in xs:
        for side in sides:
            res = tail_probability(x, side, summary, coeffs, info, zone_fraction)
            rows.append(res.to_dict())
    return coeffs, info, rows


def _parse_x_grid(raw) -> list[float]:
    """Flatten repeated --x flags, each a comma separated grid."""
    xs: list[float] = []
    for chunk in raw or []:
        for part in str(chunk).split(","):
            part = part.strip()
            if not part:
                continue
            try:
                xs.append(float(part))
            except ValueError:
                raise ModelValidationError(f"bad --x entry {part!r}") from None
    return xs


def _cmd_tail(args) -> int:
    model, kernel = _model_from_args(args), _kernel_from_args(args)
    xs = _parse_x_grid(args.x)
    if not xs:
        raise ModelValidationError("at least one --x is required")
    summary = moment_summary(model, kernel, method=args.method, frame=args.frame)
    sides = ["upper", "lower"] if args.side == "both" else [args.side]
    coeffs, info, rows = _tail_rows(
        model, kernel, summary, xs, sides, args.order, args.zone_fraction
    )
    payload = {
        **_header(model, kernel),
        "summary": summary.to_dict(),
        "order": args.order,
        "mu0": coeffs.mu0,
        "mu1": coeffs.mu1,
        "zone": {"zone": info.zone, "rule": info.rule, "nu": info.nu, "scale": info.scale},
        "tails": rows,
    }
    _emit(payload, rows, args.format)
    return 0


def _cmd_enumerate(args) -> int:
    model, kernel = _model_from_args(args), _kernel_from_args(args)
    dist = enumerate_distribution(model, kernel, frame=args.frame)
    stats = {"atom_count": len(dist.values), "mean": dist.mean(), "var": dist.var()}
    payload, rows = {**_header(model, kernel), **stats}, [stats]
    xs = _parse_x_grid(args.x)
    if xs:
        summary = moment_summary(model, kernel, method=args.method, frame=args.frame)
        mean, sigma = summary.mean, summary.sigma
        rows = payload["tails"] = [
            {
                "x": x,
                "threshold": mean + x * sigma,
                "p_upper_exact": dist.tail_prob(mean + x * sigma, "upper"),
                "p_lower_exact": dist.tail_prob(mean - x * sigma, "lower"),
            }
            for x in xs
        ]
    if args.atoms:
        rows = payload["atoms"] = [{"value": v, "prob": p} for v, p in zip(dist.values, dist.probs)]
    _emit(payload, rows, args.format)
    return 0


def _cmd_simulate(args) -> int:
    model, kernel = _model_from_args(args), _kernel_from_args(args)
    xs = _parse_x_grid(args.x)
    if not xs:
        raise ModelValidationError("at least one --x is required")
    summary = moment_summary(model, kernel, method=args.method, frame=args.frame)
    coeffs, info = _corrections(model, kernel, summary, args.order)
    est = mc_tail_estimate(
        model,
        kernel,
        summary,
        xs,
        trials=args.trials,
        seed=args.seed,
        side=args.side,
        frame=args.frame,
        workers=args.workers,
    )
    rows = []
    for i, x in enumerate(est.x):
        # approximations are defined for x >= 0; negative x rows carry
        # the Monte Carlo estimate alone
        p1, approx, in_zone, z = math.nan, math.nan, False, math.nan
        if x >= 0:
            res = tail_probability(x, args.side, summary, coeffs, info, args.zone_fraction)
            p1, approx, in_zone = res.p_first_order, res.p_corrected, res.in_zone
            z = (approx - est.p_hat[i]) / est.halfwidth(i)
        rows.append(
            {
                "x": x,
                "threshold": est.threshold[i],
                "p_hat": est.p_hat[i],
                "ci_low": est.ci_low[i],
                "ci_high": est.ci_high[i],
                "p_first_order": p1,
                "p_corrected": approx,
                "z_discrepancy": z,
                "in_zone": in_zone,
            }
        )
    payload = {
        **_header(model, kernel),
        "summary": summary.to_dict(),
        "order": args.order,
        "trials": est.trials,
        "seed": est.seed,
        "side": est.side,
        "zone": {"zone": info.zone, "rule": info.rule},
        "results": rows,
    }
    _emit(payload, rows, args.format)
    return 0


# -- rngtest -----------------------------------------------------------------

_RNGTEST_KERNELS = (
    ("chi_square", "pds:1"),
    ("log_likelihood", "pds:0"),
    ("empty_cells", "count:0"),
    ("collisions", "collisions"),
)

# Configurations with at most this many compositions are judged against
# the exact null law rather than the asymptotics.
_RNGTEST_EXACT_CAP = 10_000


def _read_binned_counts(stream, word_bits: int, cells: int, draws: int):
    """Bin accepted words into cells with unbiased rejection.

    Words are fixed-width big-endian integers; a word is accepted when
    below the largest multiple of the cell count that fits in the word
    range, then reduced modulo the cell count.  Returns (counts, words
    consumed, accepted total).
    """
    if word_bits not in (8, 16, 32, 64):
        raise ModelValidationError("word bits must be one of 8, 16, 32, 64")
    if cells < 2:
        raise ModelValidationError(f"at least 2 cells are needed, got {cells}")
    space = 1 << word_bits
    if cells > space:
        raise ModelValidationError(
            f"{cells} cells cannot be binned from {word_bits}-bit words"
        )
    limit = (space // cells) * cells
    word_bytes = word_bits // 8
    dtype = {8: ">u1", 16: ">u2", 32: ">u4", 64: ">u8"}[word_bits]
    counts = np.zeros(cells, dtype=np.int64)
    consumed = 0
    accepted = 0
    chunk_words = 1 << 16
    while accepted < draws:
        raw = stream.read(chunk_words * word_bytes)
        if not raw:
            raise InputExhaustedError(
                f"word stream exhausted after {consumed} words with "
                f"{accepted} of {draws} draws binned",
                consumed=consumed,
            )
        usable = len(raw) - (len(raw) % word_bytes)
        if usable == 0:
            raise InputExhaustedError(
                f"trailing {len(raw)} bytes do not form a {word_bytes}-byte word",
                consumed=consumed,
            )
        words = np.frombuffer(raw[:usable], dtype=dtype)
        mask = words < limit
        need = draws - accepted
        cum = np.cumsum(mask)
        if cum[-1] >= need:
            # stop exactly at the word that completes the last draw
            stop = int(np.searchsorted(cum, need)) + 1
            words = words[:stop]
            mask = mask[:stop]
        consumed += len(words)
        kept = (words[mask] % cells).astype(np.int64)
        counts += np.bincount(kept, minlength=cells)
        accepted += int(mask.sum())
    return counts, consumed, accepted


def _cmd_rngtest(args) -> int:
    if args.input == "-":
        stream = sys.stdin.buffer
    else:
        try:
            stream = open(args.input, "rb")
        except OSError as exc:
            raise ModelValidationError(
                f"cannot read word stream {args.input!r}: {exc.strerror}"
            ) from None
    try:
        counts, consumed, accepted = _read_binned_counts(
            stream, args.word_bits, args.cells, args.draws
        )
    finally:
        if stream is not sys.stdin.buffer:
            stream.close()
    model = uniform_model(args.draws, args.cells)
    # Tiny configurations are judged against the exact null law instead
    # of the asymptotics.
    enumerable = (
        math.comb(args.draws + args.cells - 1, args.cells - 1) <= _RNGTEST_EXACT_CAP
    )
    kernels = [parse_kernel_spec(spec) for _, spec in _RNGTEST_KERNELS]
    # one walk of the compositions gives every statistic's exact law
    dists = enumerate_distributions(model, kernels) if enumerable else [None] * len(kernels)
    stats = []
    for (name, _), kernel, dist in zip(_RNGTEST_KERNELS, kernels, dists):
        summary = moment_summary(model, kernel, method="series")
        observed = statistic_value(kernel, model, counts)
        x_obs = (observed - summary.mean) / summary.sigma
        if enumerable:
            p_value = dist.tail_prob(observed, "upper")
            in_zone, zone, rule = True, math.inf, "exact"
        else:
            coeffs, info = _corrections(model, kernel, summary, args.order)
            res = tail_probability(
                abs(x_obs), "upper" if x_obs >= 0.0 else "lower",
                summary, coeffs, info, args.zone_fraction,
            )
            # Out of zone the correction exponent is meaningless (it can
            # even overflow); fall back to the plain normal tail there.
            p_side = res.p_corrected if res.in_zone else res.p_first_order
            p_value = p_side if x_obs >= 0.0 else 1.0 - p_side
            in_zone, zone, rule = res.in_zone, info.zone, info.rule
        stats.append(
            {
                "statistic": name,
                "observed": observed,
                "mean": summary.mean,
                "sigma": summary.sigma,
                "x": x_obs,
                "p_value": p_value,
                "in_zone": in_zone,
                "zone": zone,
                "rule": rule,
            }
        )
    payload = {
        "cells": args.cells,
        "draws": args.draws,
        "word_bits": args.word_bits,
        "words_consumed": consumed,
        "accepted": accepted,
        "statistics": stats,
    }
    _emit(payload, stats, args.format)
    return 0


# -- parser ------------------------------------------------------------------

def _add_model_kernel_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--model",
        choices=("uniform", "powerlaw", "perturbed", "file"),
        default="uniform",
        help="cell probability family",
    )
    p.add_argument("--n", type=int, help="number of allocated items")
    p.add_argument("--cells", type=int, help="number of cells")
    p.add_argument("--alpha", type=float, help="power-law decay exponent")
    p.add_argument("--delta", type=float, help="perturbation amplitude")
    p.add_argument("--ell-file", help="perturbation profile, one value per line")
    p.add_argument("--probs-file", help="explicit probabilities, one per line")
    p.add_argument(
        "--kernel",
        help="statistic: pds:<d>, count:<r>, atleast:<r>, collisions, "
        "unfilled:<levels-file>",
    )
    p.add_argument(
        "--frame",
        choices=FRAMES,
        default="canonical",
        help="kernel form for the power-divergence family",
    )
    p.add_argument(
        "--method",
        choices=("auto", "series", "closed_form"),
        default="auto",
        help="moment summary evaluation route",
    )


def _add_x_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--x", action="append", metavar="GRID",
        help="standardized deviations, comma separated; repeatable",
    )


def _add_correction_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--order", type=int, choices=(0, 1, 2), default=1)
    p.add_argument("--zone-fraction", type=float, default=0.5)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="multitails",
        description="Tail approximations for statistics of multinomial allocations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, title, model_kernel=True):
        p = sub.add_parser(name, help=title)
        if model_kernel:
            _add_model_kernel_args(p)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.set_defaults(func=func)
        return p

    command("moments", _cmd_moments, "moment summary of a statistic")

    p = command("tail", _cmd_tail, "corrected tail approximations")
    _add_x_arg(p)
    p.add_argument("--side", choices=("upper", "lower", "both"), default="upper")
    _add_correction_args(p)

    p = command("enumerate", _cmd_enumerate, "exact distribution on a small model")
    _add_x_arg(p)
    p.add_argument("--atoms", action="store_true", help="dump every atom")

    p = command("simulate", _cmd_simulate, "Monte Carlo against the approximations")
    _add_x_arg(p)
    p.add_argument("--side", choices=("upper", "lower"), default="upper")
    _add_correction_args(p)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)

    p = command("rngtest", _cmd_rngtest, "statistic suite over a raw word stream",
                model_kernel=False)
    p.add_argument("--input", default="-", help="word stream file, or - for stdin")
    p.add_argument("--word-bits", type=int, default=64, choices=(8, 16, 32, 64))
    p.add_argument("--cells", type=int, default=1 << 16)
    p.add_argument("--draws", type=int, default=1 << 17)
    _add_correction_args(p)

    return parser


# Exit code of each typed error; the first entry that matches wins.
_EXIT_CODES = {
    ModelValidationError: 2,
    UnsupportedCombinationError: 3,
    InputExhaustedError: 4,
    EvaluationError: 2,
}


# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _keep_freed_heap() -> None:
    """Keep freed heap memory mapped for the rest of the process (glibc only).

    A summary allocates and frees window tables of up to about 1 MiB.  By
    default glibc returns the top of the heap to the system once more than
    twice its largest freed mapping lies free there, so the next summary
    page-faults the same memory in again: about 7,000 minor faults and a
    sixth of the time of the 15 tail and moments calls on 100-1,000-rate
    power-law models (2-core VM, Linux 6.18), a system-time cost that varies
    from run to run.  Arrays above 4 MiB are still mapped on their own and
    freed at once; at most 32 MiB of free heap is kept.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 4 << 20)
    mallopt(_M_TRIM_THRESHOLD, 32 << 20)


def main(argv=None) -> int:
    _keep_freed_heap()
    args = build_parser().parse_args(argv)
    try:
        # tail, simulate and rngtest take a zone fraction; check it before any work
        if "zone_fraction" in args:
            check_zone_fraction(args.zone_fraction)
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
