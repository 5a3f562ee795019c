"""multitails benchmark: four workloads of in-process CLI calls.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Set-up time is the median of three fresh interpreters that import
multitails.cli and generate the inputs.  References are computed next,
without the program.  A child process then runs the workload's op list
in a closed loop (one client, ``--workers 1``) and reports timings and
its peak RSS; every distinct output is checked here.  With ``--trace 0``
the last line holds the end-to-end metrics; with ``--trace 1`` it holds
the per-layer metrics from the wrapped run and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from mtbench import checks, workloads  # noqa: E402
from mtbench.stats import percentile  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 3
MIN_OPS = 100  # so p90 has at least ten samples beyond it
DEADLINE_S = 170.0
WORK_DIR = ".perfbench_work"

THROUGHPUT_NAME = {
    "distinct rates summarized": "summary_rates_per_s",
    "Monte Carlo trials": "mc_trials_per_s",
    "compositions enumerated": "enum_compositions_per_s",
}


class BenchError(RuntimeError):
    pass


def _median_setup(root: Path, name: str, seed: int, work: Path) -> tuple[float, list]:
    times = []
    for i in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(root), name, str(seed),
             str(work / f"probe{i}")],
            check=True, timeout=60, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times), times


def _run_child(root: Path, plan: dict, work: Path, timeout: float) -> dict:
    plan_path = work / "plan.json"
    result_path = work / "result.json"
    plan_path.write_text(json.dumps(plan))
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(root), str(plan_path), str(result_path)],
        timeout=timeout, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0:
        raise BenchError(f"workload process failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    return json.loads(result_path.read_text())


def _verdicts(wl, refs, run: dict) -> dict:
    """Misses for every distinct output; None for an op that raised."""
    verdicts = {}
    ops = {op.id: op for op in wl.ops}
    for key, res in run["outputs"].items():
        op = ops[int(key.split(":")[0])]
        if res["rc"] == 0:
            verdicts[key] = checks.check_output(op, refs[op.id], res["out"])
        else:
            verdicts[key] = None
    return verdicts


def _tally(run: dict, verdicts: dict) -> dict:
    typed = misses = crashes = 0
    for _, op_id, _, rc, digest in run["records"]:
        v = verdicts[f"{op_id}:{digest}"]
        if rc == "crash":
            crashes += 1
        elif rc != 0:
            typed += 1
        elif v:
            misses += 1
    attempted = len(run["records"])
    return {"attempted": attempted, "typed": typed, "misses": misses, "crashes": crashes,
            "failed": typed + misses + crashes}


def _failure_lines(wl, run: dict, verdicts: dict) -> list:
    lines = []
    ops = {op.id: op for op in wl.ops}
    for key, res in sorted(run["outputs"].items(), key=lambda kv: int(kv[0].split(":")[0])):
        op = ops[int(key.split(":")[0])]
        what = " ".join(op.argv[:1] + [a for a in op.argv[1:] if not a.startswith("/")])
        if res["rc"] != 0:
            last = (res["err"].strip().splitlines() or [""])[-1]
            lines.append(f"  op {op.id} [{what}] exit {res['rc']}: {last}")
        elif verdicts[key]:
            lines.append(f"  op {op.id} [{what}] reference miss: {'; '.join(verdicts[key][:3])}")
    return lines


def _end_to_end(wl, run: dict, tally: dict, setup_s: float, rss_kb: int) -> dict:
    """Timings are medians: of the pass totals, and of all op times."""
    durs = [r[2] for r in run["records"]]
    wall = statistics.median(_pass_totals(run))
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (len(wl.ops) / wall, "1/s"),
        "op_p50_ms": (1e3 * percentile(durs, 0.5), "ms"),
        "op_p90_ms": (1e3 * percentile(durs, 0.9), "ms"),
        "ok_ratio": (1.0 - tally["failed"] / tally["attempted"], "ratio"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "work_per_s": (sum(op.units for op in wl.ops) / wall, "1/s"),
    }


def run_workload(root: Path, name: str, seed: int, seconds: int, trace: bool,
                 deadline: float) -> tuple[dict, list]:
    work = root / WORK_DIR / f"{name}-{seed}-{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup_s, setup_all = _median_setup(root, name, seed, work)
    wl = workloads.generate(name, seed, work / "inputs")
    refs, ref_info = checks.build_refs(wl, seed)
    plan = {"ops": [{"id": op.id, "argv": op.argv} for op in wl.ops], "seconds": seconds,
            "trace": trace, "min_ops": MIN_OPS, "trace_path": str(work / "spans.jsonl")}
    (work / "ops.json").write_text(json.dumps([asdict(op) for op in wl.ops], default=str))
    result = _run_child(root, plan, work, deadline - time.monotonic())
    run = result["untraced"]
    verdicts = _verdicts(wl, refs, run)
    tally = _tally(run, verdicts)
    # Every op outcome is checked: typed errors, crashes and reference
    # misses are all counted in "failed", and ok_ratio's bound rejects a
    # change that fails one more op.  "correct" turns false only when the
    # verification itself cannot be trusted: tracing changed an output.
    correct = True
    lines = [
        f"workload {name} seed {seed}: {tally['attempted']} ops in {run['passes']} passes "
        f"of {len(wl.ops)} ops; models {', '.join(wl.models)}",
        f"  references: {ref_info['ref_s']:.2f} s; grid rates certified against mpmath "
        f"{ref_info['certified_rates']}, rates summed in mpmath {ref_info['mp_rates']}",
    ]
    if trace:
        tverdicts = _verdicts(wl, refs, result["traced"])
        ttally = _tally(result["traced"], tverdicts)
        correct = result["identical"]
        plain_wall = statistics.median(_pass_totals(run))
        traced_wall = statistics.median(_pass_totals(result["traced"]))
        metrics = dict(result["layers"])
        metrics["trace.overhead_ratio"] = traced_wall / plain_wall
        units = _layer_units()
        lines.append(f"  traced outputs byte-identical to untraced: {result['identical']}; "
                     f"{result['traced']['passes']} traced passes, {run['passes']} untraced")
        for key, value in metrics.items():
            lines.append(f"  {key:<45s} {value:14.6g} {units[key]}")
        out_metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        tally = {k: tally[k] + ttally[k] for k in tally}
    else:
        e2e = _end_to_end(wl, run, tally, setup_s, result["peak_rss_kb"])
        n = tally["attempted"]
        notes = {
            "setup_s": f"median of {SETUP_PROBES}: " + ", ".join(f"{t:.3f}" for t in setup_all),
            "wall_s": f"median over {run['passes']} passes of the op list",
            "ops_per_s": f"{len(wl.ops)} ops per pass over wall_s",
            "op_p50_ms": f"n={n}",
            "op_p90_ms": f"n={n}, {n - math.ceil(0.9 * n)} beyond",
            "ok_ratio": (f"fail_ratio {tally['failed'] / n:.6f}: {tally['failed']} of {n} "
                         f"(typed errors {tally['typed']}, reference misses {tally['misses']}, "
                         f"crashes {tally['crashes']})"),
            "peak_rss_mb": "workload process",
            "work_per_s": f"{THROUGHPUT_NAME[wl.unit]}: {wl.unit} per pass over wall_s",
        }
        for key, (value, unit) in e2e.items():
            lines.append(f"  {key:<12s} {value:14.6g} {unit:<6s} {notes[key]}")
        out_metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    lines.append(
        f"  reference check: {tally['attempted'] - tally['failed']} of {tally['attempted']} "
        f"ops matched every reference; {tally['misses']} missed one, {tally['typed']} "
        f"exited with a typed error, {tally['crashes']} crashed (all counted in failed)")
    lines += _failure_lines(wl, run, verdicts)
    return {"correct": correct, "attempted": tally["attempted"], "failed": tally["failed"],
            "metrics": out_metrics}, lines


def _pass_totals(run: dict) -> list:
    totals: dict = {}
    for p, _, dur, _, _ in run["records"]:
        totals[p] = totals.get(p, 0.0) + dur
    return list(totals.values())


def _layer_units() -> dict:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "multitails" / "cli.py").is_file():
        print(f"error: no multitails source under {root / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            results[name], lines = run_workload(
                root, name, args.seed, args.seconds, bool(args.trace), deadline)
            print("\n".join(lines), flush=True)
    except (BenchError, subprocess.SubprocessError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
