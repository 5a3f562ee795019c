"""Run one workload's ops in this fresh process and write the timings.

Usage: python3 perfbench/child.py <checkout root> <plan.json> <result.json>

The plan gives the ops, the time budget, the minimum op count and
whether to trace.  Traced runs first time half the budget untraced,
then half with the layer wrappers installed, and compare the outputs.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path


def main(argv) -> int:
    root, plan_path, result_path = Path(argv[0]), Path(argv[1]), Path(argv[2])
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from multitails import cli

    from mtbench.loop import Passes
    from mtbench.tracer import Tracer

    if not Path(cli.__file__).resolve().is_relative_to(root.resolve()):
        raise SystemExit(f"multitails imported from {cli.__file__}, outside {root}")
    plan = json.loads(plan_path.read_text())
    ops = plan["ops"]
    result = {}
    if not plan["trace"]:
        run = Passes()
        run.run(ops, cli.main, plan["seconds"], plan["min_ops"])
        result["untraced"] = run.to_dict()
    else:
        plain = Passes()
        plain.run(ops, cli.main, plan["seconds"] / 2.0)
        tracer = Tracer()
        traced = Passes()
        tracer.install()
        try:
            traced.run(ops, tracer.span("cli.main", cli.main), plan["seconds"] / 2.0,
                       on_op=tracer.start_op)
        finally:
            tracer.restore()
        tracer.write(plan["trace_path"])
        result["untraced"] = plain.to_dict()
        result["traced"] = traced.to_dict()
        result["identical"] = plain.digests() == traced.digests()
        result["layers"] = tracer.metrics(traced.passes, traced.bytes_emitted)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
