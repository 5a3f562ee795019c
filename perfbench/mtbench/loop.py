"""Closed loop: one client calls ``multitails.cli.main`` op after op.

Each op starts when the previous one returns.  The op list is run in
whole passes until the time budget is spent and at least ``min_ops``
ops were timed.  Only the ``main`` call is timed; its stdout and stderr
are captured in memory.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import traceback
from time import perf_counter


def run_op(main, argv):
    """(seconds, return code, stdout, stderr); a crash has code "crash"."""
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            rc = "crash"
            err.write(traceback.format_exc())
        dur = perf_counter() - start
    return dur, rc, out.getvalue(), err.getvalue()


class Passes:
    """Timings of every op run and each distinct output of every op."""

    def __init__(self):
        self.records: list = []  # (pass index, op id, seconds, rc, digest)
        self.outputs: dict = {}  # "op:digest" -> {"rc", "out", "err"}
        self.passes = 0
        self.bytes_emitted = 0

    def run(self, ops, main, seconds: float, min_ops: int = 0, on_op=None) -> None:
        start = perf_counter()
        while True:
            for op in ops:
                if on_op is not None:
                    on_op(op["id"])
                dur, rc, out, err = run_op(main, op["argv"])
                digest = hashlib.sha1(f"{rc}\n{out}".encode()).hexdigest()[:16]
                self.outputs.setdefault(f"{op['id']}:{digest}", {"rc": rc, "out": out, "err": err})
                self.records.append((self.passes, op["id"], dur, rc, digest))
                self.bytes_emitted += len(out.encode())
            self.passes += 1
            if perf_counter() - start >= seconds and len(self.records) >= min_ops:
                return

    def digests(self) -> dict:
        """Distinct outputs of each op id."""
        seen: dict = {}
        for _, op_id, _, _, digest in self.records:
            seen.setdefault(op_id, set()).add(digest)
        return seen

    def to_dict(self) -> dict:
        return {"records": self.records, "outputs": self.outputs, "passes": self.passes,
                "bytes_emitted": self.bytes_emitted}
