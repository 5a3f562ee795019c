"""One set-up probe: import multitails.cli in a fresh interpreter and
generate the workload's inputs.  The caller times the whole process.

Usage: python3 perfbench/probe.py <checkout root> <workload> <seed> <dir>
"""

import sys
from pathlib import Path

root = Path(sys.argv[1])
sys.path.insert(0, str(root / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import multitails.cli  # noqa: E402,F401

from mtbench.workloads import generate  # noqa: E402

generate(sys.argv[2], int(sys.argv[3]), Path(sys.argv[4]))
