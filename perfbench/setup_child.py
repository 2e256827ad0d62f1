"""One set-up sample: interpreter start, ``import spde_lab``, one-time construction.

Prints one JSON line ({"import_s": ...}) when ready for the first operation;
run.py times the interval from spawning this process to reading that line.
"""

import json
import sys
import time
from pathlib import Path
from types import SimpleNamespace

t0 = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import spde_lab  # noqa: E402
import spde_lab.cli  # noqa: E402,F401

import_s = time.perf_counter() - t0

from perfbench.workloads import WORKLOADS  # noqa: E402

workload, seed, size = sys.argv[1], int(sys.argv[2]), sys.argv[3]
ctx = SimpleNamespace(size=size, threads=1, out_dir=ROOT / ".perfbench_out", run_cli=None)
WORKLOADS[workload](seed, ctx).ops(0)
print(json.dumps({"import_s": import_s}), flush=True)
