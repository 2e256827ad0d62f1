"""Traced ``spde-lab`` process: ``cli_child.py DUMP ARGV...``.

Imports spde_lab (timed), installs the span tracer, runs ``spde_lab.cli.main``
on ARGV and writes the spans, counters and import time to DUMP as JSON for
run.py to merge. Exits with the CLI's exit code.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

t0 = time.perf_counter()
import spde_lab  # noqa: E402
import spde_lab.cli  # noqa: E402

import_s = time.perf_counter() - t0

from perfbench.tracer import Tracer  # noqa: E402

dump_path, argv = sys.argv[1], sys.argv[2:]
tracer = Tracer()
tracer.install(spde_lab)
tracer.op = 0
tracer.enabled = True
try:
    rc = spde_lab.cli.main(argv)
finally:
    tracer.enabled = False
    Path(dump_path).write_text(json.dumps(dict(tracer.dump(), import_s=import_s)))
sys.exit(rc)
