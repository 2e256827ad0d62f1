"""spde-lab benchmark: one command runs one workload and prints its metrics.

    python3 perfbench/run.py --workload heat-conv --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/`` of
that checkout. ``--trace 0`` measures the end-to-end metrics; ``--trace 1``
runs one untraced reference cycle, installs the span tracer and reports the
per-layer metrics, the tracing overhead and whether traced outputs equal
the reference. ``--smoke`` shrinks every size so a run takes seconds (see
selftest.py). The last line of standard output is the result object; the
line before it, and a file under ``.perfbench_out/``, hold the details
(environment, tail latency, time to accuracy, failures, spans).
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# numpy, scipy and spde_lab are imported only after main() pins the BLAS
# thread count, which OpenBLAS reads when it loads

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "replicas_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "rng.normals": "count",
    "rng.draw_s": "s",
    "rng.ns_per_normal": "ns",
    "rng.blocks": "count",
    "rng.block_draw_mb_max": "MB",
    "rng.pool_util": "ratio",
    "kernels.heat_calls": "count",
    "kernels.heat_s": "s",
    "noise.factor_s": "s",
    "noise.cholesky_s": "s",
    "noise.cholesky_calls": "count",
    "noise.jitter_applied": "count",
    "noise.correlate_s": "s",
    "noise.cells": "count",
    "solvers.conv_s": "s",
    "solvers.picard_iter_s": "s",
    "solvers.point_weights_s": "s",
    "solvers.euler_s": "s",
    "solvers.wick_init_s": "s",
    "solvers.wick_march_s": "s",
    "moments.fk_s": "s",
    "moments.holder_fit_s": "s",
    "moments.estimate_s": "s",
    "conditions.quad_s": "s",
    "conditions.certificate_s": "s",
    "field.write_s": "s",
    "field.write_mb": "MB",
    "field.read_s": "s",
    "cli.import_s": "s",
    "cli.import_scipy_s": "s",
    "cli.main_s": "s",
    "trace.overhead_pct": "%",
}

SETUP_SAMPLES = 5
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# BLAS runs single-threaded so replica threads x BLAS threads <= nproc
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Context:
    """What the workloads need from the runner: sizes, threads, CLI launches."""

    def __init__(self, root: Path, size: str, threads: int, out_dir: Path, tracer=None):
        self.root, self.size, self.threads = root, size, threads
        self.out_dir, self.tracer = out_dir, tracer
        self.cli_imports = []  # spde_lab import seconds of traced CLI children
        self._children = 0

    def run_cli(self, argv) -> int:
        """One fresh spde-lab process; traced through cli_child.py when tracing."""
        env = child_env(self.root)
        if self.tracer is None or not self.tracer.enabled:
            cmd = [sys.executable, "-m", "spde_lab.cli", *argv]
            return subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL).returncode
        self._children += 1
        dump = self.out_dir / f"child-{self._children}.json"
        cmd = [sys.executable, str(self.root / "perfbench" / "cli_child.py"), str(dump), *argv]
        rc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL).returncode
        data = json.loads(dump.read_text())
        self.tracer.merge(data, parent=self.tracer.current()[0])
        self.cli_imports.append(data["import_s"])
        return rc


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
    return env


# ---------------------------------------------------------------------------
# set-up, environment and import measurements
# ---------------------------------------------------------------------------


def measure_setup(root: Path, workload: str, seed: int, size: str) -> tuple[list, list]:
    """Process start to ready-for-the-first-op, in fresh processes.

    Returns (set-up seconds, spde_lab import seconds) per sample.
    """
    setups, imports = [], []
    script = str(root / "perfbench" / "setup_child.py")
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, script, workload, str(seed), size],
            env=child_env(root), stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up process exited {proc.returncode}")
        setups.append(t1 - t0)
        imports.append(json.loads(line)["import_s"])
    return setups, imports


def scipy_import_seconds(root: Path) -> float:
    """Cumulative import time of the outermost scipy modules under ``import spde_lab``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import spde_lab"],
        env=child_env(root), capture_output=True, text=True, check=True,
    )
    total, stack = 0, []  # lines are post-order; walk them from the root down
    for line in reversed(proc.stderr.splitlines()):
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # the column header
        depth = (len(name) - len(name.lstrip())) // 2
        name = name.strip()
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = any(s for _, s in stack)
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            total += int(cumulative)
        stack.append((depth, is_scipy or inside))
    return total / 1e6


def blas_threads():
    """OpenBLAS thread count as the loaded library reports it, or None."""
    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def environment(root: Path, seed: int, threads: int) -> dict:
    import numpy as np
    import scipy

    def read(path, default="unknown"):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return default

    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(idx / "level"), read(idx / "type")
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = read(idx / "size")
    cpu = next(
        (ln.split(":", 1)[1].strip() for ln in read("/proc/cpuinfo", "").splitlines()
         if ln.startswith("model name")),
        platform.processor() or "unknown",
    )
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    head = read(root / ".git" / "HEAD", "")
    if head.startswith("ref: "):
        head = read(root / ".git" / head[5:], "")
    blas_n = blas_threads()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "commit": head or "not a git checkout",
        "src_sha256": src.hexdigest(),
        "workload_seed": seed,
        "held_out_seed": held_out_seed(seed),
        "replica_threads": threads,
        "blas_threads": blas_n,
        "thread_choice": (
            f"replica threads = min(2, nproc) = {threads}; BLAS pinned to 1 thread, so "
            f"replica x BLAS = {threads * (blas_n or 1)} <= nproc = {os.cpu_count()}"
        ),
    }


def held_out_seed(seed: int) -> int:
    """A second workload seed, never run with ``seed``, for confirming a claim."""
    return (seed * 1_000_003 + 7_919) % (2**31 - 1)


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


def run_op(name, fn, cycle, tracer, records, timed=True):
    """Run one operation and append its record."""
    rec = {"name": name, "cycle": cycle, "timed": timed, "outcome": None, "error": None}
    t0 = time.perf_counter()
    try:
        if tracer is not None and tracer.enabled:
            tracer.op = len(records)
            with tracer.span(f"bench.{name}", "bench"):
                result = fn()
        else:
            result = fn()
    except Exception as exc:  # every failure of an op is counted, not raised
        result = None
        rec["error"] = f"{type(exc).__name__}: {exc}"
    rec["seconds"] = time.perf_counter() - t0
    if timed:
        rec["outcome"] = result
    elif result is not None:  # untimed checks return a failure message
        rec["error"] = result
    records.append(rec)
    return rec


def run_cycles(workload, tracer, records, seconds, max_cycles=None):
    """Whole op cycles, starting another only while it is expected to fit."""
    start = time.perf_counter()
    cycle = 0
    while True:
        c0 = time.perf_counter()
        outcomes = {}
        for name, fn in workload.ops(cycle):
            rec = run_op(name, fn, cycle, tracer, records)
            if rec["error"] is None:
                outcomes[name] = rec["outcome"]
        enabled = tracer is not None and tracer.enabled
        if enabled:
            tracer.enabled = False  # re-runs are checks, outside the trace
        for name, check in workload.after_cycle(cycle, outcomes):
            run_op(name, check, cycle, None, records, timed=False)
        if enabled:
            tracer.enabled = True
        cycle += 1
        now = time.perf_counter()
        if max_cycles is not None and cycle >= max_cycles:
            break
        if now - start + (now - c0) > seconds:
            break
    return cycle


def tail(values):
    """(percentile, value) of the highest percentile with >= 10 samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * n)
        if rank >= 1 and n - rank >= 10:
            return p, xs[rank - 1]
    return None, None


def typical_op_seconds(by_op):
    """Median over op types of each type's median wall time.

    Every type runs once per cycle, so this is the median operation; taking
    type medians first keeps it off the single extreme samples that border
    two op sizes when the number of types is even.
    """
    return statistics.median(statistics.median(v) for v in by_op.values())


def replicas_per_second(timed):
    """Median over op cycles of replicas completed per second of op wall time."""
    per_cycle = {}
    for r in timed:
        done = r["outcome"].replicas if r["outcome"] is not None else 0
        reps, secs = per_cycle.get(r["cycle"], (0, 0.0))
        per_cycle[r["cycle"]] = (reps + done, secs + r["seconds"])
    return statistics.median(reps / secs for reps, secs in per_cycle.values())


def time_to_accuracy(records):
    """Median of op seconds x (stderr / |estimate| / 0.01)^2."""
    vals = []
    for r in records:
        o = r["outcome"]
        if r["timed"] and o is not None and o.estimate and o.stderr is not None:
            if math.isfinite(o.estimate) and math.isfinite(o.stderr):
                vals.append(r["seconds"] * (o.stderr / abs(o.estimate) / 0.01) ** 2)
    return statistics.median(vals) if vals else None


def verify(records, workload_name):
    """Run the deferred output checks; return the failure list."""
    failures = []
    for r in records:
        if r["error"] is None and r["outcome"] is not None:
            try:
                r["error"] = r["outcome"].check()
            except Exception as exc:
                r["error"] = f"check raised {type(exc).__name__}: {exc}"
        if r["error"] is not None:
            failures.append({"op": f"{workload_name}/{r['name']}", "cycle": r["cycle"],
                             "error": r["error"]})
    return failures


def probe_defects(workload, workload_name):
    """Run the known-defect reproducers; return one entry per probe.

    A probe reproduces its defect when it returns a message or raises. The
    entries go into the detail and the report; they are not operations, so
    they count neither in ``attempted`` nor in ``failed``.
    """
    probes = []
    for name, probe in workload.defect_probes:
        try:
            message = probe()
        except Exception as exc:
            message = f"{type(exc).__name__}: {exc}"
        probes.append({"probe": f"{workload_name}/{name}", "reproduced": message is not None,
                       "message": message})
        if message is not None:
            print(f"known defect reproduced: {workload_name}/{name}: {message}", file=sys.stderr)
    return probes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "spde_lab" / "__init__.py").is_file():
        print(f"no spde_lab sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = "1"
    sys.path[:0] = [str(root / "src"), str(root)]

    import spde_lab

    if Path(spde_lab.__file__).resolve().parent != root / "src" / "spde_lab":
        print(f"spde_lab imported from {spde_lab.__file__}, not this checkout", file=sys.stderr)
        return 2
    from perfbench.tracer import Tracer
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    size = "smoke" if args.smoke else "full"
    threads = min(2, os.cpu_count() or 1)
    out_dir = root / ".perfbench_out" / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    setups, imports = measure_setup(root, args.workload, args.seed, size)
    tracer = Tracer() if args.trace else None
    ctx = Context(root, size, threads, out_dir, tracer)
    workload = WORKLOADS[args.workload](args.seed, ctx)
    records = []
    for name, check in workload.pre_checks:
        run_op(name, check, -1, None, records, timed=False)
    known_defects = probe_defects(workload, args.workload)

    start = time.perf_counter()
    detail = {}
    if args.trace:
        ref = []
        run_cycles(workload, None, ref, args.seconds, max_cycles=1)
        tracer.install(spde_lab)
        tracer.enabled = True
        traced = []
        left = args.seconds - (time.perf_counter() - start)
        cycles = run_cycles(workload, tracer, traced, left)
        tracer.enabled = False
        tracer.uninstall()
        records += ref + traced
        timed_ref = [r for r in ref if r["timed"]]
        timed_again = [r for r in traced if r["timed"] and r["cycle"] == 0]
        for a, b in zip(timed_ref, timed_again):
            if a["outcome"] and b["outcome"] and a["outcome"].fingerprint != b["outcome"].fingerprint:
                b["error"] = "traced output differs from the untraced reference"
        overhead = 100.0 * (
            sum(r["seconds"] for r in timed_again) / sum(r["seconds"] for r in timed_ref) - 1.0
        )
        metrics = tracer.layer_metrics(cycles)
        metrics["cli.import_s"] = (
            sum(ctx.cli_imports) / cycles if ctx.cli_imports else statistics.median(imports)
        )
        metrics["cli.import_scipy_s"] = scipy_import_seconds(root)
        metrics["trace.overhead_pct"] = overhead
        units = PER_LAYER_UNITS
        detail["traced_cycles"] = cycles
        detail["self_time_s"] = dict(tracer.self_times().most_common())
    else:
        cycles = run_cycles(workload, None, records, args.seconds)
        timed = [r for r in records if r["timed"]]
        durations = [r["seconds"] for r in timed]
        by_op = {}
        for r in timed:
            by_op.setdefault(r["name"], []).append(r["seconds"])
        who = resource.RUSAGE_CHILDREN if args.workload == "cli-quick" else resource.RUSAGE_SELF
        metrics = {
            "setup_s": statistics.median(setups),
            "op_p50_s": typical_op_seconds(by_op),
            "replicas_per_s": replicas_per_second(timed),
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        pct, value = tail(durations)
        detail["op_tail_s"] = {"percentile": pct, "value": value, "samples": len(durations)}
        detail["time_to_1pct_rse_s"] = time_to_accuracy(records)
        detail["cycles"] = cycles
        detail["op_seconds"] = by_op

    failures = verify(records, args.workload)
    attempted = len(records)
    detail.update(
        workload=args.workload,
        trace=args.trace,
        size=size,
        setup_samples_s=setups,
        import_samples_s=imports,
        fail_ratio=len(failures) / attempted,
        failures=failures,
        known_defects=known_defects,
        environment=environment(root, args.seed, threads),
    )
    report = root / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    saved = dict(detail, spans=tracer.dump()["spans"] if tracer else [])
    report.write_text(json.dumps(saved, default=str))
    print(json.dumps({"detail": detail}, default=str))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
