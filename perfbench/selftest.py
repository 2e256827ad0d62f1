"""Self-test of the benchmark: smoke runs of every workload, untraced and traced.

    python3 perfbench/selftest.py        # from the checkout root, about a minute

For each workload and trace mode it asserts that the run exits 0, that its
last line is the result object, that every metric BENCHMARK.json names for
that mode is printed with its unit, that every output check passes, and
that every known-defect probe ran and is reported apart from the
operations. It also asserts that the benchmark exits non-zero without
printing a result in a directory that holds only BENCHMARK.json and the
benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd().resolve()
KEYS = {"correct", "attempted", "failed", "metrics"}
# the known-defect reproducers each workload must run and report
DEFECT_PROBES = {"colored": ["colored/fk-overflow-t400"]}


def run(cwd: Path, workload: str, trace: int, smoke: bool = True):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace)] + (["--smoke"] if smoke else [])
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_workload(bench: dict, workload: str, trace: int, probes: list) -> None:
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.splitlines()
    result, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
    assert set(result) == KEYS, f"result keys {sorted(result)}"
    assert result["attempted"] >= 1 and result["failed"] == len(detail["failures"])
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    got = result["metrics"]
    assert set(got) == {m["name"] for m in wanted}, f"metrics {sorted(got)}"
    for m in wanted:
        assert got[m["name"]]["unit"] == m["unit"], f"{m['name']} unit {got[m['name']]['unit']}"
        assert isinstance(got[m["name"]]["value"], float)
    assert not detail["failures"], f"{workload} trace={trace} failed checks: {detail['failures']}"
    assert result["correct"] is True and result["failed"] == 0
    ran = [p["probe"] for p in detail["known_defects"]]
    assert ran == probes, f"{workload} probes run: {ran}"
    seen = [p["probe"] for p in detail["known_defects"] if p["reproduced"]]
    print(f"ok {workload} trace={trace}: {result['attempted']} ops, known defects reproduced: {seen}")


def check_bare_directory(bench: dict) -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in bench["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, "heat-conv", 0, smoke=False)
    assert proc.returncode != 0, "benchmark ran without the program's sources"
    assert '"metrics"' not in proc.stdout, "benchmark printed a result without sources"
    shutil.rmtree(bare)
    print(f"ok bare directory: exit {proc.returncode}")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import WORKLOADS

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_workload(bench, workload, trace, DEFECT_PROBES.get(workload, []))
    check_bare_directory(bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
