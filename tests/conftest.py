import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

results: list[str] = []


def traced_peak(fn) -> int:
    """The peak of the memory that tracemalloc traces while ``fn()`` runs, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def run_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports the spde_lab these tests
    import, and return its stdout; a failing run raises with its stderr."""
    import spde_lab

    src = str(Path(spde_lab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def pytest_terminal_summary(terminalreporter):
    """Echo one line per acceptance criterion after the run, in any mode."""
    if results:
        terminalreporter.section("acceptance criteria")
        for line in results:
            terminalreporter.write_line(line)
