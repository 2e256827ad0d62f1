import tracemalloc

results: list[str] = []


def traced_peak(fn) -> int:
    """The peak of the memory that tracemalloc traces while ``fn()`` runs, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def pytest_terminal_summary(terminalreporter):
    """Echo one line per acceptance criterion after the run, in any mode."""
    if results:
        terminalreporter.section("acceptance criteria")
        for line in results:
            terminalreporter.write_line(line)
