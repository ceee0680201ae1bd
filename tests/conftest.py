"""Makes the acceptance checklist visible at the end of a captured pytest run,
and records the worker pools that sdiam and verify ask for without starting
them."""

import pytest

import steinerk.sdiam
import steinerk.verify

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of every pool that sdiam and verify open, in order. Their
    ProcessPoolExecutor is replaced by one that maps in this process, so a
    test may ask for any number of workers and none is started."""
    sizes: list[int] = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    for module in (steinerk.sdiam, steinerk.verify):
        monkeypatch.setattr(module, "ProcessPoolExecutor", InProcessPool)
    return sizes
