import concurrent.futures

import pytest

from rechargetime import engine


class FakePool:
    """Stands in for ProcessPoolExecutor: records its size and maps in this process.

    ``tasks`` holds the number of tasks of each map.
    """

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.maps = 0
        self.tasks = []
        self.exit_args = None  # what the pool was shut down with, once it is

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.exit_args = exc
        return False

    def map(self, fn, *iterables):
        self.maps += 1
        args = list(zip(*iterables))
        self.tasks.append(len(args))
        return [fn(*a) for a in args]


@pytest.fixture
def fake_pools(monkeypatch):
    """Every pool the engine constructs, none of which starts a process.

    The machine appears to have 64 CPUs, so the pool size is set by the
    workers and the chunks alone. ``Streams`` imports ``ProcessPoolExecutor``
    from ``concurrent.futures`` when it opens a pool, so the fake is put
    there.
    """
    made = []

    def make(max_workers):
        made.append(FakePool(max_workers))
        return made[-1]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", make)
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 64)
    return made


@pytest.fixture
def pool_always_pays(monkeypatch):
    """The engine's pool break-even lowered to 0, so that small runs still take the pool path."""
    monkeypatch.setattr(engine, "_POOL_BREAK_EVEN", 0)
