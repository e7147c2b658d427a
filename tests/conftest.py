"""Fixtures for the husimi quadrature's split of a call over threads: the
core count it reads, and the threads it starts."""

import os
import threading

import pytest


@pytest.fixture
def usable_cores(monkeypatch):
    """``usable_cores(n)`` makes ``os.sched_getaffinity`` report ``n`` cores."""
    def report(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                            raising=False)
    return report


@pytest.fixture
def started_threads(monkeypatch):
    """The threads started by way of ``threading.Thread`` during the test.

    Starting one while an earlier one still runs fails the test before it
    starts, so the test never runs more threads than the quadrature's cap of
    two, the calling one included.
    """
    started = []

    class Counted(threading.Thread):
        def start(self):
            assert not any(t.is_alive() for t in started), "a third thread"
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    return started
