"""A fixture for the husimi quadrature's split of a call over threads: the
threads it starts."""

import threading

import pytest


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
