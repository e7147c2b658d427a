"""In-memory span tracer that wraps library functions from outside.

``sweep.run_sweep`` looks its layers up through their modules at call time
(``dynamics.reduced_density``, ``entropies.entropy_record``, ...), so
replacing those module attributes with timing wrappers traces every layer
without touching the library.  Each call records a span (name, start, end,
parent); a span's self time is its duration minus that of its children.
"""

from __future__ import annotations

import functools
import re
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self, module, attr: str, name: str, count=None) -> None:
        """Replace ``module.attr`` by a wrapper recording spans under ``name``.

        ``count(counts, args, result)`` may add to :attr:`counts` per call.
        A missing attribute raises :class:`AttributeError`: a layer that was
        renamed away must not read as zero time.
        """
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent))
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            if count is not None:
                count(self.counts, args, result)
            return result

        self._patched.append((module, attr, fn))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: total self time ``self_s`` and ``calls``."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"self_s": 0.0, "calls": 0})
        for (name, start, end, _), children in zip(self.spans, child_time):
            out[name]["self_s"] += end - start - children
            out[name]["calls"] += 1
        return dict(out)


_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+\d+ \| ( *)(\S+)")


def import_self_times(stderr: str, package: str = "jcm_entropy",
                      deps=("numpy", "scipy")) -> dict[str, float]:
    """Seconds of ``-X importtime`` time owned by ``package`` and each of ``deps``.

    Every module imported beneath a dependency, including the standard
    library and other dependencies' submodules, is charged to that
    dependency; the rest beneath ``package`` is the package's own.  The
    report lists children before their parent, indented two spaces per
    level, hence the reversed walk.
    """
    out = dict.fromkeys((package, *deps), 0.0)
    owners: list[str | None] = []  # owner of the latest module at each depth
    for line in reversed(stderr.splitlines()):
        match = _IMPORTTIME.match(line)
        if not match:
            continue
        depth = len(match.group(2)) // 2
        del owners[depth:]
        parent = owners[-1] if owners else None
        top = match.group(3).split(".")[0]
        owner = parent if parent in deps else top if top in out else parent
        owners.append(owner)
        if owner is not None:
            out[owner] += int(match.group(1)) * 1e-6
    return out
