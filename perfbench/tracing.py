"""In-memory spans recorded around calls into airfd's modules.

A span holds its name, start, end, parent span and round id. Spans are kept
in lists until the run ends; self time is a span's duration minus the time of
its child spans. The benchmark installs the wrappers by rebinding names in
``airfd.expcli`` and ``airfd.transceiver`` (where the driver and the planner
look them up at call time), so the program itself is not changed.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    """Spans and exact counters of one traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.rounds: list[int] = []
        self.counts: Counter = Counter()
        self.round_id = 0
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.rounds.append(self.round_id)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, new_round: bool = False):
        """`fn` with a span named `name` around every call. With `new_round`
        each call starts a new round id first."""

        def traced(*args, **kwargs):
            if new_round:
                self.round_id += 1
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def durations(self) -> tuple[list[str], np.ndarray, np.ndarray]:
        """(names, duration, self time) of every span, in seconds."""
        duration = np.array(self.ends) - np.array(self.starts)
        child = np.zeros_like(duration)
        parents = np.array(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], duration[has_parent])
        return self.names, duration, duration - child


@contextmanager
def rebound(module, replacements: dict):
    """Rebind names in `module` for the duration of the block."""
    originals = {name: getattr(module, name) for name in replacements}
    for name, value in replacements.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in originals.items():
            setattr(module, name, value)
