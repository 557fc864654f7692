"""Timing that does not follow the host's speed.

The shared machines this benchmark runs on execute code at speeds up to 2x
apart, in states that last from seconds to minutes, so the same unit of
work timed a minute apart can differ by more than any bound worth setting.
Each timed unit is therefore bracketed by a fixed pure-Python loop, and its
time is scaled to a host on which that loop takes ``LOOP_REFERENCE_S``:

    scaled = seconds * LOOP_REFERENCE_S / mean(loop before, loop after)

A change to the program moves the scaled time as it moves the raw time; a
change of host speed moves the loop with it and cancels. Time spent waiting
(the mock endpoint's injected delay) does not follow the host's speed, so
units that wait on the endpoint are timed with ``follows_host=False`` and
keep their raw time. The raw times are printed beside the scaled ones.
"""

from __future__ import annotations

import math
import time

LOOP_ITERATIONS = 15_000
LOOP_REFERENCE_S = 0.001


def loop_seconds() -> float:
    """Fastest of three runs of the reference loop: the host's current speed."""
    best = math.inf
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for i in range(LOOP_ITERATIONS):
            total += i * i % 7
        best = min(best, time.perf_counter() - started)
    return best


class Stopwatch:
    """Times the block it wraps; ``seconds`` is raw, ``scaled`` follows the loop
    when ``follows_host`` and equals ``seconds`` otherwise."""

    seconds: float
    scaled: float

    def __init__(self, follows_host: bool = True):
        self.follows_host = follows_host

    def __enter__(self) -> "Stopwatch":
        if self.follows_host:
            self._loop_before = loop_seconds()
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.seconds = time.perf_counter() - self._started
        self.scaled = self.seconds
        if self.follows_host:
            loop = (self._loop_before + loop_seconds()) / 2
            self.scaled = self.seconds * LOOP_REFERENCE_S / loop
