"""How fast the machine runs pure-Python work, sampled while a phase runs.

On a shared machine the same code can run up to about 2.5 times slower for
stretches that last from a fraction of a second to minutes, while another
tenant loads the core.  ``process_time`` slows down with ``perf_counter``,
so neither clock alone gives steady figures.  The sampler takes a SIGALRM
every ``INTERVAL_S`` of wall time and times a fixed probe of about 60 us:
integer arithmetic, list indexing, hashing 24-tuples into a dict and
building tuples from generators, the operations bracelab's hot loops are
made of.  Of the probes tried, this mix tracked the slowdown of the three
workloads best.  The probe uses only the standard library, so a change to
bracelab cannot change it.

A phase's speed is the mean of ``REFERENCE_S / probe time`` over the
samples taken during it; a time multiplied by it is in seconds at the
reference speed.  ``REFERENCE_S`` is set so that on an undisturbed 2-vCPU
Xeon under CPython 3.11 scaled and raw times agree.  The handler runs
between two bytecodes of the main thread and touches nothing but its own
state.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.01
REFERENCE_S = 43e-6

_PERM = tuple((7 * i + 3) % 24 for i in range(24))
_KEYS = [tuple((i * k + k) % 97 for k in range(24)) for i in range(97)]
_INDEX = {key: i for i, key in enumerate(_KEYS)}


def _probe(state: int) -> int:
    """One fixed slice of work; only its duration matters."""
    hits = 0
    for _ in range(30):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        key = _KEYS[state % 97]
        hits += _INDEX[key]
        hits += tuple(_PERM[v % 24] for v in key) in _INDEX
    return state


class SpeedSampler:
    """Collects probe times from ``start`` until ``stop``."""

    def __init__(self):
        self.samples: list[float] = []
        self._state = 12345

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._state = _probe(self._state)
        self.samples.append(time.perf_counter() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def mark(self) -> int:
        return len(self.samples)

    def speed(self, first: int = 0, last: int | None = None) -> float:
        """Mean relative speed over samples[first:last]; all samples if none."""
        window = self.samples[first:last] or self.samples
        if not window:
            return 1.0
        return sum(REFERENCE_S / s for s in window) / len(window)
