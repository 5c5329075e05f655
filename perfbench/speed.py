"""Pass times at a reference machine speed.

The benchmark runs on shared virtual machines whose speed drifts by tens of
percent within minutes, as other tenants load the same physical cores.  Wall
time alone then measures the neighbours as much as loopforge.  So while a
pass runs, an interval timer interrupts it every ``TICK_S`` seconds to run
``reference()``, a small fixed search that shares no code with loopforge,
and records how long it took.  The samples see the same slowdown as the
pass around them.  A pass's wall time, less the time spent sampling, divided
by the mean sample and multiplied by ``NOMINAL_S``, is its time at the
reference speed: what the pass would take if the reference search took
``NOMINAL_S``.
"""

from __future__ import annotations

import itertools
import random
import signal
import statistics
import time

TICK_S = 0.05
# about the reference search's median time on the 2-core machine the bounds
# were set on; any fixed value would do, as long as it never changes
NOMINAL_S = 0.001

_rng = random.Random(0)
_CHORDS = tuple(tuple(_rng.randrange(12) for _ in range(4)) for _ in range(40))


def reference() -> int:
    """Fewest interleaved chord pairs over all orders of the first five of
    twelve points: pure-Python work of the kind the oracle does, fixed for
    good."""
    best = len(_CHORDS)
    for perm in itertools.permutations(range(5)):
        pos = list(perm) + list(range(5, 12))
        crossed = 0
        for a, b, c, d in _CHORDS:
            lo, hi = pos[a], pos[b]
            if lo > hi:
                lo, hi = hi, lo
            if (lo < pos[c] < hi) != (lo < pos[d] < hi):
                crossed += 1
        best = min(best, crossed)
    return best


def sample() -> float:
    """Seconds one reference search takes now."""
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def at_reference(work_s: float, samples: list[float]) -> float:
    """``work_s`` seconds of wall time at the reference speed, given the
    reference searches timed while (or just around) it ran."""
    return work_s * NOMINAL_S / statistics.fmean(samples)


class SpeedProbe:
    """Times the reference search every ``TICK_S`` seconds inside a ``with``
    block.  Python runs signal handlers in the main thread only, so the
    block must run there."""

    def __init__(self):
        self.samples: list[float] = []
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        self.samples.append(sample())

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
