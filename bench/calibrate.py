"""Host-speed calibration: a fixed piece of work timed all through the workload.

The benchmark runs on a shared 2-vCPU virtual machine whose CPU
throughput drifts with the load of its neighbours: a fixed pure-Python
loop ran anywhere between about 1x and 3x its fastest time, in phases
of a second to hours, with no steal time recorded.  Timed on its own,
the same workload moved by 40% between two rounds of runs.

So while a timed stretch runs, a ``Ticker`` interrupts it every
``PERIOD_S`` seconds (``SIGALRM``) and times one ``sample()``: a fixed
mix of interpreter, sort, dict and JSON work, none of it from legisnet.
Times are read on ``Ticker.clock``, which stands still during ticks, so
the ticks' own time is out of every raw time and span, and
``scale`` turns the raw time into reference-host seconds: raw time
multiplied by ``REFERENCE_S`` over the mean sample time of the stretch.
The samples see the same host phases as the work they interleave with,
so the phases cancel; a change to legisnet leaves the samples alone and
shows in full.  The raw times are kept in the result's metadata.

Standard library only, so a ticker can run across the import of
legisnet (and numpy) without importing anything first.
"""

from __future__ import annotations

import gc
import json
import signal
from time import perf_counter

# Mean sample time on the reference host (2-vCPU Xeon VM at 2.0 GHz,
# CPython 3.11) in a middling phase of its load; it only sets the unit.
REFERENCE_S = 0.01
PERIOD_S = 0.25

_RECORDS = [{"id": f"doc-{i}", "sector": i % 7, "refs": [i, i + 1]}
            for i in range(1_000)]
_KEYS = [str(i * 7919 % 10_000) for i in range(10_000)]
_TABLE = {key: len(key) for key in _KEYS}


def sample() -> float:
    """Seconds the fixed calibration work takes now.

    The cyclic garbage collector is off while it runs, so a sample
    costs the same in a process holding a large corpus as in an empty
    one.
    """
    enabled = gc.isenabled()
    gc.disable()
    started = perf_counter()
    total = 0
    for i in range(40_000):
        total += i * i % 7
    for key in sorted(_KEYS):
        total += _TABLE[key]
    total += len(json.loads(json.dumps(_RECORDS)))
    elapsed = perf_counter() - started
    if enabled:
        gc.enable()
    return elapsed


class Ticker:
    """Times ``sample()`` every PERIOD_S seconds of wall time until stopped."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0  # wall time spent in ticks, handler included

    def _tick(self, *_) -> None:
        started = perf_counter()
        self.samples.append(sample())
        self.spent += perf_counter() - started

    def start(self) -> "Ticker":
        signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        """Seconds on a clock that stands still while a tick runs."""
        return perf_counter() - self.spent

    def mark(self) -> tuple[float, int]:
        """The moment now: (``clock()``, samples taken so far)."""
        return self.clock(), len(self.samples)

    def since(self, mark: tuple[float, int]) -> tuple[float, float]:
        """Raw seconds since ``mark`` without ticks, and their mean sample.

        A stretch shorter than a period falls back on the last sample
        taken before it.
        """
        started, first = mark
        taken = self.samples[first:] or self.samples[-1:]
        return self.clock() - started, sum(taken) / len(taken)


def scale(raw_s: float, mean_sample_s: float) -> float:
    """``raw_s`` in reference-host seconds, given its mean sample time."""
    return raw_s * REFERENCE_S / mean_sample_s
