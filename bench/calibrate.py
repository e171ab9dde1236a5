"""Machine-speed calibration for the benchmark's end-to-end wall time.

The host this benchmark was built on runs the same code up to 1.9 times
slower for stretches of 10 to 30 seconds, when other tenants load it (the
slowdown shows in CPU time too, not as steal). Such stretches outlast a
run, so no statistic of one run's raw pass times is steady: the medians of
20-second windows of Iris passes ranged from 0.68 to 1.22 of their median.

So while a timed pass runs, :class:`Sampler` runs a fixed kernel of
about 1 ms from a timer signal every ``PERIOD_S``, and
:func:`to_reference` rescales the pass by the kernel's mean time to the
machine speed at which that mean is ``REF_S``. The kernel's own time is
taken out of the pass. Timed only before and after a pass, a kernel did
not track speed changes during long passes; sampled inside the pass, it
does. The kernel tokenizes and parses text into a dict and sorts it,
which is the kind of interpreter work ``gea`` does, but no ``gea`` code.
Over two minutes of passes, the spread of 20-second medians of rescaled
times was 2-5% on ``entropy-big``, ``grid-n400`` and ``iris``, against
6-8% raw; a dict-and-numpy kernel left ``entropy-big`` at 13%.

``REF_S`` fixes the unit: a rescaled time is the raw time of a pass during
which the kernel took ``REF_S``, about its sampled time on the 2-core
Intel Xeon VM the benchmark was built on under that host's usual load.
Raw times are reported beside the rescaled ones.
"""
from __future__ import annotations

import signal
import time

REF_S = 1.0e-3
PERIOD_S = 0.05
_TEXT = " ".join(f"{i}:{i % 7}.25" for i in range(600))


def kernel() -> int:
    parsed = {}
    for tok in _TEXT.split():
        elem, _, weight = tok.partition(":")
        whole, _, frac = weight.partition(".")
        parsed[int(elem)] = int(whole) * 100 + int(frac)
    return len(sorted(parsed.items()))


def measure() -> float:
    """Seconds one kernel run takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Sampler:
    """Times :func:`kernel` every ``PERIOD_S`` while the ``with`` body runs.

    ``ticks`` holds the (start, end) ``perf_counter`` times of each kernel
    run. Uses SIGALRM and the real-time interval timer, so the body must not.
    """

    def __enter__(self) -> "Sampler":
        self.ticks: list[tuple[float, float]] = []
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        self.ticks.append((t0, time.perf_counter()))

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def busy_s(self) -> float:
        """Seconds the kernel took out of the body's time."""
        return sum(b - a for a, b in self.ticks)

    def kernel_s(self) -> float:
        """Mean kernel time; a body shorter than a period is timed after it."""
        return self.busy_s() / len(self.ticks) if self.ticks else measure()


def to_reference(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured while the kernel took ``kernel_s``, at reference speed."""
    return seconds * REF_S / kernel_s
