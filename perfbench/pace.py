"""Machine-speed reference for the benchmark's timings.

The benchmark's machine is shared: its speed drifts by up to 2x over seconds
to minutes, whatever runs on it.  Medians of raw unit times from runs a few
minutes apart differ by 20-30%, which no statistic of one run removes.  So
the machine's speed is read with a fixed reference kernel, independent of
`qest` but made of the same kind of work (2x2 dense linear algebra driven
from Python): once before and once after every timed interval, and every
SAMPLE_PERIOD_S during it from a SIGALRM handler, whose own time is taken
out of the interval.  The interval is then reported as

    net seconds * REFERENCE_S / (kernel seconds per BRACKET_REPS repetitions)

that is, in seconds at the speed at which BRACKET_REPS repetitions take
REFERENCE_S.  A slower `qest` still reads slower; a slower machine does not.
Raw times are kept beside the scaled ones in every run record.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

REFERENCE_S = 0.04  # BRACKET_REPS repetitions on this benchmark's 2-core Xeon, host quiet
BRACKET_REPS = 3000
SAMPLE_REPS = 600
SAMPLE_PERIOD_S = 0.25
_H = np.array([[0.3, 0.1 - 0.2j], [0.1 + 0.2j, -0.3]])


def kernel_seconds(reps: int) -> float:
    """Wall time of `reps` repetitions of a 2x2 spectral exponential applied to a state."""
    start = perf_counter()
    psi = np.array([1.0, 0.0], dtype=complex)
    for k in range(reps):
        w, v = np.linalg.eigh(_H * (1.0 + 1e-3 * k))
        psi = (v * np.exp(-0.1j * w)) @ (v.conj().T @ psi)
    if not abs(np.vdot(psi, psi) - 1.0) < 1e-9:
        raise RuntimeError("reference kernel lost unitarity")
    return perf_counter() - start


class Pacer:
    """Times consecutive intervals and scales each to the reference speed.

    The reading taken after one interval is the 'before' reading of the next,
    so only short untimed work (checking one unit, preparing the next) may
    sit between intervals.  Uses SIGALRM: main thread only.
    """

    def __init__(self):
        self._last = kernel_seconds(BRACKET_REPS)

    def measure(self, fn) -> tuple[object, float, float, float]:
        """Run fn(); return (its result, wall seconds, net seconds, scaled seconds)."""
        samples = []

        def take_sample(signum, frame):
            samples.append(kernel_seconds(SAMPLE_REPS))

        previous = signal.signal(signal.SIGALRM, take_sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        start = perf_counter()
        try:
            result = fn()
        finally:
            wall = perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        after = kernel_seconds(BRACKET_REPS)
        net = wall - sum(samples)
        kernel = (self._last + after + sum(samples), 2 * BRACKET_REPS + SAMPLE_REPS * len(samples))
        self._last = after
        return result, wall, net, scaled(net, *kernel)


def scaled(seconds: float, kernel_s: float, kernel_reps: int) -> float:
    """`seconds` at reference speed, given kernel_s seconds measured for kernel_reps repetitions."""
    return seconds * REFERENCE_S / (kernel_s / kernel_reps * BRACKET_REPS)
