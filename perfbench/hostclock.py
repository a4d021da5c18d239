"""Host-speed correction: a reference kernel sampled through the run.

The measuring host can run up to ~1.8x slower for minutes at a time, and
CPU time rises with wall time when it does, so raw wall-clock numbers
cannot repeat within a tenth.  A fixed reference kernel (plain Python and
NumPy, touching no repo code) is timed at a fixed cadence through set-up
and serving.  Every timing is then rescaled by the ratio of a nominal
reference time to the reference time measured around it: a duration
measured while the kernel ran at nominal speed is unchanged, and one
measured while it ran twice as slow is halved.  Corrected values stay in
seconds, at the nominal host's speed.

The rescaling is a corrected clock ``C(t)``: piecewise linear in raw time,
with slope ``nominal / reference`` between two samples (the mean of the
two samples bracketing the segment) and slope 0 while a sample runs, so
the kernel's own time never enters a measurement.
"""

from __future__ import annotations

import time

import numpy as np

#: Seconds of raw time between reference samples.
CADENCE_S = 0.1
#: Repeats per sample; the fastest is kept, so a one-off interrupt is
#: dropped while a sustained slowdown (which slows every repeat) is kept.
REPEATS = 3


class ReferenceKernel:
    """A fixed mix of interpreter, GEMM, sort and strided-copy work.

    The mix mirrors what the serving simulator spends its time on: Python
    dispatch and small BLAS calls (:meth:`compute`), and copies of strided
    arrays such as the ``im2col`` patch gather (:meth:`memory`).  Its
    inputs are fixed, so its cost depends only on the host.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((48, 48))
        self._b = rng.standard_normal((48, 48)) / 48.0
        self._keys = rng.standard_normal(4096)
        self._grid = rng.standard_normal((4, 8, 30, 30))
        self._dst = np.empty((4, 26, 26, 8, 5, 5))

    def compute(self) -> float:
        total = 0
        for i in range(6000):
            total += i % 7
        a = self._a
        for _ in range(24):
            a = np.tanh(a @ self._b)
        return total + float(a[0, 0]) + float(np.sort(self._keys)[0])

    def memory(self) -> float:
        windows = np.lib.stride_tricks.sliding_window_view(self._grid, (5, 5), axis=(2, 3))
        np.copyto(self._dst, windows[:, :, :26, :26].transpose(0, 2, 3, 1, 4, 5))
        return float(self._dst[0, 0, 0, 0, 0, 0])


class HostClock:
    """Raw timestamps plus the reference samples that correct them.

    ``now()`` is the raw clock every measurement reads.  Call
    :meth:`maybe_sample` at quiet points (between ticks, between set-up
    stages); it times the kernel when ``cadence`` seconds have passed since
    the last sample.  :meth:`corrected` maps raw timestamps onto the
    corrected clock afterwards.
    """

    def __init__(
        self,
        nominal_s: float,
        cadence: float = CADENCE_S,
        kernel=None,
        clock=time.perf_counter,
    ) -> None:
        if nominal_s <= 0.0:
            raise ValueError(f"nominal reference time must be positive, got {nominal_s}")
        self.nominal_s = float(nominal_s)
        self.cadence = float(cadence)
        self.kernel = kernel if kernel is not None else ReferenceKernel()
        self.now = clock
        #: ``(start, end, reference seconds)`` per sample, in time order.
        self.samples: list[tuple[float, float, float]] = []
        #: ``(compute seconds, memory seconds)`` per sample.
        self.parts: list[tuple[float, float]] = []

    def sample(self) -> float:
        """Time the reference kernel now; returns the kept reference time."""
        start = self.now()
        parts = []
        for part in (self.kernel.compute, self.kernel.memory):
            best = float("inf")
            for _ in range(REPEATS):
                began = self.now()
                part()
                best = min(best, self.now() - began)
            parts.append(best)
        reference = sum(parts)
        self.samples.append((start, self.now(), reference))
        self.parts.append(tuple(parts))
        return reference

    def maybe_sample(self) -> None:
        """Sample when the cadence has elapsed since the last sample ended."""
        if not self.samples or self.now() - self.samples[-1][1] >= self.cadence:
            self.sample()

    def reference_times(self) -> np.ndarray:
        return np.array([ref for _, _, ref in self.samples])

    def corrected(self, times) -> np.ndarray:
        """Map raw timestamps onto the corrected clock (seconds)."""
        return corrected_clock(self.samples, self.nominal_s, times)


def corrected_clock(samples, nominal_s: float, times) -> np.ndarray:
    """``C(t)`` for each raw timestamp in ``times`` (see the module doc).

    ``samples`` is a time-ordered list of ``(start, end, reference
    seconds)``.  Outside the sampled span the nearest sample's speed
    applies.  Only differences of ``C`` are meaningful.
    """
    times = np.asarray(times, dtype=np.float64)
    if not samples:
        raise ValueError("no reference samples: the corrected clock is undefined")
    starts = np.array([s for s, _, _ in samples])
    ends = np.array([e for _, e, _ in samples])
    refs = np.array([r for _, _, r in samples])
    # Slope of each gap between sample i's end and sample i+1's start.
    slopes = nominal_s / (0.5 * (refs[:-1] + refs[1:]))
    knots_x = np.empty(2 * len(samples))
    knots_x[0::2] = starts
    knots_x[1::2] = ends
    knots_y = np.zeros_like(knots_x)
    gaps = (starts[1:] - ends[:-1]) * slopes
    knots_y[2::2] = np.cumsum(gaps)
    knots_y[3::2] = knots_y[2::2]
    out = np.interp(times, knots_x, knots_y)
    before = times < knots_x[0]
    out[before] = knots_y[0] + (times[before] - knots_x[0]) * (nominal_s / refs[0])
    after = times > knots_x[-1]
    out[after] = knots_y[-1] + (times[after] - knots_x[-1]) * (nominal_s / refs[-1])
    return out
