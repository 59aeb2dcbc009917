"""A fixed reference kernel, timed next to the program, so that timings can
be read at one reference machine speed.

On a shared machine the program runs 1.3-1.7x slower for stretches of
seconds to minutes, because of load the benchmark cannot see or control.
The kernel below slows down by nearly the same factor at the same moments.
Over one minute of paper_20way minor queries, split into 82 passes over its
64 episodes, the pass medians of the query and of the kernel correlated at
0.89; their ratio varied by 3 % (coefficient of variation) where the query
alone varied by 7 %. The benchmark times the kernel right after every
query, and in short bursts around every longer operation, and reports each
timing scaled by ``KERNEL_REF_S / kernel time nearby``: what the operation
would have taken while the kernel ran at its reference time.

The kernel is part of the benchmark, not of the library, so a change to the
library moves the scaled timings exactly as it moves the raw ones. It mixes
the kinds of work a query does: a small matrix product, an element-wise pass
over a few hundred kilobytes, and an interpreted loop over a small mask.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# The kernel's time on a 2-vCPU Xeon cloud VM (numpy with one BLAS thread)
# in undisturbed stretches: the 10th percentile of its 21-sample medians
# over 18 runs. Under co-tenant load it took up to 0.9 ms. Only its
# constancy matters: it sets the speed at which scaled timings are read.
KERNEL_REF_S = 0.0005
HALF_WINDOW = 10    # a query is scaled by the kernel's median over 2*10+1 samples
BURST = 25          # kernel samples before and after a longer operation


class Speed:
    def __init__(self):
        rng = np.random.default_rng(20240405)  # fixed: not the workload seed
        self._a = rng.standard_normal((64, 128))
        self._b = rng.standard_normal((128, 256))
        self._c = rng.standard_normal((256, 256))
        self._mask = (rng.random((32, 32)) > 0.5).tolist()
        self.samples: list[float] = []

    def _kernel(self) -> float:
        s = float((self._a @ self._b).sum() + (self._a @ self._b).max())
        s += float((np.exp(self._c * 0.01) + self._c).mean(axis=0).sum())
        count = 0
        for _ in range(2):
            for row in self._mask:
                for cell in row:
                    if cell:
                        count += 1
        return s + count

    def sample(self) -> float:
        """Time the kernel once; returns seconds."""
        t0 = perf_counter()
        self._kernel()
        dt = perf_counter() - t0
        self.samples.append(dt)
        return dt

    def burst(self) -> list[float]:
        return [self.sample() for _ in range(BURST)]

    def timed(self, fn):
        """Run fn between two kernel bursts. Returns (fn's result, its raw
        seconds, the kernel's median time around it)."""
        before = self.burst()
        t0 = perf_counter()
        out = fn()
        dt = perf_counter() - t0
        return out, dt, float(np.median(before + self.burst()))


def scaled(seconds: float, kernel_s: float) -> float:
    """A timing read at the reference speed."""
    return seconds * KERNEL_REF_S / kernel_s


def local_kernel(kernel_s: list[float]) -> np.ndarray:
    """For each sample, the median of the samples within HALF_WINDOW of it."""
    x = np.asarray(kernel_s, dtype=np.float64)
    n = len(x)
    return np.array([np.median(x[max(0, i - HALF_WINDOW): i + HALF_WINDOW + 1])
                     for i in range(n)])
