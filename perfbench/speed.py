"""Machine-speed index, sampled on the benchmark's core while it runs.

On a shared machine the speed of one core swings by up to 2x within
seconds to minutes as other tenants load it, and a 25-second run can fall
wholly in a slow or a fast stretch.  ``SpeedSampler`` starts a child process
on the same core that runs a fixed reference task every ``PERIOD_S`` and
records the CPU time it took.  The task is small-array numpy work of the
same kind as the package's (fancy indexing, products, reductions, a small
SVD) but calls none of it, so no change to the package moves it.  Each
operation's wall time is then rescaled to the speed at which one reference
task takes ``NOMINAL_S``, using the samples taken while it ran; on the
2-vCPU machine the benchmark was written on, that is about its unloaded
speed.  There, the same 1.5-second solve repeated 20 times varied by 15-19%
(coefficient of variation) in wall time and by 3-5% once rescaled; samples
taken only between solves brought it to 12%.  Set-up spawns, which run on
the same core, varied by 15-23% and 11-13%.  The sampler takes about 3% of
the core.
"""
from __future__ import annotations

import bisect
import os
import statistics
import subprocess
import sys
import time

import numpy as np

NOMINAL_S = 7.5e-4
PERIOD_S = 0.05

_rng = np.random.default_rng(12345)
_Z = _rng.standard_normal((4, 8)) + 1j * _rng.standard_normal((4, 8))
_Y = _rng.standard_normal((4, 2)) + 1j * _rng.standard_normal((4, 2))


def reference_task() -> complex:
    x = _Z
    for _ in range(20):
        p = x[:, [0, 1, 2, 4]] * x[:, [7, 6, 5, 3]]
        s = np.sum(np.abs(p) ** 0.5, axis=1)
        u, _, vh = np.linalg.svd(_Y * s[:2].sum(), full_matrices=False)
        x = x * np.exp(1j * 1e-3) + (u @ vh).sum() * 1e-9
    return complex(x[0, 0])


class SpeedSampler:
    """Context manager running the sampler child; ``factor`` rescales."""

    def __init__(self, path: str):
        self.path = path
        self.stamps: list = []
        self.seconds: list = []

    def __enter__(self):
        self._proc = subprocess.Popen([sys.executable, __file__, self.path, str(os.getpid())],
                                      stdin=subprocess.DEVNULL)
        deadline = time.monotonic() + 60.0
        while not (os.path.exists(self.path) and os.path.getsize(self.path) > 0):
            if self._proc.poll() is not None or time.monotonic() > deadline:
                self._stop()
                raise RuntimeError("the speed sampler did not start")
            time.sleep(PERIOD_S)
        return self

    def __exit__(self, *exc_info):
        self._stop()
        with open(self.path, encoding="ascii") as fh:
            for line in fh:
                if line.endswith("\n"):  # the last line may be cut by the stop
                    stamp, seconds = line.split()
                    self.stamps.append(float(stamp))
                    self.seconds.append(float(seconds))
        if not self.seconds:
            raise RuntimeError("the speed sampler recorded nothing")
        return False

    def _stop(self):
        self._proc.terminate()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()

    def factor(self, start: float, duration: float) -> float:
        """Rescaling for an operation that ran from ``start`` (monotonic clock)."""
        lo = bisect.bisect_left(self.stamps, start - PERIOD_S)
        hi = bisect.bisect_right(self.stamps, start + duration + PERIOD_S)
        if lo == hi:
            lo = min(lo, len(self.stamps) - 1)
            hi = lo + 1
        return NOMINAL_S / statistics.fmean(self.seconds[lo:hi])

    def median_s(self) -> float:
        return statistics.median(self.seconds)


def _sample(path: str, parent: int) -> None:
    with open(path, "w", encoding="ascii") as out:
        while os.getppid() == parent:
            reference_task()  # untimed, so that the caches the benchmark left do not count
            c0 = time.process_time()
            reference_task()
            c1 = time.process_time()
            out.write(f"{time.monotonic()!r} {c1 - c0!r}\n")
            out.flush()
            time.sleep(PERIOD_S)


if __name__ == "__main__":
    _sample(sys.argv[1], int(sys.argv[2]))
