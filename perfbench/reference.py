"""A fixed CPU kernel timed beside the ops to track the machine's speed.

On a shared machine the same code runs up to 40% slower for seconds to
minutes at a time, and process CPU time slows with it. The kernel does
the kinds of work an op does, using numpy and Python only and no cdrm
code: a forward and input-gradient pass of a toy-shaped tanh MLP over 512
rows, per-sample generator construction, and a cell-hash dedup loop over
Python tuples like `collect_valid`. Each op's time is scaled by the
median of the kernel samples taken around it (see harness.py); raw times
go in the run record.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# A round figure below the kernel's median on the development machine
# (2-vCPU container, 6-10 ms); it only sets the scale of reported times.
NOMINAL_S = 6.0e-3

_DIMS = (2, 64, 128, 64, 1)
_ROWS = 512
_GENERATORS = 16
_CANDIDATES = 1500
_TOLERANCE = 3e-3


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._weights = [
            rng.uniform(-0.3, 0.3, size=(fan_out, fan_in))
            for fan_in, fan_out in zip(_DIMS[:-1], _DIMS[1:])
        ]
        self._x = rng.uniform(-1.0, 1.0, size=(_ROWS, _DIMS[0]))
        self._candidates = rng.normal(0.0, 0.3, size=_CANDIDATES).tolist()

    def _kernel(self) -> int:
        acts = [self._x]
        a = self._x
        last = len(self._weights) - 1
        for i, w in enumerate(self._weights):
            z = a @ w.T
            a = z if i == last else np.tanh(z)
            acts.append(a)
        g = np.ones((_ROWS, 1))
        for i in range(last, -1, -1):
            g = g @ self._weights[i]
            if i > 0:
                g = g * (1.0 - acts[i] ** 2)
        for k in range(_GENERATORS):
            np.random.Generator(np.random.PCG64(np.random.SeedSequence([7, k]))).normal(size=50)
        cells: dict[tuple, list] = {}
        kept: list[tuple] = []
        for x in self._candidates:
            xt = (x,)
            cell = (int(x // _TOLERANCE),)
            duplicate = any(
                all(abs(p - q) <= _TOLERANCE for p, q in zip(xt, kept[j]))
                for off in (-1, 0, 1)
                for j in cells.get((cell[0] + off,), ())
            )
            if not duplicate:
                cells.setdefault(cell, []).append(len(kept))
                kept.append(xt)
        return len(kept)

    def time(self, times: int = 1) -> list[float]:
        """Run the kernel `times` times and return each run's seconds.

        The garbage collector is paused while timing, so a collection of
        objects the op left behind does not land in the kernel's time.
        """
        samples = []
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(times):
                t0 = time.perf_counter()
                self._kernel()
                samples.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        return samples


def scale(samples: list[float]) -> float:
    """Factor that turns a time measured beside `samples` into NOMINAL_S units."""
    return NOMINAL_S / statistics.median(samples)


def local_scales(samples: list[float], half_width: int = 4) -> list[float]:
    """One factor per sample, from the median of the samples around it.

    With one kernel sample after each op this follows speed changes that
    last a few ops, without letting one disturbed sample set an op's scale.
    """
    return [
        scale(samples[max(0, i - half_width) : i + half_width + 1]) for i in range(len(samples))
    ]
