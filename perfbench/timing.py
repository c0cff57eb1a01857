"""Timing of public calls, corrected for the machine's changing speed.

On a shared host the same code runs up to 1.7x slower for stretches of a
fraction of a second to minutes, as other tenants load the hardware.  Raw
times then spread by 20-30% between runs.  To measure the program rather
than its neighbours, a :class:`SpeedSampler` times a fixed reference kernel
(NumPy 2x2 algebra in a Python loop, no tinregion code) every
:data:`PERIOD` seconds from a ``SIGALRM`` handler on the measuring thread.
Each timed call is divided by the slowdown sampled around it: the mean
reference time near the call over :data:`REF_SECONDS`.  The corrected times
are seconds on a machine where the reference kernel takes ``REF_SECONDS``.
On a 2-CPU virtual Xeon at 2.0 GHz the correction took the coefficient of
variation of 8 s stretches of GP calls from 13% to 2.4%; the handler costs
about 1% of the run.
"""

from __future__ import annotations

import math
import signal
from array import array
from time import perf_counter

import numpy as np

PERIOD = 0.05
REF_SECONDS = 2.8e-4  # the reference kernel's time on a quiet 2 GHz Xeon core
_A = np.array([[2.0, 0.5], [0.5, 1.0]])


def reference() -> float:
    """The fixed reference kernel (about 0.5 ms)."""
    s = 0.0
    for i in range(60):
        s += float(np.linalg.det(_A + i * 1e-3)) + math.log1p(abs(s) % 1.0)
    return s


class SpeedSampler:
    """Times :func:`reference` every ``PERIOD`` seconds while entered.

    Only for the main thread of a process that uses no other ``SIGALRM``.
    """

    def __init__(self):
        self.at = array("d")
        self.took = array("d")
        self.spent = 0.0  # seconds spent in the handler so far

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        reference()
        took = perf_counter() - t0
        self.at.append(t0)
        self.took.append(took)
        self.spent += took

    def slowdown(self, starts, ends) -> np.ndarray:
        """Mean reference time within two periods of each interval, over
        ``REF_SECONDS``; the run's mean where an interval has no sample, and
        1 if there is no sample at all."""
        at = np.frombuffer(self.at, dtype=float)
        took = np.frombuffer(self.took, dtype=float)
        if not len(took):
            return np.ones(len(starts))
        cum = np.concatenate(([0.0], np.cumsum(took)))
        lo = np.searchsorted(at, np.asarray(starts) - 2 * PERIOD)
        hi = np.searchsorted(at, np.asarray(ends) + 2 * PERIOD, side="right")
        n = hi - lo
        near = (cum[hi] - cum[lo]) / np.maximum(n, 1)
        return np.where(n > 0, near, took.mean()) / REF_SECONDS


class Clock:
    """Times public calls one after another; each call is one op id for
    the tracer."""

    def __init__(self, tracer=None, sampler: SpeedSampler | None = None):
        self.tracer = tracer
        self.sampler = sampler
        # (start, end, seconds outside the sampler's handler, ops completed)
        self.calls: list[tuple[float, float, float, int]] = []

    def call(self, n_ops: int, fn, *args, **kwargs):
        """Time ``fn(*args, **kwargs)``, a call that completes ``n_ops`` ops."""
        tracer, sampler = self.tracer, self.sampler
        if tracer is not None:
            tracer.op_id = len(self.calls)
            tracer.active = True
        spent = sampler.spent if sampler is not None else 0.0
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            if tracer is not None:
                tracer.active = False
            if sampler is not None:
                spent = sampler.spent - spent
            self.calls.append((t0, t1, t1 - t0 - spent, n_ops))

    def corrected(self) -> tuple[np.ndarray, np.ndarray]:
        """Each call's corrected seconds, and its op count."""
        if not self.calls:
            return np.zeros(0), np.zeros(0, dtype=int)
        t0, t1, dt, n_ops = (np.array(col) for col in zip(*self.calls))
        slow = self.sampler.slowdown(t0, t1) if self.sampler is not None else 1.0
        return dt / slow, n_ops.astype(int)
