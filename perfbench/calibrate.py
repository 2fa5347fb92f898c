"""A fixed reference kernel that tracks the host's CPU speed during a run.

On a shared host the throughput of one core drifts over tens of seconds:
the same solve, repeated back to back, takes anywhere from 0.8x to 1.3x its
usual time, and CPU time tracks wall time, so the drift is in throughput,
not in scheduling.  No statistic over one run removes a drift that lasts
longer than the run.  The reference kernel does: it is a fixed mix of the
work gradcon does (a sparse LU factorization and solve, numpy reductions
over quadrature-shaped arrays, and an interpreted loop) on inputs that
never change, so its time moves only with the host.  The benchmark runs it
about every ``every`` seconds between Newton stages and between
repetitions, and reports times scaled to the nominal speed:

    reported = measured * REF_NOMINAL_S / mean(reference times meanwhile)

where "meanwhile" is the repetition the time belongs to, or the set-up
phase.
The kernel's own time is taken off every measured interval (``clock``), so
the program's timings hold no reference work.  A change to gradcon cannot
change the kernel: it uses numpy and scipy only, with the BLAS thread count
the benchmark fixes before numpy loads.
"""

from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# mean reference time on a 2-vCPU Intel Xeon VM at 2.1 GHz, 1 BLAS thread;
# it only sets the scale, so reported times read as seconds on that machine
REF_NOMINAL_S = 0.025


class Reference:
    """The kernel and its fixed inputs."""

    def __init__(self, m: int = 40, cells: int = 2048):
        t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
        eye = sp.identity(m)
        self.a = (sp.kron(eye, t) + sp.kron(t, eye)).tocsc()
        self.b = np.ones(m * m)
        self.x = np.random.default_rng(0).random((cells, 3, 7))
        self.expected = None

    def run(self) -> float:
        """One pass; returns a checksum that must repeat exactly."""
        total = 0.0
        for _ in range(3):
            z = spla.splu(self.a).solve(self.b)
            total += float(z @ self.b)
        for _ in range(40):
            total += float(np.einsum("tqi,tqi->", self.x, self.x))
            total += float(np.linalg.norm(self.x, axis=-1).sum())
        acc = 0
        for i in range(40_000):
            acc += i * i % 7
        return total + acc

    def check(self, value: float) -> None:
        if self.expected is None:
            self.expected = value
        elif value != self.expected:
            raise RuntimeError(f"reference kernel checksum {value!r} != {self.expected!r}")


class Calibrator:
    """Runs the reference about every ``every`` seconds and keeps its times."""

    def __init__(self, every: float = 0.5, reference: Reference | None = None,
                 timer=time.perf_counter):
        self.every = every
        self.reference = reference or Reference()
        self.timer = timer
        self.samples: list[float] = []
        self.spent = 0.0
        self.reference.check(self.reference.run())      # warm-up, untimed
        self._last = timer()

    def clock(self) -> float:
        """Wall clock with the reference's own time taken off."""
        return self.timer() - self.spent

    def tick(self) -> None:
        t0 = self.timer()
        value = self.reference.run()
        t1 = self.timer()
        self.reference.check(value)
        self.samples.append(t1 - t0)
        self.spent += self.timer() - t0
        self._last = self.timer()

    def maybe_tick(self) -> None:
        if self.timer() - self._last >= self.every:
            self.tick()

    def factor(self, start: int = 0) -> float:
        """Multiplier that scales times to the nominal speed, from the passes
        made since ``len(samples)`` was ``start`` (all of them if none was)."""
        return REF_NOMINAL_S / statistics.fmean(self.samples[start:] or self.samples)

    @contextmanager
    def between_calls(self, module, name: str):
        """Let the reference run before calls to ``module.name``, if it exists."""
        fn = getattr(module, name, None)
        if fn is None:
            yield
            return

        @functools.wraps(fn)
        def ticking(*args, **kwargs):
            self.maybe_tick()
            return fn(*args, **kwargs)

        setattr(module, name, ticking)
        try:
            yield
        finally:
            setattr(module, name, fn)
