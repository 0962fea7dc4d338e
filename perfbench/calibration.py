"""A fixed reference computation that tracks how fast the machine runs.

On a shared VM the same code runs at two speeds about 1.5x apart, and a
slow spell can last minutes, longer than a whole benchmark run. No amount of
repetition within a run averages that out. So every run also times this
kernel, once per cycle, and reports its times scaled by the kernel's median
time in that run: a time ``t`` from a run whose kernel median was ``c``
seconds is reported as ``t * REFERENCE_S / c``.

The kernel mixes the kinds of work the solvers do: tuple pushes and pops on
a heap (Ward's merge queue), small numpy distance blocks (the medoid
search), and CSV parsing (the loader). Its inputs are fixed, and it calls
nothing in ``gcluster``, so a change to the program cannot change it.

The kernel runs in the measured process, so its memory (about 12 MiB) counts
in that process's peak RSS. Run in a companion process it tracked the
operations' times worse (see NOTES.md).
"""

from __future__ import annotations

import csv
import heapq
import io
import time

import numpy as np

# Reported times are what they would be on a machine where one kernel pass takes this long.
REFERENCE_S = 0.1
# Each calibration sample repeats the kernel for at least this long and keeps the mean.
SAMPLE_S = 0.3


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(170507666)
        self._points = rng.standard_normal((400, 3))
        rows = rng.standard_normal((4000, 5))
        self._csv = "\n".join(",".join(repr(float(v)) for v in row) for row in rows)
        self._keys = rng.random(60000).tolist()
        self.walls: list[float] = []
        self.cpus: list[float] = []

    def _kernel(self) -> None:
        heap = []
        for i, key in enumerate(self._keys):
            heapq.heappush(heap, (key, i, i))
        while heap:
            heapq.heappop(heap)
        X = self._points
        for lo in range(0, len(X), 8):
            diff = X[:, None, :] - X[None, lo : lo + 8, :]
            np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)).sum(axis=0)
        [[float(cell) for cell in row] for row in csv.reader(io.StringIO(self._csv))]

    def sample(self) -> None:
        """Record the mean wall and CPU seconds of one kernel pass."""
        passes = 0
        w0, c0 = time.perf_counter(), time.process_time()
        while passes == 0 or time.perf_counter() - w0 < SAMPLE_S:
            self._kernel()
            passes += 1
        self.walls.append((time.perf_counter() - w0) / passes)
        self.cpus.append((time.process_time() - c0) / passes)
