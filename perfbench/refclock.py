"""Reference-scaled timing.

The host this benchmark was built on changes speed by up to a factor of
two in phases lasting about a second, with process CPU time equal to wall
time, so raw seconds measure the host as much as the program. Each timed
interval is therefore set against a fixed pure-Python reference kernel
timed just before, just after and around it, and its raw duration is
multiplied by (NOMINAL_S / k) ** ALPHA, k the median kernel time within
WINDOW_S of it. A scaled second is a second on a host where the kernel
takes NOMINAL_S.

ALPHA is a calibration of the host, not of the program. Between its fast
and slow phases the kernel's time changed by a factor of about 1.7 and
the workloads' by about 1.45: raw times moved as the 0.70th power of the
kernel's for `corpus`, 0.69th for `numeric` and 0.66th for a fixed slice
of `corpus` ops timed alternately with the kernel. Scaling by the plain
ratio (ALPHA = 1) over-corrected, so a run made in a fast phase read
slow.

The kernel mixes the operations the library spends its time on: Fraction
arithmetic and reduction, tuple building, set and dict lookups, integer
gcds and complex exponentials, plus the command line's own per-call work,
building an argparse parser and a JSON round trip. Of the kernels tried,
the Fraction part alone tracked the counting and numeric workloads best
and the command-line part the corpus workload; the mix serves all three.
It imports nothing from spectral_affine.
"""

from __future__ import annotations

import argparse
import bisect
import cmath
import json
import math
import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.005
CHUNK_S = 0.15
WINDOW_S = 1.0
ALPHA = 0.7


def reference_kernel() -> int:
    seen: dict = {}
    x = (Fraction(0), Fraction(0))
    acc = 0j
    g = 0
    for i in range(1, 180):
        x = ((x[0] + Fraction(i % 7, 3 + i % 5)) % 1, (x[1] * 3 + Fraction(1, 2 + i % 9)) % 1)
        seen[x] = seen.get(x, 0) + 1
        acc += cmath.exp(2j * math.pi * float(x[0] - x[1]))
        g += math.gcd(i * 1234567, 987654321 + i)
    ap = argparse.ArgumentParser(prog="reference")
    ap.add_argument("command")
    for i in range(10):
        ap.add_argument(f"--option{i}", type=int, default=None)
    opts = ap.parse_args(["run", "--option1", "3", "--option7", "5"])
    text = json.dumps({"M": [[3, 1], [1, 4]], "D": [[0, 0], [1, 0], [0, 1]], "xi": [[1, 3], 2]})
    for _ in range(5):
        text = json.dumps(json.loads(text), sort_keys=True, indent=1)
    return len(seen) + g + int(abs(acc)) + opts.option1 + len(text)


def reference_time() -> float:
    """Best of two kernel runs, in raw seconds."""
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class ScaledClock:
    """Scales raw durations by the reference kernel's speed around them.

    The kernel runs at the boundaries of chunks of about CHUNK_S raw
    seconds of work. A duration is scaled by the median of the kernel
    times measured from WINDOW_S before it starts to WINDOW_S after it
    ends, so each factor rests on several measurements instead of two,
    while still following speed phases that last a second or more.
    """

    def __init__(self):
        self.refs: list[float] = []
        self._times: list[float] = []
        self._pending: list = []
        self._sample()
        self._chunk_start = time.perf_counter()

    def _sample(self) -> None:
        self.refs.append(reference_time())
        self._times.append(time.perf_counter())

    def add(self, raw: float, sink) -> None:
        """Queue a duration that ended just now; sink(raw, factor) is
        called once the factor for it is known."""
        end = time.perf_counter()
        self._pending.append((end - raw, end, raw, sink))
        if end - self._chunk_start >= CHUNK_S:
            self._sample()
            self._chunk_start = time.perf_counter()
            self._convert(self._times[-1] - WINDOW_S)

    def flush(self) -> None:
        """Scale every queued duration with the measurements made so far."""
        if self._pending:
            self._sample()
            self._chunk_start = time.perf_counter()
            self._convert(math.inf)

    def _convert(self, ended_before: float) -> None:
        keep = []
        for start, end, raw, sink in self._pending:
            if end > ended_before:
                keep.append((start, end, raw, sink))
                continue
            lo = bisect.bisect_left(self._times, start - WINDOW_S)
            hi = bisect.bisect_right(self._times, end + WINDOW_S)
            sink(raw, (NOMINAL_S / statistics.median(self.refs[lo:hi])) ** ALPHA)
        self._pending = keep
