"""Co-scheduled speed probe: how fast the benchmark's CPU runs right now.

On a shared host the speed of a vCPU swings by up to 2.5x for seconds at a
time (most likely other tenants on the same host), with no steal time shown,
so process CPU time swings with wall time. The probe is a second process
pinned to the benchmark's CPU. Every PROBE_EVERY_S it runs a small fixed
kernel and records the kernel's own CPU seconds, which scale with the CPU's
speed at that moment. bench.py rescales each measured interval to the
kernel's reference time: a time measured while the kernel took twice its
reference time counts half.

Code of different kinds slows down by different amounts, so the kernels
are of the kinds the measured work is made of: "python" is pure-Python
integer mixing, like terank's pure-Python RNG; "memory" is reads scattered
over a heap larger than the core's caches; "numpy" is a float64 matmul
and ufuncs on an array like a model's reduced features, like the scoring
and reduction code. Given several kinds, the probe takes turns, and the
slowdown of an interval is the geometric mean of the kinds' slowdowns.
The kernels are the benchmark's own code, so that a change to terank does
not change the probe.

    python3 zoobench/speed.py <kind>[,<kind>...] <cpu> <samples file>

writes one `<perf_counter start> <kind> <kernel cpu seconds>` line per
sample until it is terminated or its parent exits.
"""
from __future__ import annotations

import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

PROBE_EVERY_S = 0.02
# Each kernel's CPU seconds on an uncontended core of the reference host (a
# 2-vCPU Xeon, Sapphire Rapids, KVM guest); rescaled times read as seconds
# on such a core.
REF_PROBE_S = {"python": 0.0004, "memory": 0.00025, "numpy": 0.0004}
# An interval with fewer samples than this (a tiny op) borrows the nearest.
MIN_SAMPLES = 5
MAX_LIFETIME_S = 900.0

_MASK = 0xFFFFFFFFFFFFFFFF


class ProbeError(Exception):
    """The probe process could not start."""


def _python_kernel():
    def run() -> int:
        # SplitMix64 mixing: interpreter work on small integers, like
        # terank's pure-Python RNG
        s = z = 1
        for _ in range(1000):
            s = (s + 0x9E3779B97F4A7C15) & _MASK
            z = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z
    return run


def _memory_kernel():
    # Reads of float objects scattered over a heap of about 32 MB, far
    # larger than a core's own caches.
    rng = random.Random(0)
    heap = [float(i) for i in range(1_000_000)]
    rng.shuffle(heap)
    picks = [rng.randrange(len(heap)) for _ in range(1000)]

    def run() -> float:
        total = 0.0
        for i in picks:
            total += heap[i]
        return total
    return run


def _numpy_kernel():
    import numpy as np

    x = np.linspace(-1.0, 1.0, 1000 * 80).reshape(1000, 80)
    w = np.linspace(-0.5, 0.5, 80 * 10).reshape(80, 10)

    def run() -> float:
        logits = x @ w
        return float(np.log(np.exp(logits).sum(axis=1)).sum() + (x * x).sum())
    return run


KERNELS = {"python": _python_kernel, "memory": _memory_kernel, "numpy": _numpy_kernel}


class Probe:
    """Runs speed.py with the given kinds of kernel, pinned to `cpu`, for
    the life of the context, and keeps its samples as (start, kind,
    seconds) triples."""

    def __init__(self, kinds: tuple[str, ...], cpu: int, path: Path):
        self.kinds = kinds
        self.cpu = cpu
        self.path = path
        self.samples: list[tuple[float, str, float]] = []
        self._proc: subprocess.Popen | None = None

    def __enter__(self) -> "Probe":
        self._proc = subprocess.Popen([sys.executable, __file__, ",".join(self.kinds),
                                       str(self.cpu), str(self.path)],
                                      stdin=subprocess.DEVNULL)
        deadline = time.monotonic() + 30
        while not self.read():
            if self._proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise ProbeError("the speed probe did not start")
            time.sleep(0.05)
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def stop(self) -> None:
        if self._proc is not None:
            if self._proc.poll() is None:
                self._proc.terminate()
            try:
                self._proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
            self._proc = None
        self.read()

    def read(self) -> list[tuple[float, str, float]]:
        try:
            lines = self.path.read_text().splitlines()
        except OSError:
            return self.samples
        # the last line may be half written
        self.samples = [(float(t), kind, float(d)) for t, kind, d in
                        (line.split() for line in lines if line.count(" ") == 2)]
        return self.samples

    def window(self, t0: float, t1: float, kind: str) -> list[float]:
        """Kernel seconds of the `kind` samples started in [t0, t1), or of
        the MIN_SAMPLES nearest its middle if it holds fewer."""
        mine = [(t, d) for t, k, d in self.samples if k == kind]
        inside = [d for t, d in mine if t0 <= t < t1]
        if len(inside) >= MIN_SAMPLES:
            return inside
        mid = (t0 + t1) / 2
        return [d for _, d in sorted(mine, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]]

    def slowdown(self, t0: float, t1: float, kinds: tuple[str, ...] | None = None) -> float:
        """How many times slower than the reference the CPU ran over
        [t0, t1), for work of the given kinds (by default the probe's)."""
        return statistics.geometric_mean(
            statistics.fmean(self.window(t0, t1, kind)) / REF_PROBE_S[kind]
            for kind in kinds or self.kinds)

    def rescale_wall(self, t0: float, t1: float, seconds: float,
                     kinds: tuple[str, ...] | None = None) -> float:
        """Wall seconds measured over [t0, t1], less the probe's own share
        of the CPU, at the reference speed."""
        stolen = sum(d for t, _, d in self.samples if t0 <= t < t1)
        return max(seconds - stolen, 0.0) / self.slowdown(t0, t1, kinds)

    def rescale_cpu(self, t0: float, t1: float, seconds: float) -> float:
        """CPU seconds of the benchmark over [t0, t1] at the reference speed."""
        return seconds / self.slowdown(t0, t1)


def main() -> None:
    kinds, cpu, path = sys.argv[1].split(","), int(sys.argv[2]), sys.argv[3]
    os.sched_setaffinity(0, {cpu})
    kernels = [(kind, KERNELS[kind]()) for kind in kinds]
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    parent = os.getppid()
    end = time.monotonic() + MAX_LIFETIME_S
    with open(path, "w") as out:
        turn = 0
        while os.getppid() == parent and time.monotonic() < end:
            kind, kernel = kernels[turn % len(kernels)]
            turn += 1
            t0 = time.perf_counter()
            c0 = time.thread_time()
            kernel()
            out.write(f"{t0:.6f} {kind} {time.thread_time() - c0:.9f}\n")
            out.flush()
            time.sleep(PROBE_EVERY_S)


if __name__ == "__main__":
    main()
