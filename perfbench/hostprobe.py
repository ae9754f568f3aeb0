"""Host-speed probe: how fast the benchmark's CPU runs, sampled through a run.

    python3 perfbench/hostprobe.py OUT

On a host shared with other jobs, the same fit takes up to 1.8 times as
long when a neighbour loads the core it runs on, and the load changes
from one second to the next. The probe runs beside the fits on the same
CPU (the runner pins itself to one CPU before it starts the probe, and
the probe inherits that). Every ``PERIOD_S`` it wakes, runs a fixed loop
of numpy calls on small arrays, the kind of work a fit is made of, and
records the loop's CPU time, which grows with the core's load but not
with the time the probe waits for the CPU. Sleeping between samples, it
takes about 2% of the CPU. On SIGTERM, or when its
parent is gone, it writes ``start cost`` lines (``time.perf_counter``
seconds, shared by every process on the machine) to OUT and exits.

``HostProbe`` starts and stops the probe from the runner and turns its
samples into the factor by which a timed interval ran slower than the
reference speed.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ITERATIONS = 60
PERIOD_S = 0.025
# the probe loop's CPU time on an unloaded core of the reference machine
# (2.1 GHz x86-64, see README); it only sets the scale of the figures
REFERENCE_COST_S = 0.000190
MIN_SAMPLES = 5  # a shorter interval borrows the nearest samples around it
LIFETIME_S = 900.0  # a probe whose runner never stops it stops itself


_ARRAY = np.linspace(-2.0, 2.0, 40)


def sample() -> float:
    start = time.thread_time()
    x = _ARRAY
    for _ in range(ITERATIONS):
        x = np.exp(-np.abs(x)) + 0.5 * _ARRAY
    return time.thread_time() - start


def main(out: str) -> int:
    parent = os.getppid()
    samples: list[tuple[float, float]] = []
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    deadline = time.perf_counter() + LIFETIME_S
    try:
        t = time.perf_counter()
        samples.append((t, sample()))
        print("ready", flush=True)
        while os.getppid() == parent and t < deadline:
            time.sleep(PERIOD_S)
            t = time.perf_counter()
            samples.append((t, sample()))
    finally:
        with open(out, "w") as fh:
            fh.writelines(f"{t!r} {c!r}\n" for t, c in samples)
    return 0


class HostProbe:
    """The probe process of one run, and what its samples say."""

    def __init__(self, out: Path):
        self.out = out
        self.proc: subprocess.Popen | None = None
        self.times = self.costs = None

    def start(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(self.out)], stdout=subprocess.PIPE, text=True
        )
        self.proc.stdout.readline()  # the first sample is taken

    def stop(self) -> None:
        """Stop the probe, wait for it, and read its samples. Safe to
        call again.
        """
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        proc.terminate()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        data = np.loadtxt(self.out, ndmin=2)
        self.times, self.costs = data[:, 0], data[:, 1]

    def slowdown(self, start: float, end: float) -> float:
        """Mean probe cost over [start, end] against the reference cost:
        1.0 on an unloaded core, above 1 while neighbours load it.
        """
        inside = np.flatnonzero((self.times >= start) & (self.times <= end))
        if inside.size < MIN_SAMPLES:
            mid = 0.5 * (start + end)
            inside = np.argsort(np.abs(self.times - mid), kind="stable")[:MIN_SAMPLES]
        return float(np.mean(self.costs[inside])) / REFERENCE_COST_S

    def scaled(self, start: float, seconds: float) -> float:
        """The interval's wall time at the reference speed."""
        return seconds / self.slowdown(start, start + seconds)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
