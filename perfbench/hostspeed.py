"""Host-speed probe: how fast the machine ran while each job ran.

On a shared host the same job can take 1.8 times longer in one minute than
in the next, because other tenants slow both vCPUs at once (the slowdowns
seen on one vCPU and on the other correlate at 0.98 in 0.5 s bins).  Such
phases last seconds to minutes, so they do not average out within a run.

`HostSpeed` starts one small second process that runs a fixed kernel of
small numpy operations and Python arithmetic (the same kind of work as the
program's RK4 sweeps) for about 1 ms every PERIOD_S seconds and records
the kernel's thread CPU time.  Thread CPU time leaves out the time the
probe waits for a vCPU inside the guest, so the probe sees the host's
slowdown, not the benchmark's own threads.  `scale(t0, t1)` is
NOMINAL_KERNEL_S over the kernel's mean time during [t0, t1]: multiplying
a wall time by it gives the wall time on a host where the kernel takes
exactly NOMINAL_KERNEL_S.  The reference is a constant, not the run's own
fastest sample, because a run spent wholly in a slow phase has no fast
sample.  The probe costs about 5 % of one vCPU.

    python3 perfbench/hostspeed.py OUT_FILE   # the probe process itself
"""

from __future__ import annotations

import bisect
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

PERIOD_S = 0.02
KERNEL_LOOPS = 200
#: the kernel time that scaled wall times refer to; in the fastest runs
#: on a 2-vCPU Xeon VM the kernel took 0.93 ms
NOMINAL_KERNEL_S = 1e-3

_A = np.linspace(0.0, 1.0, 16)


def _kernel() -> float:
    s = 0.0
    for _ in range(KERNEL_LOOPS):
        b = _A * 1.0001 + 0.5
        s += float(b.sum())
        s += sum(j * 0.5 for j in range(20))
    return s


def probe(out: Path) -> None:
    """Sample until SIGTERM or until the parent is gone, then write
    'start end cpu_s' lines to `out`."""
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(1))
    parent = os.getppid()
    samples = []
    print("ready", flush=True)
    while not stop and os.getppid() == parent:
        # perf_counter is CLOCK_MONOTONIC on Linux, shared with the parent
        t0, c0 = time.perf_counter(), time.thread_time()
        _kernel()
        samples.append((t0, time.perf_counter(), time.thread_time() - c0))
        time.sleep(PERIOD_S)
    out.write_text("".join(f"{a!r} {b!r} {c!r}\n" for a, b, c in samples))


class HostSpeed:
    """Runs the probe process between `start()` and `stop()`."""

    def __init__(self, work: Path):
        self.path = work / "hostspeed.txt"
        self.proc = None
        self.mid, self.cpu = [], []

    def start(self) -> None:
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                                      str(self.path)], stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self.stop()
            raise RuntimeError("host-speed probe did not start")

    def stop(self) -> None:
        """Stop the probe, wait for it, and load its samples."""
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
        if not self.path.exists():
            raise RuntimeError(f"host-speed probe exited {proc.returncode} without samples")
        rows = sorted(tuple(map(float, ln.split())) for ln in self.path.read_text().splitlines())
        if len(rows) < 20:
            raise RuntimeError(f"host-speed probe took only {len(rows)} samples")
        self.mid = [(a + b) / 2.0 for a, b, _ in rows]
        self.cpu = [c for _, _, c in rows]

    def scale(self, t0: float, t1: float) -> float:
        """NOMINAL_KERNEL_S over the kernel's mean time during [t0, t1];
        the nearest sample stands in when none fell inside."""
        lo, hi = bisect.bisect_left(self.mid, t0), bisect.bisect_right(self.mid, t1)
        if hi <= lo:
            lo = min(range(max(lo - 1, 0), min(lo + 1, len(self.mid))),
                     key=lambda i: abs(self.mid[i] - (t0 + t1) / 2.0))
            hi = lo + 1
        return NOMINAL_KERNEL_S / statistics.fmean(self.cpu[lo:hi])


if __name__ == "__main__":
    probe(Path(sys.argv[1]))
