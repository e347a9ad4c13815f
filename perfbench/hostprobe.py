"""Host-speed probe: times a fixed mix of numpy and Python every 50 ms.

Usage: python3 perfbench/hostprobe.py <cpu> <samples file> <max seconds>

Pinned to the CPU the timed children run on, it wakes every 50 ms, times
one 2048-point FFT, one distance row over a 2000 x 16 table and 1000
Python additions (about 0.5 ms of the kinds of work the workloads do)
and appends "<monotonic> <seconds>" to the samples file, so it takes
about 1 % of that CPU. It exits after <max seconds> or when terminated.
run.py divides each repeat's wall time by the mean probe time over that
repeat: a phase in which a shared host runs the CPU slower stretches both
and cancels out of ``wall_rel``, while a change to vocalscreen moves only
the wall time.
"""

import os
import sys
import time

import numpy as np

PERIOD_S = 0.05


def main() -> int:
    cpu, path, limit = int(sys.argv[1]), sys.argv[2], float(sys.argv[3])
    os.sched_setaffinity(0, {cpu})
    frame = np.arange(2048, dtype=np.float64) % 97.0
    table = (np.arange(2000 * 16, dtype=np.float64) % 13.0).reshape(2000, 16)
    end = time.monotonic() + limit
    with open(path, "w", buffering=1) as out:
        while time.monotonic() < end:
            start = time.perf_counter()
            np.abs(np.fft.rfft(frame)) ** 2
            np.abs(table - table[3]).sum(axis=1)
            total = 0
            for i in range(1000):
                total += i
            out.write(f"{time.monotonic()!r} {time.perf_counter() - start!r}\n")
            time.sleep(PERIOD_S)
    return 0


if __name__ == "__main__":
    sys.exit(main())
