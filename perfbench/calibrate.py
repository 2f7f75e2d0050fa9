"""A fixed reference kernel that puts host times on a steady scale.

On a shared host the same code runs at different speeds from moment to
moment.  On a 2-vCPU Xeon VM the CPU time of a fixed pure-Python loop
ranged from 0.17 to 0.24 s between consecutive calls, and slow phases
lasted tens of seconds: in one 30 s volunteer_chaos run nearly every
repetition took 1.0-1.2 s of CPU, in the runs before and after it most
took 0.6-0.8 s.  No statistic over one run removes a phase that covers
the whole run.  What does is timing a fixed piece of work next to every
repetition and expressing the repetition's time in units of it.

The kernel walks a 200 000-object linked structure through a dict and a
heap -- the pointer-chasing, cache-missing work of a discrete-event
simulation -- so contention from other tenants slows it about as much
as it slows the workloads.  With a memory-bound process on the other
vCPU half of the time, repetition time against kernel time had a log-log
slope of 0.93 (galaxy_render) and 0.95 (volunteer_chaos, one plan), and
dividing by the kernel time cut the repetitions' coefficient of
variation from 4.9% to 2.7% and from 5.8% to 3.0%.  ``REFERENCE_S`` is
the kernel's nominal time: a host time of ``t`` measured while the
kernel took ``k`` is reported as ``t * REFERENCE_S / k`` reference
seconds.

The kernel runs in a child process (:class:`Calibrator`) so that its
objects count neither towards the workload's peak RSS nor its garbage
collections.  The child only runs while the parent waits for it.

    python3 perfbench/calibrate.py   # serve: one kernel CPU time per input line
"""

from __future__ import annotations

import heapq
import random
import subprocess
import sys
import time
from pathlib import Path

#: Nominal CPU time of one :func:`kernel` call, in seconds.
REFERENCE_S = 0.1
N_OBJECTS = 200_000
N_LOOKUPS = 30_000


class _Node:
    __slots__ = ("value", "next")

    def __init__(self, value: int):
        self.value = value
        self.next = None


def build(seed: int = 1) -> tuple[dict, list]:
    """The kernel's data: a shuffled linked list reached through a dict."""
    rng = random.Random(seed)
    nodes = [_Node(i) for i in range(N_OBJECTS)]
    order = list(range(N_OBJECTS))
    rng.shuffle(order)
    for a, b in zip(order, order[1:]):
        nodes[a].next = nodes[b]
    table = {("node", i): node for i, node in enumerate(nodes)}
    keys = [("node", rng.randrange(N_OBJECTS)) for _ in range(N_LOOKUPS)]
    return table, keys


def kernel(table: dict, keys: list) -> int:
    heap: list = []
    total = 0
    for n, key in enumerate(keys):
        node = table[key]
        for _ in range(3):
            node = node.next or node
        total += node.value
        heapq.heappush(heap, (node.value, n, node))
        if len(heap) > 5000:
            heapq.heappop(heap)
    return total


def serve() -> None:
    table, keys = build()
    for _ in sys.stdin:
        t0 = time.process_time()
        kernel(table, keys)
        print(time.process_time() - t0, flush=True)


class Calibrator:
    """The kernel in a child process; :meth:`measure` runs it once."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def measure(self) -> float:
        """CPU seconds of one kernel call, run now."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"calibration kernel exited with {self.proc.wait()}")
        return float(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    serve()
