"""Host-speed calibration.

On a shared host the speed of one core drifts by up to 1.7x for seconds
at a time, the same for wall and CPU time, so no window of plain wall
times is steady.  :func:`calibrate` times a fixed pure-Python event loop
shaped like the simulator's kernel, whose code no change to ``repro``
can touch.  A timed interval bracketed by two calibrations, scaled by
:func:`speed_scale`, reads as host seconds on a core running at the
reference speed ``CAL_REF_S``.
"""

import heapq
import time
from typing import Dict

#: Seconds :func:`calibrate` takes on an idle core of the reference host
#: (a 2-vCPU 2.1 GHz x86-64 VM, CPython 3.11).
CAL_REF_S = 0.026


class _Event:
    __slots__ = ("proc", "value")

    def __init__(self, proc: int, value: int):
        self.proc, self.value = proc, value


def _process(pid: int, state: Dict[int, Dict[str, float]]):
    n = 0
    while True:
        now = yield n
        n += 1
        rec = state.get(pid)
        if rec is None:
            rec = state[pid] = {"n": 0, "bytes": 0.0, "last": 0.0}
        rec["n"] += 1
        rec["bytes"] += now * 4096.0
        rec["last"] = now


class _MiniSim:
    """A fixed generator-process event loop shaped like the simulator's
    kernel: a heap of events, processes resumed with ``send``, per-process
    dict state.  Its code lives here, so no change to ``repro`` moves it."""

    PROCS = 2000

    def __init__(self) -> None:
        self.state: Dict[int, Dict[str, float]] = {}
        self.procs = []
        for pid in range(self.PROCS):
            gen = _process(pid, self.state)
            next(gen)
            self.procs.append(gen)
        self.heap = [(pid * 0.001, pid, _Event(pid, 0))
                     for pid in range(self.PROCS)]
        heapq.heapify(self.heap)
        self.seq = self.PROCS

    def run(self, steps: int) -> None:
        heap, procs, n_procs = self.heap, self.procs, self.PROCS
        for _ in range(steps):
            t, _, ev = heapq.heappop(heap)
            n = procs[ev.proc].send(t)
            self.seq += 1
            heapq.heappush(heap, (t + 0.5 + (n % 13) * 0.01, self.seq,
                                  _Event((ev.proc * 7 + n) % n_procs, n)))


def calibrate(chunks: int = 9, steps: int = 2500) -> float:
    """Seconds for ``chunks`` passes of :class:`_MiniSim`, read as
    ``chunks`` times the fastest pass.

    The fastest pass ignores interruptions shorter than the calibration
    while still tracking a slow phase, which slows every pass.  An
    untimed pass first, so a fresh process pays no warm-up.
    """
    sim = _MiniSim()
    sim.run(steps)
    fastest = float("inf")
    for _ in range(chunks):
        start = time.perf_counter()
        sim.run(steps)
        fastest = min(fastest, time.perf_counter() - start)
    return fastest * chunks


def speed_scale(before: float, after: float) -> float:
    """Factor turning host seconds between two calibrations into
    reference-speed seconds."""
    return CAL_REF_S / ((before + after) / 2)
