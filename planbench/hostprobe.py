"""Host-speed probe: a thread that times a fixed kernel on the planner's
own CPU, so each measured interval can be expressed at a reference speed.

The CPU speed of a small virtual machine drifts in phases lasting seconds
(a fixed loop can take twice as long from one second to the next), and
process CPU time drifts with it, so neither wall nor CPU time repeats from
run to run.  A probe on *another* CPU does not follow the planner's CPU; a
thread sharing the planner's CPU does.  So each process that runs planner
code pins its main thread, after numpy has started its thread pool (which
keeps its own placement), and starts a :class:`HostProbe`; threads it
starts later inherit the pin.  Every ``PERIOD`` the probe runs ``kernel``
(about 0.35 ms of interpreter work of the kind the planner's event
simulations do) and records when it ran and the CPU time it took.  Thread
CPU time leaves out the time the probe waits for the interpreter lock or
for the CPU, and it slows down with the host just as wall time does.

:func:`normalise` rescales a time measured over ``[t0, t1]`` by
``REFERENCE_S / (median probe time inside the window)``: the value the
interval would have taken on a host where the kernel takes ``REFERENCE_S``.
Probe timestamps are ``time.time()`` so windows from different processes
compare directly.
"""

from __future__ import annotations

import heapq
import os
import statistics
import threading
import time

#: probe period; the kernel occupies ~4% of the pinned CPU, in slices
#: short enough that a request waiting behind one loses little
PERIOD = 0.010
#: the kernel's duration on the reference host; normalised times are
#: seconds at that speed
REFERENCE_S = 0.4e-3
#: fewer probe samples than this inside a window widen it symmetrically
#: (~0.6 s of probes: host phases last seconds, and a short operation's own
#: window holds too few probes for a steady median)
MIN_SAMPLES = 61


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key, self.value = key, value


def kernel() -> int:
    """Fixed work in the interpreter: an int/dict loop, then objects
    through a heap and a keyed sort (the event-simulation mix).  Pure
    Python, so it never releases the interpreter lock mid-kernel."""
    acc = 0
    table: dict[int, int] = {}
    for i in range(1700):
        acc += (i * i) % 7
        table[i & 63] = acc
    items = [_Item(i, i * 3 % 17) for i in range(100)]
    heap: list[tuple[int, int]] = []
    for item in items:
        heapq.heappush(heap, (item.value, item.key))
    while heap:
        value, key = heapq.heappop(heap)
        acc += value * key
    items.sort(key=lambda item: (item.value, item.key))
    return acc


def pin_to_one_cpu() -> int:
    """Pin the calling thread (and the threads it starts afterwards) to the
    highest CPU it may run on; returns that CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class HostProbe:
    """Background sampler of :func:`kernel` durations."""

    def __init__(self) -> None:
        #: (time.time() at start, duration in s) per probe
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="host-probe",
                                        daemon=True)

    def start(self) -> "HostProbe":
        self._thread.start()
        return self

    def stop(self) -> list[tuple[float, float]]:
        self._stop.set()
        self._thread.join(timeout=5)
        return self.samples

    def _loop(self) -> None:
        cpu = time.thread_time
        while not self._stop.is_set():
            stamp, t0 = time.time(), cpu()
            kernel()
            self.samples.append((stamp, cpu() - t0))
            self._stop.wait(PERIOD)


def window_probe(samples, t0: float, t1: float) -> float:
    """Median probe duration over ``[t0, t1]``, widened until it holds at
    least ``MIN_SAMPLES`` probes (all of them if there are fewer)."""
    if not samples:
        raise ValueError("no host-probe samples")
    ordered = sorted(samples)
    pad = 0.0
    while True:
        inside = [d for s, d in ordered if t0 - pad <= s <= t1 + pad]
        if len(inside) >= min(MIN_SAMPLES, len(ordered)):
            break
        pad = max(PERIOD, 2 * pad)
    return statistics.median(inside)


def normalise(value: float, samples, t0: float, t1: float) -> float:
    """``value`` (a time measured over ``[t0, t1]``) at the reference
    speed."""
    return value * REFERENCE_S / window_probe(samples, t0, t1)
