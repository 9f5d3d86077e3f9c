"""Host-speed calibration: a fixed pure-Python kernel timed between
the measured operations.

On a shared host the same code runs at different speeds from one second
or minute to the next (clock boost, a busy or idle SMT sibling).  The
kernel below does a fixed amount of work and calls no code of the
program under test, so its time tracks the host alone.  Its mix of
interpreter work and a pointer chase through a 4 MB ring is chosen so
that it speeds up about as much as the benchmark's operations do when
the host does (about 1.5x): interpreter work alone speeds up about
1.8x, and the chase alone about 1.2x.

Every timed sample is bracketed by a kernel run before and after it.
The host has two speeds: its base speed (where ``REFERENCE_S`` was
taken) and a faster state.  A sample whose brackets agree ran in one
state throughout.  ``select`` keeps the base-speed samples, or the
fast ones when there are too few of those, and each kept sample is
scaled by ``REFERENCE_S / its bracket kernels' median time``.  So every
run reports samples from a single state, corrected to the base speed.
A change to the program moves the measured time and leaves the
kernel's, so it moves the scaled time by the same share.
"""

from __future__ import annotations

import gc
import statistics
import time
from array import array

#: The kernel's time, in seconds, at the reference speed: its median on
#: the 2-vCPU Intel Xeon (2.0 GHz) host where the bounds were set, in
#: the host's slower (base) state.
REFERENCE_S = 0.0080
#: A kernel at least this share of ``REFERENCE_S`` reads base speed.
#: The host's faster state reads about 0.68 of it.
BASE_SHARE = 0.85
#: Fewest samples of one state a key needs to use only that state.
MIN_SAMPLES = 3

#: Loop trips of the interpreter part and of the pointer chase.
TRIPS = 6_000
CHASE_TRIPS = 13_000
#: Entries of the chase ring: 4 MB of C ints, not tracked by the GC.
CHASE_SIZE = 1 << 20

clock = time.perf_counter
_ring = array("i")


class _Node:
    __slots__ = ("value", "peer")

    def __init__(self, value: int):
        self.value = value
        self.peer = self

    def step(self, k: int) -> int:
        self.value = (self.value * 31 + k) & 0xFFFF
        return self.value


def _build_ring() -> None:
    """One cycle through all ``CHASE_SIZE`` slots, scattered over the
    ring: a full-period linear congruential step (``CHASE_SIZE`` is a
    power of two, the multiplier is 1 mod 4 and the increment odd)."""
    mask = CHASE_SIZE - 1
    _ring.extend((5_943_165 * slot + 1_013_904_223) & mask
                 for slot in range(CHASE_SIZE))


def kernel() -> int:
    """Fixed work: attribute reads and writes, method and closure
    calls, dict and list traffic, small allocations, then a chase of
    dependent loads through the ring."""
    if not _ring:
        _build_ring()
    nodes = [_Node(i) for i in range(64)]
    for i, node in enumerate(nodes):
        node.peer = nodes[(i * 7 + 3) & 63]
    table = {}
    queue = []
    acc = 0

    def mix(a: int, b: int) -> int:
        return (a ^ (b << 1)) & 0xFFFF

    for k in range(TRIPS):
        node = nodes[k & 63]
        value = node.step(k)
        table[value & 255] = (value, k)
        queue.append(mix(value, node.peer.value))
        if len(queue) > 32:
            acc += sum(queue)
            queue.clear()
        acc += table.get(k & 255, (0, 0))[0]
    ring = _ring
    slot = 0
    for _ in range(CHASE_TRIPS):
        slot = ring[slot]
    return acc + slot


class HostSpeed:
    """Times the kernel on demand and keeps every time it read."""

    def __init__(self):
        self.times = []
        if not _ring:
            _build_ring()

    def measure(self) -> float:
        """Time one kernel call, in seconds.  GC is held off so a
        collection of the program's garbage does not land in it."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = clock()
            kernel()
            elapsed = clock() - t0
        finally:
            if enabled:
                gc.enable()
        self.times.append(elapsed)
        return elapsed

    @staticmethod
    def select(samples):
        """The samples to use.  ``samples`` are ``(value, bracket
        kernel times)`` pairs; this keeps the base-speed ones if there
        are at least ``MIN_SAMPLES``, else the fast ones if there are
        that many, else all of them."""
        floor = BASE_SHARE * REFERENCE_S
        base = [s for s in samples if min(s[1]) >= floor]
        if len(base) >= MIN_SAMPLES:
            return base
        fast = [s for s in samples if max(s[1]) < floor]
        return fast if len(fast) >= MIN_SAMPLES else samples

    def factor(self) -> float:
        """The run's median ``REFERENCE_S / kernel time``: how fast the
        host ran, against the reference speed."""
        return REFERENCE_S / statistics.median(self.times)
