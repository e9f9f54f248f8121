"""Frozen reference kernel: the benchmark's yardstick for host speed.

The host this benchmark runs on changes speed in stretches lasting
seconds (a pure-Python loop's per-second medians move by up to 1.6x),
and CPU time tracks wall time, so no clock hides it.  Every timed
stretch is therefore bracketed by runs of this kernel and its time is
scaled by ``NOMINAL_MS / measured_ms``: host times are reported in
*reference-host* units, which repeat where raw wall time does not.

The kernel is a miniature discrete-event simulation shaped like the
program under test: a binary-heap event queue, per-node dict state,
tuple messages, method calls, and a multi-megabyte table touched at
pseudo-random offsets so cache and memory speed count as they do for
the simulator's own working set.

Rules that keep it a yardstick:

* it imports nothing from ``repro`` (an optimisation of the program
  must never speed up the ruler it is measured with);
* it is frozen: changing ``run_once``, the sizes below, or
  ``NOMINAL_MS`` is a benchmark change, and ``CHECKSUM`` pins the work
  it does.
"""

from __future__ import annotations

import heapq
import time

#: Nodes in the simulated network and events executed per run.
NODES = 64
EVENTS = 6_000
#: Entries of the shared table (about 4 MB of list slots and ints).
TABLE = 1 << 19
#: Nominal duration of one run on the reference host, in milliseconds.
#: Normalised time = raw time * NOMINAL_MS / measured kernel ms.
NOMINAL_MS = 10.0
#: Result of ``run_once``: proves the kernel still does the same work.
CHECKSUM = 3366571854

_MASK = 0xFFFFFFFF


class _Node:
    __slots__ = ("ident", "state", "inbox")

    def __init__(self, ident: int) -> None:
        self.ident = ident
        self.state = {}
        self.inbox = 0

    def handle(self, key: int, value: int) -> int:
        old = self.state.get(key, 0)
        new = (old * 31 + value) & _MASK
        self.state[key] = new
        self.inbox += 1
        return new


def _table() -> list:
    return [(i * 2654435761) & _MASK for i in range(TABLE)]


_TABLE = None


def _shared_table() -> list:
    global _TABLE
    if _TABLE is None:
        _TABLE = _table()
    return _TABLE


def run_once() -> int:
    """Execute the kernel once and return its checksum."""
    table = _shared_table()
    mask = TABLE - 1
    nodes = [_Node(i) for i in range(NODES)]
    heap = [(i * 7, i, i % NODES, i) for i in range(NODES)]
    heapq.heapify(heap)
    seq = NODES
    acc = 0
    executed = 0
    while heap and executed < EVENTS:
        now, _seq, dst, payload = heapq.heappop(heap)
        executed += 1
        slot = (payload * 40503 + now) & mask
        value = table[slot]
        out = nodes[dst].handle(payload & 63, value)
        acc = (acc + out + slot) & _MASK
        # two children per event keep the queue a few hundred deep
        for hop in (1, 2):
            seq += 1
            nxt = (dst + hop * (out & 7) + 1) % NODES
            heapq.heappush(heap, (now + 1 + (out >> (hop * 3)) % 97, seq, nxt, out ^ seq))
            if len(heap) > 512:
                break
    return acc ^ sum(node.inbox for node in nodes)


def measure_ms() -> float:
    """One timed kernel run, in milliseconds; refuses a changed kernel."""
    _shared_table()  # built once per process, outside the timing
    start = time.perf_counter()
    result = run_once()
    elapsed = (time.perf_counter() - start) * 1e3
    if result != CHECKSUM:
        raise RuntimeError(
            f"reference kernel checksum {result} != {CHECKSUM}: the "
            "yardstick changed, which is a benchmark change"
        )
    return elapsed
