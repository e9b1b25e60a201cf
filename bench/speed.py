"""The machine's speed, taken with a fixed reference kernel.

On a shared host the same pure-Python code runs at speeds that differ by
half or more from one second to the next, in CPU time as well as in wall
time, because other tenants contend for the cores and their caches.  The
end-to-end run therefore times a fixed kernel of the benchmark's own once
for every ``EVERY_S`` seconds, between answers, and scales each answer to
the speed at which the kernel takes ``REF_S`` seconds:

    scaled = raw * REF_S / (median kernel time within WINDOW_S of the answer)

The kernel does the two kinds of work the package's time goes to, and
nothing of the package: interpreter work on small objects (text split
into fields, tuples as keys of dicts and sets, a graph search over them)
and random reads from a buffer far larger than a core's own caches, as a
large configuration graph makes.  A change to the package moves the
scaled time just as it moves the raw one, while a stretch in which the
whole machine runs slow does not.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

REF_S = 0.01  # kernel time that defines reference speed
EVERY_S = 0.2  # kernel runs once for each such stretch, between answers
MAX_BURST = 8  # kernel runs at most this many times in a row
WINDOW_S = 1.0  # kernel times this close to an answer set its speed
BUFFER_BYTES = 64 << 20  # resident for the whole run; see end_to_end()'s peak_rss_mb
_READS = 40_000
_N = 1000


class Speed:
    """Kernel times of one run, each with the moment it was taken."""

    def __init__(self):
        rng = random.Random(7)
        self.text = "\n".join(f"{v % _N} {rng.randrange(_N)} {'ab'[rng.randrange(2)]} {v}"
                              for v in range(2 * _N))
        self.buffer = rng.randbytes(BUFFER_BYTES)
        self.reads = [rng.randrange(BUFFER_BYTES) for _ in range(_READS)]
        self.marks: list[tuple[float, float]] = []  # (midpoint, kernel seconds)
        self.expected = self.kernel()

    def kernel(self) -> tuple[int, int]:
        """A fixed unit of work: parse an edge list and search the product
        of its graph with a two-state automaton, then read the buffer at
        scattered places."""
        adj: dict[int, list[tuple[int, str]]] = {}
        for line in self.text.splitlines():
            src, dst, label, _ = line.split()
            adj.setdefault(int(src), []).append((int(dst), label))
        start = (0, 0)
        seen = {start}
        stack = [start]
        index: dict[tuple[int, int], int] = {}
        while stack:
            v, q = stack.pop()
            index[(v, q)] = len(index)
            for w, label in adj.get(v, ()):
                nxt = (w, q ^ (label == "a"))
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        buffer = self.buffer
        total = 0
        for i in self.reads:
            total += buffer[i]
        return len(index), total

    def sample(self):
        """Time the kernel once.  The cyclic collector is off meanwhile:
        what it would find to scan is the benchmark's heap, not speed."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            got = self.kernel()
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        if got != self.expected:
            raise RuntimeError("speed kernel gave a different result")
        self.marks.append(((t0 + t1) / 2, t1 - t0))

    def tick(self):
        """Time the kernel once for every ``EVERY_S`` seconds since it last
        ran (at most MAX_BURST times), so that kernel times lie as dense
        around one long answer or set-up as around many short answers."""
        if not self.marks:
            self.sample()
            return
        due = int((time.perf_counter() - self.marks[-1][0]) / EVERY_S)
        for _ in range(min(due, MAX_BURST)):
            self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """The factor that takes a time measured over [t0, t1] to reference
        speed: REF_S over the median kernel time within ``WINDOW_S`` of the
        interval, or of the three nearest kernel times when none is."""
        near = [s for t, s in self.marks if t0 - WINDOW_S <= t <= t1 + WINDOW_S]
        if not near:
            mid = (t0 + t1) / 2
            near = [s for _, s in sorted(self.marks, key=lambda m: abs(m[0] - mid))[:3]]
        return REF_S / statistics.median(near)
