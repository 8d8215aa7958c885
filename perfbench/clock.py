"""Durations in reference seconds: timings that a shared host's drifting
speed does not move.

The benchmark's host shares its cores with other tenants, and its speed
drifts: a fixed loop runs 1.8 times slower for ten seconds or more at a
time, then fast again, on both CPUs, and within those phases it jitters
by a quarter from one second to the next. Wall times of the same code
then differ by a quarter from run to run, whatever the run length. So
every timed segment is measured against a fixed pure-Python reference
loop, run on the same CPU while the segment runs or right around it:

    reference seconds = wall seconds * REF_S / (the loop's mean seconds)

where REF_S is the loop's time on a quiet host (a 2-vCPU Intel Xeon at
2.1 GHz), so that on that host reference seconds are wall seconds. A
program twice as slow reads twice as many reference seconds on any host;
a host twice as slow reads the same. The loop does the tuple, set and
integer work that the program's root and Weyl layers do, in code of the
benchmark's own, so no change to the program moves it.

A Clock samples the loop in one of two ways:

- sampling=True (in a worker, which runs the program in its own process):
  an interval timer runs the loop every SAMPLE_S seconds, interrupting
  the program between two bytecodes; the loop's own time is taken out of
  the segment it interrupted. A segment is scaled by the samples taken
  during it and the one right before and right after it. Over 70 s of
  repeated W(E6) enumerations (2 s each), the quartile spread of the
  enumeration's time was 0.28 of its median in wall seconds, 0.26 scaled
  by samples at its two ends only, and 0.07 scaled by samples during it.
- sampling=False (in the benchmark's parent, whose segments are child
  processes that the loop must not compete with): the loop runs after a
  segment ends, at most every EVERY_S seconds, and a segment is scaled by
  the samples right before and right after it, and by the samples that a
  child took itself with its own sampling Clock (seg(t0, inner, other)).

This module imports nothing that a bare interpreter has not loaded, so
that a CLI child can sample itself without lengthening its start-up.
"""

import signal
from bisect import bisect_right
from time import perf_counter

REF_S = 0.00135
SAMPLE_S = 0.05
EVERY_S = 0.1
PARENT_REPEATS = 3  # loops per sample without the timer, where samples are few


def _reference():
    """The positive roots of B_9, as the closure of the simple roots under
    the simple reflections."""
    n = 9
    cartan = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]
    cartan[n - 2][n - 1] = -2
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    seen, frontier = set(simple), list(simple)
    while frontier:
        nxt = []
        for root in frontier:
            for i in range(n):
                p = sum(root[j] * cartan[j][i] for j in range(n))
                image = tuple(root[j] - (p if j == i else 0) for j in range(n))
                if image not in seen and min(image) >= 0:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    if len(seen) != n * n:
        raise AssertionError("reference loop found %d roots" % len(seen))


class Clock:
    """Timed segments of one process, as (start, end); scale() turns them
    into reference seconds."""

    def __init__(self, sampling):
        self.times, self.refs = [], []  # end and seconds per loop of each sample
        self.sampling = sampling
        self._repeats = 1 if sampling else PARENT_REPEATS
        self._sample()
        if sampling:
            signal.signal(signal.SIGALRM, lambda signum, frame: self._sample())
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)

    def _sample(self):
        t0 = perf_counter()
        for _ in range(self._repeats):
            _reference()
        t1 = perf_counter()
        self.times.append(t1)
        self.refs.append((t1 - t0) / self._repeats)

    def stop(self):
        if self.sampling:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            self.sampling = False

    def seg(self, t0, inner=(), other=0.0):
        """The segment from perf_counter() t0 to now. inner: the samples a
        child process took during it; other: seconds of the child's own
        benchmark code, taken out like the samples."""
        seg = (t0, perf_counter(), inner, other)
        if not self.sampling and seg[1] - self.times[-1] >= EVERY_S:
            self._sample()
        return seg

    def scale(self, segs):
        """Each segment's wall seconds without the samples taken during it
        (a sample runs whole between two bytecodes, so those are the ones
        that end inside it), over the mean of those samples and the ones
        right before and right after it, times REF_S."""
        if segs and max(seg[1] for seg in segs) > self.times[-1]:
            self._sample()
        out = []
        for t0, t1, inner, other in segs:
            i0, i1 = bisect_right(self.times, t0), bisect_right(self.times, t1)
            seconds = t1 - t0 - sum(self.refs[i0:i1]) * self._repeats - sum(inner) - other
            window = self.refs[max(0, i0 - 1):i1 + 1] + list(inner)
            out.append(seconds * REF_S * len(window) / sum(window))
        return out

    def slowdown(self):
        """The loop's median time over REF_S: how much slower than the
        quiet host this one ran."""
        return sorted(self.refs)[len(self.refs) // 2] / REF_S
