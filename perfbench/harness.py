"""Timing harness: the reference loop, reference-adjusted pieces, a work clock.

The machine this benchmark was tuned on changes speed by up to 1.7x every
second or two, even inside one process.  Raw wall-clock figures therefore
do not repeat.  Every timed piece of work (a workload segment, one
set-up) is bracketed by a fixed pure-Python reference loop, and its time
is rescaled by

    adjusted = raw * NOMINAL_REF_S / mean(references around it)

so a figure reads as "seconds on a machine whose reference loop takes
NOMINAL_REF_S".  The reference loop calls no program code and keeps no
allocation alive once it returns.

A program consistency check is timed against a second loop instead, the
checker loop (:func:`check_loop`: a zone test over a small register
history, then sorting and grouping small records), normalised to
NOMINAL_CHECK_REF_S.  When the machine changes speed, the
program's checks speed up or slow down more than the plain reference
loop does, and about as much as the checker loop.  A check can run for
seconds in one call, so a ``SIGALRM`` timer also interrupts it every
SAMPLE_EVERY_S and runs a short checker loop, and the check's factor
uses those samples too.

A piece that runs while another thread of the program is alive (the
event-loop thread of a socket transport) is *held*: no reference runs
right after it, since that thread would take the interpreter lock from
the loop now and then and the loop would partly time the program.  Held
pieces take their factor from the last reference before holding began
and the first one after :meth:`Harness.settle`, which the caller runs
once that thread has ended.

The work clock (:meth:`Harness.now`) stops while a reference loop runs, so
completion stamps taken through it never include reference time.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from array import array
from operator import attrgetter
from typing import Callable, List, Optional

#: iterations of one reference loop (about 30-40 ms on a 2-core VM).
REF_ITERS = 200_000
#: the reference time that adjusted figures are normalised to.
NOMINAL_REF_S = 0.035
#: iterations of one checker loop, and the checker-loop time that
#: adjusted check figures are normalised to (its typical time when the
#: reference loop takes NOMINAL_REF_S).
CHECK_REF_ITERS = 300
NOMINAL_CHECK_REF_S = 0.015
#: in-check samples: a checker loop of a tenth of CHECK_REF_ITERS every
#: SAMPLE_EVERY_S.
SAMPLE_EVERY_S = 0.02


def reference_loop(iterations: int) -> int:
    """A fixed mix of integer arithmetic and small-dict stores.

    Everything it allocates is local and freed when it returns.
    """
    acc = 0
    table = {}
    for i in range(iterations):
        table[i & 63] = acc
        acc = (acc * 31 + i) & 0xFFFFF
    return acc + len(table)


class _Record:
    """A bare record: no ``__init__`` of its own, so making one runs no
    Python frame."""

    __slots__ = ("start", "end", "name")


_BY_END = attrgetter("end", "start")
_BY_START = attrgetter("start")


def check_loop(iterations: int) -> int:
    """A fixed mix shaped like a history checker: build a small register
    history and run a zone test on it, then sort, group and scan small
    records by attribute.

    It calls no Python function (builtins only, and no comprehension,
    which is a function of its own), so a sample taken deep inside the
    program's recursive search adds one frame to its stack, as the
    reference loop would.  The collector is off while it runs, so no
    collection of the program's heap is timed in it; everything it
    allocates is freed when it returns.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        acc = 0
        for i in range(iterations):
            ops = []
            value = None
            for j in range(10):
                if j % 3 == 0:
                    value = f"v{i}.{j}"
                    ops.append(("w", value, 5 * j, 5 * j + 3))
                else:
                    ops.append(("r", value, 5 * j + 1, 5 * j + 4))
            clusters = {}
            for kind, value, start, end in ops:
                if kind == "w":
                    clusters[value] = [end, start]
            for kind, value, start, end in ops:
                if kind == "r":
                    cluster = clusters[value]
                    cluster[0] = min(cluster[0], end)
                    cluster[1] = max(cluster[1], start)
            forward = []
            for value, (lo, hi) in clusters.items():
                if lo < hi:
                    forward.append((lo, hi, value))
            forward.sort()
            for (_, hi, _), (lo, _, _) in zip(forward, forward[1:]):
                if lo < hi:
                    acc += 1
            starts = []
            for lo, _, _ in forward:
                starts.append(lo)
            for end, start in clusters.values():
                if end >= start:
                    acc += bisect.bisect_left(starts, start)
            records = []
            for k in range(24):
                record = _Record()
                record.start = k
                record.end = k + (k * 7 + i) % 13
                record.name = f"v{k}"
                records.append(record)
            records.sort(key=_BY_END)
            groups: "dict" = {}
            for record in records:
                groups.setdefault(record.end % 5, []).append(record)
            acc += sum(map(len, groups.values()))
            names = set()
            first = records[0]
            for record in records:
                if first.end < record.start and isinstance(record.name, str):
                    names.add(record.name[1:])
            acc += len(names) + max(records, key=_BY_START).start
            try:
                acc += groups[7][0].start
            except KeyError:
                acc += 1
        return acc & 0xFFFF
    finally:
        if enabled:
            gc.enable()


class Piece:
    """One timed piece of work and the reference times around and inside
    it (in-piece samples scaled to a full loop), normalised to
    ``nominal``."""

    __slots__ = ("raw", "refs", "nominal")

    def __init__(self, raw: float, refs: "List[float]",
                 nominal: float = NOMINAL_REF_S):
        self.raw = raw
        self.refs = refs
        self.nominal = nominal

    @property
    def factor(self) -> float:
        return self.nominal * len(self.refs) / sum(self.refs)

    @property
    def adjusted(self) -> float:
        return self.raw * self.factor


class Harness:
    """Alternates timed pieces with reference loops.

    ``on_piece_end(factor)``, when set, is called once the factor of a
    piece (or of a settled set of held pieces) is known; the tracer uses
    it to rescale the span time it gathered since the previous call.
    """

    def __init__(self):
        self.on_piece_end: "Optional[Callable[[float], None]]" = None
        self.refs = array("d")
        self._paused = 0.0
        self._start: "Optional[float]" = None
        self._samples: "Optional[List[float]]" = None
        self._held: "Optional[List[Piece]]" = None
        signal.signal(signal.SIGALRM, self._sample)
        self.ref()

    def now(self) -> float:
        """The work clock: wall time minus every reference loop so far."""
        return time.perf_counter() - self._paused

    def ref(self) -> float:
        start = time.perf_counter()
        reference_loop(REF_ITERS)
        elapsed = time.perf_counter() - start
        self._paused += elapsed
        self.refs.append(elapsed)
        return elapsed

    def check_ref(self) -> float:
        start = time.perf_counter()
        check_loop(CHECK_REF_ITERS)
        elapsed = time.perf_counter() - start
        self._paused += elapsed
        return elapsed

    def _sample(self, _signum, _frame) -> None:
        # Calls check_loop directly: one frame below this handler.
        if self._samples is None:
            return  # a late tick after the piece closed
        start = time.perf_counter()
        check_loop(CHECK_REF_ITERS // 10)
        elapsed = time.perf_counter() - start
        self._paused += elapsed
        self._samples.append(elapsed * 10)

    def begin(self, check: bool = False) -> None:
        """Open a piece.  A ``check`` piece (a program consistency check)
        is timed against the checker loop instead: one runs right before
        it, then one every SAMPLE_EVERY_S inside it, and one after it
        (only for pieces that run no other thread: a sample taken while
        another thread holds the interpreter lock would read slow)."""
        if check:
            assert self._held is None, "held pieces are not checks"
            self._samples = [self.check_ref()]
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self._start = self.now()

    def end(self) -> Piece:
        """Close the piece opened by :meth:`begin`, then run a reference
        (unless pieces are held: their factor is known at :meth:`settle`)."""
        raw = self.now() - self._start
        if self._held is not None:
            piece = Piece(raw, [self.refs[-1]])
            self._held.append(piece)
            return piece
        if self._samples is not None:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            samples, self._samples = self._samples, None
            piece = Piece(raw, samples + [self.check_ref()], NOMINAL_CHECK_REF_S)
            # The next piece's reference before it.
            self.ref()
        else:
            piece = Piece(raw, [self.refs[-1], self.ref()])
        if self.on_piece_end is not None:
            self.on_piece_end(piece.factor)
        return piece

    def hold(self) -> None:
        """Hold the references of the pieces that follow until
        :meth:`settle`: for pieces that run beside another thread."""
        self._held = []

    def settle(self) -> None:
        """Run one reference, once no other thread is alive, and close
        every held piece with it."""
        held, self._held = self._held, None
        after = self.ref()
        for piece in held:
            piece.refs.append(after)
        if held and self.on_piece_end is not None:
            self.on_piece_end(held[0].factor)

    def ref_spread(self) -> float:
        """Interquartile range of the reference times over their median."""
        if len(self.refs) < 4:
            return 0.0
        q1, q2, q3 = statistics.quantiles(self.refs, n=4)
        return (q3 - q1) / q2


def percentile(sorted_values: "List[float]", fraction: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    index = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[index]


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux ru_maxrss)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
