"""Correctness checks computed apart from ``repro.consistency``.

The benchmark records every operation it submits as an :class:`Op` whose
interval runs from the benchmark's own submit stamp to the stamp of the
drain that returned it.  Stamps are integers from one event counter, so
they are unique.  The true interval of an operation lies inside the
observed one, so a history that fails these checks on the observed
intervals fails them on the true ones too.

* :func:`zone_check` is the Gibbons-Korach cluster/zone test for register
  histories whose writes carry distinct values.
* :func:`ws_window_check` is the WS-Regular window test for
  write-sequential histories (Algorithm 2's condition).
* :func:`table1_objects` is the base-object count of Table 1, from the
  formula.
"""

from __future__ import annotations

import bisect
import math
from typing import Any, Dict, List, Optional, Sequence


class Op:
    """One observed operation: ``kind`` is ``"w"`` or ``"r"``; ``value``
    is the value written, or the value the read returned."""

    __slots__ = ("kind", "value", "start", "end")

    def __init__(self, kind: str, value: Any, start: int, end: int):
        self.kind = kind
        self.value = value
        self.start = start
        self.end = end

    def __repr__(self) -> str:
        return f"Op({self.kind}, {self.value!r}, [{self.start},{self.end}])"


def _split(ops: "Sequence[Op]", initial: Any):
    writes: "Dict[Any, Op]" = {}
    for op in ops:
        if op.kind != "w":
            continue
        if op.value == initial:
            return None, None, f"write of the initial value {initial!r}"
        if op.value in writes:
            return None, None, f"two writes of {op.value!r}"
        writes[op.value] = op
    reads = [op for op in ops if op.kind == "r"]
    for read in reads:
        if read.value != initial and read.value not in writes:
            return None, None, f"read of a value never written: {read}"
    return writes, reads, None


def zone_check(ops: "Sequence[Op]", initial: Any = None) -> "Optional[str]":
    """Linearizability of one register with distinct write values.

    Returns ``None`` when the history is linearizable, else the reason.
    Each write and the reads that return its value form a cluster.  A
    cluster's zone runs between the earliest end and the latest start
    among its operations: a forward zone when the earliest end comes
    first, a backward zone otherwise.  The history is linearizable iff
    no read ends before its write starts, no two forward zones overlap,
    and no backward zone lies inside a forward zone (Gibbons and Korach,
    SIAM J. Comput. 26(4), 1997).  The initial value is a write that
    ended before every stamp.  O(n log n).
    """
    writes, reads, error = _split(ops, initial)
    if error is not None:
        return error
    clusters: "Dict[Any, List[float]]" = {
        value: [write.end, write.start] for value, write in writes.items()
    }
    for read in reads:
        if read.value == initial:
            cluster = clusters.setdefault(initial, [-math.inf, -math.inf])
        else:
            if read.end < writes[read.value].start:
                return f"read ends before its write starts: {read}"
            cluster = clusters[read.value]
        cluster[0] = min(cluster[0], read.end)
        cluster[1] = max(cluster[1], read.start)
    forward = sorted(
        (lo, hi, value)
        for value, (lo, hi) in clusters.items()
        if lo < hi
    )
    for (_, hi, first), (lo, _, second) in zip(forward, forward[1:]):
        if lo < hi:
            return f"forward zones of {first!r} and {second!r} overlap"
    starts = [lo for lo, _, _ in forward]
    for value, (end, start) in clusters.items():
        if end < start:
            continue
        index = bisect.bisect_left(starts, start) - 1
        if index >= 0 and end < forward[index][1]:
            return (
                f"zone of {value!r} lies inside the forward zone of"
                f" {forward[index][2]!r}"
            )
    return None


def ws_window_check(
    ops: "Sequence[Op]", initial: Any = None
) -> "Optional[str]":
    """WS-Regularity of a write-sequential register history.

    A read may return the value of the last write that ends before it
    starts (the initial value if none does), or of any later write that
    starts before the read ends.  Returns ``None`` when every read does.
    """
    writes, reads, error = _split(ops, initial)
    if error is not None:
        return error
    ordered = sorted(writes.values(), key=lambda op: op.start)
    for first, second in zip(ordered, ordered[1:]):
        if second.start < first.end:
            return f"writes overlap, history is not write-sequential: {first}, {second}"
    index_of = {op.value: index for index, op in enumerate(ordered)}
    ends = [op.end for op in ordered]
    starts = [op.start for op in ordered]
    for read in reads:
        lo = bisect.bisect_left(ends, read.start) - 1
        hi = bisect.bisect_left(starts, read.end) - 1
        got = -1 if read.value == initial else index_of[read.value]
        if not lo <= got <= hi:
            return f"read outside its WS-Regular window [{lo}, {hi}]: {read}"
    return None


def table1_objects(base_object: str, k: int, n: int, f: int) -> int:
    """Base objects of Table 1's upper-bound construction.

    Registers: ``kf + ceil(k/z)(f+1)`` with ``z = floor((n-(f+1))/f)``
    (Algorithm 2).  Max-registers and CAS objects: ``2f+1``.
    """
    if base_object == "register":
        z = (n - (f + 1)) // f
        return k * f + -(-k // z) * (f + 1)
    if base_object in ("max-register", "cas"):
        return 2 * f + 1
    raise ValueError(f"unknown base object {base_object!r}")
