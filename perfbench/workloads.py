"""The benchmark's workloads: inputs, closed-loop drivers and checks.

A run is a sequence of whole *rounds*.  A round builds a fresh emulation
or service (timed as set-up), drives a fixed list of operations through
it in fixed-size *segments* (each timed, with a reference loop between
segments), then runs the program's own consistency check (timed) and the
benchmark's own checks (untimed).  On a socket transport the set-up and
the segments are held pieces (see :mod:`harness`): their reference is
taken once the transport's thread has ended, and the program check runs
after that.  Every round of a workload attempts the
same operations in the same numbers, so the share of failed operations is
the same in every run whatever its seed or length; the seed only orders
the operations, assigns them to sessions and seeds the program's
schedulers.

Load is closed-loop: each session submits its next operation only once
its previous one has been drained.  A segment ends when every session
has drained its share, so no operation is in flight during a reference
loop.
"""

from __future__ import annotations

import gc
import random
import statistics
from array import array
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from checks import Op, table1_objects, ws_window_check, zone_check
from harness import Harness, Piece

#: kernel steps per shard per ``ShardedKVService.step`` call: small enough
#: that sessions refill their slots many times per quorum round.
STEP_BUDGET = 64
#: a program-check piece closes once it has run this long (raw seconds).
CHECK_PIECE_S = 0.1
#: a round's program check is repeated, pass after pass over the same
#: histories, until its passes have run this long (raw seconds); check_s
#: is the time of one pass.
CHECK_ROUND_S = 0.1


@dataclass(frozen=True)
class KVSpec:
    substrate: str
    shards: int
    n: int
    f: int
    capacity: int
    keys: int
    zipf_s: float
    read_fraction: float
    sessions: int
    round_ops: int
    segment_ops: int
    transport: str = "sim"


@dataclass(frozen=True)
class Alg2Spec:
    k: int
    n: int
    f: int
    readers: int
    #: write rounds (one write plus one read per reader) per segment
    segment_writes: int
    segments: int


SPECS: "Dict[str, Any]" = {
    "alg2-fig1": Alg2Spec(k=5, n=6, f=2, readers=4, segment_writes=40, segments=5),
    "kv-sim-wide": KVSpec(
        substrate="max-register", shards=3, n=3, f=1, capacity=128,
        keys=256, zipf_s=0.0, read_fraction=0.7, sessions=32,
        round_ops=2560, segment_ops=512,
    ),
    "kv-sim-hot": KVSpec(
        substrate="cas", shards=3, n=3, f=1, capacity=16,
        keys=16, zipf_s=1.1, read_fraction=0.5, sessions=32,
        round_ops=4000, segment_ops=500,
    ),
    "kv-asyncio": KVSpec(
        substrate="max-register", shards=1, n=3, f=1, capacity=64,
        keys=64, zipf_s=0.5, read_fraction=0.7, sessions=32,
        round_ops=512, segment_ops=256, transport="asyncio",
    ),
}


@dataclass
class Tally:
    """What one run did, in adjusted and raw time."""

    attempted: "Counter[str]" = field(default_factory=Counter)
    failed: "Counter[str]" = field(default_factory=Counter)
    errors: "List[str]" = field(default_factory=list)
    # Figures are kept in arrays of floats, not lists of objects: small
    # objects that outlive a round would pin the allocator's arenas, and
    # the peak memory reported would grow with the number of rounds.
    #: seconds per set-up, adjusted and raw
    setup_s: "array" = field(default_factory=lambda: array("d"))
    setup_raw: "array" = field(default_factory=lambda: array("d"))
    #: operations per second in each segment, adjusted and raw
    rates: "array" = field(default_factory=lambda: array("d"))
    raw_rates: "array" = field(default_factory=lambda: array("d"))
    #: seconds of one pass of the program check in each round, adjusted
    #: and raw
    check_s: "array" = field(default_factory=lambda: array("d"))
    check_raw: "array" = field(default_factory=lambda: array("d"))
    #: passes of the program check, summed over rounds
    check_passes: int = 0
    #: adjusted seconds of each program key check
    key_checks: "array" = field(default_factory=lambda: array("d"))
    completed: int = 0
    #: seconds per operation, adjusted and raw (single precision: these
    #: grow with the run)
    latencies: "array" = field(default_factory=lambda: array("f"))
    raw_latencies: "array" = field(default_factory=lambda: array("f"))
    #: kernel counters summed over rounds
    steps: int = 0
    lowlevel_ops: int = 0
    cas_iterations: int = 0
    dropped_frames: int = 0
    reads: int = 0
    rounds: int = 0

    def fail(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)

    def add_setup(self, piece: Piece) -> None:
        self.setup_s.append(piece.adjusted)
        self.setup_raw.append(piece.raw)

    def end_segment(self, piece: Piece, mark: int, stop: int) -> None:
        """Record a segment whose latencies are ``raw_latencies[mark:stop]``."""
        ops = stop - mark
        self.rates.append(ops / piece.adjusted)
        self.raw_rates.append(ops / piece.raw)
        self.latencies.extend(
            raw * piece.factor for raw in self.raw_latencies[mark:stop]
        )

    def add_check(self, pieces: "List[Piece]", passes: int = 1) -> None:
        self.check_s.append(sum(piece.adjusted for piece in pieces) / passes)
        self.check_raw.append(sum(piece.raw for piece in pieces) / passes)
        self.check_passes += passes


# -- inputs ------------------------------------------------------------------


def key_name(index: int) -> str:
    return f"k{index:03d}"


def quotas(total: int, keys: int, s: float) -> "List[int]":
    """Operations per key: Zipf(s) shares of ``total``, exactly.

    Largest-remainder rounding, so the counts depend only on the
    arguments, never on the seed.
    """
    weights = [1.0 / (rank + 1) ** s for rank in range(keys)]
    scale = total / sum(weights)
    exact = [w * scale for w in weights]
    counts = [int(x) for x in exact]
    order = sorted(range(keys), key=lambda i: (counts[i] - exact[i], i))
    for i in order[: total - sum(counts)]:
        counts[i] += 1
    return counts


def kv_round_ops(spec: KVSpec, rng: random.Random) -> "List[tuple]":
    """One round's (kind, key) list: fixed counts per key, seeded order.

    Every key gets at least one put, so every key is placed in a slot and
    has a program audit.
    """
    ops = []
    for index, count in enumerate(quotas(spec.round_ops, spec.keys, spec.zipf_s)):
        puts = max(1, round(count * (1.0 - spec.read_fraction)))
        key = key_name(index)
        ops += [("put", key)] * puts + [("get", key)] * (count - puts)
    rng.shuffle(ops)
    return ops


# -- the KV service ------------------------------------------------------------


def _kv_setup(spec: KVSpec, seed: int, tracer):
    from repro.apps.shard import ShardedKVService, ShardServiceConfig

    config = ShardServiceConfig.make(
        shards=spec.shards, substrate=spec.substrate, seed=seed,
        n=spec.n, f=spec.f, capacity=spec.capacity,
    )
    transports = None
    if spec.transport == "asyncio":
        from repro.net.asyncio_transport import AsyncioTransport
        from repro.net.wire import get_codec

        codec: Any = get_codec("binary")
        if tracer is not None:
            from spans import TracingCodec

            codec = TracingCodec(codec, tracer)
        transports = [AsyncioTransport(codec=codec) for _ in range(spec.shards)]
    service = ShardedKVService(config, transports=transports)
    if transports:
        for transport in transports:
            transport.start()
    sessions = [service.session(writer=index) for index in range(spec.sessions)]
    return service, sessions


def _kv_segment(service, sessions, ops, harness, tally, records, clock_state):
    """Drive one segment's operations closed-loop; record every interval."""
    from repro.errors import ReproError

    queues = [deque(ops[i:: len(sessions)]) for i in range(len(sessions))]
    inflight: "Dict[int, list]" = {}

    def submit(session_index: int) -> None:
        while queues[session_index]:
            kind, key = queues[session_index].popleft()
            token = clock_state["token"]
            clock_state["token"] += 1
            value = f"{key}#{token}" if kind == "put" else None
            clock_state["event"] += 1
            record = [kind, key, value, clock_state["event"], None, None,
                      harness.now(), session_index]
            tally.attempted[f"kv.{kind}"] += 1
            session = sessions[session_index]
            try:
                if kind == "put":
                    session.submit_put(key, value, token=token)
                else:
                    session.submit_get(key, token=token)
            except ReproError:
                tally.failed[f"kv.{kind}"] += 1
                continue
            inflight[token] = record
            return

    for session_index in range(len(sessions)):
        submit(session_index)
    idle_pumps = 0
    while inflight:
        steps = service.step(max_steps_per_shard=STEP_BUDGET)
        done = service.drain_completions()
        if not done:
            idle_pumps = idle_pumps + 1 if steps == 0 else 0
            if idle_pumps > 1000:
                raise RuntimeError(
                    f"service stalled with {len(inflight)} operations in flight"
                )
            continue
        idle_pumps = 0
        finished = []
        for token, _name, result, stamp in done:
            record = inflight.pop(token)
            clock_state["event"] += 1
            record[4] = clock_state["event"]
            record[5] = result
            tally.raw_latencies.append(stamp - record[6])
            records.append(record)
            finished.append(record[7])
        for session_index in finished:
            submit(session_index)


def _slot_keys(service, tally) -> "List[tuple]":
    """(key, fleet, slot index) of every placed key, found from the
    values each slot's history wrote (a slot holds one key's values)."""
    found = []
    for fleet in service.fleets:
        for slot_index, slot in enumerate(fleet.slots):
            writes = slot.history.writes
            if not writes:
                continue
            keys = {str(w.args[0]).split("#")[0] for w in writes}
            if len(keys) != 1:
                tally.fail(f"slot {slot_index} holds values of keys {sorted(keys)}")
            found.append((min(keys), fleet, slot_index))
    return sorted(found, key=lambda item: item[0])


def _program_checks(service, harness, tally) -> "Dict[str, Optional[bool]]":
    """Each placed key's ``ShardFleet.audit_slot``, timed in short pieces.

    The keys are audited in passes until the passes have run for
    CHECK_ROUND_S; a short check (a few milliseconds on the wide key
    space) is then timed over many more checker-loop samples than one pass
    would get.  Every pass must reach the first pass's verdicts.
    ``None`` marks a key whose audit raised ``RecursionError``: the exact
    linearizability search recurses once per operation.
    """
    verdicts: "Dict[str, Optional[bool]]" = {}
    pieces: "List[Piece]" = []
    key_times = []
    slot_keys = _slot_keys(service, tally)
    passes = 0
    checked = 0.0
    harness.begin(check=True)
    piece_start = harness.now()
    while passes == 0 or checked < CHECK_ROUND_S:
        for key, fleet, slot_index in slot_keys:
            start = harness.now()
            try:
                verdict = fleet.audit_slot(slot_index)
            except RecursionError:
                verdict = None
            elapsed = harness.now() - start
            key_times.append(elapsed)
            checked += elapsed
            if passes == 0:
                verdicts[key] = verdict
            elif verdict != verdicts[key]:
                tally.fail(f"{key}: audit pass {passes + 1} says {verdict},"
                           f" pass 1 said {verdicts[key]}")
            if harness.now() - piece_start > CHECK_PIECE_S:
                piece = harness.end()
                pieces.append(piece)
                tally.key_checks.extend(t * piece.factor for t in key_times)
                key_times = []
                harness.begin(check=True)
                piece_start = harness.now()
        passes += 1
    piece = harness.end()
    pieces.append(piece)
    tally.key_checks.extend(t * piece.factor for t in key_times)
    tally.add_check(pieces, passes)
    return verdicts


def _kv_round(spec: KVSpec, seed: int, round_index: int, harness: Harness,
              tally: Tally, tracer) -> None:
    rng = random.Random(f"{seed}/{round_index}")
    ops = kv_round_ops(spec, rng)

    held = spec.transport != "sim"
    if held:
        harness.hold()
    harness.begin()
    service, sessions = _kv_setup(spec, rng.randrange(2**31), tracer)
    setup = harness.end()
    segments = []
    records: "List[list]" = []
    clock_state = {"token": 0, "event": 0}
    try:
        service.set_completion_clock(harness.now)
        for start in range(0, len(ops), spec.segment_ops):
            mark = len(tally.raw_latencies)
            harness.begin()
            _kv_segment(service, sessions, ops[start:start + spec.segment_ops],
                        harness, tally, records, clock_state)
            segments.append((harness.end(), mark, len(tally.raw_latencies)))
        service.set_completion_clock(None)
        tally.completed += len(records)
        for fleet in service.fleets:
            stats = fleet.kernel.stats()
            tally.steps += stats["time"]
            tally.lowlevel_ops += stats["ops_triggered"]
            transport = fleet.transport
            tally.dropped_frames += getattr(transport, "dropped_frames", 0)
            if spec.substrate == "cas":
                for slot in fleet.slots:
                    runtimes = [*slot.writers.values(), *slot.readers.values()]
                    for runtime in runtimes:
                        tally.cas_iterations += runtime.protocol.iterations
    finally:
        service.close()
    if held:
        harness.settle()
    tally.add_setup(setup)
    for piece, mark, stop in segments:
        tally.end_segment(piece, mark, stop)
    # The checks read only the histories kept in this process.
    verdicts = _program_checks(service, harness, tally)
    _kv_verify(spec, service, records, verdicts, tally)
    tally.rounds += 1


def _kv_verify(spec, service, records, verdicts, tally) -> None:
    """The benchmark's own checks of one round, against the program's."""
    by_key: "Dict[str, List[Op]]" = {key_name(i): [] for i in range(spec.keys)}
    written: "Dict[str, set]" = {key: set() for key in by_key}
    for kind, key, value, start, end, result, _, _ in records:
        if kind == "put":
            by_key[key].append(Op("w", value, start, end))
            written[key].add(value)
        else:
            by_key[key].append(Op("r", result, start, end))
    for kind, key, _, _, _, result, _, _ in records:
        if kind == "get" and result is not None and result not in written[key]:
            tally.fail(f"get {key} returned {result!r}, never put to {key}")
    expected = table1_objects(spec.substrate, 0, spec.n, spec.f)
    for shard_index, objects in enumerate(service.describe()["base_objects"]):
        per_slot = objects / spec.capacity
        if per_slot != expected:
            tally.fail(
                f"shard {shard_index}: {per_slot} base objects per key,"
                f" Table 1 says {expected}"
            )
    for key, ops in by_key.items():
        tally.attempted["check.key"] += 1
        reason = zone_check(ops)
        if reason is not None:
            tally.fail(f"{key}: {reason}")
        verdict = verdicts.get(key)
        if key not in verdicts:
            tally.fail(f"{key}: no slot holds it")
        elif verdict is None:
            tally.failed["check.key"] += 1
        elif verdict != (reason is None):
            tally.fail(
                f"{key}: program audit says {verdict}, zone test says"
                f" {reason is None}"
            )


# -- Algorithm 2 -----------------------------------------------------------------


def _alg2_setup(spec: Alg2Spec, seed: int):
    from repro.core.ws_register import WSRegisterEmulation
    from repro.sim.scheduling import RandomScheduler

    emulation = WSRegisterEmulation(
        spec.k, spec.n, spec.f, scheduler=RandomScheduler(seed)
    )
    writers = [emulation.add_writer(index) for index in range(spec.k)]
    readers = [emulation.add_reader() for _ in range(spec.readers)]
    return emulation, writers, readers


def _alg2_round(spec: Alg2Spec, seed: int, round_index: int, harness: Harness,
                tally: Tally, tracer) -> None:
    from repro.consistency.ws import check_ws_regular

    rng = random.Random(f"{seed}/{round_index}")
    harness.begin()
    emulation, writers, readers = _alg2_setup(spec, rng.randrange(2**31))
    tally.add_setup(harness.end())
    completions: "List[tuple]" = []

    def on_complete(token, _name, result):
        completions.append((token, result, harness.now()))

    for runtime in writers + readers:
        runtime.on_complete = on_complete

    expected = table1_objects("register", spec.k, spec.n, spec.f)
    if emulation.object_map.n_objects != expected:
        tally.fail(
            f"Algorithm 2 uses {emulation.object_map.n_objects} registers,"
            f" Table 1 says {expected}"
        )
    ops: "List[Op]" = []
    event = 0
    writes = 0
    for _ in range(spec.segments):
        harness.begin()
        segment_mark = len(tally.raw_latencies)
        for _ in range(spec.segment_writes):
            # one write at a time from rotating writers, with every reader
            # reading across it
            writer = writers[writes % spec.k]
            value = f"w{round_index}.{writes}"
            writes += 1
            started = {}
            stamp = harness.now()
            for token, runtime, args in [("w", writer, ("write", value))] + [
                (f"r{i}", reader, ("read",)) for i, reader in enumerate(readers)
            ]:
                event += 1
                started[token] = (event, stamp)
                runtime.enqueue(*args, token=token)
            result = emulation.system.run_to_quiescence()
            if not result.satisfied:
                raise RuntimeError(f"Algorithm 2 did not quiesce: {result}")
            event += 1
            for token, value_read, done in completions:
                start_event, start_stamp = started.pop(token)
                tally.raw_latencies.append(done - start_stamp)
                if token == "w":
                    ops.append(Op("w", value, start_event, event))
                else:
                    ops.append(Op("r", value_read, start_event, event))
            completions.clear()
            for token in started:
                tally.fail(f"{token} did not complete")
        tally.end_segment(harness.end(), segment_mark, len(tally.raw_latencies))
    tally.attempted["alg2.write"] += writes
    tally.attempted["alg2.read"] += writes * spec.readers
    tally.completed += len(ops)
    tally.reads += sum(1 for op in ops if op.kind == "r")
    stats = emulation.kernel.stats()
    tally.steps += stats["time"]
    tally.lowlevel_ops += stats["ops_triggered"]

    history = emulation.history
    harness.begin(check=True)
    if tracer is not None:
        violations = tracer.call(
            "consistency.ws_check", check_ws_regular, (history,), {}
        )
    else:
        violations = check_ws_regular(history)
    piece = harness.end()
    tally.add_check([piece])
    tally.key_checks.append(piece.adjusted)
    tally.attempted["check.key"] += 1
    reason = ws_window_check(ops)
    if reason is not None:
        tally.fail(f"WS-Regular window: {reason}")
    if bool(violations) != (reason is not None):
        tally.fail(
            f"check_ws_regular found {len(violations)} violations, window"
            f" check says {reason!r}"
        )
    tally.rounds += 1


def run_round(name: str, seed: int, round_index: int, harness: Harness,
              tally: Tally, tracer) -> None:
    spec = SPECS[name]
    # Free the previous round's reference cycles now, so every round
    # starts from the same heap instead of paying for them mid-segment.
    gc.collect()
    if isinstance(spec, Alg2Spec):
        _alg2_round(spec, seed, round_index, harness, tally, tracer)
    else:
        _kv_round(spec, seed, round_index, harness, tally, tracer)


def setup_once(name: str, seed: int, harness: Harness, tally: Tally) -> None:
    """An extra timed set-up (built, then torn down unused)."""
    spec = SPECS[name]
    if isinstance(spec, Alg2Spec):
        harness.begin()
        _alg2_setup(spec, seed)
        tally.add_setup(harness.end())
        return
    held = spec.transport != "sim"
    if held:
        harness.hold()
    harness.begin()
    service, _sessions = _kv_setup(spec, seed, None)
    setup = harness.end()
    service.close()
    if held:
        harness.settle()
    tally.add_setup(setup)


def median(values: "List[float]") -> float:
    return statistics.median(values) if values else 0.0


def ops_per_s(tally: Tally, adjusted: bool = True) -> float:
    """Median over segments of operations per second: robust to the
    seconds-long swings in machine speed that one total would average in."""
    return median(tally.rates if adjusted else tally.raw_rates)
