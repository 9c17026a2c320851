"""Capacity benchmark for Algorithm 2 and the sharded KV service.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kv-sim-wide --seed 1 --seconds 10 --trace 0

Prints a human-readable report (adjusted and raw figures, p99 with its
sample count, attempts and failures per operation class), then, as the
last line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: extra timed set-ups per run, besides one per round.
SETUP_REPEATS = 15


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _run_rounds(workload, seed, seconds, harness, tally, tracer, first_round):
    from workloads import run_round

    start = time.perf_counter()
    round_index = first_round
    while True:
        run_round(workload, seed, round_index, harness, tally, tracer)
        round_index += 1
        if time.perf_counter() - start >= seconds:
            return round_index


def _end_to_end(tally, report):
    from harness import peak_rss_mb, percentile
    from workloads import median, ops_per_s

    # Read before the sorts below, which allocate per operation.
    rss = peak_rss_mb()
    latencies = sorted(tally.latencies)
    raw_latencies = sorted(tally.raw_latencies)
    metrics = {
        "setup_s": (median(tally.setup_s), "s", median(tally.setup_raw)),
        "ops_per_s": (ops_per_s(tally), "1/s", ops_per_s(tally, adjusted=False)),
        "latency_p50_ms": (percentile(latencies, 0.5) * 1e3, "ms",
                           percentile(raw_latencies, 0.5) * 1e3),
        "check_s": (median(tally.check_s), "s", median(tally.check_raw)),
        "peak_rss_mb": (rss, "MB", rss),
    }
    for name, (value, unit, raw) in metrics.items():
        report.append(f"{name:16s} adjusted {value:12.4f} raw {raw:12.4f} {unit}")
    report.append(
        f"latency_p99_ms   adjusted {percentile(latencies, 0.99) * 1e3:12.4f}"
        f" raw {percentile(raw_latencies, 0.99) * 1e3:12.4f} ms"
        f" (n={len(latencies)}, not gated)"
    )
    return {name: {"value": value, "unit": unit}
            for name, (value, unit, _) in metrics.items()}


def _per_layer(tally, tracer, overhead_pct):
    ops = max(tally.completed, 1)
    self_s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    frames = counts["net.frames"]
    key_times = tally.key_checks
    per_round = max(tally.rounds, 1)

    def per(total, denominator, scale=1.0):
        return total / denominator * scale if denominator else 0.0

    values = {
        "sim.steps_per_s": (per(tally.steps, self_s["sim.run"]), "1/s"),
        "sim.run_ms_per_op": (per(self_s["sim.run"], ops, 1e3), "ms"),
        "sim.steps_per_op": (per(tally.steps, ops), "count"),
        "sim.lowlevel_ops_per_op": (per(tally.lowlevel_ops, ops), "count"),
        "core.on_response_ms_per_op": (per(self_s["core.on_response"], ops, 1e3), "ms"),
        "core.cas_iterations_per_write": (
            per(tally.cas_iterations, counts["core.write_max"]), "count"),
        "shard.submit_us_per_op": (per(self_s["shard.submit"], ops, 1e6), "us"),
        "shard.drain_us_per_op": (per(self_s["shard.drain"], ops, 1e6), "us"),
        "shard.step_self_ms_per_op": (per(self_s["shard.step"], ops, 1e3), "ms"),
        "shard.pumps_per_op": (per(calls["shard.step"], ops), "count"),
        "consistency.check_ms_per_key": (
            per(sum(key_times), len(key_times), 1e3), "ms"),
        "consistency.check_max_key_ms": (max(key_times, default=0.0) * 1e3, "ms"),
        "consistency.exact_search_keys": (
            per(calls["consistency.exact_search"], max(tally.check_passes, 1)),
            "count"),
        "consistency.failed_keys": (per(tally.failed["check.key"], per_round), "count"),
        "consistency.ws_check_ms_per_read": (
            per(self_s["consistency.ws_check"], tally.reads, 1e3), "ms"),
        "net.frames_per_op": (per(frames, ops), "count"),
        "net.request_bytes_per_op": (per(counts["net.request_bytes"], ops), "B"),
        "net.encode_us_per_frame": (per(self_s["net.encode"], frames, 1e6), "us"),
        "net.decode_us_per_frame": (
            per(self_s["net.decode"], calls["net.decode"], 1e6), "us"),
        "net.send_request_us_per_op": (per(self_s["net.send_request"], ops, 1e6), "us"),
        "net.idle_wait_ms_per_op": (per(self_s["net.idle_wait"], ops, 1e3), "ms"),
        "net.pump_us_per_op": (per(self_s["net.pump"], ops, 1e6), "us"),
        "net.dropped_frames": (float(tally.dropped_frames), "count"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        _fail(f"no program source at {SRC}: run from the root of a checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)

    from harness import Harness
    from spans import Tracer
    from workloads import SPECS, Tally, median, ops_per_s, setup_once

    if args.workload not in SPECS:
        _fail(f"unknown workload {args.workload!r}; known: {sorted(SPECS)}")
    if getattr(SPECS[args.workload], "transport", "sim") != "sim":
        # The load generator and the event-loop thread share one CPU, as
        # the reference loop does: spread over both CPUs of a shared host,
        # the two threads slowed down by far more than the loop did.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    harness = Harness()
    tally = Tally()
    for repeat in range(SETUP_REPEATS):
        setup_once(args.workload, args.seed * 1000 + repeat, harness, tally)
    report = [f"workload {args.workload} seed {args.seed} trace {args.trace}"]

    if args.trace:
        # An untraced half, then the traced half: their work time per
        # operation differs by the tracing overhead.
        half = args.seconds / 2.0
        next_round = _run_rounds(
            args.workload, args.seed, half, harness, tally, None, 0
        )
        untraced_rate = ops_per_s(tally)
        tracer = Tracer(harness.now)
        tracer.install()
        harness.on_piece_end = tracer.flush
        traced = Tally()
        try:
            _run_rounds(args.workload, args.seed, half, harness, traced,
                        tracer, next_round)
        finally:
            tracer.uninstall()
        overhead = (untraced_rate / ops_per_s(traced) - 1) * 100
        metrics = _per_layer(traced, tracer, overhead)
        for name, metric in metrics.items():
            report.append(f"{name:34s} {metric['value']:14.4f} {metric['unit']}")
        report += [
            f"self time {name:28s} {seconds:10.4f} s over {tracer.calls[name]} calls"
            for name, seconds in sorted(tracer.self_s.items())
        ]
        path = os.path.join(
            ".perfbench", f"trace-{args.workload}-seed{args.seed}.jsonl"
        )
        tracer.write_jsonl(path, {
            "workload": args.workload, "seed": args.seed,
            "self_s": dict(tracer.self_s), "calls": dict(tracer.calls),
            "counts": dict(tracer.counts), "spans_kept": len(tracer.spans),
            "spans_dropped": tracer.dropped_spans,
        })
        report.append(f"spans written to {path} ({len(tracer.spans)} kept,"
                      f" {tracer.dropped_spans} beyond the cap)")
        tallies = (tally, traced)
    else:
        _run_rounds(args.workload, args.seed, args.seconds, harness, tally,
                    None, 0)
        metrics = _end_to_end(tally, report)
        tallies = (tally,)

    attempted = sum(sum(t.attempted.values()) for t in tallies)
    failed = sum(sum(t.failed.values()) for t in tallies)
    errors = [error for t in tallies for error in t.errors]
    for op_class in sorted(set().union(*(t.attempted for t in tallies))):
        tried = sum(t.attempted[op_class] for t in tallies)
        lost = sum(t.failed[op_class] for t in tallies)
        report.append(f"{op_class:12s} attempted {tried:8d} failed {lost:6d}")
    report.append(
        f"rounds {sum(t.rounds for t in tallies)}; reference loop"
        f" median {median(harness.refs) * 1e3:.1f} ms,"
        f" spread {harness.ref_spread():.3f} over {len(harness.refs)} loops"
    )
    report += [f"ERROR {error}" for error in errors]
    print("\n".join(report))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
