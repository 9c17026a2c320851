"""Spans and counts around the program's public calls (trace mode only).

:meth:`Tracer.install` replaces the named methods on their classes with
wrappers before any emulation or service of the traced phase is built.
Each call records a span (id, name, start, end, parent span, operation
id) on a per-thread stack; a span's self time is its duration minus the
time its child spans cover.  Self time is summed per span name and
rescaled by the harness's reference factor at the end of every timed
piece.  At most ``MAX_SPANS`` spans are kept in memory and written out as
JSON lines at the end; the self-time sums cover every call.
"""

from __future__ import annotations

import json
import os
import threading
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional

#: spans kept in memory and written out; the self-time sums cover every call.
MAX_SPANS = 50_000


class Tracer:
    """Spans and counts of one traced phase.

    ``clock`` is the harness's work clock, so span times leave out the
    reference samples taken inside long pieces.
    """

    def __init__(self, clock: Callable[[], float]):
        self._clock = clock
        self.spans: "List[tuple]" = []
        self.dropped_spans = 0
        self.calls: "Counter[str]" = Counter()
        self.counts: "Counter[str]" = Counter()
        #: reference-adjusted self seconds per span name
        self.self_s: "Dict[str, float]" = defaultdict(float)
        self._raw: "Dict[str, float]" = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._origin = clock()
        self._patched: "List[tuple]" = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args, kwargs, op_id=None):
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1][0] if stack else None
        frame = [span_id, 0.0]
        stack.append(frame)
        start = self._clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self._clock()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            with self._lock:
                self._raw[name] += duration - frame[1]
                self.calls[name] += 1
                if len(self.spans) < MAX_SPANS:
                    self.spans.append(
                        (span_id, name, start - self._origin,
                         end - self._origin, parent, op_id)
                    )
                else:
                    self.dropped_spans += 1

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def flush(self, factor: float) -> None:
        """Rescale the raw self time gathered since the last flush."""
        with self._lock:
            for name, raw in self._raw.items():
                self.self_s[name] += raw * factor
            self._raw.clear()

    # -- installing wrappers -------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        op_of: "Optional[Callable]" = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper;
        ``op_of(args, kwargs)`` names the operation a call serves."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            op_id = op_of(args, kwargs) if op_of is not None else None
            return tracer.call(name, original, args, kwargs, op_id)

        self._patch(owner, attr, wrapper)

    def wrap_count(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a wrapper that only counts calls
        in ``counts[name]`` (for generator functions, whose call returns
        before their work runs, so a span would time nothing)."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.count(name)
            return original(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._patched.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    def install(self) -> None:
        """Wrap the public calls of sim, core, net, apps.shard, consistency."""
        from repro.apps.shard.fleet import ShardFleet
        from repro.apps.shard.service import ShardedKVService
        from repro.consistency import register_atomicity
        from repro.core.abd import ABDClient
        from repro.core.cas_maxreg import CASABDClient, _CASOps
        from repro.core.ws_register import WSRegisterClient
        from repro.net.asyncio_transport import AsyncioTransport
        from repro.sim.system import SimSystem

        def response_op(args, _kwargs):
            return args[2].highlevel_seq

        def token(args, kwargs):
            return kwargs.get("token", args[4] if len(args) > 4 else None)

        self.wrap(SimSystem, "run_to_quiescence", "sim.run")
        for client in (WSRegisterClient, ABDClient, CASABDClient):
            self.wrap(client, "on_response", "core.on_response", response_op)
        # Algorithm 1's write-max, one call per server per write-max round.
        self.wrap_count(_CASOps, "write_max", "core.write_max")
        self.wrap(ShardedKVService, "submit", "shard.submit", token)
        self.wrap(ShardedKVService, "step", "shard.step")
        self.wrap(ShardedKVService, "drain_completions", "shard.drain")
        self.wrap(ShardFleet, "audit_slot", "consistency.audit_slot")
        # The exact search that register_atomicity falls back to for
        # histories that are not write-sequential.
        self.wrap(
            register_atomicity, "is_linearizable", "consistency.exact_search"
        )
        self.wrap(AsyncioTransport, "send_request", "net.send_request")
        self.wrap(AsyncioTransport, "pump", "net.pump")
        self.wrap(AsyncioTransport, "flush_idle", "net.idle_wait")

    def write_jsonl(self, path: str, summary: "Dict[str, Any]") -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as out:
            out.write(json.dumps({"summary": summary}) + "\n")
            for span_id, name, start, end, parent, op_id in self.spans:
                out.write(json.dumps({
                    "id": span_id, "name": name, "start": round(start, 9),
                    "end": round(end, 9), "parent": parent, "op": op_id,
                }) + "\n")


class TracingCodec:
    """A wire codec that wraps another and records frames, bytes and time."""

    def __init__(self, inner: Any, tracer: Tracer):
        self.inner = inner
        self.name = inner.name
        self._tracer = tracer

    def _encode(self, fn, leg: str, args, op_id):
        data = self._tracer.call("net.encode", fn, args, {}, op_id)
        self._tracer.count("net.frames")
        self._tracer.count(f"net.{leg}_bytes", len(data))
        return data

    def encode_request(self, op):
        return self._encode(
            self.inner.encode_request, "request", (op,), op.highlevel_seq
        )

    def encode_response(self, op_value, result):
        return self._encode(
            self.inner.encode_response, "response", (op_value, result), None
        )

    def decode_request(self, payload):
        return self._tracer.call(
            "net.decode", self.inner.decode_request, (payload,), {}
        )

    def decode_response(self, payload):
        return self._tracer.call(
            "net.decode", self.inner.decode_response, (payload,), {}
        )

    async def read_frame(self, reader):
        return await self.inner.read_frame(reader)
