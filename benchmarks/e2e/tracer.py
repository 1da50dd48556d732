"""The benchmark's own tracer: spans around the library's entry points.

Nothing under ``src/`` knows about tracing.  :func:`install` replaces the
public entry points of each layer with timing wrappers for the duration of
one traced pass and hands back an ``uninstall`` callable; end-to-end numbers
always come from passes run *without* the wrappers.

Two wrapper shapes cover the whole library:

* a plain call is one span, start to return;
* a sans-io generator or a coroutine is one span whose *active* time is the
  sum of its resume-to-yield intervals -- the time it sat suspended (the
  engine delivering its request, the event loop running other tasks) is not
  its own and is not charged to it.

A span's **self time** is its active time minus the part its child spans
cover.  Spans are kept in memory -- ``(name, start, end, parent, query_id,
active_s)`` -- and written as JSON Lines when the run ends.  The hottest
leaves (one call per digest probe, per view update, per traffic row) only
feed the per-layer ``calls`` / ``self_s`` aggregates: a record per call
would cost more memory than the simulation itself.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from collections.abc import Coroutine
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``(args, kwargs) -> query id`` extractors for the calls that carry one.
QueryIdOf = Callable[[tuple, dict], Optional[int]]


class Tracer:
    """In-memory span store plus per-layer aggregates."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: ``(name, start, end, parent_index, query_id, active_s)`` per span;
        #: ``parent_index`` is ``-1`` for a root span.
        self.spans: List[Optional[tuple]] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Free-form counts taken at the same boundaries (bytes encoded,
        #: sends refused, views accepted, ...).
        self.counters: Dict[str, float] = defaultdict(float)
        #: Per-name sample lists (timer lag, ...), for percentiles.
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: Per-name running totals the program keeps per object, by object
        #: id (summed when the pass ends): the latest reading wins.
        self.gauges: Dict[str, Dict[int, float]] = defaultdict(dict)
        #: Running sum of every span's self time: sampled at the edges of a
        #: timed region, the difference is the attributed share of it.
        self.attributed_s = 0.0
        #: Open frames, innermost last: ``[child_cover_s, span_index]``.
        self._stack: List[list] = []

    # -- wrappers -------------------------------------------------------------

    def wrap_call(
        self,
        name: str,
        fn: Callable[..., Any],
        record: bool = True,
        query_id: Optional[QueryIdOf] = None,
        after: Optional[Callable[["Tracer", tuple, Any], None]] = None,
        catch_all: bool = False,
    ) -> Callable[..., Any]:
        """``fn`` timed as one span per call.

        ``record=False`` keeps only the aggregates (hot leaves).  ``after``
        runs outside the span with the call's arguments and result, for
        counts taken at the same boundary.  A ``catch_all`` span names no
        layer: its self time is reported but stays *unattributed*.
        """
        tracer = self
        clock = self.clock
        stack = self._stack
        spans = self.spans
        calls = self.calls
        self_s = self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if record:
                index = len(spans)
                spans.append(None)
            else:
                index = parent
            frame = [0.0, index]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                own = duration - frame[0]
                calls[name] += 1
                self_s[name] += own
                if not catch_all:
                    tracer.attributed_s += own
                if stack:
                    stack[-1][0] += duration
                if record:
                    qid = query_id(args, kwargs) if query_id is not None else None
                    spans[index] = (name, start, end, parent, qid, duration)
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    def wrap_resumable(
        self,
        name: str,
        fn: Callable[..., Any],
        record: bool = True,
        query_id: Optional[QueryIdOf] = None,
    ) -> Callable[..., Any]:
        """A generator function or coroutine function, timed while it runs."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            qid = query_id(args, kwargs) if query_id is not None else None
            return _TracedResumable(tracer, name, fn(*args, **kwargs), record, qid)

        return traced

    # -- results --------------------------------------------------------------

    def dump(self, path: str) -> int:
        """Write one JSON line per recorded span; returns the number written."""
        written = 0
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, qid, active = span
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "query_id": qid,
                            "active_s": active,
                        },
                        separators=(",", ":"),
                    )
                )
                handle.write("\n")
                written += 1
        return written


class _TracedResumable(Coroutine):
    """A generator or coroutine whose resume-to-yield intervals are timed.

    Stands in for the wrapped object everywhere the library drives one:
    ``gen.send`` / ``next`` (the engine's ``drive``), ``yield from``, ``await``
    and ``asyncio.create_task`` (which accepts any ``Coroutine``).
    """

    __slots__ = ("_tracer", "_name", "_inner", "_record", "_qid", "_index",
                 "_parent", "_start", "_active")

    def __init__(self, tracer: Tracer, name: str, inner, record: bool, qid) -> None:
        self._tracer = tracer
        self._name = name
        self._inner = inner
        self._record = record
        self._qid = qid
        self._index: Optional[int] = None
        self._parent = -1
        self._start = 0.0
        self._active = 0.0

    def _step(self, method, *args):
        tracer = self._tracer
        stack = tracer._stack
        name = self._name
        if self._index is None:
            self._parent = stack[-1][1] if stack else -1
            tracer.calls[name] += 1
            if self._record:
                self._index = len(tracer.spans)
                tracer.spans.append(None)
            else:
                self._index = self._parent
            self._start = tracer.clock()
        frame = [0.0, self._index]
        stack.append(frame)
        start = tracer.clock()
        try:
            return method(*args)
        finally:
            end = tracer.clock()
            stack.pop()
            duration = end - start
            own = duration - frame[0]
            self._active += duration
            tracer.self_s[name] += own
            tracer.attributed_s += own
            if stack:
                stack[-1][0] += duration
            if self._record:
                tracer.spans[self._index] = (
                    name, self._start, end, self._parent, self._qid, self._active
                )

    def send(self, value):
        return self._step(self._inner.send, value)

    def throw(self, *exc_info):
        return self._step(self._inner.throw, *exc_info)

    def close(self) -> None:
        self._inner.close()

    def __next__(self):
        return self._step(self._inner.send, None)

    def __iter__(self):
        return self

    __await__ = __iter__


# ---------------------------------------------------------------- installation


def _arg(position: int, keyword: str, attribute: Optional[str] = None) -> QueryIdOf:
    """Query id from one argument (optionally through an attribute)."""

    def extract(args: tuple, kwargs: dict) -> Optional[int]:
        value = args[position] if len(args) > position else kwargs.get(keyword)
        if value is not None and attribute is not None:
            value = getattr(value, attribute, None)
        return value

    return extract


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer's entry points; returns the ``uninstall`` callable.

    Layer names follow the module paths under ``src/repro``.  A function
    that other modules imported by name (``partial_scores``,
    ``apply_change_day``) is replaced in every loaded ``repro`` module that
    or this package holds the original.
    """
    import asyncio.events

    from repro.gossip.digest import DigestCache
    from repro.gossip.peer_sampling import PeerSamplingProtocol
    from repro.gossip.profile_exchange import LazyExchangeProtocol
    from repro.gossip.views import PersonalNetwork
    from repro.p3q.eager import EagerGossipProtocol
    from repro.p3q.node import P3QNode
    from repro.p3q.protocol import P3QSimulation
    from repro.p3q.query import QuerySession
    from repro.service.codec import BinaryWireCodec, WireCodec
    from repro.service.runtime import (
        FrameBatcher, InProcWire, NodeService, ServiceRuntime, TimerWheel,
    )
    from repro.similarity.knn import IdealNetworkIndex
    from repro.simulator.engine import SimulationEngine
    from repro.simulator.stats import StatsCollector
    from repro.simulator.transport import DELIVERED, DirectTransport
    from repro.topk.incremental import IncrementalNRA

    undo: List[Tuple[Any, str, Any]] = []

    def patch(owner: Any, attribute: str, replacement: Any) -> None:
        undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def call(owner, attribute, name, **options) -> None:
        patch(owner, attribute, tracer.wrap_call(name, owner.__dict__[attribute], **options))

    def resumable(owner, attribute, name, **options) -> None:
        patch(owner, attribute, tracer.wrap_resumable(name, owner.__dict__[attribute], **options))

    def function(module_name: str, attribute: str, name: str, **options) -> None:
        original = getattr(sys.modules[module_name], attribute)
        wrapped = tracer.wrap_call(name, original, **options)
        for module in list(sys.modules.values()):
            if (
                module is not None
                and getattr(module, "__name__", "").startswith(("repro", "benchmarks.e2e"))
                and module.__dict__.get(attribute) is original
            ):
                patch(module, attribute, wrapped)

    counters = tracer.counters

    # -- set-up ---------------------------------------------------------------
    function("repro.data.synthetic", "generate_dataset", "data.generate_dataset")
    call(IdealNetworkIndex, "__init__", "similarity.ideal_index")
    call(P3QSimulation, "__init__", "p3q.protocol.build")
    call(P3QSimulation, "bootstrap_random_views", "p3q.protocol.bootstrap")
    call(P3QSimulation, "warm_start", "p3q.protocol.warm_start")
    resumable(ServiceRuntime, "start", "service.runtime.start")

    # -- lazy gossip ----------------------------------------------------------
    call(SimulationEngine, "run_cycle", "simulator.engine.run_cycle")
    resumable(PeerSamplingProtocol, "run_cycle_effects", "gossip.peer_sampling.run_cycle")
    resumable(LazyExchangeProtocol, "exchange_effects", "gossip.profile_exchange.exchange")
    resumable(
        LazyExchangeProtocol, "handle_advertisement_effects",
        "gossip.profile_exchange.handle_advertisement",
    )
    resumable(
        LazyExchangeProtocol, "integrate_effects", "gossip.profile_exchange.integrate",
        query_id=_arg(4, "query_id"),
    )
    call(DigestCache, "digest_for", "gossip.digest.digest_for", record=False)
    call(DigestCache, "common_items", "gossip.digest.common_items", record=False)

    def count_evictions(_tracer, args, _result) -> None:
        counters["gossip.digest.evictions"] += len(args[1])

    # Evictions arrive as the engine's per-cycle dirty set (a frozenset).
    call(DigestCache, "evict_profiles", "gossip.digest.evict", record=False,
         after=count_evictions)

    def count_accepts(_tracer, _args, accepted) -> None:
        if accepted:
            counters["gossip.views.consider.accepted"] += 1

    call(PersonalNetwork, "consider", "gossip.views.consider", record=False,
         after=count_accepts)
    call(PersonalNetwork, "store_profile", "gossip.views.store_profile", record=False)
    call(StatsCollector, "record", "simulator.stats.record", record=False)
    call(StatsCollector, "flush", "simulator.stats.flush")
    function("repro.data.dynamics", "apply_change_day", "data.apply_change_day")

    # -- eager queries --------------------------------------------------------
    call(P3QNode, "issue_query", "p3q.node.issue_query",
         query_id=_arg(1, "query", "query_id"))
    resumable(EagerGossipProtocol, "gossip_query_effects", "p3q.eager.gossip_query",
              query_id=_arg(2, "query", "query_id"))
    resumable(
        EagerGossipProtocol, "process_at_destination_effects",
        "p3q.eager.process_at_destination", query_id=_arg(2, "query", "query_id"),
    )
    function("repro.p3q.scoring", "partial_scores", "p3q.scoring.partial_scores",
             record=False)

    def session_query_id(args: tuple, _kwargs: dict) -> Optional[int]:
        return args[0].query.query_id

    call(QuerySession, "close_cycle", "p3q.query.close_cycle", record=False,
         query_id=session_query_id)

    accesses = tracer.gauges["topk.incremental.sequential_accesses"]

    def note_accesses(_tracer, args, _result) -> None:
        accesses[id(args[0])] = args[0].sequential_accesses

    call(IncrementalNRA, "process_cycle", "topk.incremental.process_cycle", record=False,
         after=note_accesses)

    def count_undelivered_request(_tracer, _args, dispatch) -> None:
        if dispatch.status != DELIVERED:
            counters["simulator.transport.deliver.dropped"] += 1

    def count_undelivered_send(_tracer, _args, status) -> None:
        if status != DELIVERED:
            counters["simulator.transport.deliver.dropped"] += 1

    call(DirectTransport, "request", "simulator.transport.deliver",
         query_id=_arg(4, "query_id"), after=count_undelivered_request)
    call(DirectTransport, "send", "simulator.transport.deliver",
         query_id=_arg(4, "query_id"), after=count_undelivered_send)

    # -- service runtime ------------------------------------------------------
    def count_encoded(_tracer, _args, frame) -> None:
        counters["service.codec.encode.bytes"] += len(frame)

    for codec in (BinaryWireCodec, WireCodec):
        for method in ("encode_request", "encode_send", "encode_reply"):
            if method in codec.__dict__:
                call(codec, method, "service.codec.encode", record=False,
                     after=count_encoded)
        for method in ("split", "decode_body"):
            if method in codec.__dict__:
                call(codec, method, "service.codec.decode", record=False)

    def count_refused(_tracer, _args, accepted) -> None:
        if not accepted:
            counters["service.runtime.wire.send.refused"] += 1

    call(InProcWire, "send", "service.runtime.wire.send", record=False, after=count_refused)

    def count_frame(_tracer, _args, _result) -> None:
        counters["service.runtime.batcher.frames"] += 1

    call(FrameBatcher, "send", "service.runtime.batcher.send", record=False,
         after=count_frame)
    call(FrameBatcher, "send_now", "service.runtime.batcher.send", record=False,
         after=count_frame)

    def envelope_query_id(args: tuple, _kwargs: dict) -> Optional[int]:
        return args[1].query_id

    resumable(P3QNode, "handle_message_effects", "service.runtime.handler",
              query_id=envelope_query_id)

    lag = tracer.samples["service.runtime.wheel.timer_lag_s"]
    schedule = TimerWheel.__dict__["schedule"]

    @functools.wraps(schedule)
    def schedule_with_lag(wheel, delay, callback):
        # Time work waited: how long after its deadline the wheel fired it.
        loop_time = asyncio.events.get_running_loop().time
        deadline = loop_time() + delay

        def fire():
            lag.append(loop_time() - deadline)
            callback()

        return schedule(wheel, delay, fire)

    patch(TimerWheel, "schedule", schedule_with_lag)
    resumable(TimerWheel, "_run", "service.runtime.wheel", record=False)

    # The runtime's own code between the layers above: the round tasks, the
    # effect pump with its rpc and one-way legs, the inbox readers, byte
    # accounting and the wire-event trace.
    resumable(NodeService, "_gossip_round", "service.runtime.round", record=False)
    resumable(NodeService, "_eager_round", "service.runtime.round", record=False)
    resumable(NodeService, "drive", "service.runtime.drive", record=False)
    resumable(NodeService, "request", "service.runtime.rpc", record=False)
    call(NodeService, "send", "service.runtime.rpc", record=False)
    resumable(NodeService, "_inbox_loop", "service.runtime.inbox", record=False)
    call(NodeService, "_dispatch_inbound", "service.runtime.inbox", record=False)
    resumable(NodeService, "_handle_inbound", "service.runtime.inbox", record=False)
    call(ServiceRuntime, "account", "service.runtime.account", record=False)
    call(ServiceRuntime, "observe", "service.trace.record", record=False)
    call(FrameBatcher, "_flush_tick", "service.runtime.batcher.send", record=False)
    # Every callback and task step the event loop runs.  What is left in it
    # is asyncio's own glue, which names no layer: it stays unattributed.
    call(asyncio.events.Handle, "_run", "service.runtime.loop", record=False, catch_all=True)

    def uninstall() -> None:
        while undo:
            owner, attribute, original = undo.pop()
            setattr(owner, attribute, original)

    return uninstall
