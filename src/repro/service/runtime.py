"""The asyncio service runtime: P3Q nodes as concurrently running tasks.

The cycle engine executes nodes one after another inside a single loop
iteration; this runtime executes the *same protocol cores* -- the
``*_effects`` generators -- as independent asyncio tasks exchanging
serialized frames:

* each node is a :class:`NodeService`: an inbox task that runs every
  inbound handler on the spot up to its first round trip (most never make
  one) and only then hands it to a sub-task -- handlers are never
  serialised, so nested round-trips between two nodes cannot deadlock --
  plus gossip/eager rounds fired by the runtime's shared
  :class:`TimerWheel` -- one scheduler task drives every node's jittered
  deadlines from a heap, replacing the two private timer tasks per node
  of the original design;
* messages travel through a pluggable wire as binary codec frames
  (:class:`~repro.service.codec.BinaryWireCodec`): the in-process
  :class:`InProcWire` (asyncio queues carrying *encoded bytes*) by default,
  or :class:`UdpWire`
  (one real UDP socket per node on 127.0.0.1, frames bounded by
  :data:`~repro.service.codec.MAX_DATAGRAM_BYTES`).  One-way frames
  queued in the same loop tick for the same destination are coalesced by
  the :class:`FrameBatcher` into a single wire write; request and reply
  frames flush immediately (the rpc boundary is never traded for
  batching);
* round-trips are rpc-correlated and guarded by a timeout: a request whose
  reply does not arrive in time resolves to ``DROPPED``, the same status a
  lossy transport hands the protocol, so the sans-io cores need no notion
  of time.  The requester awaits its reply future directly; one
  :class:`RpcDeadlines` queue per runtime, with a single timer handle,
  expires the overdue ones;
* per-query **deadlines** replace the engine's cycle cutoffs: a query that
  has not completed when its deadline expires is reported with whatever
  coverage it reached.

The runtime wraps a fully built :class:`~repro.p3q.protocol.P3QSimulation`
-- construction, warm start, churn bookkeeping and the stats collector are
shared with the simulator -- but never runs its engine.  Byte accounting
goes through the transport's own hook,
:meth:`~repro.simulator.transport.Transport.account` (priced by
``gossip.sizes`` at send time; control messages and ``None``-payload
replies free), **regardless of the encoded frame** -- batching and digest
suppression change wire bytes, never accounted bytes -- every wire action
is recorded in a :class:`~repro.service.trace.ServiceTrace` (columns at
rest, a :class:`~repro.simulator.transport.WireEvent` per event on
access), and :func:`~repro.service.trace.check_trace` audits the run with
the simtest invariant checkers.  What grows with a run is kept small: ~25
bytes and the message reference per wire event, at most
:data:`~repro.simulator.stats.FOLD_ROWS` unfolded traffic rows (the
collector folds itself), and the answer alone of a finished query's merger.

Every effect that cannot suspend is answered as in the engine, by the one
stepper :func:`~repro.simulator.effects.advance`: a one-way send through
:meth:`NodeService.send`, a probe through the shared liveness table.  Only
a round trip differs: the engine answers it in place, the service awaits
it over the wire.
"""

from __future__ import annotations

import asyncio
import heapq
import logging
import math
import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..data.queries import Query
from ..p3q.protocol import P3QSimulation
from ..p3q.query import QuerySession
from ..simulator.effects import RequestEffect, WireEffects, advance
from ..simulator.transport import (
    DELIVERED,
    DROPPED,
    OP_REPLY,
    OP_REQUEST,
    OP_SEND,
    UNREACHABLE,
    Dispatch,
    Envelope,
    Message,
)
from .codec import MAX_DATAGRAM_BYTES, BinaryWireCodec
from .trace import ServiceTrace

logger = logging.getLogger(__name__)


def _report_task_failure(task: asyncio.Task) -> None:
    """Done-callback surfacing crashes of long-lived service tasks.

    Timer loops, inbox readers and inbound handlers are only gathered at
    shutdown with ``return_exceptions=True``; without this callback an
    unexpected exception (an oversized UDP frame, a protocol bug) would
    silently stop the node for the rest of the run.
    """
    if task.cancelled():
        return
    exc = task.exception()
    if exc is not None:
        logger.error("service task %s crashed", task.get_name(), exc_info=exc)


#: Wire flavour names accepted by :class:`ServiceConfig.wire`.
WIRE_INPROC = "inproc"
WIRE_UDP = "udp"
WIRE_NAMES = (WIRE_INPROC, WIRE_UDP)


@dataclass(frozen=True)
class ServiceConfig:
    """Timing and wiring knobs of a service run."""

    #: Seconds between a node's lazy gossip rounds (engine: one per cycle).
    gossip_interval: float = 0.05
    #: Seconds between a node's eager query rounds.
    eager_interval: float = 0.02
    #: Round-trip guard: a request unanswered for this long resolves DROPPED.
    rpc_timeout: float = 5.0
    #: Default per-query completion deadline (seconds from issue).
    query_deadline: float = 3.0
    #: ``"inproc"`` (asyncio loopback, default) or ``"udp"`` (127.0.0.1 sockets).
    wire: str = WIRE_INPROC
    #: Multiplicative timer jitter range (``1 ± jitter``), desynchronizing
    #: nodes the way real clocks drift apart.
    jitter: float = 0.2

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Field and range checks, in the :meth:`P3QConfig.validate` style.

        Every knob is checked for type, finiteness and range -- ``nan`` and
        ``inf`` pass a bare ``<= 0`` comparison and would otherwise wedge a
        timer forever.
        """
        if self.wire not in WIRE_NAMES:
            raise ValueError(f"wire must be one of {WIRE_NAMES}, got {self.wire!r}")
        positive = (
            ("gossip_interval", self.gossip_interval),
            ("eager_interval", self.eager_interval),
            ("rpc_timeout", self.rpc_timeout),
            ("query_deadline", self.query_deadline),
        )
        for name, value in positive:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value) or value <= 0:
                raise ValueError(
                    f"{name} must be a positive finite number, got {value!r}"
                )
        jitter = self.jitter
        if isinstance(jitter, bool) or not isinstance(jitter, (int, float)):
            raise ValueError(f"jitter must be a number, got {jitter!r}")
        if not math.isfinite(jitter) or not 0.0 <= jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {jitter!r}")


# -------------------------------------------------------------------- wires


class InProcWire:
    """Loopback wire: one asyncio queue of *encoded frames* per node.

    Frames still round-trip through the codec -- the bytes handed to the
    queue are exactly the bytes the UDP wire would put on a socket -- so
    the in-process default exercises the full serialization path.
    """

    def __init__(self) -> None:
        self._inboxes: Dict[int, asyncio.Queue] = {}

    async def start(self, node_ids) -> None:
        for node_id in node_ids:
            self._inboxes[node_id] = asyncio.Queue()

    async def stop(self) -> None:
        self._inboxes.clear()

    def inbox(self, node_id: int) -> asyncio.Queue:
        return self._inboxes[node_id]

    def has_peer(self, node_id: int) -> bool:
        return node_id in self._inboxes

    def send(self, receiver: int, frame: bytes) -> bool:
        inbox = self._inboxes.get(receiver)
        if inbox is None:
            return False
        inbox.put_nowait(frame)
        return True


class _UdpInbox(asyncio.DatagramProtocol):
    def __init__(self, queue: asyncio.Queue) -> None:
        self._queue = queue

    def datagram_received(self, data: bytes, addr) -> None:  # pragma: no cover - io
        self._queue.put_nowait(data)


class UdpWire:
    """One real UDP socket per node on 127.0.0.1 (kernel loopback).

    Every frame actually traverses the network stack.  Frames larger than
    :data:`MAX_DATAGRAM_BYTES` are refused loudly -- size your digests
    (``digest_bits``) for the datagram budget instead of letting the kernel
    truncate silently.
    """

    def __init__(self) -> None:
        self._inboxes: Dict[int, asyncio.Queue] = {}
        self._transports: Dict[int, asyncio.DatagramTransport] = {}
        self._addresses: Dict[int, Tuple[str, int]] = {}

    async def start(self, node_ids) -> None:
        loop = asyncio.get_running_loop()
        for node_id in node_ids:
            queue: asyncio.Queue = asyncio.Queue()
            transport, _ = await loop.create_datagram_endpoint(
                lambda q=queue: _UdpInbox(q), local_addr=("127.0.0.1", 0)
            )
            self._inboxes[node_id] = queue
            self._transports[node_id] = transport
            self._addresses[node_id] = transport.get_extra_info("sockname")[:2]

    async def stop(self) -> None:
        for transport in self._transports.values():
            transport.close()
        self._inboxes.clear()
        self._transports.clear()
        self._addresses.clear()

    def inbox(self, node_id: int) -> asyncio.Queue:
        return self._inboxes[node_id]

    def has_peer(self, node_id: int) -> bool:
        return node_id in self._addresses

    def send(self, receiver: int, frame: bytes) -> bool:
        address = self._addresses.get(receiver)
        if address is None:
            return False
        if len(frame) > MAX_DATAGRAM_BYTES:
            raise ValueError(
                f"frame of {len(frame)} bytes exceeds the {MAX_DATAGRAM_BYTES}-byte "
                "datagram budget; use smaller digest_bits or the inproc wire"
            )
        # Any local socket may send; route through the receiver's own to
        # keep per-node addressing symmetric.
        self._transports[receiver].sendto(frame, address)
        return True


def make_wire(name: str):
    if name == WIRE_UDP:
        return UdpWire()
    return InProcWire()


# ------------------------------------------------------------ frame batching


class FrameBatcher:
    """Coalesce same-loop-tick one-way frames per destination.

    The gossip hot path emits bursts of small one-way frames (suppressed
    digest advertisements, remaining-returns) toward the same receiver
    within one loop iteration; writing each individually costs one queue
    put or one ``sendto`` syscall apiece.  The batcher buffers them per
    destination and flushes the concatenation as one wire write on the
    next loop tick (``call_soon``), under :data:`MAX_DATAGRAM_BYTES` --
    every frame carries its own length prefix, so the receiver's ``split``
    recovers the individual bodies.

    Flush rules, in order of precedence:

    * :meth:`send_now` -- requests and replies: queued frames to that
      destination flush first (frame order on a link is preserved), then
      the frame is written through immediately.  Rpc latency is never
      traded for batching.
    * an over-budget batch flushes eagerly before admitting the new frame;
    * a single frame larger than the budget is written through on its own
      so the UDP wire's loud refusal surfaces in the caller's context;
    * everything else flushes on the scheduled tick (or :meth:`flush_all`
      during shutdown).
    """

    def __init__(self, wire) -> None:
        self._wire = wire
        self._pending: Dict[int, List[bytes]] = {}
        self._sizes: Dict[int, int] = {}
        self._scheduled = False

    def send(self, receiver: int, frame: bytes) -> bool:
        """Queue a one-way frame; returns whether the receiver is reachable."""
        if not self._wire.has_peer(receiver):
            return False
        if len(frame) > MAX_DATAGRAM_BYTES:
            self.flush(receiver)
            return self._wire.send(receiver, frame)
        size = self._sizes.get(receiver, 0)
        if size and size + len(frame) > MAX_DATAGRAM_BYTES:
            self.flush(receiver)
        self._pending.setdefault(receiver, []).append(frame)
        self._sizes[receiver] = self._sizes.get(receiver, 0) + len(frame)
        if not self._scheduled:
            self._scheduled = True
            asyncio.get_running_loop().call_soon(self._flush_tick)
        return True

    def send_now(self, receiver: int, frame: bytes) -> bool:
        """Rpc-boundary write-through (flushes queued frames first)."""
        if not self._wire.has_peer(receiver):
            return False
        self.flush(receiver)
        return self._wire.send(receiver, frame)

    def flush(self, receiver: int) -> None:
        frames = self._pending.pop(receiver, None)
        self._sizes.pop(receiver, None)
        if frames:
            self._wire.send(
                receiver, frames[0] if len(frames) == 1 else b"".join(frames)
            )

    def flush_all(self) -> None:
        for receiver in list(self._pending):
            self.flush(receiver)

    def empty(self) -> bool:
        return not self._pending

    def _flush_tick(self) -> None:
        self._scheduled = False
        self.flush_all()


# --------------------------------------------------------------- timer wheel


class TimerWheel:
    """One scheduler task driving every node's jittered deadlines.

    Replaces the original two-asyncio-tasks-per-node timer design: a heap
    of ``(deadline, seq, callback)`` entries and a single ``timer-wheel``
    task that sleeps until the earliest deadline, pops everything due, and
    fires the callbacks synchronously (callbacks spawn round tasks; they
    must not block).  O(active timers) memory, O(log n) per schedule, one
    task total -- the firing *times* are exactly the ones the per-node
    loops would have produced, because each node still draws its jitter
    from its own seeded rng.

    ``schedule`` after :meth:`stop` is a silent no-op: in-flight rounds
    rescheduling themselves during shutdown simply stop recurring.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self._wakeup: Optional[asyncio.Event] = None
        self._task: Optional[asyncio.Task] = None
        self._running = False

    def start(self) -> None:
        self._wakeup = asyncio.Event()
        self._running = True
        self._task = asyncio.create_task(self._run(), name="timer-wheel")
        self._task.add_done_callback(_report_task_failure)

    async def stop(self) -> None:
        self._running = False
        if self._task is None:
            return
        self._wakeup.set()
        await asyncio.gather(self._task, return_exceptions=True)
        self._task = None
        self._heap.clear()

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Fire ``callback`` in the wheel task ``delay`` seconds from now."""
        if not self._running:
            return
        self._seq += 1
        deadline = asyncio.get_running_loop().time() + delay
        heapq.heappush(self._heap, (deadline, self._seq, callback))
        self._wakeup.set()

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while self._running:
            while self._heap and self._heap[0][0] <= loop.time():
                _, _, callback = heapq.heappop(self._heap)
                callback()
            if self._heap:
                timeout = max(0.0, self._heap[0][0] - loop.time())
                try:
                    await asyncio.wait_for(self._wakeup.wait(), timeout)
                except asyncio.TimeoutError:
                    continue
            else:
                await self._wakeup.wait()
            self._wakeup.clear()


# ------------------------------------------------------------ rpc deadlines

#: What an expired round trip's future resolves to (a reply may be ``None``).
RPC_EXPIRED = object()


class RpcDeadlines:
    """One FIFO of ``(deadline, future)`` guarding every round trip in flight.

    ``rpc_timeout`` is one constant per runtime, so deadlines arrive in
    order: a deque and a single ``call_at`` handle, re-armed at the head's
    deadline, replace one ``asyncio.wait_for`` (a waiter future, a timer
    handle and two callbacks) per rpc.  An overdue future resolves to
    :data:`RPC_EXPIRED`.

    :meth:`settle`, called as each round trip resolves, pops finished
    heads, so without loss the queue holds the round trips in flight.  A
    lost frame keeps its entry at the head for the whole timeout and the
    answered ones queue up behind it: :meth:`watch` drops those whenever
    the queue has doubled since it last looked, which bounds it by
    ``max(_COMPACT_FLOOR, 2 x round trips in flight)`` entries whatever
    the loss rate.
    """

    #: The queue is not scanned for answered entries below this length.
    _COMPACT_FLOOR = 1024

    def __init__(self, timeout: float) -> None:
        self._timeout = timeout
        self._queue: Deque[Tuple[float, asyncio.Future]] = deque()
        self._compact_at = self._COMPACT_FLOOR
        self._handle: Optional[asyncio.TimerHandle] = None

    def watch(self, future: asyncio.Future, now: float) -> None:
        """Expire ``future`` unless it resolves within the timeout of ``now``."""
        if len(self._queue) >= self._compact_at:
            self._queue = deque(entry for entry in self._queue if not entry[1].done())
            self._compact_at = max(self._COMPACT_FLOOR, 2 * len(self._queue))
        deadline = now + self._timeout
        self._queue.append((deadline, future))
        if self._handle is None:
            self._handle = asyncio.get_running_loop().call_at(deadline, self._expire)

    def settle(self) -> None:
        """Drop the finished round trips at the head of the queue."""
        queue = self._queue
        while queue and queue[0][1].done():
            queue.popleft()

    def _expire(self) -> None:
        loop = asyncio.get_running_loop()
        now = loop.time()
        queue = self._queue
        self._handle = None
        while queue:
            deadline, future = queue[0]
            if future.done():
                queue.popleft()
            elif deadline <= now:
                queue.popleft()
                future.set_result(RPC_EXPIRED)
            else:
                self._handle = loop.call_at(deadline, self._expire)
                return

    def close(self) -> None:
        """Cancel the timer; a round trip still waiting expires now.

        The runtime's own round trips have all resolved when it calls this
        (rounds and handlers waited theirs out); one a caller started
        outside them must not be left waiting on a timer that is gone.
        """
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
        for _, future in self._queue:
            if not future.done():
                future.set_result(RPC_EXPIRED)
        self._queue.clear()


# ------------------------------------------------------------- node service


class NodeService:
    """One node: an inbox task plus wheel-driven gossip/eager rounds."""

    def __init__(self, node, runtime: "ServiceRuntime") -> None:
        self.node = node
        self.node_id = node.node_id
        self.runtime = runtime
        #: Per-node codec instance: it carries digest caches (what this
        #: node decoded, what each peer was already sent).
        self.codec = BinaryWireCodec()
        self._rpc_futures: Dict[int, asyncio.Future] = {}
        self._rpc_counter = 0
        #: The node's local eager clock: one tick per eager-round firing.
        #: Stamps query sessions and forwards exactly like engine cycles.
        self.tick = 0
        self._timer_rng = random.Random(
            f"{runtime.simulation.config.seed}/service/{self.node_id}"
        )
        self._inbox_task: Optional[asyncio.Task] = None
        self._inflight: set = set()
        self._rounds: set = set()

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        self._inbox_task = asyncio.create_task(
            self._inbox_loop(), name=f"inbox-{self.node_id}"
        )
        self._inbox_task.add_done_callback(_report_task_failure)
        # Random phase offset: engine cycles fire every node in lockstep,
        # real deployments drift apart immediately.
        wheel = self.runtime.wheel
        config = self.runtime.config
        wheel.schedule(
            self._timer_rng.uniform(0.0, config.gossip_interval), self._fire_gossip
        )
        wheel.schedule(
            self._timer_rng.uniform(0.0, config.eager_interval), self._fire_eager
        )

    async def join_rounds(self) -> None:
        """Wait for in-flight gossip/eager rounds (after the wheel stops)."""
        while self._rounds:
            await asyncio.gather(*list(self._rounds), return_exceptions=True)

    async def join_handlers(self) -> None:
        """Wait for every in-flight inbound handler to finish."""
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)

    def idle(self) -> bool:
        """True when no handler is running and no frame awaits the inbox."""
        return not self._inflight and self.runtime.wire.inbox(self.node_id).empty()

    async def close(self) -> None:
        """Tear down the inbox reader (a pure reader: safe to cancel)."""
        self._inbox_task.cancel()
        await asyncio.gather(self._inbox_task, return_exceptions=True)

    # -- effect driving -------------------------------------------------------

    async def drive(self, gen: WireEffects, pending: Optional[RequestEffect] = None) -> Any:
        """Step ``gen`` with :func:`~repro.simulator.effects.advance`,
        awaiting each round trip it stops at; ``pending`` is one an inbound
        handler stepped inline already stopped at."""
        if pending is not None:
            done, value = False, pending
        else:
            done, value = advance(gen, None, self.send, self.runtime.is_online)
        while not done:
            dispatch = await self.request(
                value.sender, value.receiver, value.message, query_id=value.query_id
            )
            done, value = advance(gen, dispatch, self.send, self.runtime.is_online)
        return value

    # -- outbound -------------------------------------------------------------

    async def request(
        self,
        sender: int,
        receiver: int,
        message: Message,
        query_id: Optional[int] = None,
    ) -> Dispatch:
        """Round-trip rpc with the transport's statuses and accounting."""
        runtime = self.runtime
        if not runtime.is_online(receiver):
            runtime.observe(OP_REQUEST, sender, receiver, message, UNREACHABLE, False, query_id)
            return Dispatch(UNREACHABLE, None)
        runtime.account(sender, receiver, message, query_id)
        self._rpc_counter += 1
        rpc_id = self._rpc_counter
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._rpc_futures[rpc_id] = future
        envelope = Envelope(sender, receiver, message, query_id, True)
        frame = self.codec.encode_request(envelope, rpc_id)
        started = loop.time()
        delivered = runtime.batcher.send_now(receiver, frame)
        if not delivered:
            # The wire lost the address after the bytes were spent: report a
            # drop (accounted), not unreachability (which is never charged).
            self.codec.abort_sent(receiver)
            self._rpc_futures.pop(rpc_id, None)
            runtime.observe(OP_REQUEST, sender, receiver, message, DROPPED, True, query_id)
            return Dispatch(DROPPED, None)
        self.codec.commit_sent(receiver)
        runtime.rpc_deadlines.watch(future, started)
        reply = await future
        runtime.rpc_deadlines.settle()
        if reply is RPC_EXPIRED:
            self._rpc_futures.pop(rpc_id, None)
            # The frame may have been lost with the digests it seeded.
            self.codec.forget_sent(receiver)
            # The sender-side timeout of a real gossip: indistinguishable
            # from a lost request, so the protocol sees DROPPED (it must
            # not assume the other side processed anything).
            runtime.observe(OP_REQUEST, sender, receiver, message, DROPPED, True, query_id)
            return Dispatch(DROPPED, None)
        runtime.record_rpc_latency(loop.time() - started)
        runtime.observe(OP_REQUEST, sender, receiver, message, DELIVERED, True, query_id)
        return Dispatch(DELIVERED, reply)

    def send(
        self,
        sender: int,
        receiver: int,
        message: Message,
        query_id: Optional[int] = None,
    ) -> str:
        """One-way, fire-and-forget send (batched with same-tick frames)."""
        runtime = self.runtime
        if not runtime.is_online(receiver):
            runtime.observe(OP_SEND, sender, receiver, message, UNREACHABLE, False, query_id)
            return UNREACHABLE
        runtime.account(sender, receiver, message, query_id)
        envelope = Envelope(sender, receiver, message, query_id, False)
        if not runtime.batcher.send(receiver, self.codec.encode_send(envelope)):
            self.codec.abort_sent(receiver)
            runtime.observe(OP_SEND, sender, receiver, message, DROPPED, True, query_id)
            return DROPPED
        self.codec.commit_sent(receiver)
        runtime.observe(OP_SEND, sender, receiver, message, DELIVERED, True, query_id)
        return DELIVERED

    # -- inbound --------------------------------------------------------------

    async def _inbox_loop(self) -> None:
        runtime = self.runtime
        inbox = runtime.wire.inbox(self.node_id)
        codec = self.codec
        while True:
            payload = await inbox.get()
            # One wire read may carry several batched frames, each under its
            # own length prefix, so one scan splits it.
            bodies, leftover = codec.split(payload)
            for body in bodies:
                try:
                    decoded = codec.decode_body(body)
                except Exception:
                    # The UDP socket is open to anything on 127.0.0.1: a
                    # garbage or unknown-tag frame must not kill the reader
                    # (which would silently partition this node for the
                    # rest of the run).
                    logger.warning(
                        "node %d dropped undecodable %d-byte frame",
                        self.node_id, len(body), exc_info=True,
                    )
                    continue
                self._dispatch_inbound(decoded)
            if leftover:
                logger.warning(
                    "node %d dropped undecodable %d-byte frame",
                    self.node_id, len(leftover),
                )

    def _dispatch_inbound(self, decoded: Dict[str, Any]) -> None:
        if decoded["op"] == "rep":
            future = self._rpc_futures.pop(decoded["rpc"], None)
            if future is not None and not future.done():
                future.set_result(decoded["m"])
            return
        # Most handlers never wait (a one-way frame, a request answered
        # from local state): those run to their reply right here.  One that
        # reaches a round trip becomes a task at that point -- handlers
        # cannot be serialised, because a nested request may go back to the
        # node that is currently awaiting us (digest integration, the eager
        # alpha split) and two mutually-requesting nodes would deadlock.
        try:
            gen = self.node.handle_message_effects(decoded["envelope"])
            done, value = advance(gen, None, self.send, self.runtime.is_online)
            if done:
                self._reply(decoded, value)
                return
        except Exception:
            # What ``_report_task_failure`` does for a handler task: the
            # inbox reader must outlive a crashing handler.
            logger.error(
                "service task inbound-%d crashed", self.node_id, exc_info=True
            )
            return
        task = asyncio.create_task(self._handle_inbound(decoded, gen, value))
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)
        task.add_done_callback(_report_task_failure)

    async def _handle_inbound(
        self, decoded: Dict[str, Any], gen: WireEffects, pending: RequestEffect
    ) -> None:
        """The rest of a handler that reached a round trip at ``pending``."""
        self._reply(decoded, await self.drive(gen, pending))

    def _reply(self, decoded: Dict[str, Any], reply: Optional[Message]) -> None:
        """Answer a handled request frame (a one-way frame has no answer)."""
        if decoded["op"] != "req":
            return
        runtime = self.runtime
        envelope: Envelope = decoded["envelope"]
        if reply is not None:
            # Reply legs are accounted and observed at the replier, the side
            # that actually spends the uplink bytes; the requester's timeout
            # discarding a late reply does not un-spend them.
            runtime.account(self.node_id, envelope.sender, reply, envelope.query_id)
            runtime.observe(
                OP_REPLY, self.node_id, envelope.sender, reply, DELIVERED, True,
                envelope.query_id,
            )
        runtime.batcher.send_now(
            envelope.sender, self.codec.encode_reply(decoded["rpc"], DELIVERED, reply)
        )

    # -- rounds (wheel-fired) -------------------------------------------------

    def _pause(self, interval: float) -> float:
        jitter = self.runtime.config.jitter
        if jitter <= 0.0:
            return interval
        return interval * self._timer_rng.uniform(1.0 - jitter, 1.0 + jitter)

    def _spawn_round(self, coro, name: str) -> None:
        task = asyncio.create_task(coro, name=name)
        self._rounds.add(task)
        task.add_done_callback(self._rounds.discard)
        task.add_done_callback(_report_task_failure)

    def _fire_gossip(self) -> None:
        if not self.runtime.running:
            return
        self._spawn_round(self._gossip_round(), f"round-gossip-{self.node_id}")

    def _fire_eager(self) -> None:
        if not self.runtime.running:
            return
        self._spawn_round(self._eager_round(), f"round-eager-{self.node_id}")

    async def _gossip_round(self) -> None:
        runtime = self.runtime
        try:
            if runtime.is_online(self.node_id):
                await self.drive(self.node.lazy_round_effects())
                runtime.gossip_rounds += 1
        finally:
            # Reschedule after the round completes: the jittered interval
            # separates round *completions* from the next firing, exactly
            # as the per-node sleep loop did.  A round that raised is
            # rescheduled too, so it fails loudly on every interval instead
            # of stopping this node's rounds for good.
            runtime.wheel.schedule(
                self._pause(runtime.config.gossip_interval), self._fire_gossip
            )

    async def _eager_round(self) -> None:
        runtime = self.runtime
        try:
            if runtime.is_online(self.node_id):
                self.tick += 1
                runtime.eager_ticks += 1
                try:
                    if self.node.has_active_queries():
                        await self.drive(self.node.eager_round_effects(self.tick))
                finally:
                    # Fold the partial results this tick delivered into
                    # snapshots of the open sessions, as the engine does at
                    # each eager cycle -- also after a round that raised, so
                    # the node's sessions still close.
                    self.node.close_open_sessions(self.tick)
        finally:
            runtime.wheel.schedule(
                self._pause(runtime.config.eager_interval), self._fire_eager
            )


# ----------------------------------------------------------------- runtime


class ServiceRuntime:
    """A full P3Q deployment as one asyncio service per node.

    Wraps a built (and typically warm-started) simulation: the runtime
    reuses its nodes, protocol objects, network liveness table and stats
    collector, but replaces the cycle engine with wheel-driven rounds and
    the direct method-call wire with serialized frames.
    """

    def __init__(
        self,
        simulation: P3QSimulation,
        config: Optional[ServiceConfig] = None,
    ) -> None:
        self.simulation = simulation
        self.config = config or ServiceConfig()
        self.wire = make_wire(self.config.wire)
        self.batcher = FrameBatcher(self.wire)
        self.wheel = TimerWheel()
        self.trace = ServiceTrace()
        self.rpc_deadlines = RpcDeadlines(self.config.rpc_timeout)
        self.services: Dict[int, NodeService] = {}
        self._started = False
        #: Wheel callbacks initiate new rounds only while True; cleared by
        #: :meth:`stop` so the runtime quiesces instead of cancelling
        #: half-finished exchanges (which would break byte conservation).
        self.running = False
        #: Completed gossip rounds / eager ticks across all nodes (the
        #: demo's round-throughput numerators).
        self.gossip_rounds = 0
        self.eager_ticks = 0
        #: Completed round-trip latencies, seconds (bounded sliding window).
        self.rpc_latencies: Deque[float] = deque(maxlen=65536)

    # -- shared plumbing ------------------------------------------------------

    def is_online(self, node_id: int) -> bool:
        """The runtime's failure-detector oracle (the shared liveness table)."""
        return self.simulation.network.is_online(node_id)

    def account(
        self, sender: int, receiver: int, message: Message, query_id: Optional[int]
    ) -> None:
        """Byte accounting through the simulation transport's own hook.

        :meth:`~repro.simulator.transport.Transport.account` prices the
        message object -- never the encoded frame -- so batching and digest
        suppression leave the traffic numbers untouched.
        """
        self.simulation.network.transport.account(sender, receiver, message, query_id)

    def observe(
        self,
        op: str,
        sender: int,
        receiver: int,
        message: Message,
        status: str,
        accounted: bool,
        query_id: Optional[int],
    ) -> None:
        self.trace.append(op, sender, receiver, message, status, accounted, query_id)

    def record_rpc_latency(self, seconds: float) -> None:
        self.rpc_latencies.append(seconds)

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        if self._started:
            raise RuntimeError("service runtime already started")
        node_ids = list(self.simulation.nodes)
        await self.wire.start(node_ids)
        self.wheel.start()
        self.running = True
        for node_id in node_ids:
            service = NodeService(self.simulation.nodes[node_id], self)
            self.services[node_id] = service
            service.start()
        self._started = True

    async def stop(self) -> None:
        """Quiesce, then tear down.

        The wheel stops first (no new rounds fire), rounds in progress run
        to completion (cancelling one between its accounting and its
        WireEvent would break byte conservation), then in-flight inbound
        handlers and batched frames drain, pending partial results are
        folded into a final snapshot per open session, and the inbox readers --
        pure readers, safe to cancel -- go away.
        """
        self.running = False
        await self.wheel.stop()
        services = list(self.services.values())
        for service in services:
            await service.join_rounds()
        # A handler drained late in the pass can send a frame to a service
        # drained earlier, spawning a fresh handler there; sweep until one
        # full pass finds every service idle -- no running handler, no
        # queued frame, no batched frame -- so the wire is quiescent (with
        # the wheel stopped, handlers only beget finitely many more).  The
        # sleep(0) lets inbox readers turn queued frames into handlers the
        # next pass can join.
        while True:
            self.batcher.flush_all()
            for service in services:
                await service.join_handlers()
            self.batcher.flush_all()
            if self.batcher.empty() and all(service.idle() for service in services):
                break
            await asyncio.sleep(0)
        # Every round trip has resolved by now (rounds and handlers waited
        # theirs out): only then may the expiry timer go.
        self.rpc_deadlines.close()
        for service in services:
            service.tick += 1
            service.node.close_open_sessions(service.tick)
        for service in services:
            await service.close()
        await self.wire.stop()
        self.services = {}
        self._started = False

    # -- driving --------------------------------------------------------------

    def issue_query(self, query: Query) -> QuerySession:
        """Issue ``query`` at its querier, stamped with the querier's tick.

        Raises ``ValueError`` if the querier is offline: its eager rounds do
        not run, so the session could never progress.
        """
        if not self.is_online(query.querier):
            raise ValueError(
                f"querier {query.querier} of query {query.query_id} is offline"
            )
        service = self.services[query.querier]
        return service.node.issue_query(query, cycle=service.tick)

    async def run_queries(
        self,
        queries: List[Query],
        deadline: Optional[float] = None,
    ) -> Dict[int, QuerySession]:
        """Issue queries and wait until each completes or hits its deadline.

        The per-query deadline replaces the engine's eager cycle cutoff: an
        incomplete session is returned with whatever coverage it reached.  A
        query whose querier is offline is left out, as
        :meth:`P3QSimulation.issue_queries
        <repro.p3q.protocol.P3QSimulation.issue_queries>` does.
        """
        if deadline is None:
            deadline = self.config.query_deadline
        elif not math.isfinite(deadline) or deadline <= 0:
            # nan or a past cutoff would return before the first poll.
            raise ValueError(
                f"deadline must be a positive finite number, got {deadline!r}"
            )
        sessions = {
            q.query_id: self.issue_query(q) for q in queries if self.is_online(q.querier)
        }
        loop = asyncio.get_running_loop()
        cutoff = loop.time() + deadline
        poll = min(0.02, self.config.eager_interval)
        while loop.time() < cutoff:
            if all(session.closed for session in sessions.values()):
                break
            await asyncio.sleep(poll)
        return sessions
