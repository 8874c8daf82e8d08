"""TCP transport for shard workers: socket-fed shards with retry/backoff.

The one way a shard runs outside the control plane's process.  A
:class:`RemoteShardHandle` implements the exact
:class:`~repro.service.sharding.ShardHandle` surface the daemon, the
drain barrier, and ``failover_shard`` use on an in-process shard, so
nothing above the handle knows whether a shard is an object or a
socket.  The peer is either a loopback worker process the
:class:`WorkerLauncher` forked (``tcp_workers``) or an operator-run
``repro worker`` (``shard_endpoints``).

**Wire format.**  One frame = a 4-byte big-endian length prefix
followed by a body.  Control ops and every reply are CRC-framed
canonical-JSON lines — the :func:`~repro.service.journal.frame_line`
framing snapshots use on disk.  Ingest batches ride the journal's
**record frames** (:mod:`repro.service.codec`): a body whose first
byte is ``0x00`` is an ingest message (JSON CRC frames always start
with an ASCII hex digit), carrying the same per-record crc32 the
journal uses on disk, so a telemetry record has one encoding from the
control plane's socket to the shard's segment file.  A body whose
first byte is ``0x01`` carries one rolling-window state
(:meth:`RollingWindow.to_state <repro.service.ingest.RollingWindow.
to_state>` bytes, every codec frame inside self-CRC'd): sent alone it
is the ``restore`` request, and
a ``state`` reply's JSON frame is followed by one.  A ``checkpoint``
reply carries the shard's snapshot facts and no window bytes.  The server
dispatches per frame on that first byte.  Every request gets exactly
one reply (stop-and-wait), which makes reply ordering, and therefore
the drain barrier ("a drain reply follows every batch sent before
it"), trivial.

**Delivery contract.**  Batches are client-sequence-numbered and held
in a bounded send queue until the server acknowledges them; the server
keeps the highest applied sequence and ignores replayed batches at or
below it.  A reconnect therefore re-sends the unacknowledged suffix
and the shard journal sees every batch **exactly once** — at-least-once
delivery plus idempotent apply.  The queue is bounded: past
``send_queue_batches`` new batches are dropped and counted
(``backpressure_dropped``) instead of growing without bound through a
long partition.

**Partition policy.**  A lost connection starts a partition episode:

1. Ingest keeps buffering (bounded, counted).  Synchronous barriers
   fail fast with :class:`~repro.service.sharding.ShardPartitionedError`
   so the control plane serves stale merged stats instead of stalling.
2. The I/O thread reconnects under bounded exponential backoff with
   jitter; on success it replays the unacknowledged suffix (deduped
   server-side) and the episode ends.
3. If the episode outlives ``failover_after``, the handle fences
   itself — ``alive`` goes ``False`` with ``reason="partition"`` — and
   the next supervised touch routes into the failover path (journal
   rewind, replay, respawn).

**Process exit.**  A launched worker's handle does not wait for the
partition bound: once the :class:`WorkerLauncher` sees the worker's
process gone, ``alive`` goes ``False`` with ``reason="process-exit"``
and pending barriers fail with that reason, so the next supervised
touch fails the shard over at once.  Operator-run peers have no
process to probe; for them a dead worker is a partition.

See ``docs/OPERATIONS.md`` ("Distributed deployment") for the tuning
table and the partition-vs-failover timeline, and
``docs/ARCHITECTURE.md`` ("Transport plane") for where this sits in
the stack.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import queue as queue_mod
import random
import socket
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Mapping

from repro.service.codec import (
    WIRE_MAGIC,
    decode_wire_batches,
    encode_wire_batches,
)
from repro.service.journal import (
    EventJournal,
    JournalError,
    canonical_json,
    decode_event,
    encode_event,
    frame_line,
    unframe_line,
)
from repro.service.sharding import (
    _TELEMETRY_EVENTS,
    IngestShard,
    ShardFailedError,
    ShardMark,
    ShardPartitionedError,
)
from repro.service.snapshot import stats_from_dict, stats_to_dict

_monotonic = time.monotonic

#: Length prefix: one unsigned 32-bit big-endian frame size.
_LEN = struct.Struct("!I")

#: First body byte of an ingest wire message (JSON frames start with hex).
_WIRE_MAGIC_BYTE = bytes([WIRE_MAGIC])
#: First body byte of a frame carrying one window state.
_WINDOW_MAGIC_BYTE = b"\x01"

#: Seconds a handle that lost its connection waits for a launched
#: worker's exit to show before treating the loss as a partition.
_EXIT_GRACE = 0.05


class TransportError(RuntimeError):
    """A malformed, oversized, or CRC-corrupt frame on the wire.

    Both ends treat it like a broken connection: the client closes and
    reconnects (re-sending the unacknowledged suffix), the server
    closes the connection and returns to ``accept``.
    """


@dataclass(frozen=True)
class TransportConfig:
    """Tuning knobs for the shard TCP transport.

    Args:
        connect_timeout: Seconds one TCP connect attempt may take.
        io_timeout: Per-frame send/receive deadline, seconds.  A reply
            that takes longer counts as a broken connection; keep it at
            or above ``failover_after`` only if you want partitions
            detected by the failure detector instead of the socket.
        backoff_base: First reconnect delay, seconds.
        backoff_max: Reconnect delay ceiling, seconds.
        backoff_jitter: Random extra delay as a fraction of the
            current backoff step (decorrelates reconnect storms).
        send_queue_batches: Bound of the client send queue, in batches.
            Past it, new batches are dropped and counted as
            backpressure instead of buffering without bound.
        max_coalesce: Max batches coalesced into one ``ingest`` frame.
        max_frame: Hard frame-size bound, bytes (corrupt length guard).
        ping_idle: Send a liveness ping after this many idle seconds so
            ``heartbeat_age`` stays fresh on a quiet connection.
            Supervised handles cap this at their heartbeat interval, so
            a tight ``failover_after`` never outruns the ping cadence.
    """

    connect_timeout: float = 1.0
    io_timeout: float = 5.0
    backoff_base: float = 0.05
    backoff_max: float = 2.0
    backoff_jitter: float = 0.2
    send_queue_batches: int = 4096
    max_coalesce: int = 32
    max_frame: int = 64 * 1024 * 1024
    ping_idle: float = 0.5


def _recv_exact(sock: socket.socket, size: int) -> bytes:
    """Read exactly ``size`` bytes or raise ``ConnectionError`` on EOF."""
    chunks = []
    remaining = size
    while remaining > 0:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_frame(sock: socket.socket, payload: Mapping) -> None:
    """Send one length-prefixed, CRC-framed canonical-JSON frame."""
    body = frame_line(canonical_json(dict(payload))).encode("utf-8")
    sock.sendall(_LEN.pack(len(body)) + body)


def send_raw_frame(sock: socket.socket, body: bytes) -> None:
    """Send one length-prefixed pre-encoded frame body (ingest message)."""
    sock.sendall(_LEN.pack(len(body)) + body)


def recv_raw_frame(
    sock: socket.socket, max_frame: int = TransportConfig.max_frame
) -> bytes:
    """Receive one length-prefixed frame body without decoding it.

    Raises :class:`TransportError` on an oversized length prefix and
    ``ConnectionError``/``socket.timeout`` on a broken or stalled
    connection.  The body's own CRC is validated by its
    decoder (:func:`decode_text_frame` or
    :func:`~repro.service.codec.decode_wire_batches`).
    """
    (length,) = _LEN.unpack(_recv_exact(sock, _LEN.size))
    if length == 0 or length > max_frame:
        raise TransportError(f"frame length {length} outside (0, {max_frame}]")
    return _recv_exact(sock, length)


def decode_text_frame(raw: bytes) -> dict:
    """CRC-validate one JSON frame body; return the decoded op payload."""
    try:
        body = unframe_line(raw.decode("utf-8", errors="strict"))
    except (JournalError, ValueError, UnicodeDecodeError) as exc:
        raise TransportError(f"corrupt frame: {exc}") from exc
    try:
        payload = json.loads(body)
    except ValueError as exc:
        raise TransportError(f"corrupt frame: {exc}") from exc
    if not isinstance(payload, dict) or "op" not in payload:
        raise TransportError("frame payload is not an op object")
    return payload


def recv_frame(sock: socket.socket, max_frame: int = TransportConfig.max_frame) -> dict:
    """Receive one frame; CRC-validate it; return the decoded payload.

    Raises :class:`TransportError` on an oversized length prefix or a
    checksum mismatch and ``ConnectionError``/``socket.timeout`` on a
    broken or stalled connection.
    """
    return decode_text_frame(recv_raw_frame(sock, max_frame))


# -- server side --------------------------------------------------------------


class _StopServing(Exception):
    """Internal: a ``stop`` request asked the server to shut down."""


class ShardServer:
    """Serves one :class:`~repro.service.sharding.IngestShard` over TCP.

    Single client at a time (the control plane is the only caller) and
    strictly request/reply.  The server keeps the highest applied batch
    sequence across connections, which is what makes reconnect replays
    duplicate-free at the journal: a re-sent batch at or below
    ``applied`` is acknowledged without touching the shard.

    An unexpected shard-side failure ends the worker: the server sends
    one ``error`` reply best-effort, closes the shard (flushing its
    journal), and stops serving — the process death the client's
    supervision then detects.
    """

    def __init__(
        self,
        shard: IngestShard,
        host: str = "127.0.0.1",
        port: int = 0,
        config: TransportConfig | None = None,
    ):
        self.shard = shard
        self.config = config or TransportConfig()
        #: Highest client batch sequence applied to the shard.
        self.applied = 0
        self._slow_batches = 0
        self._stop = threading.Event()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, int(port)))
        self._listener.listen(4)
        self.host, self.port = self._listener.getsockname()[:2]

    def stop(self) -> None:
        """Ask the accept loop to exit (thread-safe)."""
        self._stop.set()

    def serve_forever(self) -> None:
        """Accept and serve connections until ``stop`` or a shard error."""
        self._listener.settimeout(0.5)
        try:
            while not self._stop.is_set():
                try:
                    conn, _addr = self._listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                try:
                    self._serve_connection(conn)
                except _StopServing:
                    break
                except (OSError, ConnectionError, TransportError, ValueError):
                    continue  # client went away; await the reconnect
                finally:
                    try:
                        conn.close()
                    except OSError:
                        pass
        finally:
            try:
                self._listener.close()
            except OSError:
                pass
            self.shard.close()

    def _serve_connection(self, conn: socket.socket) -> None:
        """Request/reply loop for one client connection."""
        conn.settimeout(self.config.io_timeout)
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        while not self._stop.is_set():
            raw = recv_raw_frame(conn, self.config.max_frame)
            if raw[:1] == _WIRE_MAGIC_BYTE:
                # Ingest message: journal record frames, decoded to the
                # event batches the ``ingest`` op handler applies.
                try:
                    request = {
                        "op": "ingest",
                        "batches": decode_wire_batches(raw, decode_event),
                    }
                except ValueError as exc:
                    raise TransportError(f"corrupt binary frame: {exc}") from exc
            elif raw[:1] == _WINDOW_MAGIC_BYTE:
                request = {"op": "restore", "window": raw[1:]}
            else:
                request = decode_text_frame(raw)
            try:
                reply = self._handle(request)
            except _StopServing:
                send_frame(conn, {"op": "stopped"})
                raise
            except Exception as exc:  # a failed shard ends the worker
                try:
                    send_frame(conn, {"op": "error", "message": f"{exc}"})
                finally:
                    self.shard.close()
                    self._stop.set()
                raise _StopServing() from exc
            window = reply.pop("window", None)
            send_frame(conn, reply)
            if window is not None:
                send_raw_frame(conn, _WINDOW_MAGIC_BYTE + window)

    def _handle(self, request: Mapping) -> dict:
        """Apply one request to the shard; return the reply payload.

        A ``window`` entry in the reply is window-state bytes: it
        travels as its own raw frame behind the JSON reply.
        """
        op = request["op"]
        shard = self.shard
        if op == "hello":
            if int(request.get("shard", shard.shard_id)) != shard.shard_id:
                raise ValueError(
                    f"shard mismatch: serving {shard.shard_id}, "
                    f"client expected {request.get('shard')}"
                )
            return {"op": "hello-ack", "shard": shard.shard_id, "applied": self.applied}
        if op == "ingest":
            applied = self.applied
            for seq, events in request["batches"]:
                if seq <= applied:
                    continue  # reconnect replay of an acknowledged batch
                if self._slow_batches > 0:
                    self._slow_batches -= 1
                    for event in events:
                        shard.ingest([event])
                else:
                    shard.ingest(events)
                applied = seq
            self.applied = applied
            return {"op": "ack", "seq": applied}
        if op == "state":
            state = shard.drain_state(float(request["now"]))
            window = state.pop("window").to_state()
            return {"op": "state", "window": window, "state": state}
        if op == "checkpoint":
            state = shard.checkpoint(float(request["now"]))
            state["mark"] = list(state["mark"])
            return {"op": "checkpoint", "state": state}
        if op == "stats":
            snapshot = shard.drain_stats(float(request["now"]))
            return {
                "op": "stats",
                "stats": {name: stats_to_dict(s) for name, s in snapshot.items()},
            }
        if op == "restore":
            shard.restore(request["window"])
            return {"op": "ok"}
        if op == "stall":
            time.sleep(float(request["seconds"]))
            return {"op": "ok"}
        if op == "slow":
            self._slow_batches += int(request["batches"])
            return {"op": "ok"}
        if op == "ping":
            return {"op": "pong"}
        if op == "stop":
            raise _StopServing()
        raise ValueError(f"unknown op {op!r}")


def serve_shard(
    shard_id: int,
    window: float,
    journal_path=None,
    journal_opts: Mapping | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
    observe: bool = False,
    ready=None,
    config: TransportConfig | None = None,
) -> None:
    """Run one shard behind a TCP socket until stopped.

    The process/thread entrypoint behind ``repro worker`` and
    :class:`WorkerLauncher`: builds the
    :class:`~repro.service.sharding.IngestShard` (opening its journal
    worker-side: the worker owns it while it runs), binds the listener,
    reports the bound port on ``ready`` (a queue) when given, and
    serves until a ``stop`` request or a fatal shard error.
    """
    journal = None
    if journal_path is not None:
        journal = EventJournal(journal_path, **dict(journal_opts or {}))
    metrics = None
    if observe:
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
    shard = IngestShard(int(shard_id), float(window), journal=journal, metrics=metrics)
    server = ShardServer(shard, host=host, port=port, config=config)
    if ready is not None:
        ready.put(("ready", server.port))
    server.serve_forever()


# -- client side --------------------------------------------------------------


class _SyncWaiter:
    """One pending synchronous request: an event plus result or error."""

    __slots__ = ("event", "result", "error")

    def __init__(self):
        self.event = threading.Event()
        self.result = None
        self.error: BaseException | None = None

    def resolve(self, result) -> None:
        """Deliver a successful reply to the waiting caller."""
        self.result = result
        self.event.set()

    def fail(self, error: BaseException) -> None:
        """Deliver a failure to the waiting caller."""
        self.error = error
        self.event.set()


class RemoteShardHandle:
    """Parent-side proxy of one shard served over TCP.

    Same control-plane surface as the in-process
    :class:`~repro.service.sharding.IngestShard` (the
    :class:`~repro.service.sharding.ShardHandle` protocol):
    asynchronous :meth:`ingest`, synchronous :meth:`drain_state` /
    :meth:`drain_stats` barriers, :meth:`restore`, :meth:`close`,
    :meth:`kill`, ``alive`` and :meth:`heartbeat_age`.  All socket I/O
    happens on one background thread; callers only touch the bounded
    send queue, so the control plane never blocks on the network
    outside an explicit barrier.

    Transport counters (``reconnects``, ``retries``,
    ``backpressure_dropped``, ``connect_attempts``) are plain ints
    written only by the I/O thread and scraped by the control plane —
    the registry's single-writer contract.

    With a ``launcher`` the handle also probes its worker's process:
    once it has exited the handle is dead with
    ``reason="process-exit"``.
    """

    #: Seconds an unsupervised handle waits on a synchronous reply
    #: (generous: a drain waits behind queued batches).
    #: ``failover_after`` tightens this bound when supervision is on.
    REPLY_TIMEOUT = 120.0

    def __init__(
        self,
        shard_id: int,
        address: tuple[str, int],
        *,
        heartbeat_interval: float = 1.0,
        failover_after: float | None = None,
        config: TransportConfig | None = None,
        launcher: "WorkerLauncher | None" = None,
    ):
        self.shard_id = int(shard_id)
        self.address = (str(address[0]), int(address[1]))
        self.heartbeat_interval = float(heartbeat_interval)
        self.failover_after = None if failover_after is None else float(failover_after)
        self.config = config or TransportConfig()
        self.launcher = launcher
        # Idle pings must outpace the failure detector: a quiet but
        # healthy connection may otherwise age right up to the fencing
        # bound between pings.
        self._ping_idle = min(self.config.ping_idle, self.heartbeat_interval)
        #: Why the handle is dead (``""`` while alive).
        self.reason = ""
        #: Reconnect episodes that ended in a restored connection.
        self.reconnects = 0
        #: Batches re-sent after a reconnect (at-least-once deliveries).
        self.retries = 0
        #: Telemetry events dropped by send-queue backpressure.
        self.backpressure_dropped = 0
        #: Telemetry events dropped by an injected ``drop-net`` fault.
        self.telemetry_dropped = 0
        #: TCP connect attempts (successful or not).
        self.connect_attempts = 0
        #: Partition episodes observed (connection-loss events).
        self.partitions = 0
        #: Wall seconds each healed partition lasted (scraped for the
        #: reconnect-latency histogram; bounded, drop-oldest).
        self.reconnect_seconds: deque = deque(maxlen=256)

        self._lock = threading.RLock()
        self._queue: deque = deque()
        self._queued_batches = 0
        self._next_seq = 1
        self._sock: socket.socket | None = None
        self._dead = False
        self._ever_connected = False
        self._disconnected_since: float | None = _monotonic()
        self._last_reply = _monotonic()
        self._attempts = 0
        self._next_attempt = 0.0
        self._partition_until = 0.0
        self._drop_batches = 0
        self._latency = 0.0
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._thread = threading.Thread(
            target=self._io_loop, name=f"tempo-remote-{self.shard_id:02d}", daemon=True
        )
        self._thread.start()

    def __repr__(self) -> str:
        host, port = self.address
        return (
            f"RemoteShardHandle(id={self.shard_id}, addr={host}:{port}, "
            f"alive={self.alive}, queued={self.pending_batches})"
        )

    # -- ShardHandle surface --------------------------------------------------

    @property
    def alive(self) -> bool:
        """Whether the handle still considers its worker reachable."""
        return not self._probe_dead()

    @property
    def pending_batches(self) -> int:
        """Batches buffered in the send queue (parent-side queue lag)."""
        return self._queued_batches

    def heartbeat_age(self) -> float:
        """Seconds since the last successful reply from the worker.

        The I/O thread pings on an idle connection every
        ``ping_idle`` seconds, so on a healthy link this stays near
        zero; through a partition it grows until reconnect — the
        signal the failure detector consumes.
        """
        return max(0.0, _monotonic() - self._last_reply)

    def ingest(self, events: list) -> None:
        """Buffer one sequence-numbered batch for the I/O thread.

        Returns immediately.  Supervised handles raise
        :class:`~repro.service.sharding.ShardFailedError` once the
        handle has fenced itself; past the queue bound the batch is
        dropped and counted rather than buffered without bound.
        """
        if not events:
            return
        if self._probe_dead():
            if self.failover_after is not None:
                raise ShardFailedError(self.shard_id, self.reason or "partition")
            return
        with self._lock:
            if self._drop_batches > 0:
                self._drop_batches -= 1
                self.telemetry_dropped += sum(
                    1 for e in events if isinstance(e, _TELEMETRY_EVENTS)
                )
                return
            if self._queued_batches >= self.config.send_queue_batches:
                self.backpressure_dropped += sum(
                    1 for e in events if isinstance(e, _TELEMETRY_EVENTS)
                )
                return
            seq = self._next_seq
            self._next_seq += 1
            self._queue.append(["batch", seq, list(events), False])
            self._queued_batches += 1
        self._wake.set()

    def drain_state(self, now: float) -> dict:
        """Barrier: apply every queued batch, advance, return the state."""
        return self._sync({"op": "state", "now": float(now)}, "state")["state"]

    def checkpoint(self, now: float) -> dict:
        """Barrier returning the shard's snapshot facts (no window bytes)."""
        state = self._sync({"op": "checkpoint", "now": float(now)}, "checkpoint")["state"]
        state["mark"] = ShardMark(*state["mark"])
        return state

    def drain_stats(self, now: float) -> dict:
        """Barrier returning per-tenant statistics (cadence path)."""
        reply = self._sync({"op": "stats", "now": float(now)}, "stats")
        return {name: stats_from_dict(data) for name, data in reply["stats"].items()}

    def restore(self, window_state: bytes) -> None:
        """Replace the worker's window with a persisted state."""
        self._sync(_WINDOW_MAGIC_BYTE + window_state, "ok")

    def stall(self, seconds: float) -> None:
        """Inject a worker stall (fire-and-forget, fault injection)."""
        with self._lock:
            self._queue.append(["sync", {"op": "stall", "seconds": float(seconds)}, None])
        self._wake.set()

    def slow_journal(self, batches: int) -> None:
        """Degrade the next ``batches`` ingests to per-record appends."""
        with self._lock:
            self._queue.append(["sync", {"op": "slow", "batches": int(batches)}, None])
        self._wake.set()

    def kill(self) -> None:
        """Fence the handle and SIGKILL the worker if we launched it."""
        self._mark_dead("fenced")
        self._shutdown_thread()
        if self.launcher is not None:
            self.launcher.kill(self.shard_id)

    def close(self) -> None:
        """Flush the send queue, stop the worker gracefully, reap it.

        Waits out a transient partition (bounded by the injected
        partition window plus the supervision bound) so batches
        buffered through the partition still reach the journal; a
        fenced or timed-out worker is killed instead.
        """
        bound = self.failover_after if self.failover_after is not None else 30.0
        remaining = max(0.0, self._partition_until - _monotonic())
        deadline = _monotonic() + remaining + bound + 5.0
        stopped = False
        while not self._dead and _monotonic() < deadline:
            with self._lock:
                drained = self._queued_batches == 0 and self._sock is not None
            if drained:
                try:
                    self._sync({"op": "stop"}, "stopped", timeout=bound + 5.0)
                    stopped = True
                except (ShardPartitionedError, ShardFailedError):
                    pass
                break
            time.sleep(0.01)
        self._mark_dead("closed")
        self._shutdown_thread()
        if self.launcher is not None:
            if stopped:
                self.launcher.wait(self.shard_id)
            else:
                self.launcher.kill(self.shard_id)

    # -- fault-injection hooks ------------------------------------------------

    def inject_partition(self, seconds: float) -> None:
        """Sever the connection and refuse reconnects for ``seconds``.

        Models a network partition deterministically: the socket is
        closed (so both ends notice immediately) and the I/O thread's
        connect attempts fail until the window elapses.  A window
        longer than ``failover_after`` therefore fences the handle —
        the lethal-partition path.
        """
        with self._lock:
            self._partition_until = _monotonic() + float(seconds)
            self._close_socket()
            if self._disconnected_since is None:
                self._disconnected_since = _monotonic()
                self.partitions += 1
        self._wake.set()

    def inject_latency(self, seconds: float) -> None:
        """Add ``seconds`` of delay before every frame send (slow-net)."""
        self._latency = max(0.0, float(seconds))

    def inject_drop(self, batches: int) -> None:
        """Silently drop the next ``batches`` ingest batches (drop-net)."""
        with self._lock:
            self._drop_batches += int(batches)

    def transport_stats(self) -> dict:
        """Counter snapshot the control plane scrapes into metrics."""
        return {
            "reconnects": self.reconnects,
            "retries": self.retries,
            "backpressure_dropped": self.backpressure_dropped,
            "telemetry_dropped": self.telemetry_dropped,
            "connect_attempts": self.connect_attempts,
            "partitions": self.partitions,
        }

    # -- internals ------------------------------------------------------------

    def _sync(self, payload, expected: str, timeout: float | None = None):
        """Submit one synchronous request and wait (bounded) for its reply.

        ``payload`` is an op mapping or a pre-encoded raw frame body.
        """
        if self._probe_dead():
            raise ShardFailedError(self.shard_id, self.reason or "partition")
        if self._ever_connected and self._sock is None:
            raise ShardPartitionedError(
                self.shard_id,
                f"shard {self.shard_id} unreachable "
                f"({self.heartbeat_age():.2f}s since last reply)",
            )
        waiter = _SyncWaiter()
        with self._lock:
            self._queue.append(["sync", payload, waiter])
        self._wake.set()
        bound = timeout
        if bound is None:
            bound = (
                self.failover_after
                if self.failover_after is not None
                else self.REPLY_TIMEOUT
            )
        if not waiter.event.wait(bound):
            raise ShardFailedError(
                self.shard_id,
                "reply-timeout",
                f"shard {self.shard_id} reply timed out after {bound:g}s",
            )
        if waiter.error is not None:
            raise waiter.error
        reply = waiter.result
        if reply.get("op") != expected:
            raise TransportError(
                f"shard {self.shard_id}: expected {expected!r} reply, "
                f"got {reply.get('op')!r}"
            )
        return reply

    def _probe_dead(self, grace: float = 0.0) -> bool:
        """Whether the handle is dead, marking it so once the launcher's
        process for this shard has exited (``process-exit``).

        ``grace`` re-probes for up to that many seconds: a worker's
        socket EOF and its exit reach the parent in no fixed order.
        """
        if self._dead or self.launcher is None:
            return self._dead
        deadline = _monotonic() + grace
        while self.launcher.alive(self.shard_id):
            if _monotonic() >= deadline:
                return self._dead
            time.sleep(0.005)
        self._mark_dead("process-exit")
        return True

    def _mark_dead(self, reason: str) -> None:
        """Flip the handle dead and fail every pending synchronous wait."""
        with self._lock:
            if self._dead:
                return
            self._dead = True
            self.reason = reason
            self._close_socket()
            pending = [e for e in self._queue if e[0] == "sync" and e[2] is not None]
            self._queue.clear()
            self._queued_batches = 0
        for entry in pending:
            entry[2].fail(ShardFailedError(self.shard_id, reason))
        self._wake.set()

    def _shutdown_thread(self) -> None:
        """Stop and join the I/O thread; close the socket."""
        self._stop.set()
        self._wake.set()
        if self._thread.is_alive() and self._thread is not threading.current_thread():
            self._thread.join(timeout=10.0)
        with self._lock:
            self._close_socket()

    def _close_socket(self) -> None:
        """Close the live socket, if any (callers hold the lock)."""
        if self._sock is not None:
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _on_disconnect(self) -> None:
        """Handle a lost connection: fail barriers, keep batches, retry.

        A lost connection whose worker process exited is no partition:
        the handle goes dead with ``process-exit`` and its barriers fail
        with that reason instead.
        """
        if self._probe_dead(_EXIT_GRACE):
            return
        with self._lock:
            self._close_socket()
            if self._disconnected_since is None:
                self._disconnected_since = _monotonic()
                self.partitions += 1
            self._attempts = 0
            self._next_attempt = _monotonic() + self.config.backoff_base
            pending = [e for e in self._queue if e[0] == "sync"]
            for entry in pending:
                self._queue.remove(entry)
        for entry in pending:
            if entry[2] is not None:
                entry[2].fail(
                    ShardPartitionedError(
                        self.shard_id,
                        f"shard {self.shard_id} connection lost mid-request",
                    )
                )

    def _check_fence(self, now: float) -> bool:
        """Fence the handle once a partition outlives ``failover_after``."""
        if (
            self.failover_after is not None
            and self._disconnected_since is not None
            and now - self._disconnected_since >= self.failover_after
        ):
            self._mark_dead("partition")
            return True
        return False

    def _try_connect(self) -> bool:
        """One bounded connect+hello attempt under backoff and fencing."""
        now = _monotonic()
        if self._probe_dead() or self._check_fence(now):
            return False
        if now < self._partition_until or now < self._next_attempt:
            self._stop.wait(0.005)
            return False
        self.connect_attempts += 1
        try:
            sock = socket.create_connection(self.address, self.config.connect_timeout)
        except OSError:
            self._attempts += 1
            step = min(
                self.config.backoff_max,
                self.config.backoff_base * (2.0 ** (self._attempts - 1)),
            )
            delay = step * (1.0 + self.config.backoff_jitter * random.random())
            self._next_attempt = _monotonic() + delay
            return False
        try:
            sock.settimeout(self.config.io_timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            send_frame(sock, {"op": "hello", "shard": self.shard_id})
            reply = recv_frame(sock, self.config.max_frame)
        except (OSError, ConnectionError, TransportError):
            try:
                sock.close()
            except OSError:
                pass
            self._attempts += 1
            self._next_attempt = _monotonic() + self.config.backoff_base
            return False
        if reply.get("op") == "error":
            self._mark_dead("worker-error")
            try:
                sock.close()
            except OSError:
                pass
            return False
        applied = int(reply.get("applied", 0))
        with self._lock:
            if self._dead or _monotonic() < self._partition_until:
                # A partition window opened (or the handle was fenced)
                # while this connect was in flight: the fresh socket
                # predates the fault, so adopting it would tunnel
                # straight through the injected partition.
                try:
                    sock.close()
                except OSError:
                    pass
                return False
            while (
                self._queue
                and self._queue[0][0] == "batch"
                and self._queue[0][1] <= applied
            ):
                self._queue.popleft()
                self._queued_batches -= 1
            self._sock = sock
            if self._ever_connected:
                self.reconnects += 1
                if self._disconnected_since is not None:
                    self.reconnect_seconds.append(
                        _monotonic() - self._disconnected_since
                    )
            self._ever_connected = True
            self._disconnected_since = None
            self._attempts = 0
        self._last_reply = _monotonic()
        return True

    def _request(self, sock: socket.socket, payload) -> dict:
        """One stop-and-wait exchange on the live connection.

        ``payload`` is an op mapping (JSON frame) or pre-encoded bytes
        (ingest message, window state); replies are JSON, a ``state``
        reply followed by the raw frame holding the window.
        """
        if self._latency > 0.0:
            time.sleep(self._latency)
        if isinstance(payload, (bytes, bytearray)):
            send_raw_frame(sock, payload)
        else:
            send_frame(sock, payload)
        reply = recv_frame(sock, self.config.max_frame)
        if reply.get("op") == "state":
            raw = recv_raw_frame(sock, self.config.max_frame)
            if raw[:1] != _WINDOW_MAGIC_BYTE:
                raise TransportError("state reply without its window frame")
            reply["state"]["window"] = raw[1:]
        self._last_reply = _monotonic()
        return reply

    def _io_loop(self) -> None:
        """Background thread: connect, drain the queue, ping when idle."""
        while not self._stop.is_set() and not self._dead:
            if self._sock is None:
                self._try_connect()
                continue
            with self._lock:
                head = self._queue[0] if self._queue else None
                batches = []
                if head is not None and head[0] == "batch":
                    for entry in self._queue:
                        if entry[0] != "batch" or len(batches) >= self.config.max_coalesce:
                            break
                        batches.append(entry)
            if head is None:
                if _monotonic() - self._last_reply >= self._ping_idle:
                    self._exchange({"op": "ping"}, None)
                else:
                    self._wake.wait(0.02)
                    self._wake.clear()
                continue
            if head[0] == "sync":
                reply = self._exchange(head[1], head[2])
                if reply is not None:
                    with self._lock:
                        if self._queue and self._queue[0] is head:
                            self._queue.popleft()
                continue
            self.retries += sum(1 for entry in batches if entry[3])
            payload = encode_wire_batches(
                [(entry[1], entry[2]) for entry in batches], encode_event
            )
            for entry in batches:
                entry[3] = True
            reply = self._exchange(payload, None)
            if reply is None:
                continue
            if reply.get("op") != "ack":
                self._mark_dead("worker-error")
                continue
            acked = int(reply.get("seq", 0))
            with self._lock:
                while (
                    self._queue
                    and self._queue[0][0] == "batch"
                    and self._queue[0][1] <= acked
                ):
                    self._queue.popleft()
                    self._queued_batches -= 1

    def _exchange(self, payload, waiter: _SyncWaiter | None):
        """Send one request; resolve/fail ``waiter``; None on disconnect."""
        sock = self._sock
        if sock is None:
            return None
        try:
            reply = self._request(sock, payload)
        except (OSError, ConnectionError, TransportError):
            self._on_disconnect()
            return None
        if reply.get("op") == "error":
            error = ShardFailedError(
                self.shard_id,
                "worker-error",
                f"shard {self.shard_id} failed: {reply.get('message')}",
            )
            if waiter is not None:
                waiter.fail(error)
            self._mark_dead("worker-error")
            return None
        if waiter is not None:
            waiter.resolve(reply)
        return reply


# -- loopback worker fleet ----------------------------------------------------


class WorkerLauncher:
    """Spawns and reaps loopback ``serve_shard`` worker processes.

    Forks one OS process per shard, each binding an ephemeral loopback
    port it reports over a ready queue.  The launcher keeps the process
    table so handles can probe their worker's exit (:meth:`alive`) and
    failover can fence (SIGKILL) and respawn a shard — :meth:`spawn` on
    an existing shard id kills the old process first and returns the
    replacement's address.
    """

    def __init__(
        self,
        window: float,
        journal_paths: list | None = None,
        journal_opts: Mapping | None = None,
        observe: bool = False,
        host: str = "127.0.0.1",
        config: TransportConfig | None = None,
    ):
        self.window = float(window)
        self.journal_paths = journal_paths
        self.journal_opts = dict(journal_opts or {})
        self.observe = bool(observe)
        self.host = host
        self.config = config
        self._ctx = mp.get_context("fork")
        self._procs: dict[int, mp.process.BaseProcess] = {}

    def spawn(self, shard_id: int) -> tuple[str, int]:
        """Start (or restart) the worker for ``shard_id``; return its address."""
        shard_id = int(shard_id)
        if shard_id in self._procs:
            self.kill(shard_id)
        ready = self._ctx.Queue()
        path = None
        if self.journal_paths is not None:
            path = str(self.journal_paths[shard_id])
        process = self._ctx.Process(
            target=serve_shard,
            kwargs={
                "shard_id": shard_id,
                "window": self.window,
                "journal_path": path,
                "journal_opts": self.journal_opts,
                "host": self.host,
                "port": 0,
                "observe": self.observe,
                "ready": ready,
                "config": self.config,
            },
            name=f"tempo-tcp-shard-{shard_id:02d}",
            daemon=True,
        )
        process.start()
        try:
            tag, port = ready.get(timeout=30.0)
        except queue_mod.Empty:
            process.kill()
            process.join(timeout=10.0)
            raise ShardFailedError(
                shard_id, "spawn-failed", f"worker {shard_id} never reported a port"
            ) from None
        finally:
            ready.close()
            ready.join_thread()
        if tag != "ready":  # pragma: no cover - protocol misuse
            raise ShardFailedError(shard_id, "spawn-failed", f"bad ready tag {tag!r}")
        self._procs[shard_id] = process
        return (self.host, int(port))

    def alive(self, shard_id: int) -> bool:
        """Whether the worker process for ``shard_id`` is still running."""
        process = self._procs.get(int(shard_id))
        return process is not None and process.is_alive()

    def kill(self, shard_id: int) -> None:
        """SIGKILL and reap the worker for ``shard_id`` (fencing)."""
        process = self._procs.pop(int(shard_id), None)
        if process is None:
            return
        if process.is_alive():
            process.kill()
        process.join(timeout=10.0)

    def wait(self, shard_id: int) -> None:
        """Reap a worker that was asked to stop gracefully."""
        process = self._procs.pop(int(shard_id), None)
        if process is None:
            return
        process.join(timeout=10.0)
        if process.is_alive():  # pragma: no cover - stop request lost
            process.kill()
            process.join(timeout=10.0)

    def close(self) -> None:
        """Kill every remaining worker process."""
        for shard_id in list(self._procs):
            self.kill(shard_id)


def start_remote_shards(
    shards: int,
    window: float,
    journal_paths: list | None = None,
    journal_opts: Mapping | None = None,
    observe: bool = False,
    heartbeat_interval: float = 1.0,
    failover_after: float | None = None,
    host: str = "127.0.0.1",
    config: TransportConfig | None = None,
) -> tuple[list[RemoteShardHandle], WorkerLauncher]:
    """Spawn a loopback TCP worker fleet; return (handles, launcher).

    ``journal_paths`` is ``None`` or one path per shard; each journal is
    opened inside its worker, which owns it while it runs.
    """
    config = config or TransportConfig()
    launcher = WorkerLauncher(
        window,
        journal_paths,
        journal_opts,
        observe=observe,
        host=host,
        config=config,
    )
    handles = []
    for shard_id in range(int(shards)):
        address = launcher.spawn(shard_id)
        handles.append(
            RemoteShardHandle(
                shard_id,
                address,
                heartbeat_interval=heartbeat_interval,
                failover_after=failover_after,
                config=config,
                launcher=launcher,
            )
        )
    return handles, launcher
