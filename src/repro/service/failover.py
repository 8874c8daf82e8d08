"""Failure detection, shard failover, and deterministic fault injection.

Tempo's core claim is *robustness*: the tuner keeps tenants near their
SLOs under noisy, adversarial conditions (the paper's Section 5 failure
sweeps).  PR 4's sharded data plane still died with the process — a
``kill -9`` of one shard worker either hung the control plane on a
reply that would never come or required a full ``repro resume``.  This
module is the failover plane that keeps the service serving *through*
a shard failure:

* :class:`FailoverConfig` — the two supervision knobs
  (``--heartbeat-interval`` / ``--failover-after``);
* :class:`FailureDetector` — per-shard heartbeat-age accrual (a
  timeout detector with a phi-style suspicion score, in the spirit of
  the phi-accrual detector: the score grows with the age of the newest
  liveness beat, and crossing ``failover_after`` declares the shard
  dead);
* :class:`FailoverReport` — one completed failover, as recorded by
  :meth:`~repro.service.daemon.TempoService.failover_shard`;
* :class:`FaultInjector` + :func:`parse_fault` — a deterministic chaos
  layer (seeded schedule, virtual clock advanced by the replay driver's
  simulated time, never the wall clock) injecting
  kill / stall / drop-batches / slow-journal faults into a live
  service;
* :class:`DeadShard` / :class:`FaultedShard` — the in-process fault
  stand-ins that make every failure mode reproducible without worker
  processes or sleeps;
* :func:`run_chaos` — scenario x fault schedule -> survival report
  (``repro chaos``): events lost, retunes missed, recovery latency,
  and decision-plane verdict drift versus the fault-free run.

The recovery contract: when a shard is declared dead, only *that*
shard's journal rewinds to its newest broadcast-heartbeat boundary (the
common chunk edge crash recovery already uses); a replacement is
spawned and the journal is replayed into it.  Surviving shards keep
every record they journaled — one dead shard costs a bounded replay,
never a service restart and never surviving-shard data.
"""

from __future__ import annotations

import math
import random
import re
import time as _time
from dataclasses import dataclass
from typing import Sequence

from repro.service.sharding import (
    _TELEMETRY_EVENTS,
    ShardFailedError,
    ShardPartitionedError,
)

#: Fault kinds the injector understands (the ``repro chaos --fault`` axis).
FAULT_KINDS = (
    "kill-shard",
    "stall-shard",
    "drop-batches",
    "slow-journal",
    "partition",
    "slow-net",
    "drop-net",
)

#: Kind-appropriate spelling of the magnitude parameter in canonical
#: specs: the network faults read better with their own unit names
#: (``partition:1@t=2 dur=3`` — seconds; ``slow-net@t=1 ms=50`` —
#: milliseconds per frame; ``drop-net@t=1 n=4`` — batches).  Every
#: spelling parses for every kind; this map only governs rendering.
_AMOUNT_PARAM = {"partition": " dur=", "slow-net": " ms=", "drop-net": " n="}

_FAULT_RE = re.compile(
    r"^(?P<kind>[a-z][a-z-]*)"
    r"(?::(?P<shard>\d+))?"
    r"@t=(?P<at>\d+(?:\.\d+)?)"
    r"(?:(?:@for=|\s+(?:dur|ms|n)=)(?P<amount>\d+(?:\.\d+)?))?$"
)


@dataclass(frozen=True)
class FailoverConfig:
    """Supervision knobs of the failover plane.

    Attributes:
        heartbeat_interval: Seconds between one worker liveness proof
            and the next: a worker handle pings an idle link at least
            this often (``--heartbeat-interval``).
        failover_after: Heartbeat age — and synchronous barrier reply
            bound — past which a shard is declared dead
            (``--failover-after``).  Must be at least twice the
            heartbeat interval: between two beats a healthy worker's
            observed age legitimately reaches one full interval, so a
            smaller bound false-positives on every quiet period
            (3–5 intervals is the recommended operating margin).
    """

    heartbeat_interval: float = 1.0
    failover_after: float = 5.0

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be positive, got {self.heartbeat_interval}"
            )
        if self.failover_after < 2 * self.heartbeat_interval:
            raise ValueError(
                f"failover_after ({self.failover_after}) must be at least twice "
                f"heartbeat_interval ({self.heartbeat_interval}); a healthy "
                "worker's heartbeat age reaches one full interval between beats"
            )


class FailureDetector:
    """Per-shard heartbeat-age accrual detector.

    A timeout detector with a phi-style score: under the exponential
    inter-beat assumption of the phi-accrual family, the suspicion that
    a shard whose newest beat is ``age`` seconds old is dead is
    ``phi = (age / heartbeat_interval) * log10(e)`` — linear in the
    age, normalized by the expected beat period.  :meth:`suspect`
    applies the operational threshold: an age past ``failover_after``
    declares the shard dead (the phi value is exposed for dashboards
    and tuning, the decision itself is the explicit timeout the
    operator configured).
    """

    def __init__(self, config: FailoverConfig):
        self.config = config
        self._ages: dict[int, float] = {}

    def __repr__(self) -> str:
        worst = max(self._ages.values(), default=0.0)
        return f"FailureDetector(shards={len(self._ages)}, worst_age={worst:.3f}s)"

    def observe(self, shard_id: int, age: float) -> None:
        """Record the current heartbeat age of one shard."""
        self._ages[int(shard_id)] = max(0.0, float(age))

    def age(self, shard_id: int) -> float:
        """Newest observed heartbeat age of one shard (0 if never seen)."""
        return self._ages.get(int(shard_id), 0.0)

    def phi(self, shard_id: int) -> float:
        """Phi-style suspicion score for one shard (higher = more dead)."""
        return (
            self.age(shard_id) / self.config.heartbeat_interval
        ) * math.log10(math.e)

    def suspect(self, shard_id: int) -> bool:
        """Whether the shard's heartbeat age crossed ``failover_after``."""
        return self.age(shard_id) > self.config.failover_after


@dataclass(frozen=True)
class FailoverReport:
    """One completed shard failover, as the control plane recorded it.

    Attributes:
        shard: The shard that was replaced.
        time: Simulated service time when the failover ran.
        reason: Detection cause (``process-exit``, ``heartbeat-timeout``,
            ``reply-timeout``, ``worker-error``, or an injected fault
            name).
        boundary: Simulated time of the heartbeat boundary the dead
            shard's journal was rewound to.
        replayed: Journal records re-folded into the replacement.
        records_dropped: Journal records truncated past the boundary
            (the failover's bounded loss; zero for in-process
            failovers, whose journals stay consistent).
        events_lost: Job/task telemetry records among the dropped.
        latency: Wall-clock seconds the failover took (rewind + replay
            + replacement spawn; detection latency excluded).
    """

    shard: int
    time: float
    reason: str
    boundary: float
    replayed: int
    records_dropped: int
    events_lost: int
    latency: float


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: ``<kind>[:<shard>]@t=<when>[@for=<amount>]``.

    Attributes:
        kind: One of :data:`FAULT_KINDS`.
        at: Injection time in *retune-interval units* (``t=2`` fires at
            the second cadence-chunk boundary), so a schedule means the
            same thing at any ``--interval``.
        shard: Target shard, or ``None`` to let the injector's seeded
            RNG pick one (deterministic per seed).
        amount: Kind-specific magnitude: stall seconds for
            ``stall-shard``; batch count for ``drop-batches`` /
            ``slow-journal`` / ``drop-net``; partition duration in
            wall seconds for ``partition`` (``dur=``); per-frame delay
            in milliseconds for ``slow-net`` (``ms=``).  ``None``
            picks the kind's default.
    """

    kind: str
    at: float
    shard: int | None = None
    amount: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.at < 0:
            raise ValueError(f"fault time must be non-negative, got {self.at}")
        if self.shard is not None and self.shard < 0:
            raise ValueError(f"fault shard must be non-negative, got {self.shard}")
        if self.amount is not None and self.amount <= 0:
            raise ValueError(f"fault amount must be positive, got {self.amount}")

    def canonical(self) -> str:
        """The spec as its grammar string (round-trips through parsing)."""
        shard = "" if self.shard is None else f":{self.shard}"
        param = _AMOUNT_PARAM.get(self.kind, "@for=")
        amount = "" if self.amount is None else f"{param}{self.amount:g}"
        return f"{self.kind}{shard}@t={self.at:g}{amount}"


def parse_fault(text: str) -> FaultSpec:
    """Parse one ``--fault`` argument into a :class:`FaultSpec`.

    Grammar: ``<kind>[:<shard>]@t=<float>[<param><float>]`` where
    ``<param>`` is ``@for=`` or the network-fault spellings `` dur=``
    (partition seconds), `` ms=`` (slow-net frame delay), `` n=``
    (drop-net batches); e.g. ``kill-shard@t=2`` (seeded shard pick),
    ``stall-shard:1@t=3@for=4`` (stall shard 1 for 4 seconds at the
    third chunk boundary), ``partition:0@t=2 dur=3`` (sever shard 0's
    link for 3 wall seconds).
    """
    match = _FAULT_RE.match(text.strip())
    if match is None:
        raise ValueError(
            f"bad fault spec {text!r}; expected "
            "<kind>[:<shard>]@t=<float> with an optional @for=/dur=/ms=/n= "
            f"magnitude and kind one of {', '.join(FAULT_KINDS)}"
        )
    return FaultSpec(
        kind=match.group("kind"),
        at=float(match.group("at")),
        shard=None if match.group("shard") is None else int(match.group("shard")),
        amount=None if match.group("amount") is None else float(match.group("amount")),
    )


class DeadShard:
    """In-process stand-in for a killed shard.

    The fault injector swaps one in for the victim
    :class:`~repro.service.sharding.IngestShard`: every data-path call
    raises :class:`~repro.service.sharding.ShardFailedError`, exactly
    as a supervised worker handle does once its process is gone, so the
    control plane's failover path is exercised identically in-process —
    deterministic, no child processes, no signals.
    """

    #: The liveness flag supervision checks first.
    alive = False
    #: Parent-side queue-lag view (a dead shard queues nothing).
    pending_batches = 0
    #: A dead shard's live registry is lost with it.
    metrics = None

    def __init__(self, shard_id: int, reason: str = "killed"):
        self.shard_id = int(shard_id)
        #: Detection cause reported by every raised error.
        self.reason = str(reason)

    def __repr__(self) -> str:
        return f"DeadShard(id={self.shard_id}, reason={self.reason!r})"

    def _fail(self):
        raise ShardFailedError(self.shard_id, self.reason)

    @property
    def window(self):
        """Raises: a dead shard's window is gone with the process."""
        self._fail()

    @property
    def last_seq(self) -> int:
        """Raises: a dead shard answers no journal queries."""
        self._fail()

    def ingest(self, events) -> None:
        """Raises :class:`ShardFailedError` (the shard is dead)."""
        self._fail()

    def fold(self, events) -> None:
        """Raises :class:`ShardFailedError` (the shard is dead)."""
        self._fail()

    def advance(self, now: float) -> None:
        """Raises :class:`ShardFailedError` (the shard is dead)."""
        self._fail()

    def drain_state(self, now: float) -> dict:
        """Raises :class:`ShardFailedError` (the shard is dead)."""
        self._fail()

    def drain_stats(self, now: float) -> dict:
        """Raises :class:`ShardFailedError` (the shard is dead)."""
        self._fail()

    def checkpoint(self, now: float) -> dict:
        """Raises :class:`ShardFailedError` (the shard is dead)."""
        self._fail()

    def restore(self, window_state) -> None:
        """Raises :class:`ShardFailedError` (the shard is dead)."""
        self._fail()

    def submit(self, event) -> bool:
        """A dead shard sheds everything (mirrors a full bus)."""
        return False

    def close(self) -> None:
        """Nothing to close — the victim's journal belongs to its owner."""


class FaultedShard:
    """Delegating wrapper injecting non-fatal faults into one shard.

    Wraps an in-process shard *or* a worker handle; everything not
    faulted delegates to the wrapped shard, so the control plane sees
    the ordinary shard surface.  Modes:

    * ``"stall"`` — every ingest/drain raises
      :class:`~repro.service.sharding.ShardFailedError` (reason
      ``stall``), and the reported heartbeat age is infinite: the
      in-process twin of a wedged worker, surfacing at the same call
      sites a supervised reply-timeout would — and, on planes with no
      barrier to time out (a single in-process shard), at the entry
      sweep's failure detector, exactly like a real heartbeat timeout.
    * ``"drop"`` — the next ``batches`` ingest calls are discarded
      (telemetry loss between producer and shard — a dropped network
      batch; never journaled, so the journal stays truthful).
    * ``"slow"`` — the next ``batches`` ingest calls degrade to
      per-record appends (group commit disabled: byte-identical
      records, pure latency).
    * ``"partition"`` — for ``seconds`` of wall clock the shard is
      unreachable: drain barriers raise
      :class:`~repro.service.sharding.ShardPartitionedError` (the
      degraded-mode stale-serving path), ingest buffers in arrival
      order, and the reported heartbeat age is the outage's elapsed
      wall time — so a window longer than ``failover_after`` trips the
      failure detector exactly like a lethal network partition.  Once
      the window elapses the buffer flushes and everything delegates
      again (transient partition: reconnect, resume, nothing lost).
    * ``"slow-net"`` — every ingest call sleeps ``seconds`` first
      (link latency; delivery order and journal bytes unchanged).
    """

    #: Wrapper modes (DeadShard covers ``kill``).
    MODES = ("stall", "drop", "slow", "partition", "slow-net")

    def __init__(self, inner, mode: str, *, batches: int = 0, seconds: float = 0.0):
        if mode not in self.MODES:
            raise ValueError(f"unknown fault mode {mode!r}; expected {self.MODES}")
        self._inner = inner
        self._mode = mode
        self._batches_left = int(batches)
        self._seconds = max(0.0, float(seconds))
        self._partition_started = _time.monotonic()
        self._partition_until = (
            self._partition_started + self._seconds
            if mode == "partition"
            else 0.0
        )
        self._buffer: list = []
        #: Telemetry events discarded by ``drop`` so far (heartbeat and
        #: churn copies in dropped batches are not counted).
        self.telemetry_dropped = 0
        #: Partition windows opened (1 for a partition wrapper).
        self.partitions = 1 if mode == "partition" else 0
        #: Healed partition windows (set when the buffer flushes).
        self.reconnects = 0

    def __repr__(self) -> str:
        return (
            f"FaultedShard(mode={self._mode!r}, left={self._batches_left}, "
            f"inner={self._inner!r})"
        )

    def __getattr__(self, name):
        """Delegate everything not faulted to the wrapped shard."""
        return getattr(self._inner, name)

    @property
    def inner(self):
        """The wrapped shard (what a failover discards or an heal unwraps)."""
        return self._inner

    @property
    def exhausted(self) -> bool:
        """Whether a bounded fault (drop/slow) has spent its batches."""
        return self._mode in ("drop", "slow") and self._batches_left <= 0

    @property
    def partitioned(self) -> bool:
        """Whether a partition window is still open (wall clock)."""
        return (
            self._mode == "partition"
            and _time.monotonic() < self._partition_until
        )

    def _heal(self) -> None:
        """Flush the partition buffer once the window has elapsed."""
        if self._buffer:
            buffered, self._buffer = self._buffer, []
            self.reconnects += 1
            self._inner.ingest(buffered)

    def heartbeat_age(self) -> float:
        """Stalled stand-ins stop beating (infinite age); others delegate."""
        if self._mode == "stall":
            return math.inf
        if self.partitioned:
            return _time.monotonic() - self._partition_started
        inner_age = getattr(self._inner, "heartbeat_age", None)
        return 0.0 if inner_age is None else inner_age()

    def ingest(self, events) -> None:
        """Apply the fault to one batch, else delegate."""
        if self._mode == "stall":
            raise ShardFailedError(self._inner.shard_id, "stall")
        if self._mode == "partition":
            if self.partitioned:
                self._buffer.extend(events)
                return
            self._heal()
            self._inner.ingest(events)
            return
        if self._mode == "slow-net":
            if self._seconds > 0.0:
                _time.sleep(self._seconds)
            self._inner.ingest(events)
            return
        if self._batches_left > 0:
            self._batches_left -= 1
            if self._mode == "drop":
                self.telemetry_dropped += sum(
                    1 for event in events if isinstance(event, _TELEMETRY_EVENTS)
                )
                return
            for event in events:  # slow: per-record commits
                self._inner.ingest([event])
            return
        self._inner.ingest(events)

    def drain_state(self, now: float) -> dict:
        """Barrier — raises under ``stall``/partition, else delegates."""
        if self._mode == "stall":
            raise ShardFailedError(self._inner.shard_id, "stall")
        if self.partitioned:
            raise ShardPartitionedError(self._inner.shard_id)
        self._heal()
        return self._inner.drain_state(now)

    def drain_stats(self, now: float) -> dict:
        """Stats barrier — raises under ``stall``/partition, else delegates."""
        if self._mode == "stall":
            raise ShardFailedError(self._inner.shard_id, "stall")
        if self.partitioned:
            raise ShardPartitionedError(self._inner.shard_id)
        self._heal()
        return self._inner.drain_stats(now)

    def checkpoint(self, now: float) -> dict:
        """Snapshot barrier — raises under ``stall``/partition, else delegates."""
        if self._mode == "stall":
            raise ShardFailedError(self._inner.shard_id, "stall")
        if self.partitioned:
            raise ShardPartitionedError(self._inner.shard_id)
        self._heal()
        return self._inner.checkpoint(now)

    def close(self) -> None:
        """Flush a healed partition buffer, then delegate the close."""
        if self._mode == "partition" and not self.partitioned:
            self._heal()
        elif self._buffer:
            # Shutdown mid-partition: the buffered tail never reached
            # the shard — account it as injector loss, like a dropped
            # batch, so the survivor audit stays truthful.
            self.telemetry_dropped += sum(
                1 for event in self._buffer if isinstance(event, _TELEMETRY_EVENTS)
            )
            self._buffer = []
        self._inner.close()


class FaultInjector:
    """Deterministic fault schedule wired into the replay driver.

    The injector's clock is *virtual*: :meth:`advance` is called by
    :class:`~repro.service.replay.ScenarioReplayer` with the simulated
    time of each chunk boundary, and every fault whose time has come
    fires there — same seed, same schedule, same simulated stream =>
    byte-identical injections, no wall-clock sleeps anywhere.  Faults
    with no explicit shard are resolved once, at :meth:`arm` time, by a
    seeded RNG.

    Worker shards are faulted for real (SIGKILL, a stalled command
    loop, per-record journal commits); in-process shards are faulted
    through :class:`DeadShard` / :class:`FaultedShard` stand-ins that
    raise at the same call sites — both modes drive the identical
    control-plane failover path.
    """

    def __init__(self, faults: Sequence, seed: int = 0):
        specs = [
            parse_fault(fault) if isinstance(fault, str) else fault
            for fault in faults
        ]
        self.specs: tuple[FaultSpec, ...] = tuple(
            sorted(specs, key=lambda spec: spec.at)
        )
        self.seed = int(seed)
        #: Virtual clock: newest simulated time advanced to.
        self.now = 0.0
        #: ``(sim_time, spec, shard)`` of every fault fired, in order.
        self.fired: list[tuple[float, FaultSpec, int]] = []
        #: Shards whose partition window exceeded ``failover_after``
        #: (lethal partitions: the run must answer with a failover).
        self.lethal_partitions: set[int] = set()
        self._pending: list[tuple[float, FaultSpec, int]] = []
        self._service = None
        self._wrappers: list[FaultedShard] = []
        self._drop_handles: list[tuple[int, object]] = []

    def __repr__(self) -> str:
        return (
            f"FaultInjector(seed={self.seed}, fired={len(self.fired)}, "
            f"pending={len(self._pending)}, now={self.now:g}s)"
        )

    def arm(self, service) -> None:
        """Bind the schedule to a live service.

        Resolves fault times (interval units -> simulated seconds, via
        the service's retune interval) and unpinned shards (seeded
        RNG); re-arming resets the virtual clock and the schedule.
        """
        rng = random.Random(self.seed)
        interval = service.config.retune_interval
        shards = service.num_shards
        pending = []
        for spec in self.specs:
            shard = spec.shard if spec.shard is not None else rng.randrange(shards)
            if shard >= shards:
                raise ValueError(
                    f"fault {spec.canonical()!r} targets shard {shard} but the "
                    f"service has {shards} shard(s)"
                )
            pending.append((spec.at * interval, spec, shard))
        pending.sort(key=lambda entry: entry[0])
        self._service = service
        self._pending = pending
        self.fired = []
        self.lethal_partitions = set()
        self._wrappers = []
        self._drop_handles = []
        self.now = 0.0

    def advance(self, sim_time: float) -> list[FaultSpec]:
        """Advance the virtual clock; fire every fault now due.

        Returns the specs fired by this call.  The replay driver calls
        this at chunk boundaries, so a fault lands at the first
        boundary at or after its scheduled time — deterministically.
        """
        if self._service is None:
            raise RuntimeError("FaultInjector.advance() before arm()")
        self.now = max(self.now, float(sim_time))
        fired: list[FaultSpec] = []
        while self._pending and self._pending[0][0] <= self.now + 1e-9:
            when, spec, shard = self._pending.pop(0)
            self._fire(when, spec, shard)
            fired.append(spec)
        return fired

    @property
    def injected(self) -> list[str]:
        """Human-readable log of fired faults (resolved shard + time)."""
        return [
            f"{spec.kind}:{shard}@{when:g}s"
            for when, spec, shard in self.fired
        ]

    @property
    def pending(self) -> list[str]:
        """Canonical specs still waiting to fire (e.g. past the horizon)."""
        return [spec.canonical() for _, spec, _ in self._pending]

    def dropped_by_shard(self) -> dict[int, int]:
        """Telemetry events discarded by drop faults, per target shard."""
        dropped: dict[int, int] = {}
        for wrapper in self._wrappers:
            shard = wrapper.inner.shard_id
            dropped[shard] = dropped.get(shard, 0) + wrapper.telemetry_dropped
        for shard, handle in self._drop_handles:
            dropped[shard] = dropped.get(shard, 0) + getattr(
                handle, "telemetry_dropped", 0
            )
        return dropped

    def _fire(self, when: float, spec: FaultSpec, shard: int) -> None:
        """Inject one due fault, by capability rather than handle type.

        Each kind probes the target for the matching fault hook
        (``kill``/``stall``/``slow_journal``/``inject_*``) and falls
        back to an in-process :class:`DeadShard`/:class:`FaultedShard`
        stand-in when the plane has none — so every shard plane
        (in-process, TCP worker) takes the same fault
        schedule without the injector naming a single handle class.
        """
        service = self._service
        failover = getattr(service, "failover", None)
        current = service.shards[shard]
        inner = getattr(current, "inner", current)
        self.fired.append((when, spec, shard))
        if spec.kind == "kill-shard":
            if isinstance(inner, DeadShard):
                return  # already dead; nothing left to kill
            if callable(getattr(inner, "kill", None)):
                inner.kill()  # SIGKILL mid-whatever, like a real crash
            else:
                if isinstance(current, FaultedShard):
                    # A partition buffer dies with the shard: closing
                    # the wrapper books its unjournaled tail as injected
                    # loss, so the survivor audit stays truthful.
                    current.close()
                service.shards[shard] = DeadShard(shard)
        elif spec.kind == "stall-shard":
            if callable(getattr(inner, "stall", None)):
                seconds = (
                    spec.amount
                    if spec.amount is not None
                    else (3.0 * failover.failover_after if failover else 5.0)
                )
                inner.stall(float(seconds))
            else:
                service.shards[shard] = FaultedShard(current, "stall")
        elif spec.kind == "drop-batches":
            wrapper = FaultedShard(current, "drop", batches=int(spec.amount or 1))
            service.shards[shard] = wrapper
            self._wrappers.append(wrapper)
        elif spec.kind == "partition":
            seconds = float(
                spec.amount
                if spec.amount is not None
                else (0.5 * failover.failover_after if failover else 1.0)
            )
            if failover is not None and seconds > failover.failover_after:
                self.lethal_partitions.add(shard)
            if callable(getattr(inner, "inject_partition", None)):
                inner.inject_partition(seconds)
            else:
                wrapper = FaultedShard(current, "partition", seconds=seconds)
                service.shards[shard] = wrapper
                self._wrappers.append(wrapper)
        elif spec.kind == "slow-net":
            seconds = float(spec.amount if spec.amount is not None else 50.0) / 1e3
            if callable(getattr(inner, "inject_latency", None)):
                inner.inject_latency(seconds)
            else:
                service.shards[shard] = FaultedShard(
                    current, "slow-net", seconds=seconds
                )
        elif spec.kind == "drop-net":
            batches = int(spec.amount or 1)
            if callable(getattr(inner, "inject_drop", None)):
                inner.inject_drop(batches)
                self._drop_handles.append((shard, inner))
            else:
                wrapper = FaultedShard(current, "drop", batches=batches)
                service.shards[shard] = wrapper
                self._wrappers.append(wrapper)
        else:  # slow-journal
            if callable(getattr(inner, "slow_journal", None)):
                inner.slow_journal(int(spec.amount or 1))
            else:
                service.shards[shard] = FaultedShard(
                    current, "slow", batches=int(spec.amount or 1)
                )


# -- the chaos harness --------------------------------------------------------


@dataclass(frozen=True)
class ChaosReport:
    """Survival report of one scenario x fault-schedule chaos run.

    Attributes:
        scenario: Scenario name driven through the faulted service.
        shards: Data-plane shard count.
        horizon: Simulated seconds replayed.
        faults: The requested schedule (canonical spec strings).
        injected: Faults that actually fired (resolved shard + time).
        unfired: Scheduled faults the run never reached.
        failovers: Every failover the control plane performed.
        recovered: Every lethal fault (kill/stall) was answered by a
            completed failover and the run finished serving.
        survivor_events_lost: Telemetry delivered to never-failed
            shards but missing from their journals (the headline
            guarantee: must be zero).
        survivor_events_expected: Telemetry routed to surviving shards
            (denominator of the guarantee).
        failed_events_lost: Telemetry lost on failed shards (the
            failover's bounded loss: queue residue + records truncated
            past the heartbeat boundary).
        injector_dropped: Telemetry the drop-batches faults discarded
            before any shard saw it (excluded from loss accounting —
            the producer-side loss the fault models).
        events: Telemetry events the faulted run delivered.
        retunes: Applied tunes in the faulted run.
        baseline_retunes: Applied tunes in the fault-free run.
        retunes_missed: Tunes the faults cost (clamped at zero).
        verdict_drift: Cadence ticks whose decision verdict differs
            from the fault-free run (plus any tick-count difference).
        decisions: Cadence ticks in the faulted run.
        baseline_decisions: Cadence ticks in the fault-free run.
        recovery_latency: Worst wall-clock failover latency (seconds).
        max_stats_gap: Worst incremental-vs-batch stats deviation seen
            during the faulted run (the 1e-9 oracle, live).
        transport: Data-plane transport (``"tcp"`` for loopback TCP
            workers; empty for in-process shards).
        reconnects: Transport reconnections completed across all
            shard links (partitions healed within backoff budget).
        transport_retries: Batches re-sent after a reconnect (every
            one deduped by the worker's ack sequence).
        backpressure_drops: Batches shed by full client send queues.
        partitions: Partition episodes the control plane served
            through in degraded mode (stale stats, journaled
            ``ShardPartitioned``).
    """

    scenario: str
    shards: int
    horizon: float
    faults: tuple[str, ...]
    injected: tuple[str, ...]
    unfired: tuple[str, ...]
    failovers: tuple[FailoverReport, ...]
    recovered: bool
    survivor_events_lost: int
    survivor_events_expected: int
    failed_events_lost: int
    injector_dropped: int
    events: int
    retunes: int
    baseline_retunes: int
    retunes_missed: int
    verdict_drift: int
    decisions: int
    baseline_decisions: int
    recovery_latency: float
    max_stats_gap: float
    transport: str = ""
    reconnects: int = 0
    transport_retries: int = 0
    backpressure_drops: int = 0
    partitions: int = 0

    @property
    def ok(self) -> bool:
        """The survival verdict: recovered with zero surviving-shard loss."""
        return self.recovered and self.survivor_events_lost == 0

    def lines(self) -> list[str]:
        """Operator-facing render (what ``repro chaos`` prints)."""
        mode = "tcp-workers" if self.transport == "tcp" else "in-process"
        out = [
            f"chaos: {self.scenario} x {len(self.faults)} fault(s), "
            f"{self.shards} shard(s) ({mode}), horizon {self.horizon:.0f}s",
            f"  injected:            {', '.join(self.injected) or '(none)'}",
        ]
        if self.unfired:
            out.append(f"  never fired:         {', '.join(self.unfired)}")
        for report in self.failovers:
            out.append(
                f"  failover:            shard {report.shard} ({report.reason}) "
                f"at t={report.time:.0f}s -> boundary t={report.boundary:.0f}s, "
                f"{report.replayed} records replayed, "
                f"{report.records_dropped} dropped, "
                f"{report.latency * 1000:.1f}ms"
            )
        out += [
            f"  recovered:           {'yes' if self.recovered else 'NO'}",
            f"  survivor event loss: {self.survivor_events_lost} "
            f"(of {self.survivor_events_expected} expected)",
            f"  failed-shard loss:   {self.failed_events_lost} "
            f"(bounded by the heartbeat boundary)",
        ]
        if self.injector_dropped:
            out.append(
                f"  injector dropped:    {self.injector_dropped} "
                f"(producer-side drop-batches loss)"
            )
        if self.transport or self.reconnects or self.partitions:
            out.append(
                f"  transport:           reconnects={self.reconnects} "
                f"retries={self.transport_retries} "
                f"backpressure-drops={self.backpressure_drops} "
                f"partitions={self.partitions}"
            )
        out += [
            f"  events delivered:    {self.events}",
            f"  retunes:             {self.retunes} "
            f"(fault-free {self.baseline_retunes}; missed {self.retunes_missed})",
            f"  verdict drift:       {self.verdict_drift} of "
            f"{self.baseline_decisions} fault-free tick(s)",
            f"  recovery latency:    {self.recovery_latency * 1000:.1f}ms (worst)",
            f"  max stats gap:       {self.max_stats_gap:.3g}",
            f"  verdict:             {'SURVIVED' if self.ok else 'FAILED'}",
        ]
        return out


def run_chaos(
    scenario_name: str,
    faults: Sequence,
    *,
    shards: int = 4,
    tcp_workers: bool = False,
    horizon: float | None = None,
    scale: float | None = None,
    seed: int = 0,
    window: float = 1800.0,
    interval: float = 900.0,
    heartbeat_interval: float = 1.0,
    failover_after: float = 5.0,
    state_dir=None,
) -> ChaosReport:
    """Drive one scenario through a faulted, supervised service.

    Runs the scenario twice with the same seed: once fault-free and
    in-process (the oracle for retunes and verdicts), once durable and
    supervised with the fault schedule armed — in-process shards by
    default, or loopback TCP workers with ``tcp_workers=True`` (the
    plane the network faults ``partition``/``slow-net``/``drop-net`` hit
    for real; in-process they fall back to stand-ins).  After the faulted run,
    every shard journal is re-read end to end (proving the frames
    CRC-clean) and per-shard journaled telemetry is compared against
    the delivered stream routed through a fresh
    :class:`~repro.service.sharding.ShardRouter` — surviving shards
    must not have lost a single journaled event.

    ``state_dir=None`` uses a temporary directory, removed afterwards;
    an explicit directory is kept (inspect it with ``repro status``).
    """
    import shutil
    import tempfile
    from pathlib import Path

    from repro.service.daemon import ServiceConfig, check_worker_plane
    from repro.service.replay import ScenarioReplayer, build_service, make_scenario
    from repro.service.sharding import ShardRouter
    from repro.service.snapshot import ServiceState

    check_worker_plane(shards, tcp_workers=tcp_workers)
    specs = [
        parse_fault(fault) if isinstance(fault, str) else fault for fault in faults
    ]
    scenario = make_scenario(scenario_name, scale=scale, horizon=horizon)
    config = ServiceConfig(window=window, retune_interval=interval)

    baseline_service = build_service(scenario, config, seed=seed, shards=shards)
    try:
        baseline = ScenarioReplayer(scenario, baseline_service, seed=seed).run()
    finally:
        baseline_service.close()

    own_dir = state_dir is None
    root = (
        Path(tempfile.mkdtemp(prefix="tempo-chaos-"))
        if own_dir
        else Path(state_dir)
    )
    injector = FaultInjector(specs, seed=seed)
    try:
        state = ServiceState(root, shards=shards)
        service = build_service(
            scenario,
            config,
            seed=seed,
            state=state,
            shards=shards,
            tcp_workers=tcp_workers,
            failover=FailoverConfig(
                heartbeat_interval=heartbeat_interval,
                failover_after=failover_after,
            ),
        )
        recorded: list = []
        replayer = ScenarioReplayer(
            scenario, service, seed=seed, record_to=recorded, injector=injector
        )
        transport_totals: dict = {}
        partitions = 0
        try:
            summary = replayer.run()
            failovers = tuple(service.failovers)
            for stats in service.transport_stats().values():
                for key, value in stats.items():
                    transport_totals[key] = transport_totals.get(key, 0) + value
            partitions = service.shard_partitions
        finally:
            service.close()
            state.close()

        router = ShardRouter(shards)
        expected = [0] * shards
        for event in recorded:
            if isinstance(event, _TELEMETRY_EVENTS):
                expected[router.route(event)] += 1
        journaled = [0] * shards
        reader = ServiceState(root, shards=shards)
        try:
            for i in range(shards):
                journaled[i] = sum(
                    record.event_type in _TELEMETRY_EVENTS
                    for record in reader.shard_journal(i).iter_records()
                )
        finally:
            reader.close()
    finally:
        if own_dir:
            shutil.rmtree(root, ignore_errors=True)

    dropped = injector.dropped_by_shard()
    failed_shards = {report.shard for report in failovers}
    survivor_lost = survivor_expected = failed_lost = 0
    for i in range(shards):
        shard_expected = expected[i] - dropped.get(i, 0)
        lost = max(0, shard_expected - journaled[i])
        if i in failed_shards:
            failed_lost += lost
        else:
            survivor_expected += shard_expected
            survivor_lost += lost
    lethal = {
        shard
        for _, spec, shard in injector.fired
        if spec.kind in ("kill-shard", "stall-shard")
    } | injector.lethal_partitions
    baseline_verdicts = [d.verdict for d in baseline.decisions]
    verdicts = [d.verdict for d in summary.decisions]
    drift = sum(
        1 for a, b in zip(baseline_verdicts, verdicts) if a != b
    ) + abs(len(baseline_verdicts) - len(verdicts))
    return ChaosReport(
        scenario=scenario.name,
        shards=shards,
        horizon=summary.horizon,
        faults=tuple(spec.canonical() for spec in specs),
        injected=tuple(injector.injected),
        unfired=tuple(injector.pending),
        failovers=failovers,
        recovered=lethal <= failed_shards,
        survivor_events_lost=survivor_lost,
        survivor_events_expected=survivor_expected,
        failed_events_lost=failed_lost,
        injector_dropped=sum(dropped.values()),
        events=summary.events,
        retunes=summary.retunes,
        baseline_retunes=baseline.retunes,
        retunes_missed=max(0, baseline.retunes - summary.retunes),
        verdict_drift=drift,
        decisions=len(summary.decisions),
        baseline_decisions=len(baseline.decisions),
        recovery_latency=max((r.latency for r in failovers), default=0.0),
        max_stats_gap=summary.max_stats_gap,
        transport="tcp" if tcp_workers else "",
        reconnects=int(transport_totals.get("reconnects", 0)),
        transport_retries=int(transport_totals.get("retries", 0)),
        backpressure_drops=int(transport_totals.get("backpressure_dropped", 0)),
        partitions=int(partitions),
    )
