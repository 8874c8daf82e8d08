"""Tests for the TCP transport plane: wire framing, the shard server's
request/reply loop with reconnect dedupe, :class:`RemoteShardHandle`
parity with the in-process shard, backpressure accounting, random
partition/reconnect schedules as hypothesis properties, the TCP crash
matrix, and service-level degraded serving plus lethal-partition
failover with transport metrics."""

import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.daemon import ServiceConfig
from repro.service.events import (
    Heartbeat,
    JobCompleted,
    JobSubmitted,
    TaskCompleted,
)
from repro.service.failover import (
    FAULT_KINDS,
    FailoverConfig,
    FaultInjector,
    FaultSpec,
)
from repro.service.codec import encode_wire_batches
from repro.service.ingest import RollingWindow
from repro.service.journal import (
    EventJournal,
    canonical_json,
    decode_event,
    encode_event,
)
from repro.service.replay import build_service, make_scenario
from repro.service.sharding import (
    IngestShard,
    ShardFailedError,
    ShardHandle,
    ShardMark,
    ShardPartitionedError,
    ShardRouter,
)
from repro.service.snapshot import ServiceState
from repro.service.transport import (
    RemoteShardHandle,
    ShardServer,
    TransportConfig,
    TransportError,
    recv_frame,
    send_frame,
    send_raw_frame,
)
from repro.workload.trace import JobRecord, TaskRecord

TENANTS = tuple(f"tenant-{i:02d}" for i in range(7))

TELEMETRY = (JobSubmitted, TaskCompleted, JobCompleted)

#: Fast supervision for tests (same bounds as test_failover).
FAST = FailoverConfig(heartbeat_interval=0.1, failover_after=0.5)

#: Snappy transport for loopback tests: quick connects, tight backoff.
SNAPPY = TransportConfig(connect_timeout=0.5, backoff_base=0.02, backoff_max=0.2)


def _task(job_id, task_id, tenant, finish, duration):
    start = finish - duration
    return TaskRecord(
        job_id=job_id,
        task_id=task_id,
        tenant=tenant,
        pool="map",
        stage="map",
        submit_time=max(start - 1.0, 0.0),
        start_time=start,
        finish_time=finish,
    )


def _events(seed=0, count=80, tenants=TENANTS, heartbeat_every=0):
    """Deterministic multi-tenant telemetry, optionally with broadcast
    heartbeats (the journal boundaries failover rewinds to)."""
    rng = np.random.default_rng(seed)
    events, t = [], 0.0
    for i in range(count):
        t += float(rng.exponential(8.0))
        tenant = tenants[i % len(tenants)]
        job_id = f"{tenant}-{i}"
        events.append(JobSubmitted(t, tenant=tenant, job_id=job_id))
        duration = float(rng.lognormal(3.0, 0.8))
        finish = t + duration
        events.append(
            TaskCompleted(
                finish, record=_task(job_id, f"{job_id}/t0", tenant, finish, duration)
            )
        )
        events.append(
            JobCompleted(
                finish,
                record=JobRecord(
                    job_id=job_id, tenant=tenant, submit_time=t, finish_time=finish
                ),
            )
        )
    events.sort(key=lambda e: e.time)
    if heartbeat_every:
        beats = [
            Heartbeat(events[i].time + 1e-6)
            for i in range(heartbeat_every - 1, len(events), heartbeat_every)
        ]
        events.extend(beats)
        events.sort(key=lambda e: e.time)
    return events


def _stats_close(a, b, tol=1e-9):
    assert set(a) == set(b)
    fields = (
        "jobs",
        "tasks",
        "submitted",
        "arrival_rate",
        "mean_response",
        "log_duration_mean",
        "log_duration_std",
    )
    for name in a:
        for field in fields:
            assert abs(getattr(a[name], field) - getattr(b[name], field)) <= tol, (
                name,
                field,
            )


def _oracle_stats(journaled, window, now):
    oracle = RollingWindow(window)
    oracle.ingest_many(sorted(journaled, key=lambda e: e.time))
    oracle.advance(now)
    return oracle.batch_recompute()


def _event_keys(events):
    """Canonical identity of each telemetry event (duplicate detector)."""
    return [canonical_json(encode_event(e)) for e in events]


class _ServedShard:
    """One in-thread :class:`ShardServer` around a journaled shard.

    Keeps the whole loop inside the test process (no forks) so the
    framing, dedupe, and reconnect paths can be exercised quickly and
    deterministically; the handle still talks real loopback TCP.
    """

    def __init__(self, tmp_path, window=600.0, config=None):
        self.journal_path = tmp_path / "shard-journal"
        self.journal = EventJournal(self.journal_path)
        self.shard = IngestShard(0, window, journal=self.journal)
        self.server = ShardServer(self.shard, config=config)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    @property
    def address(self):
        return (self.server.host, self.server.port)

    def stop(self):
        self.server.stop()
        self.thread.join(timeout=10.0)

    def journaled(self):
        """Telemetry decoded back out of the (closed) shard journal."""
        reader = EventJournal(self.journal_path)
        try:
            return [
                decode_event(record.data)
                for record in reader.iter_records()
                if record.kind == "event"
                and record.data.get("type")
                in ("JobSubmitted", "TaskCompleted", "JobCompleted")
            ]
        finally:
            reader.close()


class TestFraming:
    """The wire format: length prefix + CRC frame, corruption detected."""

    def _pair(self):
        a, b = socket.socketpair()
        a.settimeout(2.0)
        b.settimeout(2.0)
        return a, b

    def test_round_trip(self):
        a, b = self._pair()
        try:
            payload = {"op": "ingest", "batches": [[1, ["x"]]], "note": "zz"}
            send_frame(a, payload)
            assert recv_frame(b) == payload
        finally:
            a.close()
            b.close()

    def test_corrupt_body_raises_transport_error(self):
        a, b = self._pair()
        try:
            send_frame(a, {"op": "ping"})
            raw = b.recv(4096)
            # Flip one byte inside the CRC-framed body; the length
            # prefix stays valid so only the checksum can catch it.
            corrupt = bytearray(raw)
            corrupt[-3] ^= 0x20
            a2, b2 = self._pair()
            try:
                a2.sendall(bytes(corrupt))
                with pytest.raises(TransportError):
                    recv_frame(b2)
            finally:
                a2.close()
                b2.close()
        finally:
            a.close()
            b.close()

    def test_oversized_and_zero_length_rejected(self):
        for length in (0, 2**31):
            a, b = self._pair()
            try:
                a.sendall(struct.pack("!I", length) + b"x")
                with pytest.raises(TransportError):
                    recv_frame(b, max_frame=1 << 20)
            finally:
                a.close()
                b.close()

    def test_non_op_payload_rejected(self):
        from repro.service.journal import frame_line

        a, b = self._pair()
        try:
            body = frame_line(canonical_json({"not-op": 1})).encode()
            a.sendall(struct.pack("!I", len(body)) + body)
            with pytest.raises(TransportError):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_eof_mid_frame_raises_connection_error(self):
        a, b = self._pair()
        try:
            a.sendall(struct.pack("!I", 100) + b"short")
            a.close()
            with pytest.raises(ConnectionError):
                recv_frame(b)
        finally:
            b.close()


class TestHandleProtocol:
    """Every plane satisfies the shared ShardHandle protocol."""

    def test_in_process_shard_is_a_handle(self):
        shard = IngestShard(0, 600.0)
        try:
            assert isinstance(shard, ShardHandle)
        finally:
            shard.close()

    def test_remote_handle_is_a_handle(self, tmp_path):
        served = _ServedShard(tmp_path)
        handle = RemoteShardHandle(0, served.address, config=SNAPPY)
        try:
            assert isinstance(handle, ShardHandle)
        finally:
            handle.close()
            served.stop()

    def test_mp_worker_handle_class_has_the_surface(self):
        from repro.service.sharding import ShardWorkerHandle

        for name in (
            "ingest",
            "drain_state",
            "drain_stats",
            "checkpoint",
            "heartbeat_age",
            "restore",
            "close",
        ):
            assert callable(getattr(ShardWorkerHandle, name))


class TestServerDedupe:
    """The server's applied-sequence watermark makes replays idempotent."""

    def test_replayed_batches_are_acked_but_not_applied(self, tmp_path):
        served = _ServedShard(tmp_path)
        events = _events(count=4)
        first, fresh = events[:6], events[6:]
        try:
            conn = socket.create_connection(served.address, timeout=2.0)
            conn.settimeout(2.0)
            try:
                send_frame(conn, {"op": "hello", "shard": 0})
                hello = recv_frame(conn)
                assert hello["op"] == "hello-ack" and hello["applied"] == 0

                send_raw_frame(conn, encode_wire_batches([(1, first)], encode_event))
                assert recv_frame(conn) == {"op": "ack", "seq": 1}
                # A reconnect replay of seq 1 (plus fresh seq 2) must
                # ack both while applying only the unseen batch.
                send_raw_frame(
                    conn,
                    encode_wire_batches([(1, first), (2, fresh)], encode_event),
                )
                assert recv_frame(conn) == {"op": "ack", "seq": 2}

                now = max(e.time for e in events) + 1.0
                send_frame(conn, {"op": "stats", "now": now})
                reply = recv_frame(conn)
                total_tasks = sum(s["tasks"] for s in reply["stats"].values())
                assert total_tasks == sum(
                    1 for e in events if isinstance(e, TaskCompleted)
                )
            finally:
                conn.close()
        finally:
            served.stop()

    def test_hello_shard_mismatch_is_fatal(self, tmp_path):
        served = _ServedShard(tmp_path)
        try:
            conn = socket.create_connection(served.address, timeout=2.0)
            conn.settimeout(2.0)
            try:
                send_frame(conn, {"op": "hello", "shard": 7})
                reply = recv_frame(conn)
                assert reply["op"] == "error"
                assert "mismatch" in reply["message"]
            finally:
                conn.close()
        finally:
            served.stop()


class TestRemoteHandleParity:
    """A shard behind a socket computes exactly in-process statistics."""

    def test_remote_stats_match_in_process(self, tmp_path):
        events = _events(seed=5, count=60)
        now = max(e.time for e in events) + 30.0
        served = _ServedShard(tmp_path)
        handle = RemoteShardHandle(0, served.address, config=SNAPPY)
        local = IngestShard(0, 600.0)
        try:
            for i in range(0, len(events), 16):
                handle.ingest(events[i : i + 16])
                local.ingest(events[i : i + 16])
            remote_stats = handle.drain_stats(now)
            local_stats = local.drain_stats(now)
            _stats_close(remote_stats, local_stats)
            state = handle.drain_state(now)
            local_state = local.drain_state(now)
            # ``seq`` is the journal high-water mark; only the served
            # shard owns a journal here, so compare the window itself.
            state.pop("seq", None)
            local_state.pop("seq", None)
            # The in-process shard hands over its live window; the wire
            # carries its bytes.
            local_state["window"] = local_state["window"].to_state()
            assert state == local_state
            # A checkpoint carries the shard's mark and no window bytes.
            remote = handle.checkpoint(now)
            local_mark = local.checkpoint(now)["mark"]
            assert set(remote) == {"shard", "mark"}
            assert isinstance(remote["mark"], ShardMark)
            assert remote["mark"][1:3] == local_mark[1:3]  # clock, ingest count
            assert 1 <= remote["mark"].mark <= remote["mark"].seq + 1
        finally:
            local.close()
            handle.close()
            served.stop()

    def test_restore_round_trip(self, tmp_path):
        events = _events(seed=6, count=40)
        now = max(e.time for e in events) + 1.0
        donor = IngestShard(0, 600.0)
        donor.ingest(events)
        window_state = donor.drain_state(now)["window"].to_state()
        donor.close()

        served = _ServedShard(tmp_path)
        handle = RemoteShardHandle(0, served.address, config=SNAPPY)
        try:
            handle.restore(window_state)
            _stats_close(
                handle.drain_stats(now), _oracle_stats(events, 600.0, now)
            )
        finally:
            handle.close()
            served.stop()


class TestReconnectDedupe:
    """Mid-stream partitions heal without losing or duplicating events."""

    def test_partition_heals_with_exact_journal(self, tmp_path):
        events = _events(seed=7, count=60)
        served = _ServedShard(tmp_path)
        handle = RemoteShardHandle(0, served.address, config=SNAPPY)
        try:
            half = len(events) // 2
            handle.ingest(events[:half])
            handle.drain_state(max(e.time for e in events[:half]))  # connected

            handle.inject_partition(0.3)
            # The tail is queued through the partition and replayed —
            # deduped at the server — once the window closes.
            for i in range(half, len(events), 8):
                handle.ingest(events[i : i + 8])
            with pytest.raises(ShardPartitionedError):
                handle.drain_state(0.0)

            time.sleep(0.45)
            deadline = time.monotonic() + 5.0
            while True:
                try:
                    handle.drain_state(max(e.time for e in events) + 1.0)
                    break
                except ShardPartitionedError:
                    assert time.monotonic() < deadline, "never reconnected"
                    time.sleep(0.02)
            assert handle.partitions >= 1
            assert handle.reconnects >= 1
            stats = handle.transport_stats()
            assert stats["reconnects"] == handle.reconnects
            assert stats["backpressure_dropped"] == 0
        finally:
            handle.close()
            served.stop()

        journaled = served.journaled()
        assert len(journaled) == len(events)
        keys = _event_keys(journaled)
        assert len(set(keys)) == len(keys), "duplicate events in journal"
        assert sorted(keys) == sorted(_event_keys(events))


class TestBackpressure:
    """The send queue is bounded: overflow drops are counted, not kept."""

    def test_unreachable_worker_drops_past_the_bound(self):
        # A port from the ephemeral range with no listener: every
        # connect attempt fails, so batches pile into the send queue.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        address = probe.getsockname()
        probe.close()

        config = TransportConfig(
            connect_timeout=0.2, backoff_base=0.02, backoff_max=0.1,
            send_queue_batches=4,
        )
        handle = RemoteShardHandle(0, address, config=config)
        events = _events(count=30)
        try:
            for i in range(0, len(events), 3):
                handle.ingest(events[i : i + 3])
            assert handle.pending_batches == 4
            expected_dropped = sum(
                1 for e in events[12:] if isinstance(e, TELEMETRY)
            )
            assert handle.backpressure_dropped == expected_dropped
            time.sleep(0.3)
            assert handle.connect_attempts >= 2  # retried under backoff
            assert handle.alive  # unsupervised: partition, not death
        finally:
            handle.kill()
        assert not handle.alive and handle.reason == "fenced"
        with pytest.raises(ShardFailedError):
            handle.drain_state(0.0)

    def test_drop_net_counts_telemetry_only(self, tmp_path):
        served = _ServedShard(tmp_path)
        handle = RemoteShardHandle(0, served.address, config=SNAPPY)
        events = _events(count=12)
        try:
            handle.inject_drop(1)
            batch = events[:6] + [Heartbeat(events[5].time)]
            handle.ingest(batch)  # dropped: telemetry counted, beat not
            handle.ingest(events[6:])
            assert handle.telemetry_dropped == 6
            handle.drain_state(max(e.time for e in events) + 1.0)
        finally:
            handle.close()
            served.stop()
        assert len(served.journaled()) == len(events) - 6


@st.composite
def partition_schedule(draw):
    """A random fault schedule over the chunked stream: per-chunk gap,
    an optional transient partition, latency, or a drop burst."""
    chunks = draw(st.integers(min_value=2, max_value=4))
    schedule = []
    for _ in range(chunks):
        kind = draw(
            st.sampled_from(["none", "partition", "latency", "drop", "partition"])
        )
        amount = 0.0
        if kind == "partition":
            amount = draw(st.floats(min_value=0.05, max_value=0.25))
        elif kind == "latency":
            amount = draw(st.floats(min_value=0.0, max_value=0.003))
        elif kind == "drop":
            amount = draw(st.integers(min_value=1, max_value=2))
        schedule.append((kind, amount))
    return schedule


class TestPartitionScheduleProperties:
    """For ANY transient partition/reconnect schedule, the journal holds
    exactly the routed telemetry minus the counted drops, with zero
    duplicates — at-least-once delivery plus idempotent apply."""

    @settings(max_examples=8, deadline=None)
    @given(schedule=partition_schedule())
    def test_journaled_equals_routed_minus_dropped(self, tmp_path_factory, schedule):
        tmp_path = tmp_path_factory.mktemp("transport-prop")
        events = _events(seed=11, count=48)
        chunk = max(1, len(events) // len(schedule))
        served = _ServedShard(tmp_path)
        handle = RemoteShardHandle(0, served.address, config=SNAPPY)
        partition_end = 0.0
        try:
            for index, (kind, amount) in enumerate(schedule):
                part = events[index * chunk :]
                if index < len(schedule) - 1:
                    part = events[index * chunk : (index + 1) * chunk]
                if kind == "partition":
                    handle.inject_partition(amount)
                    partition_end = max(
                        partition_end, time.monotonic() + amount
                    )
                elif kind == "latency":
                    handle.inject_latency(amount)
                elif kind == "drop":
                    handle.inject_drop(int(amount))
                for i in range(0, len(part), 6):
                    handle.ingest(part[i : i + 6])

            handle.inject_latency(0.0)
            time.sleep(max(0.0, partition_end - time.monotonic()) + 0.1)
            now = max(e.time for e in events) + 1.0
            deadline = time.monotonic() + 10.0
            while True:
                try:
                    handle.drain_state(now)
                    break
                except ShardPartitionedError:
                    assert time.monotonic() < deadline, "never reconnected"
                    time.sleep(0.02)
            dropped = handle.telemetry_dropped + handle.backpressure_dropped
        finally:
            handle.close()
            served.stop()

        journaled = served.journaled()
        assert len(journaled) == len(events) - dropped
        keys = _event_keys(journaled)
        assert len(set(keys)) == len(keys), "duplicate events in journal"
        assert set(keys) <= set(_event_keys(events))


class TestTcpCrashMatrix:
    """Every fault kind against the TCP loopback worker plane.

    The same post-mortem as test_failover's crash matrix: journals
    CRC-clean, survivors journal exactly the telemetry routed to them
    minus counted drops, merged statistics equal a batch recompute over
    the journaled set to 1e-9.
    """

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_fault_matrix_tcp(self, tmp_path, kind):
        shards, victim = 2, 1
        events = _events(seed=4, count=120, heartbeat_every=40)
        half = len(events) // 2
        amount = {
            "stall-shard": 1.0,
            "drop-batches": 2.0,
            "slow-journal": 2.0,
            "partition": 0.3,  # transient: heals under failover_after
            "slow-net": 5.0,  # ms per frame
            "drop-net": 2.0,
        }.get(kind)
        state = ServiceState(tmp_path, shards=shards)
        service = build_service(
            make_scenario("steady", scale=1.0, horizon=3600.0),
            ServiceConfig(window=600.0, retune_interval=300.0, min_window_jobs=3),
            seed=0,
            state=state,
            shards=shards,
            tcp_workers=True,
            failover=FAST,
        )
        injector = FaultInjector(
            [FaultSpec(kind=kind, at=1.0, shard=victim, amount=amount)], seed=0
        )
        injector.arm(service)
        service.ingest_batch(events[:half])
        assert injector.advance(10**9), "the scheduled fault must fire"
        service.ingest_batch(events[half:])
        if kind == "partition":
            time.sleep(amount + 0.2)  # heal before the barrier
        if kind == "stall-shard":
            # Give supervision time to notice the unresponsive worker.
            deadline = time.monotonic() + 5.0
            while not service.failovers and time.monotonic() < deadline:
                service.check_shards()
                time.sleep(0.05)

        merged = service.window
        snap, now = merged.snapshot(), merged.now
        failovers = list(service.failovers)
        transport = service.transport_stats()
        service.close()
        state.close()

        failed = {report.shard for report in failovers}
        if kind in ("kill-shard", "stall-shard"):
            assert failed == {victim}
            reason = failovers[0].reason
            if kind == "kill-shard":
                assert reason in ("fenced", "killed", "process-exit")
            else:
                assert reason in ("stall", "reply-timeout", "heartbeat-timeout")
        else:
            assert failed == set()  # transient faults never fail over
        if kind == "partition":
            totals = transport.get(victim, {})
            assert totals.get("partitions", 0) >= 1
            assert totals.get("reconnects", 0) >= 1

        router = ShardRouter(shards)
        routed = [[] for _ in range(shards)]
        for event in events:
            if isinstance(event, TELEMETRY):
                routed[router.route(event)].append(event)
        reader = ServiceState(tmp_path, shards=shards)
        try:
            journaled = [
                [
                    decode_event(record.data)
                    for record in reader.shard_journal(i).iter_records()
                    if record.kind == "event"
                    and record.data.get("type")
                    in ("JobSubmitted", "TaskCompleted", "JobCompleted")
                ]
                for i in range(shards)
            ]
        finally:
            reader.close()
        dropped = injector.dropped_by_shard()
        for i in range(shards):
            expected = len(routed[i]) - dropped.get(i, 0)
            if i in failed:
                # The fenced worker's queue residue and truncated tail
                # are the failover's bounded loss; never a survivor's.
                assert 0 <= len(journaled[i]) <= expected
            else:
                assert len(journaled[i]) == expected, f"shard {i} lost events"
            keys = _event_keys(journaled[i])
            assert len(set(keys)) == len(keys), f"shard {i} duplicates"

        _stats_close(
            snap,
            _oracle_stats(
                [e for part in journaled for e in part], service.config.window, now
            ),
        )


class TestServicePartitionPolicy:
    """Degraded-mode serving through a transient partition; fencing and
    journal-replay failover once a partition outlives ``failover_after``."""

    def _build(self, tmp_path, observe=False):
        state = ServiceState(tmp_path, shards=2)
        service = build_service(
            make_scenario("steady", scale=1.0, horizon=3600.0),
            ServiceConfig(
                window=600.0,
                retune_interval=300.0,
                min_window_jobs=3,
                observe=observe,
            ),
            seed=0,
            state=state,
            shards=2,
            tcp_workers=True,
            failover=FAST,
        )
        return state, service

    def _control_kinds(self, tmp_path):
        reader = ServiceState(tmp_path, shards=2)
        try:
            return [
                record.data.get("type")
                for record in reader.journal.iter_records()
                if record.kind == "event"
            ]
        finally:
            reader.close()

    def test_transient_partition_serves_stale_then_recovers(self, tmp_path):
        events = _events(seed=8, count=120, heartbeat_every=40)
        half = len(events) // 2
        state, service = self._build(tmp_path, observe=True)
        try:
            service.ingest_batch(events[:half])
            service.window  # cache merged stats for degraded serving

            service.shards[1].inject_partition(0.35)
            stale = service.window  # barrier during the partition
            assert service.stale_serves >= 1
            assert stale is not None

            time.sleep(0.55)  # heal: shorter than failover_after overall
            service.ingest_batch(events[half:])
            merged = service.window
            snap, now = merged.snapshot(), merged.now

            assert not list(service.failovers)  # transient: no failover
            totals = service.transport_stats()[1]
            assert totals["reconnects"] >= 1
            assert totals["partitions"] >= 1

            # The scraped counters surface as registry series.
            service._observe_transport()
            assert (
                service.metrics.counter_value(
                    "tempo_transport_reconnects_total", shard="1"
                )
                >= 1.0
            )
        finally:
            service.close()
            state.close()

        kinds = self._control_kinds(tmp_path)
        assert "ShardPartitioned" in kinds
        assert "ShardReconnected" in kinds

        reader = ServiceState(tmp_path, shards=2)
        try:
            journaled = [
                decode_event(record.data)
                for i in range(2)
                for record in reader.shard_journal(i).iter_records()
                if record.kind == "event"
                and record.data.get("type")
                in ("JobSubmitted", "TaskCompleted", "JobCompleted")
            ]
        finally:
            reader.close()
        telemetry = [e for e in events if isinstance(e, TELEMETRY)]
        assert len(journaled) == len(telemetry)  # zero loss through heal
        _stats_close(snap, _oracle_stats(journaled, service.config.window, now))

    def test_lethal_partition_fences_and_fails_over(self, tmp_path):
        events = _events(seed=9, count=120, heartbeat_every=40)
        half = len(events) // 2
        state, service = self._build(tmp_path)
        try:
            service.ingest_batch(events[:half])
            service.window

            service.shards[1].inject_partition(3.0)  # > failover_after
            deadline = time.monotonic() + 8.0
            while not service.failovers and time.monotonic() < deadline:
                service.check_shards()
                time.sleep(0.05)
            failovers = list(service.failovers)
            assert [report.shard for report in failovers] == [1]
            assert failovers[0].reason in ("partition", "heartbeat-timeout")
            assert failovers[0].replayed >= 0

            service.ingest_batch(events[half:])  # replacement takes over
            merged = service.window
            snap, now = merged.snapshot(), merged.now
        finally:
            service.close()
            state.close()

        reader = ServiceState(tmp_path, shards=2)
        try:
            journaled = [
                decode_event(record.data)
                for i in range(2)
                for record in reader.shard_journal(i).iter_records()
                if record.kind == "event"
                and record.data.get("type")
                in ("JobSubmitted", "TaskCompleted", "JobCompleted")
            ]
        finally:
            reader.close()
        keys = _event_keys(journaled)
        assert len(set(keys)) == len(keys), "failover duplicated events"
        _stats_close(snap, _oracle_stats(journaled, service.config.window, now))
