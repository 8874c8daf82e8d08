"""Online serving layer: the streaming Tempo daemon.

The batch reproduction runs one-shot control loops over materialized
workloads; this subpackage turns it into an operable online system, as
the paper's deployment story requires (a long-running tuner beside a
live Resource Manager):

* :mod:`repro.service.events` — typed telemetry events and a bounded
  thread-safe event bus;
* :mod:`repro.service.ingest` — O(1)-per-event rolling-window workload
  statistics with a batch-recompute verification path;
* :mod:`repro.service.daemon` — :class:`TempoService`, the cadence loop
  with stability/sparsity guards and atomic config snapshot/rollback;
* :mod:`repro.service.journal` — the append-only, CRC-framed,
  segment-rotated write-ahead journal of every event, decision, applied
  configuration, and rollback;
* :mod:`repro.service.sharding` — the per-tenant sharded data plane:
  :class:`ShardRouter` (stable tenant-hash routing), :class:`IngestShard`
  (own bus + window + journal per shard, in-process or as loopback
  TCP workers), merged by the control plane at each retune cadence;
* :mod:`repro.service.snapshot` — periodic full-state snapshots over
  the journal and the :class:`ServiceState` facade owning a state
  directory, enabling :meth:`TempoService.resume` crash recovery;
* :mod:`repro.service.replay` — a scenario catalog (flash crowd,
  diurnal wave, tenant churn, failure storm) and the replay driver that
  feeds scenarios through the service — continuously by default, so
  backlog compounds across retune intervals — at a speedup factor;
* :mod:`repro.service.failover` — the failover plane: heartbeat
  failure detection, supervised shard replacement with bounded journal
  replay, and the deterministic :class:`FaultInjector` / ``repro
  chaos`` harness that makes every failure mode a reproducible test;
* :mod:`repro.service.transport` — the network data plane:
  length-prefixed CRC-framed TCP transport, ``repro worker`` shard
  servers, and :class:`RemoteShardHandle` — retrying, deduping,
  partition-tolerant — presenting the same shard surface as an
  in-process shard; the one way a shard runs in its own process.
"""

from repro.service.events import (
    DecisionMade,
    EventBus,
    Heartbeat,
    JobCompleted,
    JobSubmitted,
    NodeLost,
    NodeRecovered,
    ServiceEvent,
    ShardFailed,
    ShardPartitioned,
    ShardReconnected,
    ShardRecovered,
    TaskCompleted,
    TenantJoined,
    TenantLeft,
)
from repro.service.failover import (
    ChaosReport,
    FailoverConfig,
    FailoverReport,
    FailureDetector,
    FaultInjector,
    FaultSpec,
    parse_fault,
    run_chaos,
)
from repro.service.ingest import (
    RollingWindow,
    TenantWindowStats,
    stats_gap,
    window_drift,
)
from repro.service.daemon import (
    ConfigSnapshot,
    RetuneDecision,
    ServiceConfig,
    TempoService,
)
from repro.service.journal import (
    EventJournal,
    JournalError,
    JournalRecord,
    decode_event,
    encode_event,
)
from repro.service.sharding import (
    IngestShard,
    ShardFailedError,
    ShardHandle,
    ShardPartitionedError,
    ShardRouter,
    stable_shard,
    tenant_of,
)
from repro.service.snapshot import ServiceState, SnapshotStore
from repro.service.transport import (
    RemoteShardHandle,
    ShardServer,
    TransportConfig,
    TransportError,
    WorkerLauncher,
    serve_shard,
    start_remote_shards,
)
from repro.service.replay import (
    SCENARIOS,
    ReplaySummary,
    Scenario,
    ScenarioReplayer,
    build_controller,
    build_service,
    convert_rm_log,
    dump_trace_events,
    events_from_trace,
    load_trace_events,
    make_scenario,
    replay_trace,
)

__all__ = [
    "ServiceEvent",
    "JobSubmitted",
    "TaskCompleted",
    "JobCompleted",
    "NodeLost",
    "NodeRecovered",
    "TenantJoined",
    "TenantLeft",
    "Heartbeat",
    "ShardFailed",
    "ShardPartitioned",
    "ShardReconnected",
    "ShardRecovered",
    "DecisionMade",
    "EventBus",
    "RollingWindow",
    "TenantWindowStats",
    "stats_gap",
    "window_drift",
    "ServiceConfig",
    "RetuneDecision",
    "ConfigSnapshot",
    "TempoService",
    "EventJournal",
    "JournalError",
    "JournalRecord",
    "encode_event",
    "decode_event",
    "ServiceState",
    "SnapshotStore",
    "IngestShard",
    "ShardFailedError",
    "ShardHandle",
    "ShardPartitionedError",
    "ShardRouter",
    "stable_shard",
    "tenant_of",
    "RemoteShardHandle",
    "ShardServer",
    "TransportConfig",
    "TransportError",
    "WorkerLauncher",
    "serve_shard",
    "start_remote_shards",
    "FailoverConfig",
    "FailureDetector",
    "FailoverReport",
    "FaultSpec",
    "parse_fault",
    "FaultInjector",
    "ChaosReport",
    "run_chaos",
    "Scenario",
    "SCENARIOS",
    "make_scenario",
    "build_controller",
    "build_service",
    "ScenarioReplayer",
    "ReplaySummary",
    "dump_trace_events",
    "load_trace_events",
    "replay_trace",
    "events_from_trace",
    "convert_rm_log",
]
