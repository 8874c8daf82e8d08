"""The task schedule artifact produced by simulators.

A :class:`TaskSchedule` is a :class:`~repro.workload.trace.Trace` — the
(start, end, resource) record per task that Section 3.2 defines — with
provenance attached: which cluster and RM configuration produced it.
QS metrics consume it directly.

The simulators hand it one plain row per task attempt, in
:class:`~repro.workload.trace.TaskRecord` field order.  The records
are built (each through its constructor and checks) the first time
anything reads task-level data; a consumer that reads only job records
— the job-level QS metrics a what-if evaluation usually asks for —
never pays for them.
"""

from __future__ import annotations

from functools import cached_property
from operator import itemgetter
from typing import Iterable

from repro.rm.cluster import ClusterSpec
from repro.rm.config import RMConfig
from repro.workload.trace import JobRecord, TaskRecord, Trace

#: Trace order of task rows: (start_time, task_id, attempt).
_ROW_ORDER = itemgetter(6, 1, 11)


class TaskSchedule(Trace):
    """A trace plus the cluster/config provenance that produced it."""

    def __init__(
        self,
        task_rows: Iterable[tuple],
        job_records: Iterable[JobRecord],
        *,
        cluster: ClusterSpec,
        config: RMConfig | None = None,
        horizon: float,
    ):
        super().__init__((), job_records, capacity=cluster.as_dict(), horizon=horizon)
        del self._tasks  # built from the rows on first read
        self._rows = list(task_rows)
        self.cluster = cluster
        self.config = config

    @cached_property
    def _tasks(self) -> list[TaskRecord]:
        """The attempt rows as records, in trace order (rows then dropped)."""
        self._rows.sort(key=_ROW_ORDER)
        tasks = [TaskRecord(*row) for row in self._rows]
        self._rows = []
        return tasks

    def __repr__(self) -> str:
        return (
            f"TaskSchedule(tasks={len(self)}, "
            f"jobs={len(self._jobs)}, cluster={self.cluster.name}, "
            f"horizon={self.horizon:.0f}s)"
        )
