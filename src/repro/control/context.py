"""Live-state views consumed by feedback-driven control policies.

The paper's control planes decide from *planned* capacity: the Resource
Manager sees demand estimates and multiplier heartbeats, the Load Balancer
sees the allocation plan.  The simulator, however, already tracks the live
signals a real control plane would feed back on — per-worker queue depths,
in-flight batches, streaming latency quantiles, drop counters.  This module
defines the read-only snapshot types that expose those signals to policies:

* :class:`WorkerView` / :class:`ClusterView` — one immutable snapshot of the
  worker fleet (queue depth, in-flight count, effective service rate, recent
  completions per logical worker), assembled by the cluster each control
  period and on demand by dispatch-time routing probes;
* :class:`TelemetryWindow` — the telemetry half of the feedback loop: exact
  per-window latency quantiles, windowed completion/drop/late counts and the
  resulting violation rates, plus the control plane's demand estimate;
* :class:`ControlContext` — what :class:`~repro.control.engine.ControlPlaneEngine`
  hands to :meth:`AllocationPolicy.allocate` and the routing refresh each
  control period: ``now_s`` + ClusterView + TelemetryWindow.

Everything here is a frozen dataclass holding tuples: snapshots are values,
never live handles, so a policy cannot mutate simulator state through them and
two policies consulting the same context see identical numbers.

The dispatch-time counterpart (per-draw rather than per-period) is the
:class:`ClusterStateProvider.queue_snapshot` probe, which the dynamic routing
choosers (:mod:`repro.control.routing`) consult on the hot path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Protocol, Sequence, Tuple, runtime_checkable

__all__ = [
    "WorkerView",
    "ClusterView",
    "TelemetryWindow",
    "ControlContext",
    "ClusterStateProvider",
]


@dataclass(frozen=True)
class WorkerView:
    """Read-only snapshot of one logical (plan) worker's live state."""

    #: logical plan-worker id (``task/variant/bN/replica``)
    worker_id: str
    #: physical worker currently hosting it
    physical_id: str
    task: str
    variant_name: str
    #: queries waiting in the worker's queue
    queue_depth: int
    #: queries in the batch currently executing (0 when idle)
    in_flight: int
    #: effective service rate of the configured batch:
    #: ``batch_size / execution_latency(batch_size)`` in queries/s
    service_rate_qps: float
    #: queries completed since the previous ClusterView snapshot
    recent_completions: int
    #: whether the hosted model has finished loading
    loaded: bool = True
    #: seconds until the hosted model finishes loading (0.0 when ``loaded``);
    #: non-zero right after a cold start or a fault recovery rehost
    ready_in_s: float = 0.0

    @property
    def backlog(self) -> int:
        """Queued plus executing queries."""
        return self.queue_depth + self.in_flight

    @property
    def expected_wait_s(self) -> float:
        """Backlog normalised by service rate plus any remaining model-load
        time (the JSQ ranking signal) — a just-recovered worker with an empty
        queue but a model still loading is *not* free capacity."""
        if self.service_rate_qps <= 0.0:
            return math.inf
        return self.ready_in_s + self.backlog / self.service_rate_qps


@dataclass(frozen=True)
class ClusterView:
    """Immutable per-control-period snapshot of the whole worker fleet.

    Built by :meth:`repro.simulator.cluster.Cluster.cluster_view`; an engine
    with no cluster attached (unit tests, analytic harnesses) uses
    :meth:`empty`, whose totals are all zero.
    """

    now_s: float
    workers: Tuple[WorkerView, ...] = ()
    #: physical fleet size (the cluster's ``S`` GPUs)
    num_physical: int = 0
    #: physical workers currently active (hosting some assignment)
    active_workers: int = 0
    #: physical workers currently hard-failed
    failed_workers: int = 0
    #: logical plan workers the last plan wanted but nothing could host
    unhosted_logical: int = 0

    @classmethod
    def empty(cls, now_s: float) -> "ClusterView":
        return cls(now_s=now_s)

    @cached_property
    def _by_id(self) -> Dict[str, WorkerView]:
        return {w.worker_id: w for w in self.workers}

    @cached_property
    def _by_task(self) -> Dict[str, Tuple[WorkerView, ...]]:
        grouped: Dict[str, List[WorkerView]] = {}
        for worker in self.workers:
            grouped.setdefault(worker.task, []).append(worker)
        return {task: tuple(views) for task, views in grouped.items()}

    def worker(self, worker_id: str) -> WorkerView:
        return self._by_id[worker_id]

    def get(self, worker_id: str) -> Optional[WorkerView]:
        return self._by_id.get(worker_id)

    def by_task(self, task: str) -> Tuple[WorkerView, ...]:
        return self._by_task.get(task, ())

    @cached_property
    def total_queue_depth(self) -> int:
        return sum(w.queue_depth for w in self.workers)

    @cached_property
    def total_in_flight(self) -> int:
        return sum(w.in_flight for w in self.workers)

    @property
    def total_backlog(self) -> int:
        return self.total_queue_depth + self.total_in_flight


@dataclass(frozen=True)
class TelemetryWindow:
    """Telemetry aggregates since the previous control period.

    Counts (``completed``/``dropped``/``late``) are deltas over the window,
    and the latency quantiles are *windowed* too: exact quantiles over the
    latencies observed since the last committed context (falling back to the
    previous window while the current one is empty, and NaN before any
    sample).  A transient tail spike therefore decays out of ``p99`` within
    one window of the traffic returning to normal instead of lingering for
    the rest of the run.  All fields are plain floats/ints so windows are
    picklable and comparable.
    """

    #: wall of the window in simulated seconds (0.0 on the first period)
    window_s: float = 0.0
    completed: int = 0
    dropped: int = 0
    late: int = 0
    #: exact per-window quantiles over completed+late requests (NaN until
    #: the first sample arrives)
    p50_latency_ms: float = math.nan
    p99_latency_ms: float = math.nan
    #: the control plane's current demand estimate (qps)
    demand_qps: float = 0.0
    #: resilience-layer activity over the window (all 0 with the layer off):
    #: retries scheduled, queries failover-re-queued off failed workers, and
    #: requests force-dropped by their timeout
    retries: int = 0
    failover_requeued: int = 0
    timeouts: int = 0

    @property
    def finished(self) -> int:
        return self.completed + self.dropped + self.late

    @property
    def retry_pressure(self) -> float:
        """Retry + failover work per finished request over the window.

        A policy-facing overload/instability signal: 0.0 in calm (or
        resilience-off) runs, rising when the resilience layer is busy
        masking faults — sustained pressure means capacity is being spent
        re-doing work and the plan should react.
        """
        finished = self.finished
        return (self.retries + self.failover_requeued) / finished if finished else 0.0

    @property
    def drop_rate(self) -> float:
        finished = self.finished
        return self.dropped / finished if finished else 0.0

    @property
    def violation_rate(self) -> float:
        """Windowed SLO violation ratio (dropped + late over finished)."""
        finished = self.finished
        return (self.dropped + self.late) / finished if finished else 0.0


@dataclass(frozen=True)
class ControlContext:
    """Everything a feedback-driven policy may consult in one control period."""

    now_s: float
    view: ClusterView
    window: TelemetryWindow = field(default_factory=TelemetryWindow)
    #: the engine's configured end-to-end latency SLO
    latency_slo_ms: float = 0.0


@runtime_checkable
class ClusterStateProvider(Protocol):
    """What the engine needs from a live cluster to build contexts and probes.

    ``queue_snapshot`` is the dispatch-time hot-path probe: given logical
    worker ids it returns ``(backlogs, service_rates)`` aligned with the
    input.  Unhosted / failed ids come back as ``(inf, 0.0)`` so queue-aware
    choosers naturally route around them.
    """

    def cluster_view(self, now_s: float) -> ClusterView:
        ...  # pragma: no cover - protocol

    def queue_snapshot(self, worker_ids: Sequence[str]) -> Tuple[List[float], List[float]]:
        ...  # pragma: no cover - protocol
