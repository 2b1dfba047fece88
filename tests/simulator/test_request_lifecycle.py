"""The simulator's one request lifecycle, step by step.

Every client query takes the same path: an :class:`ArrivalEvent` calls
``Frontend.submit``, which routes it with one routing draw and one
network-delay draw; a :class:`DeliveryEvent` hands it to
``SimWorker.enqueue``, where the drop policy decides on arrival; the worker
runs batches that end in a :class:`BatchCompleteEvent`; a completed query
either returns to the Frontend (sink tasks) or has its downstream fan-out
sampled, each child being routed and forwarded on its own.  Resilience
re-deliveries go through :class:`RoutedDeliveryEvent`, which resolves its
worker when it fires.

The tests below pin each step's bookkeeping, and the heap calendar's
execution order against a reference model.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dropping import POLICY_NAMES
from repro.scenarios import ScenarioSpec, get_scenario
from repro.simulator import SimulationConfig
from repro.simulator.engine import SimulationEngine
from repro.simulator.events import (
    ArrivalEvent,
    BatchCompleteEvent,
    CallbackEvent,
    ControlTickEvent,
    DeliveryEvent,
    EventQueue,
    RoutedDeliveryEvent,
)
from repro.simulator.metrics import MetricsCollector
from repro.simulator.network import NetworkModel
from repro.simulator.query import Request, RequestStatus
from repro.simulator.runner import ServingSimulation
from repro.workloads.arrivals import ARRIVAL_PROCESSES


# --------------------------------------------------------------------- helpers
def _smoke(**overrides):
    """Bootstrapped smoke simulation: single sink task, plan applied, clock 0."""
    simulation = get_scenario("smoke").with_overrides(**overrides).build(seed=0)
    simulation._bootstrap()
    return simulation


def _traffic(**overrides):
    """Bootstrapped fig5-shaped simulation: detection fans out to two tasks."""
    spec = get_scenario("traffic_worker_failure").with_overrides(
        trace_params={"qps": 1.0, "duration_s": 15}, faults=(), **overrides
    )
    simulation = spec.build(seed=0)
    simulation._bootstrap()
    return simulation


def _worker_for(simulation, task):
    return next(
        w
        for w in simulation.cluster.workers
        if w.assignment is not None and w.assignment.task == task
    )


def _query(simulation, task, arrival_s=None):
    """A fresh request's root query, accounted as in ``Frontend.submit``."""
    now = simulation.engine.now_s
    arrival = now if arrival_s is None else arrival_s
    request = Request(simulation._next_query_id, arrival, simulation.pipeline.latency_slo_ms)
    request.add_outstanding(1)
    query = simulation.new_intermediate_query(request, task, now, 1.0)
    query.worker_arrival_s = now
    return query


def _events_after(simulation, seq):
    """Live events pushed after sequence number ``seq``, in calendar order."""
    return [
        entry[2]
        for entry in sorted(simulation.engine.queue._heap, key=lambda e: (e[0], e[1]))
        if entry[1] > seq and not entry[2].cancelled
    ]


def _hop_bounds_s(simulation):
    network = simulation.network
    return (
        (network.latency_ms - network.jitter_ms) / 1000.0,
        (network.latency_ms + network.jitter_ms) / 1000.0,
    )


# ------------------------------------------------------- heap calendar order
#: coarse time grid => heavy equal-time ties (the FIFO tie-break is the point)
_times = st.integers(min_value=0, max_value=12).map(lambda k: k * 0.25)
_event = st.tuples(
    _times,
    st.lists(st.integers(min_value=0, max_value=8).map(lambda k: k * 0.125), max_size=2),
    st.lists(st.integers(min_value=0, max_value=19), max_size=2),
)


def _engine_order(schedule, horizons=(), stepwise=False):
    """Run a generated schedule on the engine; returns the execution order.

    Event ``i`` of ``schedule`` = (time, child_delays, cancel_targets) fires
    at ``time``, schedules one child per delay and cancels the listed root
    events by index -- mid-run scheduling and mid-run cancellation.
    """
    engine = SimulationEngine()
    order = []
    handles = {}

    def make_action(label, child_delays, cancel_targets):
        def action():
            order.append((engine.now_s, label))
            for k, delay in enumerate(child_delays):
                engine.schedule(engine.now_s + delay, make_action((label, k), (), ()))
            for target in cancel_targets:
                handle = handles.get(target)
                if handle is not None:
                    handle.cancel()

        return action

    for i, (time_s, child_delays, cancel_targets) in enumerate(schedule):
        handles[i] = engine.schedule(time_s, make_action(i, child_delays, cancel_targets))
    for horizon in sorted(horizons):
        engine.run(until_s=horizon)
    if stepwise:
        while engine.step():
            pass
    else:
        engine.run()
    return order


def _reference_order(schedule):
    """Independent model: always run the pending event with the least
    (time, insertion sequence), skipping cancelled ones."""
    pending = [(t, i, i, delays, cancels) for i, (t, delays, cancels) in enumerate(schedule)]
    cancelled = set()
    next_seq = len(schedule)
    order = []
    while pending:
        pending.sort(key=lambda e: (e[0], e[1]))
        time_s, seq, label, delays, cancels = pending.pop(0)
        if seq in cancelled:
            continue
        order.append((time_s, label))
        for k, delay in enumerate(delays):
            pending.append((time_s + delay, next_seq, (label, k), (), ()))
            next_seq += 1
        for target in cancels:
            if target < len(schedule):  # root events carry seq == index
                cancelled.add(target)
    return order


class TestCalendarOrder:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(_event, max_size=20))
    def test_execution_order_matches_reference_model(self, schedule):
        assert _engine_order(schedule) == _reference_order(schedule)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_event, max_size=20), st.lists(_times, max_size=4))
    def test_runs_split_at_horizons_match_one_run(self, schedule, horizons):
        assert _engine_order(schedule, horizons=horizons) == _engine_order(schedule)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_event, max_size=20))
    def test_stepping_matches_running(self, schedule):
        assert _engine_order(schedule, stepwise=True) == _engine_order(schedule)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(_times, max_size=80),
        st.lists(_times, max_size=12),
    )
    def test_bulk_preload_matches_individual_pushes(self, base, batch):
        """Both ``extend`` strategies (re-heapify, per-event push into a big
        calendar) pop in the same order as one push per event."""
        times = list(base) + list(batch)
        popped = {"pushed": [], "loaded": []}

        def events(name, start, stop):
            return [
                CallbackEvent(times[i], lambda i=i: popped[name].append((times[i], i)))
                for i in range(start, stop)
            ]

        pushed, loaded = EventQueue(), EventQueue()
        for event in events("pushed", 0, len(times)):
            pushed.push(event)
        loaded.extend(events("loaded", 0, len(base)))  # whole-calendar load
        loaded.extend(events("loaded", len(base), len(times)))  # small batch on top
        for queue in (pushed, loaded):
            while queue:
                queue.pop().run()
        expected = sorted((t, i) for i, t in enumerate(times))
        assert popped["pushed"] == expected
        assert popped["loaded"] == expected


# ------------------------------------------------------- request state machine
_op = st.one_of(
    st.tuples(st.just("sink"), st.floats(0.0, 0.5), st.floats(0.0, 1.0)),
    st.tuples(st.just("drop"), st.floats(0.0, 0.5), st.none()),
    st.tuples(st.just("internal"), st.floats(0.0, 0.5), st.none()),
    st.tuples(st.just("add"), st.integers(1, 3), st.none()),
)


class TestRequestStateMachine:
    @given(
        arrival=st.floats(0.0, 10.0),
        slo_ms=st.floats(1.0, 500.0),
        ops=st.lists(_op, min_size=1, max_size=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_request_matches_reference_bookkeeping(self, arrival, slo_ms, ops):
        """Outstanding never goes negative, the terminal status is set exactly
        once, and a drop dominates the on-time/late classification."""
        request = Request(0, arrival, slo_ms)
        request.add_outstanding(1)
        deadline = arrival + slo_ms / 1000.0
        model = {"outstanding": 1, "drops": 0, "acc_sum": 0.0, "acc_count": 0, "done_at": None}
        now = arrival
        for kind, a, b in ops:
            if kind == "add":
                if model["done_at"] is not None:
                    continue
                request.add_outstanding(a)
                model["outstanding"] += a
                continue
            now += a
            if model["done_at"] is not None:
                with pytest.raises(RuntimeError):
                    request.record_internal_completion(now)
                break
            if kind == "sink":
                request.record_sink_completion(now, b)
                model["acc_sum"] += b
                model["acc_count"] += 1
            elif kind == "drop":
                request.record_drop(now)
                model["drops"] += 1
            else:
                request.record_internal_completion(now)
            model["outstanding"] -= 1
            if model["outstanding"] == 0:
                model["done_at"] = now
            assert request.outstanding == model["outstanding"]
            assert request.drops == model["drops"]
            assert request.accuracy_count == model["acc_count"] == request.sink_results
            assert request.accuracy_sum == pytest.approx(model["acc_sum"])
            assert request.is_finished == (model["done_at"] is not None)
        if model["done_at"] is None:
            assert request.status is RequestStatus.IN_FLIGHT
            assert request.completion_s is None and request.latency_ms is None
        else:
            assert request.completion_s == model["done_at"]
            if model["drops"]:
                expected = RequestStatus.DROPPED
            elif model["done_at"] <= deadline + 1e-9:
                expected = RequestStatus.COMPLETED
            else:
                expected = RequestStatus.LATE
            assert request.status is expected
            assert request.violates_slo == (expected is not RequestStatus.COMPLETED)
            assert request.latency_ms == pytest.approx((model["done_at"] - arrival) * 1000.0)


# ------------------------------------------------------------------- frontend
class TestFrontendSubmit:
    def test_submit_routes_root_query_after_one_network_hop(self):
        simulation = _smoke()
        seq = simulation.engine.queue._seq
        request = simulation.frontend.submit()
        (event,) = _events_after(simulation, seq)
        assert isinstance(event, DeliveryEvent)
        assert event.query.request is request
        assert event.query.task == simulation.pipeline.root
        root_workers = {
            simulation.cluster.resolve(e.worker_id)
            for e in simulation.routing_plan.frontend_table.entries(simulation.pipeline.root)
        }
        assert event.worker in root_workers
        low, high = _hop_bounds_s(simulation)
        assert low <= event.time_s <= high
        assert request.outstanding == 1
        assert simulation.forwarded_queries == 1
        assert simulation.metrics.total_requests == 1
        assert simulation.telemetry.counter("frontend.requests").value == 1

    def test_submit_without_routing_plan_drops_every_request(self):
        simulation = _smoke()
        simulation.routing_plan = None
        requests = [simulation.frontend.submit() for _ in range(3)]
        assert simulation.frontend.rejected_no_plan == 3
        assert simulation.frontend.total_submitted == 3
        assert simulation.dropped_queries == 3
        assert simulation.drop_reasons == {"no frontend route available": 3}
        assert simulation.metrics.total_requests == 3
        assert simulation.metrics.dropped_requests == 3
        assert all(r.status is RequestStatus.DROPPED for r in requests)
        assert simulation.telemetry.counter("frontend.rejected_no_route").value == 3

    def test_request_ids_are_sequential_and_deadlines_follow_the_slo(self):
        simulation = _smoke()
        submitted = []
        for time_s in (0.1, 0.1, 0.35, 0.7):
            simulation.engine.schedule(time_s, lambda: submitted.append(simulation.frontend.submit()))
        simulation.engine.run(until_s=0.8)
        assert [r.request_id for r in submitted] == [0, 1, 2, 3]
        assert [r.arrival_s for r in submitted] == [0.1, 0.1, 0.35, 0.7]
        slo_s = simulation.config.latency_slo_ms / 1000.0
        for request in submitted:
            assert request.deadline_s == pytest.approx(request.arrival_s + slo_s)

    def test_window_demand_drains_once(self):
        simulation = _smoke()
        for _ in range(5):
            simulation.frontend.submit()
        assert simulation.frontend.drain_window_demand() == 5
        assert simulation.frontend.drain_window_demand() == 0
        assert simulation.frontend.total_submitted == 5


# ---------------------------------------------------------------- arrivals
class TestArrivalSchedule:
    def _calendar(self, simulation):
        simulation._schedule_workload()
        return [e[2] for e in sorted(simulation.engine.queue._heap, key=lambda e: (e[0], e[1]))]

    def test_every_sampled_arrival_is_preloaded_once_in_order(self):
        simulation = _smoke()
        events = self._calendar(simulation)
        arrivals = [e for e in events if isinstance(e, ArrivalEvent)]
        assert [e.time_s for e in arrivals] == simulation._arrival_times.tolist()
        assert all(e.frontend is simulation.frontend for e in arrivals)

    def test_one_control_tick_closes_every_trace_second(self):
        simulation = _smoke()
        ticks = [e for e in self._calendar(simulation) if isinstance(e, ControlTickEvent)]
        assert [t.time_s for t in ticks] == [
            float(second + 1) - 1e-6 for second in range(simulation.trace.duration_s)
        ]

    def test_chunked_preload_submits_every_arrival(self, monkeypatch):
        monkeypatch.setattr(ServingSimulation, "ARRIVAL_CHUNK", 50)
        simulation = _smoke()
        events = self._calendar(simulation)
        arrivals = [e for e in events if isinstance(e, ArrivalEvent)]
        refills = [e for e in events if isinstance(e, CallbackEvent)]
        assert len(arrivals) == 50
        assert len(refills) == 1 and refills[0].time_s == arrivals[-1].time_s
        simulation.engine.run(until_s=simulation.trace.duration_s + simulation.config.drain_s)
        assert simulation.frontend.total_submitted == len(simulation._arrival_times)


class TestArrivalDemand:
    @pytest.mark.parametrize("interval_s", [0.25, 1.0, 2.5])
    def test_demand_per_interval_matches_histogram(self, interval_s):
        rng = np.random.default_rng(5)
        times = np.sort(rng.uniform(0.0, 37.0, size=4_000))
        collector = MetricsCollector(cluster_size=4, interval_s=interval_s)
        for t in times:
            collector.record_arrival(float(t))
        expected = np.bincount((times // interval_s).astype(int))
        assert collector.total_requests == times.shape[0]
        observed = {k: v.demand for k, v in collector.intervals.items()}
        assert observed == {k: int(n) for k, n in enumerate(expected) if n}
        for index, interval in collector.intervals.items():
            assert interval.start_s == pytest.approx(index * interval_s)

    def test_interval_boundaries_are_half_open(self):
        collector = MetricsCollector(cluster_size=1, interval_s=2.5)
        for t in (0.0, 2.4, 2.5, 7.4, 7.6):
            collector.record_arrival(t)
        assert collector.total_requests == 5
        assert {k: v.demand for k, v in collector.intervals.items()} == {0: 2, 1: 1, 2: 1, 3: 1}


# ------------------------------------------------------------------- network
class TestNetworkHop:
    @pytest.mark.parametrize("delay_scale", [1.0, 2.5])
    def test_delay_seconds_equal_latency_milliseconds_draw_for_draw(self, delay_scale):
        model = NetworkModel(latency_ms=2.0, jitter_ms=0.5)
        model.delay_scale = delay_scale
        in_seconds = np.random.default_rng(3)
        in_millis = np.random.default_rng(3)
        for _ in range(300):
            assert model.sample_delay_s(in_seconds) == model.sample_latency_ms(in_millis) / 1000.0
        assert in_seconds.bit_generator.state == in_millis.bit_generator.state

    def test_jitter_wider_than_latency_clamps_at_zero(self):
        model = NetworkModel(latency_ms=0.2, jitter_ms=1.0)
        rng = np.random.default_rng(11)
        samples = [model.sample_delay_s(rng) for _ in range(500)]
        assert min(samples) == 0.0
        assert max(samples) <= 1.2 / 1000.0

    def test_jittered_delays_are_centred_on_the_latency(self):
        model = NetworkModel(latency_ms=3.0, jitter_ms=1.0)
        rng = np.random.default_rng(9)
        samples = np.array([model.sample_delay_s(rng) for _ in range(20_000)])
        assert samples.mean() == pytest.approx(0.003, rel=0.01)
        # uniform on [2, 4] ms: standard deviation 2 / sqrt(12) ms
        assert samples.std() == pytest.approx(0.002 / np.sqrt(12.0), rel=0.05)


# -------------------------------------------------------------- worker intake
class TestWorkerIntake:
    def test_failed_worker_drops_arrivals_as_fault_losses(self):
        simulation = _smoke()
        worker = _worker_for(simulation, simulation.pipeline.root)
        worker.fail()
        query = _query(simulation, simulation.pipeline.root)
        worker.enqueue(query)
        assert simulation.drop_reasons == {"worker failed": 1}
        assert simulation.telemetry.counter("queries.dropped_on_fault").value == 1
        assert query.request.status is RequestStatus.DROPPED

    def test_unassigned_worker_drops_arrivals(self):
        simulation = _smoke()
        idle = next(w for w in simulation.cluster.workers if w.assignment is None)
        idle.enqueue(_query(simulation, simulation.pipeline.root))
        assert simulation.drop_reasons == {"worker has no assignment": 1}
        assert simulation.telemetry.counter("queries.dropped_on_fault").value == 0

    def test_last_task_arrival_past_its_deadline_is_dropped_early(self):
        simulation = _smoke()
        worker = _worker_for(simulation, simulation.pipeline.root)
        query = _query(simulation, simulation.pipeline.root, arrival_s=-1.0)
        worker.enqueue(query)
        assert simulation.drop_reasons == {"cannot finish within SLO even if executed immediately": 1}
        assert not worker.queue and not worker.busy
        assert simulation.task_arrivals[simulation.pipeline.root] == 0

    def test_batch_takes_at_most_the_configured_batch_size(self):
        simulation = _traffic()
        worker = _worker_for(simulation, "object_detection")
        assignment = worker.assignment
        assert assignment.batch_size == 4
        worker.busy = True  # hold the batch start while the queue fills
        for _ in range(6):
            worker.enqueue(_query(simulation, "object_detection"))
        worker.busy = False
        seq = simulation.engine.queue._seq
        worker._maybe_start_batch()
        (event,) = _events_after(simulation, seq)
        assert isinstance(event, BatchCompleteEvent)
        assert worker.in_flight == 4 and worker.queue_length == 2
        assert simulation.task_arrivals["object_detection"] == 6
        assert event.time_s == pytest.approx(assignment.variant.execution_latency_ms(4) / 1000.0)

    def test_slowdown_stretches_batch_duration_and_rate(self):
        simulation = _traffic()
        worker = _worker_for(simulation, "object_detection")
        nominal_rate = worker.service_rate_qps
        worker.slowdown = 3.0
        seq = simulation.engine.queue._seq
        worker.enqueue(_query(simulation, "object_detection"))
        (event,) = _events_after(simulation, seq)
        expected_s = 3.0 * worker.assignment.variant.execution_latency_ms(1) / 1000.0
        assert event.time_s == pytest.approx(expected_s)
        assert worker.service_rate_qps == pytest.approx(nominal_rate / 3.0)

    def test_sink_batch_returns_each_query_to_the_frontend(self):
        simulation = _smoke()
        request = simulation.frontend.submit()
        simulation.engine.run(until_s=1.0)
        assert request.status is RequestStatus.COMPLETED
        variant = _worker_for(simulation, simulation.pipeline.root).assignment.variant
        assert request.accuracy_count == 1
        assert request.mean_accuracy == variant.accuracy
        low, high = _hop_bounds_s(simulation)
        execution_ms = variant.execution_latency_ms(1)
        assert execution_ms + 2000.0 * low <= request.latency_ms <= execution_ms + 2000.0 * high
        assert simulation.metrics.completed_requests == 1
        assert simulation.telemetry.counter("worker.batches").value == 1
        assert simulation.telemetry.counter("worker.processed_queries").value == 1

    def test_query_without_downstream_work_completes_its_branch(self):
        simulation = _traffic()

        class NothingDetected:
            def sample_children(self, variant, edge, rng):
                return 0

        simulation.content_model = NothingDetected()
        worker = _worker_for(simulation, "object_detection")
        query = _query(simulation, "object_detection")
        seq = simulation.engine.queue._seq
        worker._complete_batch([query])
        assert _events_after(simulation, seq) == []
        assert query.request.status is RequestStatus.COMPLETED
        assert query.request.accuracy_count == 0
        assert worker.factor_observation_count == 1 and worker.factor_observation_sum == 0
        assert simulation.metrics.completed_requests == 1

    def _loaded_detection_worker(self, simulation):
        worker = _worker_for(simulation, "object_detection")
        worker.busy = True
        queries = [_query(simulation, "object_detection") for _ in range(6)]
        for query in queries:
            worker.enqueue(query)
        worker.busy = False
        worker._maybe_start_batch()
        assert worker.in_flight == 4 and worker.queue_length == 2
        return worker, queries

    def test_failure_drops_queued_and_in_flight_queries(self):
        simulation = _traffic()
        worker, queries = self._loaded_detection_worker(simulation)
        live_before = len(simulation.engine.queue)
        simulation.cluster.fail_worker(worker.physical_id)
        assert len(simulation.engine.queue) == live_before - 1  # batch event cancelled
        assert not worker.busy and not worker.queue and worker.assignment is None
        assert simulation.drop_reasons == {"worker failed": 6}
        assert simulation.telemetry.counter("queries.dropped_on_fault").value == 6
        assert all(q.request.status is RequestStatus.DROPPED for q in queries)
        assert simulation.metrics.dropped_requests == 6

    def test_failover_requeues_instead_of_dropping(self):
        simulation = _traffic(resilience={"failover_requeue": True})
        worker, queries = self._loaded_detection_worker(simulation)
        seq = simulation.engine.queue._seq
        simulation.cluster.fail_worker(worker.physical_id)
        redeliveries = _events_after(simulation, seq)
        assert len(redeliveries) == 6
        assert all(isinstance(e, RoutedDeliveryEvent) for e in redeliveries)
        assert {e.query for e in redeliveries} == set(queries)
        assert all(e.worker_id.startswith("object_detection/") for e in redeliveries)
        assert simulation.dropped_queries == 0
        assert simulation.telemetry.counter("resilience.failover_requeued").value == 6
        assert all(q.request.status is RequestStatus.IN_FLIGHT for q in queries)


# --------------------------------------------------------------------- fan-out
class TestFanOutBookkeeping:
    """One completed detection batch of any size: with the deterministic
    ("expected") content model every query spawns the same children, so the
    bookkeeping of a batch of ``size`` is ``size`` copies of one query's."""

    @pytest.mark.parametrize("size", range(1, 9))
    def test_batch_fan_out_scales_with_batch_size(self, size):
        simulation = _traffic(content_mode="expected")
        worker = _worker_for(simulation, "object_detection")
        assignment = worker.assignment
        per_edge = {
            edge.child: int(round(simulation.content_model.mean_children(assignment.variant, edge)))
            for edge in assignment.child_edges
        }
        children = sum(per_edge.values())
        assert children > 1  # a real fan-out, across more than one edge
        batch = [_query(simulation, "object_detection") for _ in range(size)]
        seq = simulation.engine.queue._seq
        worker._complete_batch(batch)

        deliveries = _events_after(simulation, seq)
        assert len(deliveries) == size * children
        assert all(isinstance(e, DeliveryEvent) for e in deliveries)
        assert simulation.forwarded_queries == size * children
        assert simulation.dropped_queries == 0
        assert worker.factor_observation_count == size
        assert worker.factor_observation_sum == size * children
        assert worker.processed_queries == size
        low, high = _hop_bounds_s(simulation)
        now = simulation.engine.now_s
        for parent in batch:
            request = parent.request
            assert request.outstanding == children
            assert request.status is RequestStatus.IN_FLIGHT
            assert parent.accuracy_so_far == assignment.variant.accuracy
            mine = [e for e in deliveries if e.query.request is request]
            assert Counter(e.query.task for e in mine) == Counter(per_edge)
            for event in mine:
                assert event.query.accuracy_so_far == parent.accuracy_so_far
                assert event.query.created_s == now
                assert now + low <= event.time_s <= now + high
                assert event.worker.assignment.task == event.query.task


# ------------------------------------------------------------ re-deliveries
class TestRoutedDelivery:
    def test_logical_worker_is_resolved_when_the_delivery_fires(self):
        simulation = _smoke()
        first, second = (
            w for w in simulation.cluster.workers if w.assignment is not None
        )
        logical_id = first.assignment.logical_id
        query = _query(simulation, simulation.pipeline.root)
        simulation.engine.schedule_event(RoutedDeliveryEvent(0.001, simulation, logical_id, query))
        # a rehost between scheduling and delivery redirects the query
        simulation.cluster.logical_map[logical_id] = second
        second.busy = True
        simulation.engine.run(until_s=0.002)
        assert list(second.queue) == [query]
        assert not first.queue and first.in_flight == 0
        assert simulation.forwarded_queries == 1

    def test_unhosted_logical_worker_drops_the_query(self):
        simulation = _smoke()
        query = _query(simulation, simulation.pipeline.root)
        simulation.engine.schedule_event(RoutedDeliveryEvent(0.001, simulation, "gone/0", query))
        simulation.engine.run(until_s=0.002)
        assert simulation.drop_reasons == {"logical worker gone/0 not hosted": 1}
        assert query.request.status is RequestStatus.DROPPED
        assert simulation.forwarded_queries == 0


# ------------------------------------------------------------ queue snapshot
class TestQueueSnapshot:
    def test_backlog_counts_queued_plus_executing_queries(self):
        simulation = _traffic()
        worker = _worker_for(simulation, "object_detection")
        worker.busy = True
        for _ in range(6):
            worker.enqueue(_query(simulation, "object_detection"))
        worker.busy = False
        worker._maybe_start_batch()
        backlogs, rates = simulation.cluster.queue_snapshot([worker.assignment.logical_id])
        assert backlogs == [6]
        assert rates == [worker.service_rate_qps]

    def test_failed_and_unhosted_workers_are_unserviceable(self):
        simulation = _traffic()
        worker = _worker_for(simulation, "object_detection")
        logical_id = worker.assignment.logical_id
        simulation.cluster.fail_worker(worker.physical_id)
        backlogs, rates = simulation.cluster.queue_snapshot([logical_id, "never/hosted"])
        assert backlogs == [float("inf"), float("inf")]
        assert rates == [0.0, 0.0]


# ------------------------------------------------------- policies and arrivals
#: drop reasons each early-dropping policy may produce
POLICY_REASONS = {
    "no_early_dropping": set(),
    "last_task_dropping": {"leftover budget below last-task processing time"},
    "per_task_dropping": {"per-task latency budget exceeded", "remaining SLO budget exhausted"},
    "opportunistic_rerouting": {
        "cannot finish within SLO even if executed immediately",
        "no backup worker can recover the overrun",
    },
}


class TestDropPoliciesOnTheLifecycle:
    def test_every_registered_policy_is_covered(self):
        assert set(POLICY_REASONS) == set(POLICY_NAMES)

    @pytest.mark.parametrize("policy", sorted(POLICY_REASONS))
    def test_overload_drops_only_for_the_policys_own_reasons(self, policy):
        """Two-task social pipeline at ~6x its fleet: the policy alone
        decides which requests drop, and the books still close."""
        spec = get_scenario("smoke").with_overrides(
            pipeline="social_media",
            drop_policy=policy,
            trace_params={"qps": 900.0, "duration_s": 4},
        )
        simulation = spec.build(seed=0)
        summary = simulation.run()
        finished = summary.completed_requests + summary.dropped_requests + summary.late_requests
        assert finished == summary.total_requests == simulation.frontend.total_submitted
        assert set(simulation.drop_reasons) <= POLICY_REASONS[policy]
        if POLICY_REASONS[policy]:
            assert summary.dropped_requests > 0
        else:
            assert summary.dropped_requests == 0 and summary.late_requests > 0


class TestArrivalProcessesOnTheLifecycle:
    @pytest.mark.parametrize("process", sorted(ARRIVAL_PROCESSES))
    def test_every_sampled_arrival_becomes_one_accounted_request(self, process):
        simulation = get_scenario("smoke").with_overrides(arrival_process=process).build(seed=0)
        summary = simulation.run()
        assert summary.total_requests == len(simulation._arrival_times) > 0
        assert simulation.frontend.total_submitted == summary.total_requests
        finished = summary.completed_requests + summary.dropped_requests + summary.late_requests
        assert finished == summary.total_requests


# ------------------------------------------------------------- removed knobs
#: the dispatch/engine/request-path switches of the former fast paths
REMOVED_KNOBS = {
    "dispatch_mode": "batched",
    "engine": "calendar",
    "request_path": "columnar",
    "batch_route_chunk": 64,
}


@pytest.mark.parametrize("knob", sorted(REMOVED_KNOBS))
def test_removed_mode_knobs_fail_loudly(knob):
    """A config or spec still naming a former mode switch is an error, not
    a silent run on the one lifecycle."""
    value = REMOVED_KNOBS[knob]
    with pytest.raises(TypeError):
        SimulationConfig(**{knob: value})
    with pytest.raises(TypeError):
        ScenarioSpec(name="stale", **{knob: value})
    spec = get_scenario("smoke").with_overrides(sim_overrides={knob: value})
    with pytest.raises(TypeError):
        spec.build(seed=0)
