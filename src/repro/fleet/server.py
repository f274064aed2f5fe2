"""The serving core: N replicas, one stream-routing layer, one clock.

:class:`FleetServer` holds the repo's one serving event loop — the
deterministic discrete-event simulation, per-stream causal state, batch
execution, shedding and trace-replay wiring — over a *pool* of replicas:
every replica has its own queue, micro-batcher, service model and
metrics registry, while the core owns what must never fork — the
per-stream pipeline state (tracker identities, scenario-query
evaluators, stream serial numbers) and the stream-to-replica routing
table.  Keeping stream state above the replicas is the move that makes
elasticity safe: re-pinning a stream to another replica moves only its
*queued* frames (in-flight batches were already computed at dispatch),
so causality and byte-identity survive any scaling schedule.  A stream's
pipeline is touched only when its frames are dispatched, in causal
order — never at admission, while earlier frames still queue.

:class:`~repro.serve.server.DetectionServer` is this core with one static
replica; it swaps the fleet's record stream for its ``serve.*`` one and
shapes the outcome into a ``ServeReport``.  Determinism contract,
extended to fleets: per-frame detections are keyed by ``(model, seed,
sequence, frame)`` — never by batch, replica or placement — so
per-stream outputs are invariant under replica count.  What changes with
fleet shape is only *when* frames complete: latency statistics,
shedding, cost.

A :class:`FleetReport` is therefore a pure function of its
:class:`~repro.fleet.spec.FleetSpec`, cached content-addressed by
:class:`FleetReportStore` exactly like serve reports.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence as SequenceType, Union

from repro.core.results import FrameResult, FrameResultBuffer
from repro.core.systems import DetectionSystem
from repro.core.config import build_system
from repro.datasets.types import Sequence
from repro.engine.stages import run_frame_batch
from repro.fleet.autoscaler import SCALE_IN, SCALE_OUT, Autoscaler, Decision
from repro.fleet.replica import Replica, ReplicaSet
from repro.fleet.router import FleetRouter
from repro.fleet.spec import FleetSpec
from repro.obs.registry import MetricsRegistry, resolve_registry
from repro.obs.sinks import Sink, as_sinks
from repro.serve.batcher import QueuedFrame
from repro.serve.loadgen import FrameRequest
from repro.serve.policy import SHED_OLDEST, ServePolicy, ServiceModel
from repro.serve.slo import DEFAULT_MAX_EXACT_SAMPLES, SLOAccount

FLEET_REPORT_FORMAT = "repro-fleet-report/1"

#: Histograms merged from every replica into the fleet-level registry at
#: the end of a run, so dashboards see one fleet-wide distribution.
_MERGED_HISTOGRAMS = (
    "serve_queue_wait_seconds",
    "serve_compute_seconds",
    "serve_latency_seconds",
    "serve_batch_size",
)


class ServedTotals:
    """Figures derived alike for a served run's report, fleet or not."""

    @property
    def mean_batch_size(self) -> float:
        return self.frames_served / self.batches if self.batches else 0.0

    @property
    def throughput_fps(self) -> float:
        """Aggregate served frames per second of simulated time."""
        return (
            self.frames_served / self.makespan_seconds
            if self.makespan_seconds > 0
            else 0.0
        )

    def query_report(self):
        """The scenario-query :class:`~repro.query.offline.QueryReport`
        (``None`` when the deployment had no query)."""
        if self.query_windows is None:
            return None
        from repro.query.offline import QueryReport

        return QueryReport.from_dict(self.query_windows)


@dataclass
class FleetReport(ServedTotals):
    """What one fleet deployment cost: latency, scaling history, money.

    ``frame_results`` and ``wall_seconds`` follow the serve-report
    convention — live-run-only evidence, excluded from :meth:`to_dict`.
    """

    policy: ServePolicy
    devices: List[str]
    placement: str
    autoscaler: Optional[Dict[str, Any]]
    frames_offered: int
    frames_served: int
    frames_shed: int
    batches: int
    invocations: int
    makespan_seconds: float
    compute_seconds: float
    replica_seconds: float
    cost: float
    slo: Dict[str, Any]
    replicas: List[Dict[str, Any]] = field(default_factory=list)
    scale_events: List[Dict[str, Any]] = field(default_factory=list)
    dead_streams: List[str] = field(default_factory=list)
    query_windows: Optional[Dict[str, Any]] = None
    frame_results: Optional[Dict[str, SequenceType[FrameResult]]] = None
    wall_seconds: float = 0.0

    @property
    def cost_per_frame(self) -> float:
        """Allocated replica-time priced at each device's hourly rate,
        amortized over served frames (``inf`` when nothing was served).

        Note the difference from the single-server tuner: a fleet pays
        for replicas while they are *allocated*, not while they are
        busy — an idle over-provisioned replica still bills, which is
        exactly why autoscaling wins on cost.
        """
        if not self.frames_served:
            return float("inf")
        return self.cost / self.frames_served

    @property
    def utilization(self) -> float:
        """Fraction of allocated replica-time spent computing."""
        return (
            self.compute_seconds / self.replica_seconds
            if self.replica_seconds > 0
            else 0.0
        )

    @property
    def peak_replicas(self) -> int:
        return len(self.replicas)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": FLEET_REPORT_FORMAT,
            "policy": self.policy.to_dict(),
            "devices": list(self.devices),
            "placement": self.placement,
            "autoscaler": self.autoscaler,
            "frames_offered": self.frames_offered,
            "frames_served": self.frames_served,
            "frames_shed": self.frames_shed,
            "batches": self.batches,
            "invocations": self.invocations,
            "mean_batch_size": self.mean_batch_size,
            "makespan_seconds": self.makespan_seconds,
            "compute_seconds": self.compute_seconds,
            "replica_seconds": self.replica_seconds,
            "cost": self.cost,
            "cost_per_frame": self.cost_per_frame,
            "throughput_fps": self.throughput_fps,
            "utilization": self.utilization,
            "slo": self.slo,
            "replicas": self.replicas,
            "scale_events": self.scale_events,
            "dead_streams": list(self.dead_streams),
            "query_windows": self.query_windows,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FleetReport":
        if data.get("format") != FLEET_REPORT_FORMAT:
            raise ValueError(
                f"unsupported fleet-report format {data.get('format')!r}, "
                f"expected {FLEET_REPORT_FORMAT!r}"
            )
        return cls(
            policy=ServePolicy.from_dict(data["policy"]),
            devices=list(data["devices"]),
            placement=data["placement"],
            autoscaler=data.get("autoscaler"),
            frames_offered=data["frames_offered"],
            frames_served=data["frames_served"],
            frames_shed=data["frames_shed"],
            batches=data["batches"],
            invocations=data["invocations"],
            makespan_seconds=data["makespan_seconds"],
            compute_seconds=data["compute_seconds"],
            replica_seconds=data["replica_seconds"],
            cost=data["cost"],
            slo=data["slo"],
            replicas=list(data.get("replicas", [])),
            scale_events=list(data.get("scale_events", [])),
            dead_streams=list(data.get("dead_streams", [])),
            query_windows=data.get("query_windows"),
        )

    def format(self) -> str:
        """Human-readable fleet report: replicas, latency, scale history."""
        from repro.harness.tables import format_table

        rows = []
        for r in self.replicas:
            retired = r.get("retired_s")
            rows.append(
                [
                    r["name"],
                    r["device"],
                    r["spawned_s"],
                    "-" if retired is None else f"{retired:.1f}",
                    r["frames"],
                    r["batches"],
                    r["busy_seconds"],
                    r["alive_seconds"],
                    r["cost"],
                ]
            )
        table = format_table(
            ["replica", "device", "up(s)", "down(s)", "frames", "batches",
             "busy(s)", "alive(s)", "cost"],
            rows,
            precision=2,
            title="Fleet report",
        )
        fleet = self.slo.get("fleet", {})
        lines = [
            f"offered {self.frames_offered} frames, served {self.frames_served}, "
            f"shed {self.frames_shed}; "
            f"p50 {fleet.get('p50_ms', 0.0):.1f} ms, "
            f"p95 {fleet.get('p95_ms', 0.0):.1f} ms, "
            f"p99 {fleet.get('p99_ms', 0.0):.1f} ms",
            f"replica-seconds {self.replica_seconds:.1f} over "
            f"{self.makespan_seconds:.1f}s makespan "
            f"(utilization {self.utilization:.0%}), "
            f"cost {self.cost:.4f} "
            f"({self.cost_per_frame * 1e3:.4f} per kiloframe)"
            if self.frames_served
            else f"replica-seconds {self.replica_seconds:.1f}, nothing served",
        ]
        if self.dead_streams:
            lines.append(
                f"DEAD STREAMS ({len(self.dead_streams)}): "
                + ", ".join(self.dead_streams)
            )
        if self.scale_events:
            lines.append(f"scale events ({len(self.scale_events)}):")
            for event in self.scale_events:
                lines.append(
                    f"  t={event['t']:7.2f}s {event['action']:<9s} "
                    f"{event['replica']} [{event['device']}] — {event['reason']}"
                )
        elif self.autoscaler is not None:
            lines.append("scale events: none (the initial size held)")
        query_report = self.query_report()
        if query_report is not None:
            lines.append("")
            lines.append(query_report.format())
        return "\n".join([table] + lines)


class _Stream:
    """One stream's causal state, owned by the core (never by a replica)."""

    __slots__ = ("pipeline", "sequence", "results", "query")

    def __init__(self, pipeline, query=None):
        self.pipeline = pipeline
        self.sequence: Optional[Sequence] = None
        self.results = FrameResultBuffer()
        self.query = query


class FleetServer:
    """Replicated serving of one spec over the deterministic clock.

    This class is also the serving core: the event loop, stream state,
    batch execution, shedding and trace wiring live here once, and
    :class:`~repro.serve.server.DetectionServer` is its static
    one-replica front.

    Parameters
    ----------
    spec:
        The :class:`~repro.fleet.spec.FleetSpec` to deploy.
    metrics:
        Fleet-level registry (defaults to the process-global one): engine
        counters, ``fleet_*`` gauges/counters, and the end-of-run merge
        of every replica's latency histograms land here.  Each replica
        additionally keeps its own private registry — that is what the
        autoscaler windows.
    sinks:
        Receive ``fleet.scale`` records per scale action, ``query.window``
        records per frames-of-interest window and a final
        ``fleet.summary`` (per-frame records are deliberately skipped —
        a fleet's worth of them belongs in metrics, not an event log).
    """

    def __init__(
        self,
        spec: FleetSpec,
        *,
        system: Optional[DetectionSystem] = None,
        metrics: Optional[MetricsRegistry] = None,
        sinks: Union[None, Sink, List[Sink]] = None,
        max_exact_samples: int = DEFAULT_MAX_EXACT_SAMPLES,
        trace=None,
        record_trace: bool = False,
    ) -> None:
        self.spec = spec
        self._init_core(
            system if system is not None else build_system(spec.system),
            spec.policy,
            spec.query,
            tuple(ServiceModel.for_device(device) for device in spec.devices),
            metrics,
            sinks,
            max_exact_samples,
            trace,
            record_trace,
        )
        self._replicas = spec.replicas
        self._placement = spec.placement
        self._autoscaler = spec.autoscaler

    def _init_core(
        self,
        system: DetectionSystem,
        policy: ServePolicy,
        query,
        services,
        metrics: Optional[MetricsRegistry],
        sinks,
        max_exact_samples: int,
        trace,
        record_trace: bool,
        replica_metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        """State shared by both fronts.

        Replica ``i`` (by spawn order) is costed by
        ``services[i % len(services)]``.  ``replica_metrics`` is a
        registry every replica instruments instead of a private one each;
        the fleet-level families then go to a private registry, so
        ``metrics`` sees exactly what a replica exports.
        """
        self.system = system
        self.policy = policy
        self.query = query
        self.metrics = resolve_registry(metrics)
        self.sinks = as_sinks(sinks)
        self.max_exact_samples = max_exact_samples
        self._services = tuple(services)
        self._replica_metrics = replica_metrics
        self._fleet_metrics = (
            self.metrics if replica_metrics is None else MetricsRegistry()
        )
        self._template = self.system.build_pipeline()
        try:
            self._template.per_stream()
            self._shareable = True
        except TypeError:
            # Duck-typed stages predating the per_stream protocol: build
            # fully independent pipelines per stream (no cross-stream
            # stage sharing, hence no coalescing for this system kind).
            self._shareable = False
        self._streams: Dict[str, _Stream] = {}
        self._serials: Dict[str, int] = {}
        # Compute/timing split (see repro.serve.trace): stream state is
        # core-owned and strictly causal per stream, so one recorded
        # trace replays here regardless of replica count, placement or
        # autoscaling.  Both off by default — the live path is untouched
        # unless a Session wires a trace store in.
        self._trace = trace
        self._record_trace = bool(record_trace)
        self._trace_runner = None
        self.frames_replayed = 0
        self.recorded_trace = None

    # ------------------------------------------------------------------ #
    # Stream state (core-owned)
    # ------------------------------------------------------------------ #

    def _stream_state(self, request: FrameRequest) -> _Stream:
        """The stream's state at dispatch: built on its first dispatched
        frame, and restarted whenever the stream moves to a new sequence."""
        state = self._streams.get(request.stream)
        if state is None:
            pipeline = (
                self._template.per_stream()
                if self._shareable
                else self.system.build_pipeline()
            )
            evaluator = None
            if self.query is not None:
                from repro.query.automaton import QueryEvaluator

                evaluator = QueryEvaluator(self.query, request.stream)
            state = self._streams[request.stream] = _Stream(pipeline, evaluator)
        if state.sequence is not request.sequence:
            state.pipeline.begin_sequence(request.sequence)
            state.sequence = request.sequence
        return state

    def _measured_invocations(self) -> int:
        return sum(getattr(d, "invocations", 0) for d in self.system._detectors())

    def _execute(self, batch: List[QueuedFrame]) -> tuple:
        """Run one batch through the engine.

        Returns ``(results, invocations, macs, windows)`` — the last
        being the frames-of-interest windows the streams' query
        evaluators completed on this batch's frames (empty without a
        query).
        """
        states = [self._stream_state(item.request) for item in batch]
        if self._trace_runner is not None:
            from repro.serve.trace import traced_execute

            frame_results, invocations = traced_execute(self, batch, states)
        else:
            before = self._measured_invocations()
            frame_results = run_frame_batch(
                [
                    (state.pipeline, item.request.sequence, item.request.frame)
                    for state, item in zip(states, batch)
                ],
                metrics=self.metrics,
            )
            invocations = self._measured_invocations() - before
        macs = sum(fr.ops.total for fr in frame_results)
        windows = []
        for state, fr in zip(states, frame_results):
            state.results.append(fr)
            if state.query is not None:
                window = state.query.observe(fr)
                if window is not None:
                    windows.append(window)
        return frame_results, invocations, macs, windows

    # ------------------------------------------------------------------ #
    # Per-event sink records: the fleet logs windows and scale actions
    # only; the one-replica front overrides these with its serve.* ones.
    # ------------------------------------------------------------------ #

    def _shed_record(
        self, request: FrameRequest, reason: str
    ) -> Optional[Dict[str, Any]]:
        return None

    def _frame_record(
        self, request: FrameRequest, wait: float, compute: float, latency: float
    ) -> Optional[Dict[str, Any]]:
        return None

    def _window_record(self, window, replica: Replica) -> Dict[str, Any]:
        return {
            "record": "query.window",
            "query": self.query.name,
            "stream": window.stream,
            "replica": replica.name,
            "start": window.start,
            "end": window.end,
            "phases": list(window.phases),
        }

    def _summary_record(self, report: "FleetReport") -> Dict[str, Any]:
        fleet = report.slo["fleet"]
        return {
            "record": "fleet.summary",
            "frames_offered": report.frames_offered,
            "frames_served": report.frames_served,
            "frames_shed": report.frames_shed,
            "batches": report.batches,
            "invocations": report.invocations,
            "makespan_seconds": report.makespan_seconds,
            "replica_seconds": report.replica_seconds,
            "cost": report.cost,
            "peak_replicas": report.peak_replicas,
            "scale_events": len(report.scale_events),
            "dead_streams": len(report.dead_streams),
            "p99_ms": fleet["p99_ms"],
        }

    # ------------------------------------------------------------------ #
    # Rebalancing (the only operations that move streams)
    # ------------------------------------------------------------------ #

    def _move_stream(
        self, stream: str, source: Replica, target: Replica, router: FleetRouter
    ) -> None:
        """Re-pin ``stream`` and carry its *queued* frames along.

        In-flight frames stay: their results were computed at dispatch
        time, so finishing on the old replica cannot fork stream state.
        """
        router.repin(stream, source, target)
        moving = [q for q in source.queue if q.request.stream == stream]
        if not moving:
            return
        source.queue = [q for q in source.queue if q.request.stream != stream]
        target.queue.extend(moving)
        serials = self._serials
        target.queue.sort(
            key=lambda q: (q.enqueued, serials[q.request.stream], q.request.frame)
        )
        source.m_depth.set(len(source.queue))
        target.m_depth.set(len(target.queue))

    def _rebalance_onto(
        self, replica: Replica, pool: ReplicaSet, router: FleetRouter
    ) -> List[str]:
        """Give a fresh replica its fair share of existing streams.

        Repeatedly takes the deepest-queued stream from the most-pinned
        donor until ``replica`` reaches the mean share — deterministic
        tie-breaks throughout (lowest replica index, lexicographic
        stream name).
        """
        active = pool.active()
        total = sum(r.pinned_streams for r in active)
        target_share = total // len(active)
        moved: List[str] = []
        while replica.pinned_streams < target_share:
            donors = [
                r
                for r in active
                if r is not replica and r.pinned_streams > target_share
            ]
            if not donors:
                break
            donor = min(donors, key=lambda r: (-r.pinned_streams, r.index))
            streams = router.streams_on(donor)
            if not streams:  # pragma: no cover - pinned_streams > 0 implies some
                break

            def queued(s: str) -> int:
                return sum(1 for q in donor.queue if q.request.stream == s)

            stream = max(streams, key=queued)  # sorted() → lowest name on ties
            self._move_stream(stream, donor, replica, router)
            moved.append(stream)
        return moved

    def _drain_streams(
        self, victim: Replica, pool: ReplicaSet, router: FleetRouter
    ) -> List[str]:
        """Re-place every stream of a draining replica over the active set."""
        active = pool.active()
        moved = []
        for stream in router.streams_on(victim):
            target = router._place(stream, active)
            self._move_stream(stream, victim, target, router)
            moved.append(stream)
        return moved

    # ------------------------------------------------------------------ #
    # The event loop
    # ------------------------------------------------------------------ #

    def run(self, requests: List[FrameRequest]) -> FleetReport:
        """Serve an arrival schedule to completion; returns the report.

        ``requests`` must be sorted by arrival time (the load generator's
        contract) with frames of each stream in causal order.  Each call
        is independent: stream state and the replica pool are rebuilt,
        so back-to-back runs of one schedule are identical and never
        mutate previously returned reports (detector caches persist —
        they are deterministic pure values).  Both fronts run this loop;
        it emits the front's summary record.
        """
        self._streams = {}
        self._serials = {}
        if self._trace is not None or self._record_trace:
            from repro.serve.trace import TraceRunner

            self._trace_runner = TraceRunner(
                self._trace, shareable=self._shareable
            )
        else:
            self._trace_runner = None
        wall_start = time.perf_counter()
        account = SLOAccount(
            self.policy.slo_ms / 1e3, max_exact_samples=self.max_exact_samples
        )
        router = FleetRouter(self._placement)
        pool = ReplicaSet(self.policy, self._services, metrics=self._replica_metrics)
        for _ in range(self._replicas):
            pool.spawn(0.0)
        autoscaler = (
            Autoscaler(self._autoscaler, self.policy.max_batch_size)
            if self._autoscaler is not None
            else None
        )
        sinks = self.sinks
        serials = self._serials
        arrivals = deque(requests)
        now = 0.0
        batches = 0
        invocations = 0
        compute_seconds = 0.0
        last_completion = 0.0
        query_events = 0
        scale_events: List[Dict[str, Any]] = []

        registry = self._fleet_metrics
        m_fleet_frames = registry.counter(
            "fleet_frames_total", "frames through the fleet", labels=("direction",)
        )
        m_fleet_drops = registry.counter(
            "fleet_drops_total", "fleet frames dropped, by reason", labels=("reason",)
        )
        m_fleet_batches = registry.counter(
            "fleet_batches_total", "batches dispatched fleet-wide"
        )
        m_fleet_invocations = registry.counter(
            "fleet_invocations_total", "batched invocations fleet-wide"
        )
        m_replicas = registry.gauge(
            "fleet_replicas", "live (active) replica count"
        )
        m_scale = registry.counter(
            "fleet_scale_events_total", "autoscaler actions", labels=("action",)
        )
        m_query = (
            self.metrics.counter(
                "serve_query_events_total",
                "frames-of-interest windows emitted by the scenario query",
                labels=("stream",),
            )
            if self.query is not None
            else None
        )
        m_replicas.set(len(pool.active()))

        def emit(record: Optional[Dict[str, Any]]) -> None:
            if record is not None:
                for sink in sinks:
                    sink.emit(record)

        def shed(request: FrameRequest, replica: Replica, reason: str) -> None:
            account.record_shed(request.stream, reason)
            replica.m_drops.inc(labels=(reason,))
            m_fleet_drops.inc(labels=(reason,))
            if sinks:
                emit(self._shed_record(request, reason))

        def admit(request: FrameRequest) -> None:
            # Admission only numbers the stream (the deterministic tiebreak
            # when queues merge); its pipeline state is touched at
            # dispatch, in causal order, never while earlier frames queue.
            serials.setdefault(request.stream, len(serials))
            replica = router.route(request.stream, pool.active())
            m_fleet_frames.inc(labels=("in",))
            replica.m_frames.inc(labels=("in",))
            # A frame is batchable from the moment it arrives, so its
            # coalescing deadline counts from the arrival timestamp.
            if len(replica.queue) >= self.policy.queue_capacity:
                if self.policy.shed_policy == SHED_OLDEST:
                    victim = replica.queue.pop(0)
                    shed(victim.request, replica, "shed_oldest")
                else:
                    shed(request, replica, "reject_newest")
                    return
            replica.queue.append(
                QueuedFrame(request=request, enqueued=request.arrival)
            )
            replica.m_depth.set(len(replica.queue))

        def dispatch(replica: Replica) -> Optional[float]:
            """Try to dispatch one batch; returns a wake deadline if not."""
            nonlocal batches, invocations, compute_seconds
            nonlocal last_completion, query_events
            ready = replica.batcher.ready(replica.queue)
            batch, wake = replica.batcher.decide(
                now, ready, more_arrivals=bool(arrivals)
            )
            if batch is None:
                return wake
            for item in batch:
                replica.queue.remove(item)
            replica.m_depth.set(len(replica.queue))
            _, batch_inv, macs, qwindows = self._execute(batch)
            for window in qwindows:
                query_events += 1
                m_query.inc(labels=(window.stream,))
                emit(self._window_record(window, replica))
            service = replica.service.batch_seconds(batch_inv, macs, len(batch))
            completion = now + service
            replica.busy_until = completion
            replica.batches += 1
            replica.invocations += batch_inv
            replica.busy_seconds += service
            replica.frames += len(batch)
            batches += 1
            invocations += batch_inv
            compute_seconds += service
            last_completion = max(last_completion, completion)
            replica.m_batches.inc()
            replica.m_invocations.inc(batch_inv)
            replica.m_batch_size.observe(len(batch))
            replica.m_compute.observe(service)
            m_fleet_batches.inc()
            m_fleet_invocations.inc(batch_inv)
            for item in batch:
                wait = now - item.request.arrival
                latency = completion - item.request.arrival
                account.record(
                    item.request.stream, wait=wait, compute=service, latency=latency
                )
                replica.m_frames.inc(labels=("out",))
                replica.m_wait.observe(wait)
                replica.m_latency.observe(latency)
                m_fleet_frames.inc(labels=("out",))
                if sinks:
                    emit(self._frame_record(item.request, wait, service, latency))
            return None

        def apply(decision: Decision) -> None:
            if decision.action == SCALE_OUT:
                replica = pool.spawn(now)
                moved = self._rebalance_onto(replica, pool, router)
                subject = replica
            else:
                active = pool.active()
                subject = max(active, key=lambda r: (r.cost_per_second, r.index))
                pool.drain(subject)
                moved = self._drain_streams(subject, pool, router)
            m_scale.inc(labels=(decision.action,))
            m_replicas.set(len(pool.active()))
            event = {
                "t": now,
                "action": decision.action,
                "replica": subject.name,
                "device": subject.device,
                "reason": decision.reason,
                "moved_streams": moved,
            }
            scale_events.append(event)
            emit(dict(event, record="fleet.scale"))

        def dispatch_idle() -> List[float]:
            wakes: List[float] = []
            for replica in sorted(pool.serving(), key=lambda r: r.index):
                if replica.idle and replica.queue:
                    wake = dispatch(replica)
                    if wake is not None:
                        wakes.append(wake)
            return wakes

        def pending() -> bool:
            return bool(arrivals) or any(
                r.queue or not r.idle for r in pool.serving()
            )

        while pending():
            while arrivals and arrivals[0].arrival <= now:
                admit(arrivals.popleft())
            for replica in pool.serving():
                if replica.busy_until is not None and replica.busy_until <= now:
                    replica.busy_until = None
            pool.retire_idle(now)
            wakes = dispatch_idle()
            if autoscaler is not None and now >= autoscaler.next_check:
                decision = autoscaler.tick(now, pool.serving())
                if decision is not None:
                    apply(decision)
                    # A drain may have handed queued frames to an idle
                    # replica; let it dispatch at this same instant.
                    wakes = dispatch_idle()
                    pool.retire_idle(now)
            if not pending():
                break
            candidates: List[float] = list(wakes)
            if arrivals:
                candidates.append(arrivals[0].arrival)
            for replica in pool.serving():
                if replica.busy_until is not None:
                    candidates.append(replica.busy_until)
            if autoscaler is not None:
                candidates.append(autoscaler.next_check)
            now = max(now, min(candidates))

        pool.retire_idle(now)
        makespan = last_completion

        # Fold every replica's latency histograms into the fleet registry
        # so dashboards and `repro status` see one fleet-wide view.
        for name in _MERGED_HISTOGRAMS:
            for replica in pool.replicas:
                source = replica.metrics.get(name)
                if source is None or not source.labels_seen():
                    continue
                merged = registry.histogram(name, source.help, buckets=source.bounds)
                merged.merge(source)

        query_windows = None
        if self.query is not None:
            from repro.query.offline import QueryReport

            by_stream = {
                stream: state.query.finish()
                for stream, state in self._streams.items()
                if state.query is not None
            }
            query_windows = QueryReport.build(self.query, by_stream).to_dict()
        if self._trace_runner is not None:
            self.frames_replayed = self._trace_runner.frames_replayed
            self.recorded_trace = self._trace_runner.out_trace()
        fleet = account.fleet()
        slo = account.to_dict()
        offered_streams = sorted({r.stream for r in requests})
        dead_streams = [
            s for s in offered_streams
            if not slo["streams"].get(s, {}).get("served")
        ]
        report = FleetReport(
            policy=self.policy,
            devices=[service.device for service in self._services],
            placement=self._placement,
            autoscaler=(
                None if self._autoscaler is None else self._autoscaler.to_dict()
            ),
            frames_offered=len(requests),
            frames_served=fleet.served,
            frames_shed=fleet.shed,
            batches=batches,
            invocations=invocations,
            makespan_seconds=makespan,
            compute_seconds=compute_seconds,
            replica_seconds=pool.replica_seconds(makespan),
            cost=pool.cost(makespan),
            slo=slo,
            replicas=[r.to_dict(makespan) for r in pool.replicas],
            scale_events=scale_events,
            dead_streams=dead_streams,
            query_windows=query_windows,
            frame_results={
                stream: state.results
                for stream, state in sorted(self._streams.items())
            },
        )
        summary = self._summary_record(report)
        if self.query is not None:
            summary["query"] = self.query.name
            summary["query_events"] = query_events
        for sink in sinks:
            sink.emit(summary)
            sink.flush()
        report.wall_seconds = time.perf_counter() - wall_start
        return report


class FleetReportStore:
    """Content-addressed store of serialized :class:`FleetReport`\\ s.

    Same two-level layout, atomic writes and corrupt-entry-is-a-miss
    semantics as :class:`~repro.serve.server.ServeReportStore`, sharing
    the session cache root so ``repro cache stats/ls/prune`` manage
    fleet reports alongside everything else.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)

    def path_for(self, fingerprint: str) -> Path:
        return self.root / fingerprint[:2] / f"{fingerprint}.json"

    def load(self, fingerprint: str) -> Optional[FleetReport]:
        try:
            with open(self.path_for(fingerprint), "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            return FleetReport.from_dict(payload["report"])
        except (OSError, json.JSONDecodeError, KeyError, ValueError, TypeError):
            return None

    def store(
        self,
        fingerprint: str,
        report: FleetReport,
        *,
        spec: Optional[Dict[str, Any]] = None,
    ) -> Path:
        path = self.path_for(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "format": "repro-fleet-cache/1",
                    "fingerprint": fingerprint,
                    "spec": spec,
                    "report": report.to_dict(),
                },
                fh,
                allow_nan=True,
            )
        os.replace(tmp, path)
        return path

    def __contains__(self, fingerprint: str) -> bool:
        return self.path_for(fingerprint).exists()
