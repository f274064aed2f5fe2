"""The detection server: one shared engine, many concurrent streams.

:class:`DetectionServer` is the static one-replica front of the serving
core in :mod:`repro.fleet.server`: per-stream causal pipeline state (one
tracker per stream, detectors shared across all of them), a bounded
admission queue with a shedding policy, and a
:class:`~repro.serve.batcher.MicroBatcher` that coalesces the streams'
detector calls into cross-stream batched invocations — one event loop,
whether one replica serves or many.

Execution is a deterministic discrete-event simulation.  Wall time on
the host measures *this machine's Python*, not the modeled accelerator;
instead, every dispatched batch is charged a service time by the
:class:`ServiceModel` from two measured quantities — how many batched
detector invocations the batch actually made (the per-call fixed
overhead being amortized) and how many MACs its frames cost (the ops
accounting the pipeline already produces).  Queue waits, latencies and
SLO statistics all live on this simulated clock, so a served
configuration is a pure function of its spec: reports are reproducible,
cacheable, and safe to assert on in tests.

Per-frame detections are byte-identical to the offline serial path
whatever the batch composition — the determinism contract keys every
sample by ``(model, seed, sequence, frame)``, never by batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence as SequenceType, Union

from repro.api.cache import ContentStore
from repro.core.config import SystemConfig, build_system
from repro.core.results import FrameResult
from repro.core.systems import DetectionSystem
from repro.fleet.server import FleetServer, ServedTotals
from repro.obs.registry import MetricsRegistry, resolve_registry
from repro.obs.sinks import Sink
from repro.serve.loadgen import FrameRequest
from repro.serve.policy import (  # noqa: F401 - re-exported, their historical home
    SHED_NEWEST,
    SHED_OLDEST,
    SHED_POLICIES,
    ServePolicy,
    ServiceModel,
)
from repro.serve.slo import DEFAULT_MAX_EXACT_SAMPLES

# Format 2 added shed-reason splits, queue-wait/compute percentiles and
# fleet histograms to the SLO section; format 3 added the scenario-query
# section (`query_windows`).  Older cache entries fail `from_dict` and
# are therefore clean cache misses, never misreads.
REPORT_FORMAT = "repro-serve-report/3"


@dataclass
class ServeReport(ServedTotals):
    """What one served load cost: throughput, latency, SLO accounting.

    ``frame_results`` (per-stream :class:`FrameResult` lists, dispatch
    order) is populated only by a live :meth:`DetectionServer.run` — it
    is the byte-identity evidence and is deliberately excluded from
    :meth:`to_dict`, so cached reports carry statistics only.
    ``wall_seconds`` measures this host's Python and is likewise
    excluded (it is not part of the deterministic result).

    ``query_windows`` is the serialized
    :class:`~repro.query.offline.QueryReport` of the deployment's
    scenario query (``None`` when the server ran without one).  Being a
    deterministic function of the spec it *is* cached.
    """

    policy: ServePolicy
    service: ServiceModel
    frames_offered: int
    frames_served: int
    frames_shed: int
    batches: int
    invocations: int
    makespan_seconds: float
    compute_seconds: float
    slo: Dict[str, Any]
    query_windows: Optional[Dict[str, Any]] = None
    frame_results: Optional[Dict[str, SequenceType[FrameResult]]] = None
    wall_seconds: float = 0.0

    @property
    def utilization(self) -> float:
        """Fraction of the makespan the modeled engine spent computing."""
        return (
            self.compute_seconds / self.makespan_seconds
            if self.makespan_seconds > 0
            else 0.0
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": REPORT_FORMAT,
            "policy": self.policy.to_dict(),
            "service": self.service.to_dict(),
            "frames_offered": self.frames_offered,
            "frames_served": self.frames_served,
            "frames_shed": self.frames_shed,
            "batches": self.batches,
            "invocations": self.invocations,
            "mean_batch_size": self.mean_batch_size,
            "makespan_seconds": self.makespan_seconds,
            "compute_seconds": self.compute_seconds,
            "throughput_fps": self.throughput_fps,
            "utilization": self.utilization,
            "slo": self.slo,
            "query_windows": self.query_windows,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ServeReport":
        if data.get("format") != REPORT_FORMAT:
            raise ValueError(
                f"unsupported report format {data.get('format')!r}, "
                f"expected {REPORT_FORMAT!r}"
            )
        return cls(
            policy=ServePolicy.from_dict(data["policy"]),
            service=ServiceModel.from_dict(data["service"]),
            frames_offered=data["frames_offered"],
            frames_served=data["frames_served"],
            frames_shed=data["frames_shed"],
            batches=data["batches"],
            invocations=data["invocations"],
            makespan_seconds=data["makespan_seconds"],
            compute_seconds=data["compute_seconds"],
            slo=data["slo"],
            query_windows=data.get("query_windows"),
        )

    def format(self) -> str:
        """Human-readable throughput/latency report."""
        from repro.harness.tables import format_table

        rows = []
        slo_streams = self.slo.get("streams", {})
        for name, s in slo_streams.items():
            rows.append(
                [name, s["served"], s["shed"], s["violations"],
                 s["p50_ms"], s["p95_ms"], s["p99_ms"],
                 s["mean_wait_ms"], s["mean_compute_ms"]]
            )
        fleet = self.slo.get("fleet", {})
        if fleet:
            rows.append(
                ["(fleet)", fleet["served"], fleet["shed"], fleet["violations"],
                 fleet["p50_ms"], fleet["p95_ms"], fleet["p99_ms"],
                 fleet["mean_wait_ms"], fleet["mean_compute_ms"]]
            )
        table = format_table(
            ["stream", "served", "shed", "viol",
             "p50(ms)", "p95(ms)", "p99(ms)", "wait(ms)", "compute(ms)"],
            rows,
            precision=1,
            title="Serving report",
        )
        slo_ms = self.slo.get("slo_ms")
        shed_reasons = fleet.get("shed_reasons") or {}
        shed_detail = (
            " (" + ", ".join(f"{k}: {v}" for k, v in sorted(shed_reasons.items())) + ")"
            if shed_reasons
            else ""
        )
        summary = (
            f"offered {self.frames_offered} frames, served {self.frames_served}, "
            f"shed {self.frames_shed}{shed_detail}\n"
            f"batches: {self.batches} (mean size {self.mean_batch_size:.2f}), "
            f"detector invocations: {self.invocations}\n"
            f"throughput: {self.throughput_fps:.1f} frames/s over "
            f"{self.makespan_seconds:.3f}s simulated "
            f"(engine utilization {self.utilization:.0%})"
        )
        if slo_ms is not None:
            summary += f"\nSLO: {slo_ms:.0f} ms end-to-end"
        if "wait_p95_ms" in fleet:
            summary += (
                f"\nqueue wait p95: {fleet['wait_p95_ms']:.1f} ms, "
                f"compute p95: {fleet['compute_p95_ms']:.1f} ms"
            )
        query_report = self.query_report()
        if query_report is not None:
            summary += f"\n\n{query_report.format()}"
        return f"{table}\n{summary}"


class DetectionServer(FleetServer):
    """Micro-batched multi-stream serving over one shared engine.

    The static one-replica front of the serving core
    (:class:`~repro.fleet.server.FleetServer`): the event loop, stream
    state, batch execution and shedding are the core's; this class
    validates its inputs, emits the ``serve.*`` record stream and shapes
    the outcome into a :class:`ServeReport`.

    Parameters
    ----------
    system:
        A :class:`~repro.core.config.SystemConfig` (built internally) or
        a live :class:`~repro.core.systems.DetectionSystem`.  All streams
        share its detectors (and their deterministic caches); each stream
        gets its own tracker state.
    policy / service:
        Admission/batching knobs and the accelerator timing model.
    device:
        Shorthand for ``service=ServiceModel.for_device(device)``; passing
        both an explicit ``service`` and a ``device`` is an error (an
        uncalibrated service model would silently disagree with the
        profile).  With neither, the ``"abstract"`` profile applies.
    metrics:
        A :class:`~repro.obs.registry.MetricsRegistry` receiving the
        live counters and histograms (frames in/out, drops by reason,
        queue-wait/compute/latency, batch sizes); defaults to the
        process-global registry.  The registry observes the *simulated*
        clock's durations, matching the report.
    sinks:
        :class:`~repro.obs.sinks.Sink`\\ s receiving one ``serve.frame``
        record per served frame, one ``serve.shed`` per dropped frame
        and a final ``serve.summary`` — the streaming alternative to
        holding ``frame_results`` for the whole run.  The server emits
        but never closes them; lifecycle belongs to the caller.
    max_exact_samples:
        Per-stream bound on exact latency samples before SLO percentiles
        switch to histogram estimates (see :mod:`repro.serve.slo`).
    query:
        A :class:`~repro.query.spec.QuerySpec` evaluated online against
        every stream — each stream gets its own strictly-causal
        :class:`~repro.query.automaton.QueryEvaluator` (cloned per
        stream exactly like tracker state).  Emitted windows flow
        through the sinks (``query.window`` records), the
        ``serve_query_events_total`` counter, and the report's
        ``query_windows`` section.
    """

    def __init__(
        self,
        system: Union[SystemConfig, DetectionSystem],
        *,
        policy: ServePolicy = ServePolicy(),
        service: Optional[ServiceModel] = None,
        device: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
        sinks: Union[None, Sink, List[Sink]] = None,
        max_exact_samples: int = DEFAULT_MAX_EXACT_SAMPLES,
        query=None,
        trace=None,
        record_trace: bool = False,
    ):
        if service is None:
            service = ServiceModel.for_device(device or "abstract")
        elif device is not None and device != service.device:
            raise ValueError(
                f"DetectionServer got both an explicit service model and "
                f"device={device!r}; pass one or the other "
                f"(use ServiceModel.for_device({device!r}))"
            )
        if query is not None:
            from repro.query.spec import QuerySpec

            if not isinstance(query, QuerySpec):
                raise TypeError(
                    f"query must be a QuerySpec, got {type(query).__name__}"
                )
        self.service = service
        registry = resolve_registry(metrics)
        # The caller's registry is the one replica's: it sees the serve_*
        # families live, while the core's fleet-level ones stay private.
        self._init_core(
            build_system(system) if isinstance(system, SystemConfig) else system,
            policy,
            query,
            (service,),
            registry,
            sinks,
            max_exact_samples,
            trace,
            record_trace,
            replica_metrics=registry,
        )

    # One static replica: nothing to route between, nothing to scale.
    _replicas = 1
    _placement = "least_loaded"
    _autoscaler = None

    # perfbench wraps methods through cls.__dict__ and counts dispatched
    # batches from this one, so it must be bound in this class body.
    _execute = FleetServer._execute

    def _shed_record(self, request: FrameRequest, reason: str) -> Dict[str, Any]:
        return {
            "record": "serve.shed",
            "stream": request.stream,
            "frame": request.frame,
            "reason": reason,
            "arrival_s": request.arrival,
        }

    def _frame_record(
        self, request: FrameRequest, wait: float, compute: float, latency: float
    ) -> Dict[str, Any]:
        return {
            "record": "serve.frame",
            "stream": request.stream,
            "frame": request.frame,
            "wait_ms": wait * 1e3,
            "compute_ms": compute * 1e3,
            "latency_ms": latency * 1e3,
        }

    def _window_record(self, window, replica) -> Dict[str, Any]:
        record = super()._window_record(window, replica)
        del record["replica"]  # one replica: naming it says nothing
        return record

    def _summary_record(self, report) -> Dict[str, Any]:
        fleet = report.slo["fleet"]
        return {
            "record": "serve.summary",
            "frames_offered": report.frames_offered,
            "frames_served": report.frames_served,
            "frames_shed": report.frames_shed,
            "shed_reasons": dict(fleet["shed_reasons"]),
            "batches": report.batches,
            "invocations": report.invocations,
            "makespan_seconds": report.makespan_seconds,
            "p99_ms": fleet["p99_ms"],
        }

    def run(self, requests: List[FrameRequest]) -> ServeReport:
        """Serve an arrival schedule to completion; returns the report.

        ``requests`` must be sorted by arrival time (the load generator's
        contract) with frames of each stream in causal order.  Each call
        is independent: per-stream state (trackers, result lists) is
        rebuilt, so back-to-back runs of one schedule produce identical
        reports and never mutate previously returned ones.  (Detector
        caches persist across runs — they are deterministic pure values.)
        """
        report = super().run(requests)
        return ServeReport(
            policy=self.policy,
            service=self.service,
            frames_offered=report.frames_offered,
            frames_served=report.frames_served,
            frames_shed=report.frames_shed,
            batches=report.batches,
            invocations=report.invocations,
            makespan_seconds=report.makespan_seconds,
            compute_seconds=report.compute_seconds,
            slo=report.slo,
            query_windows=report.query_windows,
            frame_results=report.frame_results,
            wall_seconds=report.wall_seconds,
        )


class ServeReportStore(ContentStore):
    """:class:`~repro.api.cache.ContentStore` of :class:`ServeReport`\\ s."""

    format_tag = "repro-serve-cache/1"
    payload_key = "report"
    encode = staticmethod(ServeReport.to_dict)
    decode = staticmethod(ServeReport.from_dict)
    # Bound in this class's own body, not inherited: method-level tracers
    # (perfbench/layers.py) wrap through ``cls.__dict__``.
    load = ContentStore.load
    store = ContentStore.store
    __contains__ = ContentStore.__contains__
