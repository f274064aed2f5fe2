"""Which ``repro`` functions each layer's spans wrap, and the per-layer
metrics computed from those spans.

Span names are ``<layer>.<what>``; the layer is everything before the
first dot.  Every span belongs to a named layer, so the share of traced
wall time covered by spans (``trace.coverage``) is the share attributed
to a layer; the rest is glue in no named layer (the ``Session`` facade,
``core`` plumbing, the benchmark loop).
"""

from __future__ import annotations

import importlib
import statistics
from typing import Dict, List, Optional, Tuple

from tracer import SpanStats, Tracer

#: Layers reported in the coverage table, in dataflow order.
LAYERS = (
    "datasets", "simdet", "boxes", "detections", "tracker", "hungarian",
    "engine", "metrics", "serve", "api", "utils", "fleet", "obs", "query",
)


def _one(args, kwargs, result):
    return 1


def _len_result(args, kwargs, result):
    return len(result)


def _len_first_arg(args, kwargs, result):
    return len(args[0])


def _len_second_arg(args, kwargs, result):
    return len(args[1])


def _found(args, kwargs, result):
    return 0 if result is None else 1


def _truthy(args, kwargs, result):
    return 1 if result else 0


def _regions_one(args, kwargs, result):
    return (1, len(args[3].boxes))


def _regions_batch(args, kwargs, result):
    return (len(result), sum(len(item[2].boxes) for item in args[1]))


def _tracks_after(args, kwargs, result):
    return args[0]._size


def _stored_bytes(args, kwargs, result):
    return result.stat().st_size


def _loaded_bytes(args, kwargs, result):
    if result is None:
        return 0
    return args[0].path_for(args[1]).stat().st_size


def _parmap_shape(args, kwargs, result):
    from repro.utils.parmap import resolve_workers

    items = len(args[1])
    return (items, resolve_workers(kwargs.get("workers", 1), items))


def _scale_events(args, kwargs, result):
    return len(result.scale_events)


# (module, function, span name, extractor)
FUNCTIONS = [
    ("repro.datasets.kitti", "kitti_like_dataset", "datasets.build", None),
    ("repro.boxes.iou", "iou_matrix", "boxes.iou_matrix", _len_first_arg),
    ("repro.boxes.nms", "nms", "boxes.nms", _len_first_arg),
    ("repro.boxes.merge", "greedy_merge_boxes", "boxes.greedy_merge", _len_first_arg),
    ("repro.boxes.box", "clip_boxes", "boxes.clip", _len_first_arg),
    ("repro.boxes.mask", "_union_area", "boxes.mask_union_area", _len_first_arg),
    ("repro.hungarian.hungarian", "hungarian", "hungarian.solve", None),
    ("repro.engine.stages", "run_frame_batch", "engine.step", _len_first_arg),
    ("repro.metrics.evaluate", "evaluate_dataset", "metrics.evaluate", None),
    ("repro.serve.loadgen", "generate_load", "serve.loadgen", None),
    ("repro.serve.trace", "traced_execute", "serve.trace.execute", None),
    ("repro.serve.tune", "_evaluate_point", "utils.parmap.task", None),
    ("repro.utils.parmap", "parallel_map", "utils.parmap.map", _parmap_shape),
]

# (module, class, method, span name, extractor)
METHODS = [
    ("repro.datasets.types", "Sequence", "annotations", "datasets.annotations", None),
    ("repro.simdet.detector", "SimulatedDetector", "detect_full_frame", "simdet.full_frame", _one),
    ("repro.simdet.detector", "SimulatedDetector", "detect_full_frame_batch", "simdet.full_frame", _len_result),
    ("repro.simdet.detector", "SimulatedDetector", "detect_regions", "simdet.regions", _regions_one),
    ("repro.simdet.detector", "SimulatedDetector", "detect_regions_batch", "simdet.regions", _regions_batch),
    ("repro.detections", "Detections", "__init__", "detections.init", None),
    ("repro.detections", "Detections", "concatenate", "detections.op", None),
    ("repro.detections", "Detections", "select", "detections.op", None),
    ("repro.detections", "Detections", "above_score", "detections.op", None),
    ("repro.detections", "Detections", "sorted_by_score", "detections.op", None),
    ("repro.detections", "Detections", "nms", "detections.op", None),
    ("repro.tracker.catdet_tracker", "CaTDetTracker", "update", "tracker.update", _tracks_after),
    ("repro.tracker.catdet_tracker", "CaTDetTracker", "predict", "tracker.predict", None),
    ("repro.tracker.sort", "Sort", "update", "tracker.update", _tracks_after),
    ("repro.engine.stages", "StagePipeline", "run_frame", "engine.step", _one),
    ("repro.serve.server", "DetectionServer", "run", "serve.loop", None),
    ("repro.serve.server", "DetectionServer", "_execute", "serve.execute", _len_second_arg),
    ("repro.serve.batcher", "MicroBatcher", "decide", "serve.batcher.decide", None),
    ("repro.serve.trace", "TraceRunner", "match", "serve.trace.match", _found),
    ("repro.serve.trace", "TraceStore", "load", "serve.trace.load", _loaded_bytes),
    ("repro.serve.trace", "TraceStore", "store", "serve.trace.store", _stored_bytes),
    ("repro.api.cache", "ResultCache", "load", "api.cache.load", _found),
    ("repro.api.cache", "ResultCache", "store", "api.cache.store", _stored_bytes),
    ("repro.serve.server", "ServeReportStore", "load", "api.cache.load", _found),
    ("repro.serve.server", "ServeReportStore", "store", "api.cache.store", _stored_bytes),
    ("repro.serve.server", "ServeReportStore", "__contains__", "api.cache.contains", _truthy),
    ("repro.fleet.server", "FleetReportStore", "load", "api.cache.load", _found),
    ("repro.fleet.server", "FleetReportStore", "store", "api.cache.store", _stored_bytes),
    ("repro.fleet.server", "FleetReportStore", "__contains__", "api.cache.contains", _truthy),
    ("repro.utils.rng", "RngFactory", "child", "utils.rng.child", None),
    ("repro.fleet.server", "FleetServer", "run", "fleet.loop", _scale_events),
    ("repro.fleet.server", "FleetServer", "_execute", "fleet.execute", None),
    ("repro.fleet.router", "FleetRouter", "route", "fleet.router.route", None),
    ("repro.fleet.autoscaler", "Autoscaler", "tick", "fleet.autoscaler.tick", None),
    ("repro.obs.registry", "Counter", "inc", "obs.update", None),
    ("repro.obs.registry", "Gauge", "set", "obs.update", None),
    ("repro.obs.registry", "Gauge", "inc", "obs.update", None),
    ("repro.obs.registry", "Gauge", "dec", "obs.update", None),
    ("repro.obs.registry", "Histogram", "observe", "obs.update", None),
    ("repro.query.automaton", "QueryEvaluator", "observe", "query.observe", None),
    ("repro.query.automaton", "QueryEvaluator", "finish", "query.finish", None),
]


def install(tracer: Tracer) -> None:
    """Wrap every target; raises if any ``repro.*`` alias was missed."""
    # Import every repro module that may alias a target before scanning.
    for module in (
        "repro", "repro.api.session", "repro.fleet", "repro.serve",
        "repro.serve.tune", "repro.fleet.tune", "repro.query",
        "repro.tracker", "repro.core.pipeline",
    ):
        importlib.import_module(module)
    for module, attr, name, value in FUNCTIONS:
        importlib.import_module(module)
        tracer.wrap_function(module, attr, name, value)
    for module, cls, attr, name, value in METHODS:
        owner = getattr(importlib.import_module(module), cls)
        tracer.wrap_method(owner, attr, name, value)
    stale = tracer.stale_aliases()
    if stale:
        raise RuntimeError(f"unwrapped aliases left behind: {stale}")


def _per_call(x: float, calls: int) -> float:
    return x / calls if calls else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile_ms(durations: List[float], q: float) -> float:
    if not durations:
        return 0.0
    ordered = sorted(durations)
    rank = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[rank] * 1e3


def _parmap_split(parent: List[list], chunks: List[List[list]]):
    """Pool start-up and efficiency from parent map spans and worker tasks.

    A worker chunk belongs to the map whose interval contains its
    top-level span (both clocks are CLOCK_MONOTONIC).
    """
    maps = [s for s in parent if s[0] == "utils.parmap.map"]
    startups, busy, capacity = [], 0.0, 0.0
    for _name, start, end, _parent, value in maps:
        items, workers = value
        tasks = [
            c[0] for c in chunks
            if c and c[0][3] == -1 and start <= c[0][1] <= end
        ]
        if tasks:
            startups.append(min(t[1] for t in tasks) - start)
        busy += sum(t[2] - t[1] for t in tasks)
        capacity += workers * (end - start)
    startup = statistics.median(startups) if startups else 0.0
    return startup, _ratio(busy, capacity)


def layer_metrics(
    setup_spans: List[list],
    call_spans: List[List[list]],
    worker_chunks: List[List[list]],
    *,
    frames: float,
    max_batch_size: Optional[int],
    traced: List[Tuple[float, float]],
    untraced: List[Tuple[float, float]],
    units: Dict[str, str],
) -> Dict[str, float]:
    """Every per-layer metric from one traced run's spans.

    ``call_spans`` holds one parent span buffer per traced workload
    call; per-call figures divide by their number, per-frame figures by
    ``frames``, the traced calls' total.  Worker spans count toward
    layer totals (they did the work) but not toward coverage, which is a
    share of the parent's wall time.  ``traced`` and ``untraced`` are
    ``(wall_s, slowdown)`` per call, pairwise on one input instance.
    Like the end-to-end times, every metric whose unit in ``units`` is a
    time is divided by the host slowdown the speed probe measured around
    the calls.
    """
    n = len(call_spans)
    every = SpanStats()
    parent = SpanStats()
    flat_parent: List[list] = []
    for spans in call_spans:
        every.add(spans)
        parent.add(spans)
        flat_parent.extend(spans)
    for chunk in worker_chunks:
        every.add(chunk)
    setup = SpanStats()
    setup.add(setup_spans)

    def per(x):
        return _per_call(x, n)

    simdet_calls = every.calls("simdet.full_frame", "simdet.regions")
    simdet_frames = every.val("simdet.full_frame") + every.val("simdet.regions", 0)
    box_names = [k for k in every.count if k.startswith("boxes.")]
    box_calls = every.calls(*box_names)
    box_items = sum(every.val(k) for k in box_names)
    batches = every.calls("serve.execute")
    lookups = every.calls("api.cache.load", "api.cache.contains")
    loadgen = setup.durations.get("serve.loadgen", []) + every.durations.get(
        "serve.loadgen", []
    )
    builds = setup.durations.get("datasets.build", [])
    startup, efficiency = _parmap_split(flat_parent, worker_chunks)
    covered = sum(parent.self_time.values())
    steps = every.durations.get("engine.step", [])
    values = {
        "datasets.build_s": statistics.median(builds) if builds else 0.0,
        "datasets.annotations.calls": per(every.calls("datasets.annotations")),
        "datasets.annotations.self_s": per(every.self_s("datasets.annotations")),
        "simdet.invocations": per(simdet_calls),
        "simdet.frames_per_invocation": _ratio(simdet_frames, simdet_calls),
        "simdet.regions_per_frame": _ratio(
            every.val("simdet.regions", 1), every.val("simdet.regions", 0)
        ),
        "simdet.self_s": per(every.self_s("simdet.")),
        "boxes.calls": per(box_calls),
        "boxes.calls_per_frame": _ratio(box_calls, frames),
        "boxes.boxes_per_call": _ratio(box_items, box_calls),
        "boxes.self_s": per(every.self_s("boxes.")),
        "detections.constructed": per(every.calls("detections.init")),
        "detections.self_s": per(every.self_s("detections.")),
        "tracker.updates": per(every.calls("tracker.update")),
        "tracker.tracks_per_update": _ratio(
            every.val("tracker.update"), every.calls("tracker.update")
        ),
        "tracker.self_s": per(every.self_s("tracker.")),
        "hungarian.calls": per(every.calls("hungarian.solve")),
        "hungarian.self_s": per(every.self_s("hungarian.")),
        "engine.steps": per(len(steps)),
        "engine.frames_per_step": _ratio(every.val("engine.step"), len(steps)),
        "engine.step_ms.p50": _percentile_ms(steps, 0.50),
        "engine.step_ms.p99": _percentile_ms(steps, 0.99),
        "engine.self_s": per(every.self_s("engine.")),
        "metrics.evaluate.self_s": per(every.self_s("metrics.evaluate")),
        "serve.loop.self_s": per(every.self_s("serve.loop")),
        "serve.batches": per(batches),
        "serve.batch_occupancy": _ratio(
            _ratio(every.val("serve.execute"), batches), max_batch_size or 0
        ),
        "serve.batcher.decide.calls": per(every.calls("serve.batcher.decide")),
        "serve.loadgen_s": statistics.median(loadgen) if loadgen else 0.0,
        "serve.trace.replayed_frac": _ratio(
            every.val("serve.trace.match"), every.calls("serve.trace.match")
        ),
        "serve.trace.load_s": per(every.total.get("serve.trace.load", 0.0)),
        "serve.trace.store_s": per(every.total.get("serve.trace.store", 0.0)),
        "serve.trace.bytes": per(
            every.val("serve.trace.load") + every.val("serve.trace.store")
        ),
        "api.cache.lookups": per(lookups),
        "api.cache.hit_ratio": _ratio(
            every.val("api.cache.load") + every.val("api.cache.contains"), lookups
        ),
        "api.cache.load_s": per(every.total.get("api.cache.load", 0.0)),
        "api.cache.store_s": per(every.total.get("api.cache.store", 0.0)),
        "api.cache.bytes_written": per(every.val("api.cache.store")),
        "utils.parmap.startup_s": startup,
        "utils.parmap.wall_s": per(parent.total.get("utils.parmap.map", 0.0)),
        "utils.parmap.items": per(parent.val("utils.parmap.map", 0)),
        "utils.parmap.efficiency": efficiency,
        "utils.rng.child.calls": per(every.calls("utils.rng.child")),
        "fleet.loop.self_s": per(every.self_s("fleet.loop")),
        "fleet.router.calls": per(every.calls("fleet.router.route")),
        "fleet.autoscaler.ticks": per(every.calls("fleet.autoscaler.tick")),
        "fleet.autoscaler.self_s": per(every.self_s("fleet.autoscaler")),
        "fleet.scale_events": per(every.val("fleet.loop")),
        "obs.calls": per(every.calls("obs.update")),
        "obs.self_s": per(every.self_s("obs.")),
        "query.observe.calls": per(every.calls("query.observe")),
        "query.self_s": per(every.self_s("query.")),
        "trace.overhead_frac": statistics.median(
            _ratio(tw / tk, uw / uk) for (tw, tk), (uw, uk) in zip(traced, untraced)
        ) - 1.0,
        "trace.coverage": _ratio(covered, sum(w for w, _ in traced)),
    }
    slowdown = statistics.median(k for _, k in traced)
    for name, unit in units.items():
        if unit in ("s", "ms"):
            values[name] /= slowdown
    return values


def coverage_table(call_spans: List[List[list]], traced_walls: List[float]) -> List[str]:
    """Per-layer share of the parent's traced wall time, plus the rest."""
    stats = SpanStats()
    for spans in call_spans:
        stats.add(spans)
    wall = sum(traced_walls)
    lines = [f"{'layer':<12} {'self_s/call':>12} {'share':>7}"]
    covered = 0.0
    for layer in LAYERS:
        t = stats.self_s(layer + ".")
        covered += t
        lines.append(f"{layer:<12} {_per_call(t, len(call_spans)):>12.4f} {_ratio(t, wall):>7.1%}")
    rest = wall - covered
    lines.append(f"{'(no layer)':<12} {_per_call(rest, len(call_spans)):>12.4f} {_ratio(rest, wall):>7.1%}")
    return lines
