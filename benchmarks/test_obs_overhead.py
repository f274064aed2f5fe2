"""Observability overhead: instrumentation must cost under ~3% fps.

The engine's per-stage timing and frame counters are opt-in
(:meth:`~repro.engine.stages.StagePipeline.instrument`), and the
acceptance bar for the observability layer is that opting in costs less
than 3% of throughput.  :func:`repro.bench.bench_obs_overhead` measures
many plain/instrumented pairs on one warmed-up build, alternating which
side runs first, and reports the median per-pair ratio, so the gated
ratio is robust to scheduler noise on shared CI runners.
"""

from repro.bench import bench_obs_overhead

#: Minimum instrumented/plain fps ratio (the "≤ 3% overhead" acceptance
#: bar, with the measurement itself allowed to absorb the slack).
MIN_FPS_RATIO = 0.97


def test_instrumented_engine_keeps_97_percent_of_plain_fps():
    # Noise allowance on shared runners: one re-measure before failing.
    result = None
    for attempt in range(2):
        result = bench_obs_overhead(frames_per_sequence=40, repeats=3)
        if result["ratio"] >= MIN_FPS_RATIO:
            return
    assert result["ratio"] >= MIN_FPS_RATIO, (
        f"instrumentation costs too much: {result['instrumented_fps']:.1f} "
        f"fps instrumented vs {result['plain_fps']:.1f} fps plain "
        f"(ratio {result['ratio']:.3f} < {MIN_FPS_RATIO})"
    )


def test_instrumented_run_populates_engine_metrics():
    """The overhead being low must not mean the metrics are missing."""
    from repro.bench import BENCH_SYSTEMS
    from repro.core.config import build_system
    from repro.datasets.kitti import kitti_like_dataset
    from repro.obs import MetricsRegistry

    dataset = kitti_like_dataset(num_sequences=1, frames_per_sequence=10)
    registry = MetricsRegistry()
    system = build_system(BENCH_SYSTEMS["catdet"])
    pipeline = system.build_pipeline().instrument(registry)
    pipeline.run_sequence(dataset.sequences[0])
    assert registry.get("engine_frames_total").value() == 10
    stage_seconds = registry.get("engine_stage_seconds")
    assert stage_seconds.labels_seen(), "per-stage timings were not recorded"
    assert sum(
        stage_seconds.count(labels) for labels in stage_seconds.labels_seen()
    ) > 0
