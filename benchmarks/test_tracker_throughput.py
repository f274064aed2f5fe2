"""Tracker throughput (paper §4.1: 1082 fps single-threaded).

The tracker must be negligible next to the DNN workload.  This benchmark
measures frames/second of the pure-Python tracker on realistic per-frame
detection loads; pure Python won't match the paper's C-level number, but it
must sustain well over real-time (10 fps KITTI video).
"""

import numpy as np
import pytest

from repro.detections import Detections
from repro.tracker.catdet_tracker import CaTDetTracker, TrackerConfig

#: Batched/scalar pairs timed by the speedup gate.
PAIRS = 10


def _synthetic_frames(num_frames=100, objects=12, seed=0):
    """Pre-generated detections: `objects` smoothly moving boxes per frame."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(0, 1000, size=(objects, 2))
    vel = rng.normal(scale=3.0, size=(objects, 2))
    sizes = rng.uniform(30, 120, size=objects)
    frames = []
    for t in range(num_frames):
        pos = base + vel * t
        boxes = np.concatenate([pos, pos + sizes[:, None]], axis=1)
        frames.append(
            Detections(
                boxes,
                rng.uniform(0.6, 1.0, size=objects),
                rng.integers(0, 2, size=objects),
            )
        )
    return frames


def test_tracker_throughput(benchmark):
    frames = _synthetic_frames()
    tracker = CaTDetTracker(TrackerConfig(), image_size=(1242, 375))

    def run_one_pass():
        tracker.reset()
        for dets in frames:
            tracker.predict()
            tracker.update(dets)

    benchmark(run_one_pass)
    seconds_per_frame = benchmark.stats["mean"] / len(frames)
    fps = 1.0 / seconds_per_frame
    print(f"\ntracker throughput: {fps:.0f} fps (paper, optimized C-level: 1082 fps)")
    # Must comfortably exceed real-time for 10 fps KITTI video.
    assert fps > 50.0


def test_batched_tracker_beats_scalar_loop():
    """Acceptance gate: the columnar tracker sustains >= 2x the preserved
    per-object scalar loop's throughput at >= 50 concurrent tracks.

    Both sides run in this process on the same frames, so the ratio is
    machine-independent (unlike raw fps).  After one unmeasured warm-up
    of each side, it times ``PAIRS`` batched/scalar pairs, alternating
    which side runs first, and gates the median per-pair ratio, which a
    pair descheduled by a noisy neighbour cannot move.  Skipped on
    single-CPU runners, where background noise makes the ratio unstable.
    """
    from repro.engine.scheduler import effective_cpu_count
    from repro.tracker.reference import ScalarCaTDetTracker

    if effective_cpu_count() < 2:
        pytest.skip("ratio too noisy on a single-CPU runner")

    import statistics
    import time

    frames = _synthetic_frames(num_frames=40, objects=60, seed=0)

    def seconds(tracker_cls):
        tracker = tracker_cls(TrackerConfig(), image_size=(2100, 2100))
        start = time.perf_counter()
        for dets in frames:
            tracker.predict()
            tracker.update(dets)
        return time.perf_counter() - start

    sides = (CaTDetTracker, ScalarCaTDetTracker)
    for tracker_cls in sides:
        seconds(tracker_cls)  # warm-up, outside the pairs
    ratios = []
    for pair in range(PAIRS):
        order = sides if pair % 2 == 0 else sides[::-1]
        timed = {tracker_cls: seconds(tracker_cls) for tracker_cls in order}
        ratios.append(timed[ScalarCaTDetTracker] / timed[CaTDetTracker])
    speedup = statistics.median(ratios)
    print(
        f"\nbatched vs scalar tracker: {speedup:.2f}x at 60 tracks "
        f"(median of {PAIRS} pairs)"
    )
    assert speedup >= 2.0


def test_batched_and_scalar_trackers_agree():
    """The speed comparison is only meaningful if outputs are identical."""
    from repro.tracker.reference import ScalarCaTDetTracker

    frames = _synthetic_frames(num_frames=25, objects=30, seed=1)
    vec = CaTDetTracker(TrackerConfig(), image_size=(2100, 2100))
    ref = ScalarCaTDetTracker(TrackerConfig(), image_size=(2100, 2100))
    for dets in frames:
        pv, pr = vec.predict(), ref.predict()
        np.testing.assert_array_equal(pv.boxes, pr.boxes)
        np.testing.assert_array_equal(pv.scores, pr.scores)
        vec.update(dets)
        ref.update(dets)
