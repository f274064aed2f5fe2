"""Serving subsystem tests.

The load-bearing guarantees:

* a frame served through the batched path carries detections
  byte-identical to the offline :class:`SerialExecutor` run, for single
  streams and for every stream of a coalesced multi-stream cohort;
* the micro-batcher flushes on both of its triggers (size, deadline);
* the shedding policy drops the oldest queued frame and counts it in
  the SLO statistics;
* the load generator is deterministic under a fixed seed;
* serve specs round-trip through JSON and their reports are served
  bit-identically from the session cache.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.api.spec import DatasetSpec, ServeSpec
from repro.core.config import SystemConfig
from repro.core.pipeline import run_on_dataset
from repro.serve import (
    DetectionServer,
    FrameRequest,
    LoadSpec,
    MicroBatcher,
    QueuedFrame,
    ServePolicy,
    ServeReport,
    ServiceModel,
    generate_load,
)

CATDET = SystemConfig("catdet", "resnet50", "resnet10a", detailed_ops=False)
#: Modeled accelerator where per-invocation overhead matters: the regime
#: micro-batching exists for.
FAST_ACCEL = ServiceModel(invocation_overhead_ms=4.0, gops_per_second=8000.0)


def assert_frames_identical(fa, fb):
    assert fa.frame == fb.frame
    np.testing.assert_array_equal(fa.detections.boxes, fb.detections.boxes)
    np.testing.assert_array_equal(fa.detections.scores, fb.detections.scores)
    np.testing.assert_array_equal(fa.detections.labels, fb.detections.labels)
    assert fa.ops.proposal == fb.ops.proposal
    assert fa.ops.refinement == fb.ops.refinement
    assert fa.num_regions == fb.num_regions
    assert fa.coverage_fraction == fb.coverage_fraction


class TestByteIdentity:
    def test_single_stream_matches_serial_executor(self, kitti_small):
        """Acceptance gate: batched-path serving == SerialExecutor output."""
        serial = run_on_dataset(CATDET, kitti_small, workers=1)
        load = LoadSpec(pattern="replay", num_streams=1, frames_per_stream=60)
        requests = generate_load(load, kitti_small)
        report = DetectionServer(CATDET, policy=ServePolicy(max_batch_size=8)).run(
            requests
        )
        (stream_id,) = report.frame_results
        served = report.frame_results[stream_id]
        reference = serial.sequences[kitti_small.sequences[0].name].frames
        assert len(served) == len(reference) == 60
        for fa, fb in zip(served, reference):
            assert_frames_identical(fa, fb)

    @pytest.mark.parametrize(
        "config",
        [
            SystemConfig("single", "resnet10b"),
            SystemConfig("cascade", "resnet50", "resnet10a"),
            CATDET,
            SystemConfig("keyframe", "resnet50", stride=4),
        ],
        ids=lambda c: c.kind,
    )
    def test_interleaved_streams_each_match_solo_runs(self, config, kitti_small):
        """Every stream of a coalesced cohort is byte-identical to running
        its sequence alone — whatever frames it shared batches with."""
        serial = run_on_dataset(config, kitti_small, workers=1)
        load = LoadSpec(
            pattern="poisson", num_streams=2, rate_hz=8.0,
            frames_per_stream=40, seed=5,
        )
        requests = generate_load(load, kitti_small)
        report = DetectionServer(
            config, policy=ServePolicy(max_batch_size=4, max_wait_ms=50.0)
        ).run(requests)
        assert report.frames_shed == 0
        for i, sequence in enumerate(kitti_small.sequences):
            served = report.frame_results[f"s{i}:{sequence.name}"]
            reference = serial.sequences[sequence.name].frames
            assert len(served) == 40
            for fa, fb in zip(served, reference):
                assert_frames_identical(fa, fb)

    def test_rerun_on_one_server_is_identical_and_isolated(self, kitti_small):
        """run() is reentrant: a repeat of the same schedule reproduces
        the report exactly and never mutates the earlier report."""
        load = LoadSpec(pattern="uniform", num_streams=2, rate_hz=10.0,
                        frames_per_stream=12)
        server = DetectionServer(CATDET, policy=ServePolicy(max_batch_size=4))
        first = server.run(generate_load(load, kitti_small))
        first_lengths = {s: len(r) for s, r in first.frame_results.items()}
        second = server.run(generate_load(load, kitti_small))
        assert first.to_dict() == second.to_dict()
        # The earlier report's per-stream results must not have grown.
        assert {s: len(r) for s, r in first.frame_results.items()} == first_lengths
        for stream, results in second.frame_results.items():
            for fa, fb in zip(first.frame_results[stream], results):
                assert_frames_identical(fa, fb)

    def test_batching_coalesces_detector_invocations(self, kitti_small):
        """Same frames, strictly fewer detector invocations when batched."""
        load = LoadSpec(
            pattern="uniform", num_streams=2, rate_hz=10.0, frames_per_stream=30
        )
        batched = DetectionServer(
            CATDET, policy=ServePolicy(max_batch_size=8, max_wait_ms=60.0)
        ).run(generate_load(load, kitti_small))
        unbatched = DetectionServer(
            CATDET, policy=ServePolicy(max_batch_size=1, max_wait_ms=0.0)
        ).run(generate_load(load, kitti_small))
        assert batched.frames_served == unbatched.frames_served == 60
        assert batched.invocations < unbatched.invocations
        # Unbatched: one proposal + one refinement invocation per frame.
        assert unbatched.invocations == 2 * unbatched.frames_served
        assert batched.mean_batch_size > 1.0


def _request(stream, frame, arrival, sequence):
    return QueuedFrame(
        request=FrameRequest(
            stream=stream, sequence=sequence, frame=frame, arrival=arrival
        ),
        enqueued=arrival,
    )


class TestMicroBatcher:
    def test_flushes_on_size(self, kitti_sequence):
        batcher = MicroBatcher(max_batch_size=3, max_wait=1.0)
        ready = [_request(f"s{i}", 0, 0.0, kitti_sequence) for i in range(3)]
        batch, wake = batcher.decide(0.0, ready, more_arrivals=True)
        assert batch is not None and len(batch) == 3
        assert wake is None

    def test_waits_below_size_until_deadline(self, kitti_sequence):
        batcher = MicroBatcher(max_batch_size=4, max_wait=0.030)
        ready = [_request("s0", 0, 0.0, kitti_sequence)]
        batch, wake = batcher.decide(0.010, ready, more_arrivals=True)
        assert batch is None
        assert wake == pytest.approx(0.030)

    def test_flushes_on_deadline(self, kitti_sequence):
        batcher = MicroBatcher(max_batch_size=4, max_wait=0.030)
        ready = [_request("s0", 0, 0.0, kitti_sequence)]
        batch, _ = batcher.decide(0.030, ready, more_arrivals=True)
        assert batch is not None and len(batch) == 1

    def test_flushes_partial_when_no_more_arrivals(self, kitti_sequence):
        batcher = MicroBatcher(max_batch_size=4, max_wait=10.0)
        ready = [_request("s0", 0, 0.0, kitti_sequence)]
        batch, _ = batcher.decide(0.0, ready, more_arrivals=False)
        assert batch is not None

    def test_one_frame_per_stream_per_batch(self, kitti_sequence):
        """Causality: only head-of-line frames are batchable."""
        batcher = MicroBatcher(max_batch_size=8, max_wait=0.0)
        queue = [
            _request("s0", 0, 0.0, kitti_sequence),
            _request("s0", 1, 0.001, kitti_sequence),
            _request("s1", 0, 0.002, kitti_sequence),
        ]
        ready = batcher.ready(queue)
        assert [(q.request.stream, q.request.frame) for q in ready] == [
            ("s0", 0),
            ("s1", 0),
        ]

    def test_server_batches_simultaneous_arrivals_by_size(self, kitti_small):
        """Four streams arriving in lockstep + max_batch_size=2 → every
        dispatch is a full batch of exactly 2."""
        load = LoadSpec(
            pattern="uniform", num_streams=4, rate_hz=5.0, frames_per_stream=10
        )
        report = DetectionServer(
            CATDET,
            policy=ServePolicy(max_batch_size=2, max_wait_ms=1000.0),
            service=ServiceModel(invocation_overhead_ms=0.1, gops_per_second=1e6),
        ).run(generate_load(load, kitti_small))
        assert report.frames_served == 40
        assert report.mean_batch_size == pytest.approx(2.0)

    def test_server_respects_deadline_under_sparse_arrivals(self, kitti_small):
        """Arrivals spaced wider than max_wait → no coalescing, and no
        frame waits past its deadline while the engine sits idle."""
        load = LoadSpec(
            pattern="uniform", num_streams=1, rate_hz=2.0, frames_per_stream=8
        )
        policy = ServePolicy(max_batch_size=8, max_wait_ms=20.0)
        report = DetectionServer(
            CATDET,
            policy=policy,
            service=ServiceModel(invocation_overhead_ms=0.1, gops_per_second=1e6),
        ).run(generate_load(load, kitti_small))
        assert report.mean_batch_size == pytest.approx(1.0)
        fleet = report.slo["fleet"]
        # Queue wait is bounded by the coalescing deadline (compute is
        # near-free under this service model).
        assert fleet["mean_wait_ms"] <= policy.max_wait_ms + 1e-6


class TestShedding:
    def _overload(self, kitti_small, shed_policy):
        # 2 streams, every frame of both arrives in one instant burst; a
        # 3-slot queue must shed most of it.
        sequence = kitti_small.sequences[0]
        requests = [
            FrameRequest(
                stream=f"s{i}", sequence=sequence, frame=f, arrival=0.001 * (f + 1)
            )
            for f in range(6)
            for i in range(2)
        ]
        requests.sort(key=lambda r: (r.arrival, r.stream))
        policy = ServePolicy(
            max_batch_size=2,
            max_wait_ms=0.0,
            queue_capacity=3,
            shed_policy=shed_policy,
            slo_ms=500.0,
        )
        # Slow engine: the burst lands while the first batch computes.
        service = ServiceModel(invocation_overhead_ms=50.0, gops_per_second=2000.0)
        return DetectionServer(CATDET, policy=policy, service=service).run(requests)

    def test_oldest_policy_sheds_and_counts(self, kitti_small):
        report = self._overload(kitti_small, "oldest")
        assert report.frames_shed > 0
        assert report.frames_served + report.frames_shed == report.frames_offered
        fleet = report.slo["fleet"]
        assert fleet["shed"] == report.frames_shed
        # Drop-oldest keeps the *newest* frames: both streams' final
        # frames get served, their earliest queued ones are the victims.
        for stream, results in report.frame_results.items():
            if results:
                assert results[-1].frame == 5

    def test_oldest_drops_head_of_queue(self, kitti_small):
        """The first shed victim is exactly the oldest queued frame."""
        report = self._overload(kitti_small, "oldest")
        served_frames = {
            stream: [fr.frame for fr in results]
            for stream, results in report.frame_results.items()
        }
        # The burst overflows while frame 0 of each stream is queued
        # behind the in-flight batch; drop-oldest evicts those first, so
        # some early frame of some stream never runs.
        all_served = sorted(f for frames in served_frames.values() for f in frames)
        assert 0 not in all_served or len(all_served) < 12

    def test_newest_policy_rejects_arrivals(self, kitti_small):
        report = self._overload(kitti_small, "newest")
        assert report.frames_shed > 0
        # Reject-newest preserves the oldest queued work instead.
        earliest_served = min(
            fr.frame
            for results in report.frame_results.values()
            for fr in results
        )
        assert earliest_served == 0

    def test_shed_frames_never_execute(self, kitti_small):
        report = self._overload(kitti_small, "oldest")
        executed = sum(len(r) for r in report.frame_results.values())
        assert executed == report.frames_served


class TestLoadgen:
    def test_deterministic_under_fixed_seed(self, kitti_small):
        load = LoadSpec(pattern="poisson", num_streams=3, rate_hz=12.0,
                        frames_per_stream=25, seed=42)
        a = generate_load(load, kitti_small)
        b = generate_load(load, kitti_small)
        assert [(r.stream, r.frame, r.arrival) for r in a] == [
            (r.stream, r.frame, r.arrival) for r in b
        ]

    def test_seed_changes_schedule(self, kitti_small):
        base = LoadSpec(pattern="poisson", num_streams=2, frames_per_stream=20, seed=0)
        other = LoadSpec(pattern="poisson", num_streams=2, frames_per_stream=20, seed=1)
        a = generate_load(base, kitti_small)
        b = generate_load(other, kitti_small)
        assert [r.arrival for r in a] != [r.arrival for r in b]

    def test_streams_are_causal_and_sorted(self, kitti_small):
        load = LoadSpec(pattern="poisson", num_streams=3, frames_per_stream=30, seed=7)
        requests = generate_load(load, kitti_small)
        assert all(
            requests[i].arrival <= requests[i + 1].arrival
            for i in range(len(requests) - 1)
        )
        per_stream = {}
        for r in requests:
            per_stream.setdefault(r.stream, []).append(r.frame)
        for frames in per_stream.values():
            assert frames == sorted(frames)

    def test_replay_uses_native_fps(self, kitti_small):
        load = LoadSpec(pattern="replay", num_streams=1, frames_per_stream=10)
        requests = generate_load(load, kitti_small)
        fps = kitti_small.sequences[0].fps
        assert requests[1].arrival - requests[0].arrival == pytest.approx(1.0 / fps)

    def test_more_streams_than_sequences_wraps(self, kitti_small):
        n = len(kitti_small.sequences)
        load = LoadSpec(pattern="uniform", num_streams=n + 1, frames_per_stream=5)
        requests = generate_load(load, kitti_small)
        streams = {r.stream for r in requests}
        assert len(streams) == n + 1

    def test_validation(self):
        with pytest.raises(ValueError, match="num_streams"):
            LoadSpec(num_streams=0)
        with pytest.raises(ValueError, match="rate_hz"):
            LoadSpec(rate_hz=0.0)
        with pytest.raises(ValueError, match="unknown LoadSpec"):
            LoadSpec.from_dict({"pattern": "poisson", "bogus": 1})


class TestTrafficModels:
    """Bursty (two-state MMPP) and diurnal (sinusoidal-rate) arrivals."""

    @pytest.mark.parametrize("pattern", ["bursty", "diurnal"])
    def test_registered_and_deterministic(self, pattern, kitti_small):
        load = LoadSpec(pattern=pattern, num_streams=3, rate_hz=12.0,
                        frames_per_stream=30, seed=11)
        a = generate_load(load, kitti_small)
        b = generate_load(load, kitti_small)
        assert [(r.stream, r.frame, r.arrival) for r in a] == [
            (r.stream, r.frame, r.arrival) for r in b
        ]
        # Per-stream counts and causal order hold like any other pattern.
        per_stream = {}
        for r in a:
            per_stream.setdefault(r.stream, []).append(r)
        assert all(len(rs) == 30 for rs in per_stream.values())
        for rs in per_stream.values():
            arrivals = [r.arrival for r in rs]
            assert arrivals == sorted(arrivals)
            assert all(t > 0 for t in arrivals)

    @pytest.mark.parametrize("pattern", ["bursty", "diurnal"])
    def test_seed_and_stream_independence(self, pattern, kitti_small):
        base = LoadSpec(pattern=pattern, num_streams=2, frames_per_stream=25, seed=0)
        reseeded = LoadSpec(pattern=pattern, num_streams=2, frames_per_stream=25, seed=1)
        a = generate_load(base, kitti_small)
        b = generate_load(reseeded, kitti_small)
        assert [r.arrival for r in a] != [r.arrival for r in b]
        # Adding a stream never perturbs existing streams' schedules.
        widened = LoadSpec(pattern=pattern, num_streams=3,
                           frames_per_stream=25, seed=0)
        c = generate_load(widened, kitti_small)
        for stream in {r.stream for r in a}:
            assert [r.arrival for r in a if r.stream == stream] == [
                r.arrival for r in c if r.stream == stream
            ]

    def test_bursty_is_burstier_than_poisson(self, kitti_small):
        """The MMPP's inter-arrival dispersion exceeds the memoryless
        baseline: squared coefficient of variation > 1 for an MMPP, == 1
        in expectation for Poisson."""
        import numpy as np

        def scv(pattern):
            load = LoadSpec(pattern=pattern, num_streams=1, rate_hz=20.0,
                            frames_per_stream=60, seed=3)
            gaps = np.diff([r.arrival for r in generate_load(load, kitti_small)])
            return np.var(gaps) / np.mean(gaps) ** 2

        assert scv("bursty") > scv("poisson")

    @pytest.mark.parametrize("pattern", ["bursty", "diurnal"])
    def test_served_end_to_end(self, pattern, kitti_small):
        load = LoadSpec(pattern=pattern, num_streams=2, rate_hz=8.0,
                        frames_per_stream=10, seed=2)
        report = DetectionServer(CATDET).run(generate_load(load, kitti_small))
        assert report.frames_served + report.frames_shed == 20


class TestServeSpec:
    def _spec(self):
        return ServeSpec(
            system=CATDET,
            dataset=DatasetSpec("kitti", num_sequences=2, frames_per_sequence=30),
            load=LoadSpec(pattern="uniform", num_streams=2, rate_hz=10.0,
                          frames_per_stream=15),
            policy=ServePolicy(max_batch_size=4),
            service=FAST_ACCEL,
        )

    def test_json_round_trip(self):
        spec = self._spec()
        again = ServeSpec.from_json(spec.to_json())
        assert again == spec
        assert again.fingerprint == spec.fingerprint

    def test_fingerprint_covers_policy_and_service(self):
        import dataclasses

        spec = self._spec()
        repoliced = dataclasses.replace(spec, policy=ServePolicy(max_batch_size=2))
        remodeled = dataclasses.replace(spec, service=ServiceModel())
        assert spec.fingerprint != repoliced.fingerprint
        assert spec.fingerprint != remodeled.fingerprint

    def test_session_serve_cached_bit_identical(self, tmp_path):
        from repro.api.session import Session

        session = Session(cache_dir=tmp_path)
        spec = self._spec()
        fresh = session.serve(spec)
        cached = session.serve(spec)
        assert isinstance(cached, ServeReport)
        assert cached.frame_results is None  # stats-only from the store
        assert fresh.to_dict() == cached.to_dict()
        assert session.cache_hits == 1

    def test_validation_rejects_wrong_types(self):
        with pytest.raises(TypeError, match="load"):
            ServeSpec(system=CATDET, load=3)
        with pytest.raises(ValueError, match="shed_policy"):
            ServePolicy(shed_policy="coinflip")
        with pytest.raises(ValueError, match="gops"):
            ServiceModel(gops_per_second=0.0)


class TestDeviceCalibration:
    """One accelerator description per spec: device XOR explicit rates."""

    def test_default_service_is_calibrated_from_abstract(self):
        model = ServiceModel()
        assert model.device == "abstract"
        assert model.invocation_overhead_ms == 2.0
        assert model.gops_per_second == 2000.0
        spec = ServeSpec(system=CATDET)
        assert spec.device == "abstract"
        assert spec.service == model

    def test_device_spec_round_trips_with_fingerprint(self):
        spec = ServeSpec(system=CATDET, device="titanx")
        assert spec.service.device == "titanx"
        again = ServeSpec.from_json(spec.to_json())
        assert again == spec
        assert again.fingerprint == spec.fingerprint

    def test_fingerprint_changes_on_device(self):
        base = ServeSpec(system=CATDET)
        titanx = ServeSpec(system=CATDET, device="titanx")
        assert base.fingerprint != titanx.fingerprint

    def test_explicit_service_plus_device_raises(self):
        with pytest.raises(ValueError, match="both an explicit service model"):
            ServeSpec(system=CATDET, service=FAST_ACCEL, device="titanx")
        with pytest.raises(ValueError, match="both an explicit service model"):
            DetectionServer(CATDET, service=FAST_ACCEL, device="titanx")
        with pytest.raises(ValueError, match="contradicts device"):
            ServiceModel(device="titanx", gops_per_second=123.0)

    def test_unknown_device_raises_with_known_names(self):
        with pytest.raises(KeyError, match="titanx"):
            ServeSpec(system=CATDET, device="tpu-v9")

    def test_system_device_flows_into_service_model(self):
        config = SystemConfig(
            "catdet", "resnet50", "resnet10a",
            detailed_ops=False, device="titanx",
        )
        spec = ServeSpec(system=config)
        assert spec.device == "titanx"
        assert spec.service.device == "titanx"

    def test_device_profile_charges_cpu_per_frame(self):
        from repro.cost import TITANX

        model = ServiceModel.for_device("titanx")
        without_frames = model.batch_seconds(2, 1e9)
        with_frames = model.batch_seconds(2, 1e9, frames=4)
        assert with_frames - without_frames == pytest.approx(
            4 * TITANX.cpu_frame_overhead
        )
        # Uncalibrated explicit rates model no CPU side (legacy behavior).
        assert FAST_ACCEL.batch_seconds(2, 1e9, frames=4) == pytest.approx(
            FAST_ACCEL.batch_seconds(2, 1e9)
        )

    def test_titanx_serving_report_is_deterministic(self, kitti_small, tmp_path):
        from repro.api.session import Session

        spec = ServeSpec(
            system=CATDET,
            dataset=DatasetSpec("kitti", num_sequences=2, frames_per_sequence=30),
            load=LoadSpec(pattern="uniform", num_streams=2, rate_hz=4.0,
                          frames_per_stream=8),
            device="titanx",
        )
        session = Session(cache_dir=tmp_path)
        fresh = session.serve(spec)
        cached = session.serve(spec)
        assert session.cache_hits == 1
        assert fresh.to_dict() == cached.to_dict()
        assert cached.service.device == "titanx"


class TestReport:
    def test_report_dict_round_trip(self, kitti_small):
        load = LoadSpec(pattern="uniform", num_streams=2, rate_hz=10.0,
                        frames_per_stream=10)
        report = DetectionServer(CATDET).run(generate_load(load, kitti_small))
        again = ServeReport.from_dict(report.to_dict())
        assert again.to_dict() == report.to_dict()

    def test_report_formats(self, kitti_small):
        load = LoadSpec(pattern="uniform", num_streams=2, rate_hz=10.0,
                        frames_per_stream=10)
        report = DetectionServer(CATDET).run(generate_load(load, kitti_small))
        text = report.format()
        assert "Serving report" in text
        assert "throughput" in text
        assert "(fleet)" in text


class TestLongRunBufferedResults:
    """Long served runs accumulate results in FrameResultBuffer — the
    columnar storage must be invisible: byte-identical frames, list-like
    access, bounded object churn."""

    def test_long_run_through_buffer_is_byte_identical(self):
        from repro.core.results import FrameResultBuffer
        from repro.datasets.kitti import kitti_like_dataset

        dataset = kitti_like_dataset(num_sequences=1, frames_per_sequence=240)
        serial = run_on_dataset(CATDET, dataset, workers=1)
        load = LoadSpec(pattern="replay", num_streams=1, frames_per_stream=240)
        requests = generate_load(load, dataset)
        report = DetectionServer(CATDET, policy=ServePolicy(max_batch_size=8)).run(
            requests
        )
        (stream_id,) = report.frame_results
        served = report.frame_results[stream_id]
        assert isinstance(served, FrameResultBuffer)
        reference = serial.sequences[dataset.sequences[0].name].frames
        assert len(served) == len(reference) == 240
        # Every access pattern downstream code uses: zip, index, slice.
        for fa, fb in zip(served, reference):
            assert_frames_identical(fa, fb)
        assert_frames_identical(served[-1], reference[-1])
        tail = served[230:]
        assert isinstance(tail, list) and len(tail) == 10
        for fa, fb in zip(tail, reference[230:]):
            assert_frames_identical(fa, fb)


class TestBoundedMemoryAccounting:
    """LatencyStats beyond ``max_exact_samples``: lists released,
    histogram percentiles within one bucket width of exact."""

    def _synthetic(self, n, max_exact, rng_seed=3):
        from repro.serve.slo import LatencyStats

        rng = np.random.default_rng(rng_seed)
        latencies = rng.gamma(shape=2.0, scale=0.05, size=n)
        stats = LatencyStats(max_exact_samples=max_exact)
        for lat in latencies:
            stats.add(lat * 0.4, lat * 0.6, lat, violated=False)
        return stats, latencies

    def test_exact_below_the_bound(self):
        stats, latencies = self._synthetic(100, max_exact=4096)
        assert stats.exact
        assert stats.percentile(99) == pytest.approx(
            float(np.percentile(latencies, 99))
        )

    def test_overflow_releases_lists_and_keeps_scalars_exact(self):
        stats, latencies = self._synthetic(500, max_exact=64)
        assert not stats.exact
        assert stats.latencies == [] and stats.waits == [] and stats.computes == []
        assert stats.served == 500
        assert stats.mean_wait() == pytest.approx(float(np.mean(latencies)) * 0.4)
        assert stats.to_dict()["max_ms"] == pytest.approx(
            float(np.max(latencies)) * 1e3
        )

    def test_histogram_p99_within_one_bucket_width_of_exact(self):
        stats, latencies = self._synthetic(2000, max_exact=64)
        exact = float(np.percentile(latencies, 99))
        estimate = stats.percentile(99)
        # The estimate must land inside the hard bracket, whose span is
        # at most one bucket width (clamped to observed extremes).
        lo, hi = stats.hist_latency.quantile_bracket(99)
        assert lo <= estimate <= hi
        assert lo <= exact <= hi
        bounds = stats.hist_latency.bounds
        idx = int(np.searchsorted(bounds, exact))
        lower_edge = bounds[idx - 1] if idx > 0 else 0.0
        upper_edge = bounds[idx] if idx < len(bounds) else float(np.max(latencies))
        width = upper_edge - lower_edge
        assert abs(estimate - exact) <= width

    def test_merge_of_overflowed_stats_is_histogram_backed(self):
        from repro.serve.slo import LatencyStats

        a, la = self._synthetic(300, max_exact=64, rng_seed=1)
        b, lb = self._synthetic(40, max_exact=4096, rng_seed=2)
        a.merge(b)
        assert a.served == 340 and not a.exact
        combined = np.concatenate([la, lb])
        exact = float(np.percentile(combined, 95))
        lo, hi = a.hist_latency.quantile_bracket(95)
        assert lo <= exact <= hi
        assert lo <= a.percentile(95) <= hi

    def test_server_respects_max_exact_samples(self, kitti_small):
        load = LoadSpec(pattern="uniform", num_streams=2, rate_hz=30.0,
                        frames_per_stream=30)
        requests = generate_load(load, kitti_small)
        bounded = DetectionServer(CATDET, max_exact_samples=8).run(requests)
        unbounded = DetectionServer(CATDET).run(requests)
        assert bounded.slo["fleet"]["exact"] is False
        assert unbounded.slo["fleet"]["exact"] is True
        assert bounded.frames_served == unbounded.frames_served
        # Scalar stats stay exact either way; percentiles agree within
        # the histogram bracket.
        assert bounded.slo["fleet"]["mean_wait_ms"] == pytest.approx(
            unbounded.slo["fleet"]["mean_wait_ms"]
        )


class TestShedReasons:
    def _overload(self, kitti_small, shed_policy):
        sequence = kitti_small.sequences[0]
        requests = [
            FrameRequest(
                stream=f"s{i}", sequence=sequence, frame=f, arrival=0.001 * (f + 1)
            )
            for f in range(6)
            for i in range(2)
        ]
        requests.sort(key=lambda r: (r.arrival, r.stream))
        policy = ServePolicy(
            max_batch_size=2, max_wait_ms=0.0, queue_capacity=3,
            shed_policy=shed_policy, slo_ms=500.0,
        )
        service = ServiceModel(invocation_overhead_ms=50.0, gops_per_second=2000.0)
        return DetectionServer(CATDET, policy=policy, service=service).run(requests)

    def test_oldest_policy_reports_shed_oldest(self, kitti_small):
        report = self._overload(kitti_small, "oldest")
        reasons = report.slo["fleet"]["shed_reasons"]
        assert reasons == {"shed_oldest": report.frames_shed}

    def test_newest_policy_reports_reject_newest(self, kitti_small):
        report = self._overload(kitti_small, "newest")
        reasons = report.slo["fleet"]["shed_reasons"]
        assert reasons == {"reject_newest": report.frames_shed}

    def test_drop_counters_split_by_reason(self, kitti_small):
        from repro.obs import MetricsRegistry

        reg = MetricsRegistry()
        report = self._overload_with_metrics(kitti_small, "oldest", reg)
        drops = reg.get("serve_drops_total")
        assert drops.total() == report.frames_shed
        assert drops.value(("shed_oldest",)) == report.frames_shed
        frames = reg.get("serve_frames_total")
        assert frames.value(("in",)) == report.frames_offered
        assert frames.value(("out",)) == report.frames_served

    def _overload_with_metrics(self, kitti_small, shed_policy, registry):
        sequence = kitti_small.sequences[0]
        requests = [
            FrameRequest(
                stream=f"s{i}", sequence=sequence, frame=f, arrival=0.001 * (f + 1)
            )
            for f in range(6)
            for i in range(2)
        ]
        requests.sort(key=lambda r: (r.arrival, r.stream))
        policy = ServePolicy(
            max_batch_size=2, max_wait_ms=0.0, queue_capacity=3,
            shed_policy=shed_policy, slo_ms=500.0,
        )
        service = ServiceModel(invocation_overhead_ms=50.0, gops_per_second=2000.0)
        return DetectionServer(
            CATDET, policy=policy, service=service, metrics=registry
        ).run(requests)

    def test_shed_records_reach_sinks(self, kitti_small):
        from repro.obs import Sink

        class ListSink(Sink):
            def __init__(self):
                self.records = []

            def emit(self, record):
                self.records.append(record)

        sink = ListSink()
        sequence = kitti_small.sequences[0]
        requests = [
            FrameRequest(
                stream=f"s{i}", sequence=sequence, frame=f, arrival=0.001 * (f + 1)
            )
            for f in range(6)
            for i in range(2)
        ]
        requests.sort(key=lambda r: (r.arrival, r.stream))
        policy = ServePolicy(
            max_batch_size=2, max_wait_ms=0.0, queue_capacity=3,
            shed_policy="oldest", slo_ms=500.0,
        )
        service = ServiceModel(invocation_overhead_ms=50.0, gops_per_second=2000.0)
        report = DetectionServer(
            CATDET, policy=policy, service=service, sinks=sink
        ).run(requests)
        kinds = {}
        for record in sink.records:
            kinds[record["record"]] = kinds.get(record["record"], 0) + 1
        assert kinds["serve.frame"] == report.frames_served
        assert kinds["serve.shed"] == report.frames_shed
        assert kinds["serve.summary"] == 1
        (summary,) = [r for r in sink.records if r["record"] == "serve.summary"]
        assert summary["frames_offered"] == report.frames_offered
        shed = [r for r in sink.records if r["record"] == "serve.shed"]
        assert all(r["reason"] == "shed_oldest" for r in shed)


GOLDEN_PATH = Path(__file__).parent / "fixtures" / "serve_golden.json"


def _golden_runs(dataset):
    """Sink records and registry snapshots of one shedding, query-bearing
    schedule served by a bare server and by a 2-replica autoscaled fleet.

    ``engine_stage_seconds`` times the host's Python, so only its label
    series and counts are deterministic; every other value is pinned
    exactly.
    """
    from repro.fleet import AutoscalerPolicy, FleetServer, FleetSpec
    from repro.obs import MetricsRegistry, Sink
    from repro.query import Eventually, QuerySpec, TrackPersisted

    class ListSink(Sink):
        def __init__(self):
            self.records = []

        def emit(self, record):
            self.records.append(record)

    def observed(run):
        sink, registry = ListSink(), MetricsRegistry()
        run(registry, sink)
        snapshot = registry.snapshot()
        stage = snapshot.get("engine_stage_seconds")
        if stage is not None:
            stage["series"] = [
                {"labels": s["labels"], "count": s["count"]} for s in stage["series"]
            ]
        return json.loads(
            json.dumps({"records": sink.records, "metrics": snapshot})
        )

    query = QuerySpec("persist", Eventually(TrackPersisted(3)))
    load = LoadSpec(
        pattern="bursty", num_streams=4, rate_hz=12.0, frames_per_stream=12, seed=5
    )
    policy = ServePolicy(
        max_batch_size=4, max_wait_ms=10.0, queue_capacity=4, slo_ms=500.0
    )
    requests = generate_load(load, dataset)
    fleet_spec = FleetSpec(
        system=CATDET,
        load=load,
        policy=policy,
        replicas=2,
        devices=("edge",),
        autoscaler=AutoscalerPolicy(
            min_replicas=1, max_replicas=3, interval_s=0.25, cooldown_s=0.5,
            slo_p99_ms=300.0, scale_out_wait_share=0.2, scale_in_occupancy=0.5,
        ),
        query=query,
    )
    return {
        "server": observed(
            lambda registry, sink: DetectionServer(
                CATDET, policy=policy, device="edge", metrics=registry,
                sinks=sink, query=query,
            ).run(requests)
        ),
        "fleet": observed(
            lambda registry, sink: FleetServer(
                fleet_spec, metrics=registry, sinks=sink
            ).run(requests)
        ),
    }


class TestGoldenObservables:
    """Everything a served run shows the outside world — its ordered sink
    record stream and its registry — pinned for the bare server and for
    an autoscaled fleet."""

    @pytest.fixture(scope="class")
    def golden(self, kitti_small):
        return _golden_runs(kitti_small)

    @pytest.fixture(scope="class")
    def pinned(self):
        return json.loads(GOLDEN_PATH.read_text())

    @pytest.mark.parametrize("front", ["server", "fleet"])
    def test_sink_records_match_pinned(self, golden, pinned, front):
        kinds = {r["record"] for r in golden[front]["records"]}
        assert "query.window" in kinds
        assert golden[front]["records"] == pinned[front]["records"]

    @pytest.mark.parametrize("front", ["server", "fleet"])
    def test_registry_snapshot_matches_pinned(self, golden, pinned, front):
        drops = golden[front]["metrics"].get(
            "serve_drops_total" if front == "server" else "fleet_drops_total"
        )
        assert drops["series"]  # the schedule really sheds
        assert golden[front]["metrics"] == pinned[front]["metrics"]
