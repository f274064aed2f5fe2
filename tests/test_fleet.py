"""Fleet serving subsystem tests (``repro fleet``).

The load-bearing guarantees:

* a 1-replica fleet is *byte-identical* to a bare
  :class:`~repro.serve.server.DetectionServer` — same detections per
  frame and the same latency distribution, because for one replica the
  fleet event loop must be provably the same simulation;
* per-stream detections are invariant under replica count, placement and
  autoscaling schedule (detections are keyed by (model, seed, sequence,
  frame), never by where they were computed);
* on the pinned bursty scenario the autoscaled fleet meets the same SLO
  as the static max-size fleet with strictly fewer replica-seconds and
  lower cost per frame — the headline claim of elasticity — and does so
  deterministically under the fixed seed;
* fleet specs round-trip through JSON, validate their shape, and their
  reports are served bit-identically from the session cache;
* the load generator's heterogeneous per-stream rates skew exactly the
  streams they name without perturbing anyone else's arrivals.
"""

import math

import numpy as np
import pytest

from repro.api.session import Session
from repro.api.spec import DatasetSpec
from repro.core.config import SystemConfig, build_system
from repro.fleet import (
    SCALE_IN,
    SCALE_OUT,
    AutoscalerPolicy,
    FleetServer,
    FleetSpec,
)
from repro.serve import (
    DetectionServer,
    FrameRequest,
    LoadSpec,
    ServePolicy,
    generate_load,
)

SYSTEM = SystemConfig("single", "resnet10a", detailed_ops=False)
CATDET = SystemConfig("catdet", "resnet50", "resnet10a", detailed_ops=False)

#: The pinned acceptance scenario (also CI's fleet-smoke job): bursty
#: arrivals whose peaks genuinely exceed one edge replica's capacity
#: (~23 fps at batch 4) but whose average load does not — the regime
#: autoscaling exists for.
PIN_LOAD = LoadSpec(
    pattern="bursty", num_streams=4, rate_hz=8.0, frames_per_stream=50, seed=11
)
PIN_POLICY = ServePolicy(
    max_batch_size=4, max_wait_ms=20.0, queue_capacity=256, slo_ms=2000.0
)
PIN_AUTO = AutoscalerPolicy(
    min_replicas=1,
    max_replicas=4,
    interval_s=0.5,
    cooldown_s=1.0,
    slo_p99_ms=2000.0,
    scale_out_wait_share=0.2,
    scale_in_occupancy=0.5,
)
SLO_P99_MS = 2000.0


def _fleet_spec(**overrides):
    base = dict(
        system=SYSTEM,
        load=PIN_LOAD,
        policy=PIN_POLICY,
        replicas=4,
        devices=("edge",),
    )
    base.update(overrides)
    return FleetSpec(**base)


def _run(spec, dataset):
    return FleetServer(spec).run(generate_load(spec.load, dataset))


def _detections_by_stream(report):
    out = {}
    for stream, results in report.frame_results.items():
        out[stream] = [
            (fr.frame, fr.detections.boxes, fr.detections.scores, fr.detections.labels)
            for fr in results
        ]
    return out


def assert_same_detections(a, b):
    assert a.keys() == b.keys()
    for stream in a:
        assert len(a[stream]) == len(b[stream])
        for (fa, ba, sa, la), (fb, bb, sb, lb) in zip(a[stream], b[stream]):
            assert fa == fb
            np.testing.assert_array_equal(ba, bb)
            np.testing.assert_array_equal(sa, sb)
            np.testing.assert_array_equal(la, lb)


@pytest.fixture(scope="module")
def static_report(kitti_small):
    return _run(_fleet_spec(), kitti_small)


@pytest.fixture(scope="module")
def auto_report(kitti_small):
    return _run(_fleet_spec(replicas=1, autoscaler=PIN_AUTO), kitti_small)


def _poisson_schedule(dataset):
    load = LoadSpec(
        pattern="poisson", num_streams=2, rate_hz=10.0,
        frames_per_stream=40, seed=3,
    )
    return SYSTEM, generate_load(load, dataset)


def _sequence_switch_schedule(dataset):
    """One stream: frames 0-9 of sequence A, then frames 0-9 of sequence
    B, arriving 1 ms apart — B's frames queue while A's are in flight."""
    first, second = dataset.sequences[:2]
    requests = [
        FrameRequest(stream="cam", sequence=sequence, frame=f, arrival=0.001 * i)
        for i, (sequence, f) in enumerate(
            [(first, f) for f in range(10)] + [(second, f) for f in range(10)]
        )
    ]
    return CATDET, requests


class TestByteIdentity:
    @pytest.mark.parametrize(
        "schedule",
        [_poisson_schedule, _sequence_switch_schedule],
        ids=["poisson", "sequence_switch"],
    )
    def test_one_replica_matches_bare_server(self, kitti_small, schedule):
        """The fleet loop degenerates to DetectionServer for one replica:
        identical detections *and* an identical latency distribution —
        and both equal the offline frame-at-a-time stream, however a
        stream's frames and its sequence switches queue up."""
        system, requests = schedule(kitti_small)
        policy = ServePolicy(max_batch_size=4, max_wait_ms=10.0, slo_ms=2000.0)
        bare = DetectionServer(system, policy=policy, device="edge").run(requests)
        fleet = FleetServer(
            _fleet_spec(system=system, policy=policy, replicas=1)
        ).run(requests)
        assert_same_detections(
            _detections_by_stream(bare), _detections_by_stream(fleet)
        )
        assert fleet.frames_served == bare.frames_served
        assert fleet.frames_shed == bare.frames_shed
        for key in (
            "p50_ms", "p95_ms", "p99_ms",
            "mean_wait_ms", "mean_compute_ms", "max_ms",
        ):
            assert fleet.slo["fleet"][key] == pytest.approx(
                bare.slo["fleet"][key], abs=1e-9
            )
        reference = {}
        offline = build_system(system)
        for request in requests:
            (result,) = offline.stream([(request.sequence, request.frame)])
            reference.setdefault(request.stream, []).append(
                (result.frame, result.detections.boxes,
                 result.detections.scores, result.detections.labels)
            )
        assert_same_detections(reference, _detections_by_stream(bare))
        assert_same_detections(reference, _detections_by_stream(fleet))

    @pytest.mark.parametrize("replicas", [2, 3])
    def test_replica_count_invariance(self, kitti_small, replicas, static_report):
        """Where a frame was computed never changes what it computed."""
        report = _run(_fleet_spec(replicas=replicas), kitti_small)
        assert_same_detections(
            _detections_by_stream(static_report), _detections_by_stream(report)
        )

    def test_autoscaling_schedule_invariance(self, static_report, auto_report):
        """Scale events move streams mid-run; detections must not notice."""
        assert auto_report.scale_events  # the schedule actually moved things
        assert_same_detections(
            _detections_by_stream(static_report),
            _detections_by_stream(auto_report),
        )


class TestAutoscaler:
    def test_both_fleets_meet_the_slo(self, static_report, auto_report):
        for report in (static_report, auto_report):
            assert float(report.slo["fleet"]["p99_ms"]) <= SLO_P99_MS
            assert report.frames_shed == 0
            assert report.dead_streams == []
            assert report.frames_served == report.frames_offered == 200

    def test_autoscaled_is_strictly_cheaper_than_static_max(
        self, static_report, auto_report
    ):
        """The acceptance criterion: same SLO, fewer replica-seconds,
        lower cost per frame than the always-max static fleet."""
        assert auto_report.replica_seconds < static_report.replica_seconds
        assert auto_report.cost_per_frame < static_report.cost_per_frame
        assert auto_report.cost < static_report.cost

    def test_scales_out_under_burst_and_back_in_after(self, auto_report):
        actions = [e["action"] for e in auto_report.scale_events]
        assert SCALE_OUT in actions and SCALE_IN in actions
        # Bursts hit every replica the policy allows, then capacity drains.
        assert auto_report.peak_replicas == PIN_AUTO.max_replicas
        retired = [r for r in auto_report.replicas if r["retired_s"] is not None]
        assert len(retired) == actions.count(SCALE_IN)
        for event in auto_report.scale_events:
            assert set(event) >= {
                "t", "action", "replica", "device", "reason", "moved_streams",
            }

    def test_deterministic_under_fixed_seed(self, kitti_small, auto_report):
        again = _run(_fleet_spec(replicas=1, autoscaler=PIN_AUTO), kitti_small)
        assert again.to_dict() == auto_report.to_dict()

    def test_report_round_trips_through_json(self, auto_report):
        from repro.fleet import FleetReport

        clone = FleetReport.from_dict(auto_report.to_dict())
        assert clone.to_dict() == auto_report.to_dict()
        assert clone.format() == auto_report.format()


class TestFleetSpec:
    def test_json_round_trip_preserves_fingerprint(self):
        spec = _fleet_spec(replicas=2, autoscaler=PIN_AUTO)
        clone = FleetSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.fingerprint == spec.fingerprint

    def test_distinct_fleets_have_distinct_fingerprints(self):
        assert _fleet_spec().fingerprint != _fleet_spec(replicas=2).fingerprint
        assert (
            _fleet_spec().fingerprint
            != _fleet_spec(devices=("edge", "datacenter")).fingerprint
        )
        assert (
            _fleet_spec().fingerprint
            != _fleet_spec(placement="cost_aware").fingerprint
        )

    def test_device_cycle(self):
        spec = _fleet_spec(devices=("edge", "datacenter"))
        assert [spec.device_for(i) for i in range(4)] == [
            "edge", "datacenter", "edge", "datacenter",
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            _fleet_spec(replicas=0)
        with pytest.raises(KeyError):
            _fleet_spec(devices=("warp-drive",))
        with pytest.raises(KeyError):
            _fleet_spec(placement="nearest-star")
        with pytest.raises(ValueError):
            _fleet_spec(replicas=4, autoscaler=AutoscalerPolicy(max_replicas=2))
        with pytest.raises(ValueError):
            AutoscalerPolicy(min_replicas=0)
        with pytest.raises(ValueError):
            AutoscalerPolicy(scale_out_wait_share=1.5)
        with pytest.raises(ValueError):
            AutoscalerPolicy(interval_s=0.0)


class TestSessionCache:
    @pytest.fixture(scope="class")
    def session(self, tmp_path_factory):
        return Session(cache_dir=tmp_path_factory.mktemp("fleet-cache"))

    @pytest.fixture(scope="class")
    def small_spec(self):
        return FleetSpec(
            system=SYSTEM,
            dataset=DatasetSpec("kitti", num_sequences=2, frames_per_sequence=20),
            load=LoadSpec(
                pattern="poisson", num_streams=2, rate_hz=5.0,
                frames_per_stream=10, seed=1,
            ),
            policy=ServePolicy(max_batch_size=4, max_wait_ms=20.0, slo_ms=2000.0),
            replicas=1,
            devices=("edge",),
        )

    def test_report_served_bit_identically_from_cache(self, session, small_spec):
        misses = session.cache_misses
        first = session.serve_fleet(small_spec)
        assert session.cache_misses == misses + 1
        hits = session.cache_hits
        again = session.serve_fleet(small_spec)
        assert session.cache_hits == hits + 1
        assert again.to_dict() == first.to_dict()

    def test_tune_picks_cheapest_feasible_then_rehits(self, session, small_spec):
        result = session.tune_fleet(
            small_spec,
            slo_p99_ms=SLO_P99_MS,
            replica_counts=(1, 2),
            batch_sizes=(2, 4),
        )
        assert len(result.candidates) == 4
        feasible = [c for c in result.candidates if c.feasible]
        assert result.best is not None and result.best.feasible
        assert result.best.cost_per_frame == min(
            c.cost_per_frame for c in feasible
        )
        assert "cost/kf" in result.format()
        misses = session.cache_misses
        hits = session.cache_hits
        again = session.tune_fleet(
            small_spec,
            slo_p99_ms=SLO_P99_MS,
            replica_counts=(1, 2),
            batch_sizes=(2, 4),
        )
        assert session.cache_misses == misses  # zero new computes
        assert session.cache_hits == hits + len(result.candidates)
        assert again.best.spec.fingerprint == result.best.spec.fingerprint


class TestHeterogeneousRates:
    def test_uniform_arrivals_follow_per_stream_rates(self, kitti_small):
        load = LoadSpec(
            pattern="uniform", num_streams=3, rate_hz=5.0,
            frames_per_stream=4, rates=(2.0, 10.0),
        )
        by_stream = {}
        for request in generate_load(load, kitti_small):
            by_stream.setdefault(request.stream, []).append(request.arrival)
        assert len(by_stream) == 3
        for i, stream in enumerate(sorted(by_stream)):
            # Stream i cycles through the rates tuple: 2, 10, 2 frames/s.
            expected = 1.0 / load.stream_rate(i)
            np.testing.assert_allclose(np.diff(by_stream[stream]), expected)
        assert load.stream_rate(2) == 2.0  # i % len(rates) wraps

    def test_one_streams_rate_never_perturbs_another(self, kitti_small):
        homogeneous = LoadSpec(
            pattern="poisson", num_streams=2, rate_hz=6.0, frames_per_stream=10
        )
        skewed = LoadSpec(
            pattern="poisson", num_streams=2, rate_hz=6.0,
            frames_per_stream=10, rates=(6.0, 30.0),
        )
        base = {}
        for request in generate_load(homogeneous, kitti_small):
            base.setdefault(request.stream, []).append(request.arrival)
        skew = {}
        for request in generate_load(skewed, kitti_small):
            skew.setdefault(request.stream, []).append(request.arrival)
        streams = sorted(base)
        # Stream 0 keeps rate 6.0: its RNG child is untouched by the
        # override on stream 1, so its arrivals are bit-identical.
        assert skew[streams[0]] == base[streams[0]]
        assert skew[streams[1]] != base[streams[1]]

    def test_rates_omitted_from_dict_when_unset(self):
        assert "rates" not in LoadSpec().to_dict()
        spec = LoadSpec(rates=(3.0, 9.0))
        assert spec.to_dict()["rates"] == [3.0, 9.0]
        assert LoadSpec.from_dict(spec.to_dict()) == spec

    def test_rates_validation(self):
        with pytest.raises(ValueError):
            LoadSpec(rates=())
        with pytest.raises(ValueError):
            LoadSpec(rates=(5.0, -1.0))
