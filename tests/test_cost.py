"""Unified cost-layer tests.

The load-bearing guarantees:

* the ``titanx`` profile reproduces the pinned Table-7 kernel/wall
  numbers **bit-for-bit** (calibration parity: literals recorded from the
  historical ``gpu/timing.py`` estimators, so the calibration can never
  drift silently), and the linear model behaves as Appendix I states;
* the ``abstract`` profile reproduces the serving layer's historical
  defaults (2 ms/invocation, 2000 Gops/s) exactly;
* profiles are frozen, validated, registered by name and JSON
  round-trippable;
* the engine's ``TimingAccountingStage`` (``SystemConfig(device=...)``)
  adds a per-frame latency column without perturbing detections or ops,
  and the timing survives the result cache bit-identically.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.boxes.merge import MergeCostModel
from repro.core.config import SystemConfig
from repro.core.pipeline import run_on_dataset
from repro.cost import (
    ABSTRACT,
    DEVICE_PROFILES,
    TITANX,
    CostModel,
    DeviceProfile,
    FrameTiming,
    get_device,
    profile_from_service_rates,
    register_device,
)

GIGA = 1e9


class TestDeviceProfile:
    def test_json_round_trip(self):
        again = DeviceProfile.from_json(TITANX.to_json())
        assert again == TITANX
        assert again.launch_overhead_seconds == TITANX.launch_overhead_seconds

    def test_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            DeviceProfile(name="bad", alpha=0.0)
        with pytest.raises(ValueError, match="CPU"):
            DeviceProfile(name="bad", alpha=1e-12, cpu_frame_overhead=-1.0)
        with pytest.raises(ValueError, match="name"):
            DeviceProfile(name="", alpha=1e-12)
        with pytest.raises(ValueError, match="unknown DeviceProfile fields"):
            DeviceProfile.from_dict({"name": "x", "alpha": 1e-12, "bogus": 1})

    def test_builtin_registry(self):
        assert "titanx" in DEVICE_PROFILES and "abstract" in DEVICE_PROFILES
        assert get_device("titanx") is TITANX
        assert get_device(TITANX) is TITANX  # profiles pass through
        with pytest.raises(KeyError, match="device profile"):
            get_device("quantum-annealer")

    def test_register_device(self):
        name = "test-datacenter-gpu"
        if name not in DEVICE_PROFILES:
            register_device(DeviceProfile(name=name, alpha=2.0e-13))
        assert get_device(name).alpha == 2.0e-13
        with pytest.raises(ValueError, match="already registered"):
            register_device(DeviceProfile(name=name, alpha=1.0e-13))
        with pytest.raises(TypeError, match="DeviceProfile"):
            register_device("not-a-profile")

    def test_abstract_reproduces_legacy_serving_defaults(self):
        # The exact historical ServiceModel defaults, now derived.
        assert ABSTRACT.invocation_overhead_ms == 2.0
        assert ABSTRACT.gops_per_second == 2000.0
        assert ABSTRACT.cpu_frame_overhead == 0.0

    def test_profile_from_service_rates_inverts(self):
        p = profile_from_service_rates(4.0, 8000.0)
        assert p.launch_overhead_seconds == pytest.approx(0.004, rel=1e-12)
        assert p.gops_per_second == pytest.approx(8000.0, rel=1e-12)
        with pytest.raises(ValueError, match="gops_per_second"):
            profile_from_service_rates(1.0, 0.0)


def kitti_geometry_regions():
    """16 regions along the KITTI road band: the Table-7 CaTDet point."""
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1100, size=16)
    y = rng.uniform(150, 230, size=16)
    w = rng.uniform(60, 140, size=16)
    return np.stack([x, y, x + w, y + w * 0.7], axis=1)


class TestTitanXKernel:
    """The linear ``T = alpha * W + b`` model on the calibrated device."""

    def test_kernel_time_linear(self):
        m = CostModel(TITANX)
        t1 = m.kernel_seconds(10 * GIGA)
        t2 = m.kernel_seconds(20 * GIGA)
        assert t2 - t1 == pytest.approx(TITANX.alpha * 10 * GIGA)

    def test_launch_overhead_positive(self):
        assert TITANX.launch_overhead_seconds > 0

    def test_negative_macs_raises(self):
        with pytest.raises(ValueError, match="macs"):
            CostModel(TITANX).kernel_seconds(-1.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            replace(TITANX, alpha=0.0)
        with pytest.raises(ValueError, match="CPU"):
            replace(TITANX, cpu_frame_overhead=-1.0)

    def test_merge_cost_model_consistent(self):
        m = CostModel(TITANX)
        mc = m.merge_cost_model()
        # A region of A pixels should cost the same through both paths.
        region_area = 300.0 * 200.0
        assert mc.region_time(region_area) == pytest.approx(
            m.kernel_seconds(region_area * TITANX.trunk_macs_per_pixel)
        )


class TestTable7Estimators:
    def _regions(self, n, size=80.0, spacing=300.0):
        out = []
        for i in range(n):
            x = (i % 4) * spacing
            y = (i // 4) * spacing
            out.append([x, y, x + size, y + size])
        return np.array(out)

    def test_single_model_matches_paper_calibration(self):
        """Res50 Faster R-CNN: 0.159 s GPU, 0.193 s total (Table 7)."""
        timing = CostModel(TITANX).single_model_timing(254.3 * GIGA)
        assert timing.gpu_seconds == pytest.approx(0.159, rel=0.1)
        assert timing.total_seconds == pytest.approx(0.193, rel=0.1)
        assert timing.num_launches == 1

    def test_catdet_faster_than_single(self):
        m = CostModel(TITANX)
        single = m.single_model_timing(254.3 * GIGA)
        catdet = m.catdet_timing(
            proposal_macs=20.7 * GIGA,
            region_boxes=self._regions(15),
            refinement_head_macs=12 * GIGA,
        )
        assert catdet.gpu_seconds < single.gpu_seconds / 2
        assert catdet.total_seconds < single.total_seconds

    def test_catdet_matches_paper_scale(self):
        """Res10a+Res50 CaTDet: 0.042 s GPU, 0.094 s total (Table 7).

        Regions follow KITTI geometry: objects cluster along the road band,
        so the greedy merge collapses them into a handful of launches.
        """
        catdet = CostModel(TITANX).catdet_timing(
            proposal_macs=20.7 * GIGA,
            region_boxes=kitti_geometry_regions(),
            refinement_head_macs=12 * GIGA,
        )
        assert catdet.gpu_seconds == pytest.approx(0.042, rel=0.5)
        assert catdet.total_seconds == pytest.approx(0.094, rel=0.5)

    def test_merging_reduces_time_for_clustered_regions(self):
        # Many overlapping small regions: merging trims launch overhead.
        rng = np.random.default_rng(0)
        base = rng.random((12, 2)) * 50
        boxes = np.concatenate([base, base + 60], axis=1)
        m = CostModel(TITANX)
        merged = m.catdet_timing(1 * GIGA, boxes, 0.0, merge=True)
        unmerged = m.catdet_timing(1 * GIGA, boxes, 0.0, merge=False)
        assert merged.gpu_seconds <= unmerged.gpu_seconds + 1e-12
        assert merged.num_launches <= unmerged.num_launches

    def test_empty_regions(self):
        timing = CostModel(TITANX).catdet_timing(5 * GIGA, np.zeros((0, 4)), 0.0)
        assert timing.num_launches == 1  # the proposal pass only
        assert timing.gpu_seconds > 0


class TestCalibrationParity:
    """CostModel reproduces the historical Table-7 numbers bit-for-bit.

    The literals were recorded from the ``gpu/timing.py`` estimators
    before that module was deleted; any change to the calibration or
    the merge heuristic shows up here as an exact mismatch.
    """

    def test_titanx_matches_legacy_constants(self):
        assert TITANX.alpha == 6.252457727093983e-13
        assert TITANX.launch_overhead_seconds == 0.006602595359811246

    def test_single_model_table7_point_bit_for_bit(self):
        """Res50 Faster R-CNN: 254.3 Gops (0.159 s GPU / 0.193 s wall)."""
        cost = CostModel(TITANX).single_model_timing(254.3 * GIGA)
        assert cost.gpu_seconds == 0.16560259535981126
        assert cost.cpu_seconds == 0.034
        assert cost.total_seconds == 0.19960259535981126
        assert cost.num_launches == 1
        assert cost.gpu_seconds == pytest.approx(0.159, rel=0.1)
        assert cost.total_seconds == pytest.approx(0.193, rel=0.1)

    def test_catdet_table7_point_bit_for_bit(self):
        """Res10a+Res50 CaTDet at the KITTI-geometry operating point of
        :meth:`TestTable7Estimators.test_catdet_matches_paper_scale`
        (0.042 s GPU / 0.094 s wall)."""
        expected = {  # merge: (gpu_seconds, cpu_seconds, num_launches)
            True: (0.040789277716479895, 0.036000000000000004, 2),
            False: (0.13762539761371065, 0.051000000000000004, 17),
        }
        for merge, (gpu, cpu, launches) in expected.items():
            cost = CostModel(TITANX).catdet_timing(
                20.7 * GIGA, kitti_geometry_regions(), 12 * GIGA, merge=merge
            )
            assert cost.gpu_seconds == gpu
            assert cost.cpu_seconds == cpu
            assert cost.num_launches == launches

    def test_kernel_seconds_bit_for_bit(self):
        cost = CostModel(TITANX)
        expected = {
            0.0: 0.006602595359811246,
            1.0: 0.006602595360436492,
            20.7 * GIGA: 0.01954518285489579,
            254.3 * GIGA: 0.16560259535981126,
        }
        for macs, seconds in expected.items():
            assert cost.kernel_seconds(macs) == seconds
        with pytest.raises(ValueError, match="macs"):
            cost.kernel_seconds(-1.0)

    def test_merge_cost_model_parity(self):
        cost = CostModel(TITANX).merge_cost_model()
        assert cost == MergeCostModel(alpha=4.126622099882029e-08, base_area=160000.0)

    def test_abstract_batch_seconds_matches_legacy_formula(self):
        cost = CostModel(ABSTRACT)
        for invocations, macs in ((1, 0.0), (2, 51 * GIGA), (16, 400 * GIGA)):
            legacy = invocations * 2.0 / 1e3 + macs / (2000.0 * GIGA)
            assert cost.batch_seconds(invocations, macs) == pytest.approx(
                legacy, rel=1e-12
            )


class TestFrameTimingModel:
    def test_zero_ops_frame_costs_cpu_only(self):
        from repro.core.results import OpsAccount

        t = CostModel(TITANX).frame_timing(OpsAccount(), full_frame=True)
        assert t.gpu_seconds == 0.0
        assert t.num_launches == 0
        assert t.cpu_seconds == TITANX.cpu_frame_overhead

    def test_regional_counts_merged_launches(self):
        from repro.core.results import OpsAccount

        ops = OpsAccount(proposal=20 * GIGA, refinement=10 * GIGA)
        # Two heavily-overlapping regions merge into one launch.
        boxes = np.array([[0, 0, 100, 100], [10, 10, 110, 110]], dtype=float)
        merged = CostModel(TITANX).frame_timing(ops, region_boxes=boxes)
        unmerged = CostModel(TITANX).frame_timing(
            ops, region_boxes=boxes, merge=False
        )
        assert merged.num_launches == 2  # proposal + 1 merged region
        assert unmerged.num_launches == 3
        assert merged.gpu_seconds < unmerged.gpu_seconds
        # Both charge the same measured compute; they differ in overhead.
        assert unmerged.gpu_seconds - merged.gpu_seconds == pytest.approx(
            TITANX.launch_overhead_seconds
        )


CATDET = SystemConfig("catdet", "resnet50", "resnet10a", detailed_ops=False)


class TestTimingAccounting:
    def test_device_adds_timing_without_perturbing_results(self, kitti_small):
        plain = run_on_dataset(CATDET, kitti_small, max_sequences=1)
        timed = run_on_dataset(
            SystemConfig(
                "catdet", "resnet50", "resnet10a",
                detailed_ops=False, device="titanx",
            ),
            kitti_small,
            max_sequences=1,
        )
        assert plain.mean_timing() is None
        mean = timed.mean_timing()
        assert mean is not None and mean.total_seconds > 0
        for (name, seq), (_, seq2) in zip(
            plain.sequences.items(), timed.sequences.items()
        ):
            for a, b in zip(seq.frames, seq2.frames):
                np.testing.assert_array_equal(a.detections.boxes, b.detections.boxes)
                np.testing.assert_array_equal(a.detections.scores, b.detections.scores)
                assert a.ops.proposal == b.ops.proposal
                assert a.ops.refinement == b.ops.refinement
                assert a.timing is None and b.timing is not None
                assert b.timing.num_launches >= 1

    @pytest.mark.parametrize(
        "config",
        [
            SystemConfig("single", "resnet10b", device="titanx"),
            SystemConfig("cascade", "resnet50", "resnet10a", device="titanx"),
            SystemConfig("keyframe", "resnet10a", stride=4, device="titanx"),
        ],
        ids=lambda c: c.kind,
    )
    def test_every_kind_reports_timing(self, config, kitti_small):
        run = run_on_dataset(config, kitti_small, max_sequences=1)
        assert run.mean_timing() is not None
        if config.kind == "keyframe":
            # Skipped frames run no network: zero launches, CPU only.
            frames = next(iter(run.sequences.values())).frames
            skipped = [f for f in frames if f.frame % 4 != 0]
            assert all(f.timing.num_launches == 0 for f in skipped)
            assert all(f.timing.gpu_seconds == 0.0 for f in skipped)

    def test_single_model_tracks_table7(self, kitti_small):
        run = run_on_dataset(
            SystemConfig("single", "resnet50", device="titanx"),
            kitti_small,
            max_sequences=1,
        )
        mean = run.mean_timing()
        # Within the known ~11 % op-count gap of the analytic model.
        assert mean.gpu_seconds == pytest.approx(0.159, rel=0.25)
        assert mean.total_seconds == pytest.approx(0.193, rel=0.25)

    def test_timing_survives_io_round_trip(self, kitti_small):
        from repro.harness.io import (
            sequence_result_from_dict,
            sequence_result_to_dict,
        )

        config = SystemConfig(
            "catdet", "resnet50", "resnet10a",
            detailed_ops=False, device="abstract",
        )
        run = run_on_dataset(config, kitti_small, max_sequences=1)
        seq = next(iter(run.sequences.values()))
        again = sequence_result_from_dict(sequence_result_to_dict(seq))
        for a, b in zip(seq.frames, again.frames):
            assert a.timing == b.timing  # bit-identical dataclass equality

    def test_timing_survives_result_cache(self, kitti_small, tmp_path):
        from repro.api.session import Session

        session = Session(cache_dir=tmp_path)
        config = SystemConfig(
            "catdet", "resnet50", "resnet10a",
            detailed_ops=False, device="titanx",
        )
        fresh = session.run_experiment(config, kitti_small)
        cached = session.run_experiment(config, kitti_small)
        assert session.cache_hits == 1
        assert fresh.mean_timing() == cached.mean_timing()
        for name, seq in fresh.run.sequences.items():
            for a, b in zip(seq.frames, cached.run.sequences[name].frames):
                assert a.timing == b.timing
