"""The four benchmark workloads: specs from a seed, set-up, the measured
call through the public ``Session`` API, and a canonical view of each
call's outputs that is compared against ``reference.json``.

Each workload has :data:`INSTANCES` input instances; a run cycles
through them starting at ``seed % INSTANCES``.  ``reference.json`` holds
the outputs of every instance, made by ``make_reference.py`` from the
serial, uncached path.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.api.session import Session, build_dataset
from repro.api.spec import DatasetSpec, EvalSpec, ExecSpec, ExperimentSpec, ServeSpec
from repro.core.config import SystemConfig, build_system
from repro.engine.scheduler import effective_cpu_count
from repro.fleet import AutoscalerPolicy, FleetServer, FleetSpec
from repro.query import QuerySpec
from repro.serve import DetectionServer, LoadSpec, ServePolicy, ServiceModel, loadgen

HERE = Path(__file__).resolve().parent
INSTANCES = 16

CATDET = SystemConfig("catdet", "resnet50", "resnet10a", detailed_ops=True)

TUNE_BATCHES = (1, 2, 4, 8)
TUNE_WAITS_MS = (0.0, 10.0, 25.0, 50.0)


def _sha(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()


def frames_digest(frames_by_stream: Dict[str, Any]) -> str:
    """SHA-256 over every frame's detections, ops and region stats."""
    h = hashlib.sha256()
    for stream in sorted(frames_by_stream):
        h.update(stream.encode())
        for fr in frames_by_stream[stream]:
            det = fr.detections
            h.update(repr((fr.frame, fr.num_regions, fr.coverage_fraction)).encode())
            h.update(repr((fr.ops.proposal, fr.ops.refinement)).encode())
            h.update(det.boxes.tobytes())
            h.update(det.scores.tobytes())
            h.update(det.labels.tobytes())
    return h.hexdigest()


class Workload:
    """One workload; subclasses fill in the spec, call and canonical view."""

    name = ""
    max_batch_size: Optional[int] = None

    def spec(self, instance: int):
        raise NotImplementedError

    def setup(self, spec) -> None:
        """Dataset synthesis (uncached), load generation, system construction."""
        build_dataset.cache_clear()
        dataset = build_dataset(spec.dataset)
        if hasattr(spec, "load"):
            loadgen.generate_load(spec.load, dataset)
        self.construct(spec)

    def construct(self, spec) -> None:
        raise NotImplementedError

    def prepare(self, spec) -> None:
        """Build the spec's dataset before a timed call, so the call finds
        it in ``build_dataset``'s cache, as it does after set-up."""
        build_dataset(spec.dataset)

    def call(self, spec, workdir: Path, *, workers: Optional[int] = None) -> Tuple[Any, int]:
        """Run the measured call; returns ``(output, frames completed)``."""
        raise NotImplementedError

    def canonical(self, output) -> Dict[str, Any]:
        raise NotImplementedError

    def cleanup(self, workdir: Path) -> None:
        """Drop what a call left in ``workdir`` (run outside the timed region)."""


class OfflineCatdet(Workload):
    name = "offline_catdet"

    def spec(self, instance: int) -> ExperimentSpec:
        return ExperimentSpec(
            system=CATDET,
            dataset=DatasetSpec(
                "kitti", num_sequences=4, frames_per_sequence=60, seed=100 + instance
            ),
            eval=EvalSpec(difficulties=("moderate", "hard"), with_delay=True),
            exec=ExecSpec("serial"),
        )

    def construct(self, spec) -> None:
        build_system(spec.system)

    def call(self, spec, workdir, *, workers=None):
        result = Session().run(spec, use_cache=False)
        frames = sum(len(seq.frames) for seq in result.run.sequences.values())
        return result, frames

    def canonical(self, result) -> Dict[str, Any]:
        ops = result.ops_account
        return {
            "frames": sum(len(s.frames) for s in result.run.sequences.values()),
            "eval": {
                name: {"mAP": ev.mean_ap(), "mD": ev.mean_delay()}
                for name, ev in sorted(result.evaluations.items())
            },
            "ops": {
                "proposal": ops.proposal,
                "refinement": ops.refinement,
                "refinement_from_tracker": ops.refinement_from_tracker,
                "refinement_from_proposal": ops.refinement_from_proposal,
            },
            "detections": frames_digest(
                {name: seq.frames for name, seq in result.run.sequences.items()}
            ),
        }


class ServeLive(Workload):
    name = "serve_live"
    max_batch_size = 16

    def spec(self, instance: int) -> ServeSpec:
        return ServeSpec(
            system=CATDET,
            dataset=DatasetSpec("kitti", num_sequences=8, frames_per_sequence=40, seed=7),
            load=LoadSpec(
                "poisson", num_streams=64, rate_hz=2.0, frames_per_stream=12, seed=instance
            ),
            policy=ServePolicy(max_batch_size=16),
            device="datacenter",
        )

    def construct(self, spec) -> None:
        DetectionServer(spec.system, policy=spec.policy, service=spec.service)

    def call(self, spec, workdir, *, workers=None):
        report = Session().serve(spec, use_cache=False)
        return report, report.frames_served

    def canonical(self, report) -> Dict[str, Any]:
        return {
            "frames": report.frames_served,
            "frames_shed": report.frames_shed,
            "batches": report.batches,
            "report": _sha(report.to_dict()),
            "detections": frames_digest(report.frame_results),
        }


class TuneReplay(Workload):
    name = "tune_replay"

    def spec(self, instance: int) -> ServeSpec:
        return ServeSpec(
            system=SystemConfig("catdet", "resnet50", "resnet10a", detailed_ops=False),
            # Metronome arrivals ignore the load seed; the dataset carries it.
            dataset=DatasetSpec(
                "kitti", num_sequences=2, frames_per_sequence=60, seed=100 + instance
            ),
            load=LoadSpec("uniform", num_streams=6, rate_hz=10.0, frames_per_stream=50),
            policy=ServePolicy(slo_ms=500.0),
            service=ServiceModel(invocation_overhead_ms=50.0, gops_per_second=1e6),
        )

    def construct(self, spec) -> None:
        DetectionServer(spec.system, policy=spec.policy, service=spec.service)

    @staticmethod
    def default_workers() -> int:
        return min(2, effective_cpu_count())

    def call(self, spec, workdir, *, workers=None):
        """A cold sweep: :meth:`cleanup` empties the cache after every call."""
        result = Session(cache_dir=workdir / "cache").tune_serve(
            spec,
            slo_p99_ms=300.0,
            batch_sizes=TUNE_BATCHES,
            max_waits_ms=TUNE_WAITS_MS,
            workers=self.default_workers() if workers is None else workers,
        )
        frames = sum(
            c.report.frames_served for c in result.candidates if c.alias_of is None
        )
        return result, frames

    def cleanup(self, workdir: Path) -> None:
        shutil.rmtree(workdir / "cache", ignore_errors=True)

    def canonical(self, result) -> Dict[str, Any]:
        best = result.best.spec.policy if result.best is not None else None
        return {
            "frames": sum(
                c.report.frames_served for c in result.candidates if c.alias_of is None
            ),
            "candidates": _sha(
                [
                    [c.report.to_dict(), c.feasible, c.alias_of]
                    for c in result.candidates
                ]
            ),
            "best": None if best is None else [best.max_batch_size, best.max_wait_ms],
        }


class FleetAutoscale(Workload):
    name = "fleet_autoscale"

    def spec(self, instance: int) -> FleetSpec:
        query = QuerySpec.from_json((HERE / "example_query.json").read_text())
        return FleetSpec(
            system=SystemConfig("single", "resnet10a", detailed_ops=False),
            dataset=DatasetSpec("kitti", num_sequences=8, frames_per_sequence=80, seed=7),
            load=LoadSpec(
                "bursty", num_streams=32, rate_hz=8.0, frames_per_stream=60, seed=instance
            ),
            policy=ServePolicy(
                max_batch_size=4, max_wait_ms=20.0, queue_capacity=256, slo_ms=2000.0
            ),
            replicas=1,
            devices=("edge",),
            autoscaler=AutoscalerPolicy(
                min_replicas=1,
                max_replicas=8,
                interval_s=0.5,
                cooldown_s=1.0,
                slo_p99_ms=2000.0,
                scale_out_wait_share=0.2,
                scale_in_occupancy=0.5,
            ),
            query=query,
        )

    max_batch_size = 4

    def construct(self, spec) -> None:
        FleetServer(spec)

    def call(self, spec, workdir, *, workers=None):
        report = Session().serve_fleet(spec, use_cache=False)
        return report, report.frames_served

    def canonical(self, report) -> Dict[str, Any]:
        return {
            "frames": report.frames_served,
            "scale_events": len(report.scale_events),
            "report": _sha(report.to_dict()),
            "detections": frames_digest(report.frame_results),
        }


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (OfflineCatdet(), ServeLive(), TuneReplay(), FleetAutoscale())
}


def load_reference() -> Dict[str, Any]:
    path = HERE / "reference.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text())
