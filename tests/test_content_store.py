"""One contract for every content-addressed store (:mod:`repro.api.cache`).

Experiment results, cluster sequence results, compute traces, serve
reports and fleet reports all live in one cache root through
:class:`~repro.api.cache.ContentStore`.  Each kind must:

* round-trip losslessly, answer ``in`` after ``store``, and return the
  file ``store`` wrote;
* read an absent key, truncated JSON and a foreign ``format`` tag as a
  miss (``None``), never raise;
* keep loading entries in the on-disk shape earlier releases wrote.
"""

import json

import pytest

from repro.api.cache import ResultCache
from repro.api.session import Session
from repro.api.spec import DatasetSpec, ExperimentSpec, ServeSpec
from repro.cluster.protocol import SequenceResultStore
from repro.core.config import SystemConfig, build_system
from repro.fleet import FleetReport, FleetReportStore, FleetSpec
from repro.harness.io import experiment_to_dict, sequence_result_to_dict
from repro.serve import LoadSpec, ServePolicy, generate_load
from repro.serve.server import DetectionServer, ServeReport, ServeReportStore
from repro.serve.trace import ComputeTrace, TraceStore

SYSTEM = SystemConfig("catdet", "resnet50", "resnet10a", detailed_ops=False)
DATASET = DatasetSpec("kitti", num_sequences=1, frames_per_sequence=10)
LOAD = LoadSpec(pattern="uniform", num_streams=2, rate_hz=10.0, frames_per_stream=8)
POLICY = ServePolicy(max_batch_size=2)
FP = "ab" + "0" * 62

#: kind -> (store, entry format tag, payload key, entry carries a spec,
#: value-to-payload codec).  Tags and keys are literals on purpose: they
#: are the on-disk contract with entries already written.
KINDS = {
    "experiment": (ResultCache, "repro-result-cache/1", "result", True, experiment_to_dict),
    "sequence": (
        SequenceResultStore, "repro-seqresult-cache/1", "result", False,
        sequence_result_to_dict,
    ),
    "trace": (TraceStore, "repro-trace-cache/1", "trace", False, ComputeTrace.to_dict),
    "serve": (ServeReportStore, "repro-serve-cache/1", "report", True, ServeReport.to_dict),
    "fleet": (FleetReportStore, "repro-fleet-cache/1", "report", True, FleetReport.to_dict),
}


@pytest.fixture(scope="module")
def values():
    """One small live value of every kind."""
    session = Session()
    dataset = session.dataset(DATASET)
    server = DetectionServer(SYSTEM, policy=POLICY, record_trace=True)
    server.run(generate_load(LOAD, dataset))
    return {
        "experiment": session.run(ExperimentSpec(system=SYSTEM, dataset=DATASET)),
        "sequence": build_system(SYSTEM).process_sequence(dataset.sequences[0]),
        "trace": server.recorded_trace,
        "serve": session.serve(
            ServeSpec(system=SYSTEM, dataset=DATASET, load=LOAD, policy=POLICY)
        ),
        "fleet": session.serve_fleet(
            FleetSpec(system=SYSTEM, dataset=DATASET, load=LOAD, policy=POLICY)
        ),
    }


@pytest.mark.parametrize("kind", sorted(KINDS))
class TestContentStoreContract:
    def test_round_trip_is_lossless(self, kind, values, tmp_path):
        store_type, _, _, _, codec = KINDS[kind]
        store = store_type(tmp_path)
        assert FP not in store
        path = store.store(FP, values[kind])
        assert path == store.path_for(FP) and path.is_file()
        assert FP in store
        assert codec(store.load(FP)) == codec(values[kind])

    def test_absent_truncated_and_foreign_entries_are_misses(
        self, kind, values, tmp_path
    ):
        store_type, tag, _, _, _ = KINDS[kind]
        store = store_type(tmp_path)
        assert store.load("cd" + "0" * 62) is None
        path = store.store(FP, values[kind])
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        assert store.load(FP) is None
        entry = json.loads(text)
        assert entry["format"] == tag
        entry["format"] = "repro-other-cache/1"
        path.write_text(json.dumps(entry))
        assert store.load(FP) is None

    def test_entry_in_the_historical_shape_is_a_hit(self, kind, values, tmp_path):
        store_type, tag, key, with_spec, codec = KINDS[kind]
        entry = {"format": tag, "fingerprint": FP}
        if with_spec:
            entry["spec"] = None
        entry[key] = codec(values[kind])
        path = tmp_path / FP[:2] / f"{FP}.json"
        path.parent.mkdir()
        path.write_text(json.dumps(entry))
        loaded = store_type(tmp_path).load(FP)
        assert loaded is not None
        assert codec(loaded) == codec(values[kind])
