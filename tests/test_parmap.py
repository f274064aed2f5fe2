"""Deterministic process-pool map tests (:mod:`repro.utils.parmap`)."""

import time
from pathlib import Path

import pytest

from repro.engine.scheduler import effective_cpu_count
from repro.utils.parmap import ParallelMapError, parallel_map, resolve_workers


def _square(x):
    return x * x


def _maybe_fail(x):
    if x == 3:
        raise RuntimeError("boom at 3")
    return x


def _straggle(item):
    """``("fast", _)`` returns at once; ``("slow", dir)`` marks start, sleeps, marks end."""
    kind, directory = item
    if kind == "slow":
        (Path(directory) / "started").touch()
        time.sleep(3.0)
        (Path(directory) / "finished").touch()
    return kind


def _wait_for(path, seconds=60.0):
    deadline = time.monotonic() + seconds
    while not path.exists() and time.monotonic() < deadline:
        time.sleep(0.01)


class TestResolveWorkers:
    def test_none_and_one_mean_serial(self):
        assert resolve_workers(None, 10) == 1
        assert resolve_workers(1, 10) == 1

    def test_zero_means_one_per_core(self):
        assert resolve_workers(0, 1000) == effective_cpu_count()

    def test_clamped_to_items(self):
        assert resolve_workers(8, 3) == 3
        assert resolve_workers(8, 0) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            resolve_workers(-1, 4)


class TestParallelMap:
    def test_serial_matches_comprehension(self):
        items = list(range(7))
        assert parallel_map(_square, items) == [x * x for x in items]

    def test_parallel_results_in_input_order(self):
        items = list(range(9))
        out = parallel_map(_square, items, workers=2)
        assert out == [x * x for x in items]

    def test_serial_progress_in_input_order(self):
        seen = []
        parallel_map(
            _square,
            [4, 5, 6],
            labels=["a", "b", "c"],
            on_progress=lambda done, total, label: seen.append(
                (done, total, label)
            ),
        )
        assert seen == [(1, 3, "a"), (2, 3, "b"), (3, 3, "c")]

    def test_parallel_progress_is_dense_and_complete(self):
        seen = []
        parallel_map(
            _square,
            list(range(6)),
            workers=2,
            labels=[f"p{i}" for i in range(6)],
            on_progress=lambda done, total, label: seen.append(
                (done, total, label)
            ),
        )
        assert [d for d, _, _ in seen] == [1, 2, 3, 4, 5, 6]
        assert {label for _, _, label in seen} == {f"p{i}" for i in range(6)}

    def test_label_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            parallel_map(_square, [1, 2], labels=["only-one"])

    def test_worker_exception_propagates(self):
        with pytest.raises(RuntimeError, match="boom at 3"):
            parallel_map(_maybe_fail, list(range(6)), workers=2)

    def test_serial_exception_propagates(self):
        with pytest.raises(RuntimeError, match="boom at 3"):
            parallel_map(_maybe_fail, list(range(6)))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failure_names_its_label_and_chains_the_cause(self, workers):
        with pytest.raises(ParallelMapError, match="boom at 3") as excinfo:
            parallel_map(
                _maybe_fail,
                list(range(6)),
                workers=workers,
                labels=[f"p{i}" for i in range(6)],
            )
        assert excinfo.value.label == "p3"
        assert isinstance(excinfo.value.__cause__, RuntimeError)

    def test_interrupt_abandons_stragglers_without_waiting(self, tmp_path):
        def interrupt(done, total, label):
            _wait_for(tmp_path / "started")  # the straggler is in flight
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            parallel_map(
                _straggle,
                [("fast", str(tmp_path)), ("slow", str(tmp_path))],
                workers=2,
                on_progress=interrupt,
            )
        assert (tmp_path / "started").exists()
        assert not (tmp_path / "finished").exists(), (
            "parallel_map waited for the straggler after Ctrl-C"
        )
        # Let the abandoned straggler finish so it does not outlive the test.
        _wait_for(tmp_path / "finished")
