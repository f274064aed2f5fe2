"""Sequence-level execution engines: serial and process-parallel.

A dataset run is embarrassingly parallel across sequences — the simulated
detector's determinism contract makes every frame a pure function of
``(model, seed, sequence, frame)``, so executing sequences on worker
processes yields byte-identical results to the serial loop.  Workers are
seeded deterministically per sequence by construction: each one builds a
fresh system from the same :class:`~repro.core.config.SystemConfig`
(or from a pickled copy of the system), whose seed is part of the config.

The process-parallel executors run on :func:`repro.utils.parmap.parallel_map`.
``run_on_dataset(..., workers=N)`` (see :mod:`repro.core.pipeline`) picks
the executor via :func:`make_executor`.
"""

from __future__ import annotations

import sys
from collections import Counter
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Tuple, Union

from repro.core.results import SequenceResult
from repro.datasets.types import Sequence
from repro.utils.parmap import (  # effective_cpu_count: re-exported
    ParallelMapError,
    effective_cpu_count,
    parallel_map,
    resolve_workers,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import SystemConfig
    from repro.core.systems import DetectionSystem

SystemLike = Union["DetectionSystem", "SystemConfig"]

#: Progress callback shape shared across the library:
#: ``callback(done, total, sequence_name)``.
ProgressFn = Callable[[int, int, str], None]


class SequenceExecutionError(RuntimeError):
    """A worker failed while processing one sequence.

    Carries the sequence name so a many-hour parallel run that dies
    reports *which* shard killed it, not just a bare traceback.
    """

    def __init__(self, sequence_name: str, cause: BaseException):
        super().__init__(f"sequence {sequence_name!r} failed: {cause}")
        self.sequence_name = sequence_name


def _count_mapped(executor: str, sequences: List[Sequence]) -> None:
    """Per-run executor counters (one registry touch per map_sequences).

    Deliberately not per-frame: executor throughput is the hot path, so
    the always-on accounting is two counter bumps per *call*.  Per-frame
    and per-stage signals are opt-in via
    :meth:`repro.engine.stages.StagePipeline.instrument`.
    """
    from repro.obs.registry import default_registry

    registry = default_registry()
    registry.counter(
        "executor_sequences_total", "sequences mapped, by executor kind",
        labels=("executor",),
    ).inc(len(sequences), labels=(executor,))
    registry.counter(
        "executor_frames_total", "frames mapped, by executor kind",
        labels=("executor",),
    ).inc(sum(s.num_frames for s in sequences), labels=(executor,))


def _map_named(
    fn: Callable[[Any], Any],
    items: List[Any],
    names: List[str],
    workers: int,
    on_progress: Optional[ProgressFn],
) -> List[Any]:
    """:func:`parallel_map`, raising :class:`SequenceExecutionError`."""
    try:
        return parallel_map(
            fn, items, workers=workers, on_progress=on_progress, labels=names
        )
    except ParallelMapError as err:
        raise SequenceExecutionError(err.label, err.__cause__) from err.__cause__


def _is_config(target: SystemLike) -> bool:
    from repro.core.config import SystemConfig

    return isinstance(target, SystemConfig)


def _run_sequence(target: SystemLike, sequence: Sequence) -> SequenceResult:
    """Worker entry point: one sequence on a fresh or freshly reset system."""
    if _is_config(target):
        from repro.core.config import build_system

        target = build_system(target)
    else:
        target.reset()
    return target.process_sequence(sequence)


def config_is_frame_parallel(config: "SystemConfig") -> bool:
    """Whether ``config``'s registered kind declares independent frames."""
    from repro.api.registry import SYSTEMS

    return bool(getattr(SYSTEMS.get(config.kind), "frame_parallel", False))


def run_frame_range(
    target: SystemLike, sequence: Sequence, start: int, stop: int
) -> SequenceResult:
    """Process frames ``[start, stop)`` of one sequence.

    For frame-parallel systems (no cross-frame feedback) any range is a
    pure function of ``(config, sequence, range)`` and splicing adjacent
    ranges back together is byte-identical to the serial frame loop.
    Causal systems (tracker feedback) may only run *prefixes* — a range
    starting past frame 0 would need tracker state it never saw, so it is
    rejected rather than silently computed wrong.
    """
    from repro.core.config import build_system

    if not (0 <= start < stop <= sequence.num_frames):
        raise ValueError(
            f"frame range [{start}, {stop}) is invalid for sequence "
            f"{sequence.name!r} with {sequence.num_frames} frames"
        )
    if _is_config(target):
        independent = config_is_frame_parallel(target)
        label = f"system kind {target.kind!r}"
        target = build_system(target)
    else:
        # Live instances declare independence themselves (default False:
        # unknown systems are assumed causal rather than computed wrong).
        independent = bool(getattr(target, "frame_parallel", False))
        label = f"system {type(target).__name__}"
    if start > 0 and not independent:
        raise ValueError(
            f"{label} has cross-frame feedback; "
            "only prefix ranges (start=0) are causally valid"
        )
    pipeline = target.build_pipeline()
    pipeline.begin_sequence(sequence)
    result = SequenceResult(sequence_name=sequence.name)
    for frame in range(start, stop):
        result.frames.append(pipeline.run_frame(sequence, frame))
    return result


def _run_frame_range_from_config(
    config: "SystemConfig", chunk: Tuple[Sequence, int, int]
) -> List["object"]:
    """Worker entry point: one ``(sequence, start, stop)`` chunk."""
    return run_frame_range(config, *chunk).frames


def split_frame_ranges(
    num_frames: int, chunks: int
) -> List[Tuple[int, int]]:
    """Split ``range(num_frames)`` into ``chunks`` contiguous ranges.

    Near-equal sizes (the first ``num_frames % chunks`` ranges get one
    extra frame); never returns an empty range.
    """
    if num_frames <= 0:
        return []
    chunks = max(1, min(int(chunks), num_frames))
    base, extra = divmod(num_frames, chunks)
    ranges = []
    start = 0
    for i in range(chunks):
        stop = start + base + (1 if i < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


class SerialExecutor:
    """Process sequences one after another in the calling process."""

    workers = 1

    def map_sequences(
        self,
        target: SystemLike,
        sequences: List[Sequence],
        *,
        on_progress: Optional[ProgressFn] = None,
    ) -> List[SequenceResult]:
        if _is_config(target):
            from repro.core.config import build_system

            target = build_system(target)
        results = []
        for sequence in sequences:
            target.reset()
            results.append(target.process_sequence(sequence))
            if on_progress is not None:
                on_progress(len(results), len(sequences), sequence.name)
        _count_mapped("serial", sequences)
        return results


class ParallelExecutor:
    """Fan sequences out to worker processes through :func:`parallel_map`.

    Results come back in submission order, so a parallel run's
    :class:`~repro.core.results.SystemRunResult` is indistinguishable from
    a serial one.  Prefer passing a :class:`SystemConfig` — workers then
    rebuild the system from the declarative description instead of
    pickling detector caches across the process boundary.

    Parameters
    ----------
    workers:
        Worker process count (must be >= 1; 1 runs in-process, as
        :func:`parallel_map` does).
    """

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)

    def map_sequences(
        self,
        target: SystemLike,
        sequences: List[Sequence],
        *,
        on_progress: Optional[ProgressFn] = None,
    ) -> List[SequenceResult]:
        if not sequences:
            return []
        if not _is_config(target):
            # Workers reset the system before use anyway; resetting here
            # avoids pickling populated detector caches once per sequence.
            target.reset()
        fn = partial(_run_sequence, target)
        names = [s.name for s in sequences]
        results = _map_named(fn, sequences, names, self.workers, on_progress)
        _count_mapped("process", sequences)
        return results


class FrameParallelExecutor(ParallelExecutor):
    """Split *within* sequences: frame-range shards on worker processes.

    Sequence-level parallelism (:class:`ParallelExecutor`) saturates once
    the dataset has fewer sequences than cores — the long tail is one
    worker grinding through the longest sequence.  For systems whose
    registered kind declares ``frame_parallel`` (single, cascade: every
    frame is a pure function of ``(config, sequence, frame)``), this
    executor maps contiguous frame ranges of *every* sequence over
    :func:`parallel_map` and splices the chunks back in plan order,
    byte-identical to the serial loop.  Systems with cross-frame feedback
    (catdet, keyframe) fall back to whole-sequence shards — tracker
    causality keeps them sequence-serial, exactly like
    :class:`ParallelExecutor`.

    Requires a declarative :class:`~repro.core.config.SystemConfig`
    target so workers can rebuild the system (and so the kind's
    ``frame_parallel`` declaration can be trusted).
    """

    def map_sequences(
        self,
        target: SystemLike,
        sequences: List[Sequence],
        *,
        on_progress: Optional[ProgressFn] = None,
    ) -> List[SequenceResult]:
        if not _is_config(target):
            raise TypeError(
                "the frame-parallel executor needs a SystemConfig (the "
                "registered kind declares whether frames are independent)"
            )
        if not sequences:
            return []
        if not config_is_frame_parallel(target):
            return super().map_sequences(target, sequences, on_progress=on_progress)
        # Aim for a few chunks per worker so uneven chunk runtimes level
        # out, without splintering short sequences into per-frame tasks.
        total_frames = sum(s.num_frames for s in sequences)
        target_chunk = max(8, total_frames // (self.workers * 4) or 1)
        plan = [  # (sequence index, (sequence, start, stop))
            (i, (sequence, start, stop))
            for i, sequence in enumerate(sequences)
            for start, stop in split_frame_ranges(
                sequence.num_frames, max(1, sequence.num_frames // target_chunk)
            )
        ]
        names = [chunk[0].name for _, chunk in plan]
        # Report a sequence once, when its last chunk lands.
        chunks_left = Counter(names)
        finished: List[str] = []

        def chunk_landed(_done: int, _total: int, name: str) -> None:
            chunks_left[name] -= 1
            if chunks_left[name] == 0 and on_progress is not None:
                finished.append(name)
                on_progress(len(finished), len(sequences), name)

        fn = partial(_run_frame_range_from_config, target)
        items = [chunk for _, chunk in plan]
        chunks = _map_named(fn, items, names, self.workers, chunk_landed)
        results = [SequenceResult(sequence_name=s.name) for s in sequences]
        for (i, _), frames in zip(plan, chunks):
            results[i].frames.extend(frames)
        _count_mapped("frames", sequences)
        return results


SequenceExecutor = Union[SerialExecutor, ParallelExecutor, FrameParallelExecutor]


def make_executor(workers: Optional[int]) -> SequenceExecutor:
    """Pick the executor for a requested worker count.

    ``None`` or ``1`` → serial; ``0`` → one worker per available CPU;
    ``N >= 2`` → a process pool of ``N`` workers.
    """
    workers = resolve_workers(workers, sys.maxsize)
    return SerialExecutor() if workers == 1 else ParallelExecutor(workers)


# --------------------------------------------------------------------- #
# Executor registration
# --------------------------------------------------------------------- #

from repro.api.registry import register_executor  # noqa: E402


@register_executor("auto")
def _auto_executor(workers: Optional[int]) -> SequenceExecutor:
    """``workers``-driven choice: 1/None = serial, 0 = per CPU, N = pool."""
    return make_executor(workers)


@register_executor("serial")
def _serial_executor(workers: Optional[int]) -> SequenceExecutor:
    if workers not in (None, 0, 1):
        raise ValueError(f"the serial executor is single-worker, got workers={workers}")
    return SerialExecutor()


@register_executor("process")
def _process_executor(workers: Optional[int]) -> SequenceExecutor:
    """A :class:`ParallelExecutor` whatever the count; ``None`` → 1 worker."""
    return ParallelExecutor(resolve_workers(workers, sys.maxsize))


@register_executor("frames")
def _frames_executor(workers: Optional[int]) -> SequenceExecutor:
    """Frame-range sharding for frame-parallel system kinds.

    ``None``/``0`` → one worker per available CPU.  Kinds with
    cross-frame feedback degrade to sequence-level shards.
    """
    workers = 0 if workers is None else workers
    return FrameParallelExecutor(resolve_workers(workers, sys.maxsize))
