"""Coordinator: shard work, dispatch, watch stragglers, reassemble.

Two sharding granularities (mirroring :mod:`repro.cluster.protocol`):

* :func:`dispatch_specs` shards a ``run_many`` grid — one experiment
  task per *distinct* spec fingerprint, cached fingerprints served
  without enqueueing anything, results reassembled in submission order.
* :class:`MultiHostExecutor` shards a single dataset run — one sequence
  task per sequence, registered as the ``"multihost"`` executor kind so
  ``ExecSpec(executor="multihost", queue_dir=...)`` routes any spec, CLI
  run, sweep or table through the fleet.  Output is byte-identical to
  :class:`~repro.engine.scheduler.SerialExecutor` (same reassembly
  order, deterministic per-sequence execution).

While waiting, the coordinator sweeps expired leases back into the
pending state (:meth:`FileWorkQueue.recover_expired`), so a SIGKILL'd
worker only costs one lease TTL, and surfaces dead-lettered shards as
:class:`ClusterTaskError` instead of hanging.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence as Seq, Union

from repro.cluster import protocol
from repro.cluster.queue import FileWorkQueue
from repro.cluster.worker import default_cache_dir
from repro.core.results import SequenceResult
from repro.datasets.types import Sequence

#: ``on_progress`` callbacks everywhere in the library share one shape:
#: ``callback(done, total, label)``.
ProgressFn = Callable[[int, int, str], None]


class ClusterTaskError(RuntimeError):
    """A shard exhausted its attempt budget (or its envelope was corrupt)."""

    def __init__(self, task_id: str, record: Optional[Dict[str, Any]]):
        history = (record or {}).get("history", [])
        detail = history[-1].strip().splitlines()[-1] if history else "no failure record"
        super().__init__(
            f"task {task_id} was dead-lettered after "
            f"{(record or {}).get('attempts', '?')} attempt(s): {detail}"
        )
        self.task_id = task_id
        self.record = record


class ClusterTimeout(TimeoutError):
    """Dispatch exceeded its wall-clock budget with shards outstanding."""


def _wait_for_results(
    queue: FileWorkQueue,
    task_ids: Seq[str],
    *,
    poll_interval: float = 0.2,
    timeout: Optional[float] = None,
    on_progress: Optional[ProgressFn] = None,
    labels: Optional[Dict[str, str]] = None,
) -> Dict[str, Dict[str, Any]]:
    """Poll until every task id has a result envelope; returns id → envelope.

    Also performs straggler recovery each cycle and raises
    :class:`ClusterTaskError` the moment any shard dead-letters.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    envelopes: Dict[str, Dict[str, Any]] = {}
    outstanding = list(task_ids)
    while outstanding:
        queue.recover_expired()
        still: List[str] = []
        for task_id in outstanding:
            envelope = queue.result(task_id)
            if envelope is not None:
                envelopes[task_id] = envelope
                if on_progress is not None:
                    label = (labels or {}).get(task_id, task_id)
                    on_progress(len(envelopes), len(task_ids), label)
                continue
            dead = queue.dead_letter(task_id)
            if dead is not None:
                raise ClusterTaskError(task_id, dead)
            still.append(task_id)
        outstanding = still
        if not outstanding:
            break
        if deadline is not None and time.monotonic() > deadline:
            raise ClusterTimeout(
                f"{len(outstanding)}/{len(task_ids)} shard(s) still outstanding "
                f"after {timeout:.0f}s: {outstanding[:5]}"
                + ("..." if len(outstanding) > 5 else "")
            )
        time.sleep(poll_interval)
    return envelopes


# --------------------------------------------------------------------- #
# Spec-grid dispatch (the run_many backend)
# --------------------------------------------------------------------- #


def dispatch_specs(
    queue: Union[FileWorkQueue, str, Path],
    specs: Seq["Any"],
    *,
    cache_dir: Optional[Union[str, Path]] = "auto",
    use_cache: bool = True,
    wait: bool = True,
    poll_interval: float = 0.2,
    timeout: Optional[float] = None,
    on_progress: Optional[ProgressFn] = None,
) -> Union[List[str], List["Any"]]:
    """Shard an :class:`ExperimentSpec` grid across the worker fleet.

    Dedupes by content fingerprint, serves fingerprints already in the
    shared cache without enqueueing, submits the rest as experiment
    tasks, and (with ``wait=True``) returns
    :class:`~repro.harness.experiment.ExperimentResult`\\ s aligned with
    the input order — byte-identical to running the grid serially.
    ``use_cache=False`` forces recomputation end to end: no fingerprint
    is served coordinator-side and the task envelopes order workers to
    bypass their stores too.  ``on_progress(done, total, label)`` fires
    once per distinct fingerprint, cache-served ones included.

    With ``wait=False`` returns the submitted task ids; poll
    ``queue.result(task_id)`` yourself, or simply re-dispatch the same
    grid later — finished fingerprints resolve as cache hits.
    """
    from repro.api.cache import ResultCache
    from repro.harness.io import experiment_from_dict

    queue = queue if isinstance(queue, FileWorkQueue) else FileWorkQueue(queue)
    if cache_dir == "auto":
        cache_dir = default_cache_dir(queue.root)
    if not use_cache:
        cache_dir = None
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    m_specs = queue.metrics.counter(
        "coordinator_specs_total",
        "distinct grid points dispatched, by how they resolved",
        labels=("resolution",),
    )

    specs = list(specs)
    results_by_fp: Dict[str, Any] = {}
    task_by_fp: Dict[str, str] = {}
    labels: Dict[str, str] = {}
    cached_labels: List[str] = []
    for spec in specs:
        fp = spec.fingerprint
        if fp in results_by_fp or fp in task_by_fp:
            continue
        cached = cache.load(fp) if cache is not None else None
        if cached is not None:
            results_by_fp[fp] = cached
            cached_labels.append(spec.label)
            m_specs.inc(labels=("cached",))
            continue
        task_id = queue.submit(
            protocol.experiment_task(spec.to_dict(), fp, use_cache=use_cache)
        )
        task_by_fp[fp] = task_id
        labels[task_id] = spec.label
        m_specs.inc(labels=("dispatched",))
    total = len(results_by_fp) + len(task_by_fp)
    if on_progress is not None:
        for done, label in enumerate(cached_labels, start=1):
            on_progress(done, total, f"{label} (cached)")
    if not wait:
        return list(task_by_fp.values())

    served = len(results_by_fp)
    envelopes = _wait_for_results(
        queue,
        list(task_by_fp.values()),
        poll_interval=poll_interval,
        timeout=timeout,
        on_progress=(
            None
            if on_progress is None
            else lambda done, _t, label: on_progress(served + done, total, label)
        ),
        labels=labels,
    )
    specs_by_fp = {spec.fingerprint: spec for spec in specs}
    for fp, task_id in task_by_fp.items():
        envelope = envelopes[task_id]
        # Prefer the shared store (already parsed-validated path), fall
        # back to the inline copy the worker always embeds.
        result = cache.load(fp) if cache is not None else None
        if result is None:
            result = experiment_from_dict(envelope["payload"]["experiment"])
            if cache is not None:
                # The worker's store isn't ours (different cache topology)
                # — keep the copy so our side's revisits are free too.
                cache.store(fp, result, spec=specs_by_fp[fp].to_dict())
        results_by_fp[fp] = result
    return [results_by_fp[spec.fingerprint] for spec in specs]


# --------------------------------------------------------------------- #
# Dataset-run sharding: the "multihost" executor kind
# --------------------------------------------------------------------- #


class MultiHostExecutor:
    """``map_sequences`` over a shared work queue instead of local processes.

    Drop-in peer of :class:`~repro.engine.scheduler.SerialExecutor` /
    :class:`~repro.engine.scheduler.ParallelExecutor`: one sequence task
    per sequence, results reassembled in submission order, so a dataset
    run through the fleet is byte-identical to the serial loop.

    Requires the *declarative* target (a
    :class:`~repro.core.config.SystemConfig`) — a live system instance
    cannot be shipped to another host.

    Parameters
    ----------
    queue_dir:
        The shared queue directory workers poll (``repro worker <dir>``).
    cache_dir:
        Shared sequence-result store; default ``<queue_dir>/cache``.
    dataset_spec:
        Optional :class:`~repro.api.spec.DatasetSpec` dict; when given,
        sequences that belong to that dataset ship as tiny
        ``(dataset, index)`` references instead of inline track sets.
    timeout / poll_interval:
        Straggler budget for each ``map_sequences`` call.
    """

    #: Like ParallelExecutor.workers — the fleet size is unknown to the
    #: coordinator, so report the only honest number for local planning.
    workers = 0

    def __init__(
        self,
        queue_dir: Union[str, Path],
        *,
        cache_dir: Optional[Union[str, Path]] = "auto",
        dataset_spec: Optional[Dict[str, Any]] = None,
        lease_ttl: Optional[float] = None,
        timeout: Optional[float] = None,
        poll_interval: float = 0.2,
    ):
        kwargs = {} if lease_ttl is None else {"lease_ttl": lease_ttl}
        self.queue = FileWorkQueue(queue_dir, **kwargs)
        if cache_dir == "auto":
            cache_dir = default_cache_dir(self.queue.root)
        self.cache_dir = cache_dir
        self.dataset_spec = dataset_spec
        self.timeout = timeout
        self.poll_interval = poll_interval

    def _sequence_task(self, config, sequence: Sequence, index: int) -> Dict[str, Any]:
        if self.dataset_spec is not None:
            return protocol.sequence_task(
                config, dataset=self.dataset_spec, index=index
            )
        return protocol.sequence_task(config, sequence)

    def map_sequences(
        self,
        target,
        sequences: List[Sequence],
        *,
        on_progress: Optional[ProgressFn] = None,
    ) -> List[SequenceResult]:
        from repro.core.config import SystemConfig

        if not isinstance(target, SystemConfig):
            raise TypeError(
                "the multihost executor needs a SystemConfig (a live "
                f"{type(target).__name__} cannot be shipped to other hosts)"
            )
        if not sequences:
            return []
        store = (
            protocol.SequenceResultStore(self.cache_dir)
            if self.cache_dir is not None
            else None
        )
        results: Dict[int, SequenceResult] = {}
        task_ids: Dict[int, str] = {}
        labels: Dict[str, str] = {}
        for i, sequence in enumerate(sequences):
            task = self._sequence_task(target, sequence, i)
            cached = store.load(task["fingerprint"]) if store is not None else None
            if cached is not None:
                results[i] = cached
                if on_progress is not None:
                    on_progress(len(results), len(sequences), sequence.name)
                continue
            task_ids[i] = self.queue.submit(task)
            labels[task_ids[i]] = sequence.name
        if task_ids:
            done_offset = len(results)
            envelopes = _wait_for_results(
                self.queue,
                list(task_ids.values()),
                poll_interval=self.poll_interval,
                timeout=self.timeout,
                on_progress=(
                    None
                    if on_progress is None
                    else lambda done, total, label: on_progress(
                        done_offset + done, len(sequences), label
                    )
                ),
                labels=labels,
            )
            from repro.harness.io import sequence_result_from_dict

            for i, task_id in task_ids.items():
                results[i] = sequence_result_from_dict(
                    envelopes[task_id]["payload"]["sequence"]
                )
        return [results[i] for i in range(len(sequences))]


# --------------------------------------------------------------------- #
# Executor registration
# --------------------------------------------------------------------- #

from repro.api.registry import register_executor  # noqa: E402

#: Environment fallback for the shared queue directory when the exec spec
#: doesn't carry one (mirrors REPRO_CACHE_DIR for caches).
QUEUE_DIR_ENV = "REPRO_QUEUE_DIR"


@register_executor("multihost")
def _multihost_executor(workers: Optional[int], queue_dir: Optional[str] = None):
    """Fan a dataset run out to workers polling a shared queue directory.

    ``workers`` is ignored — fleet size is whoever runs ``repro worker``
    against the queue.  The queue directory comes from
    ``ExecSpec.queue_dir`` or the ``REPRO_QUEUE_DIR`` environment
    variable.
    """
    queue_dir = queue_dir or os.environ.get(QUEUE_DIR_ENV)
    if not queue_dir:
        raise ValueError(
            "the multihost executor needs a queue directory: set "
            f"ExecSpec(queue_dir=...) or the {QUEUE_DIR_ENV} environment variable"
        )
    return MultiHostExecutor(queue_dir)
