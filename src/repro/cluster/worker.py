"""Worker daemon: crash-safe claim → execute → ack loops.

A worker owns nothing but a queue directory and (optionally) a shared
cache root.  Its loop is::

    claim a lease  →  heartbeat in the background  →  execute  →
    write result envelope  →  release the lease

Every transition is durable (see :mod:`repro.cluster.queue`), so a
worker may be SIGKILL'd at any point: an unfinished shard's lease
expires and the task is re-leased to a peer; a finished-but-unreleased
shard reconciles as done.  Execution errors are *not* crashes — the
worker records the traceback on the task and re-queues it, letting the
attempt budget decide when it becomes a dead letter.

Cache routing: experiment tasks run through a
:class:`~repro.api.Session` on the shared cache, sequence tasks through
a :class:`~repro.cluster.protocol.SequenceResultStore` in the same
:class:`~repro.api.cache.ContentStore` root — so any fingerprint any
host has computed is served, not re-run.
"""

from __future__ import annotations

import threading
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro.cluster.protocol import (
    KIND_EXPERIMENT,
    KIND_SEQUENCE,
    SequenceResultStore,
    resolve_task_config,
    resolve_task_sequence,
    result_envelope,
)
from repro.cluster.queue import FileWorkQueue, Lease, default_worker_id
from repro.obs.health import HealthReporter, health_dir
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    resolve_registry,
)
from repro.obs.sinks import Sink, as_sinks

#: Cache subdirectory under a shared queue root (kept separate from the
#: queue's own state dirs).
CACHE_SUBDIR = "cache"

#: Most recent structured lease-lost events kept on the worker (and
#: published in its health snapshot).
MAX_LEASE_LOST_EVENTS = 20


def default_cache_dir(queue_root: Union[str, Path]) -> Path:
    """Where dispatch and workers meet by default: ``<queue>/cache``."""
    return Path(queue_root) / CACHE_SUBDIR


def execute_task(
    task: Dict[str, Any],
    *,
    cache_dir: Optional[Union[str, Path]] = None,
    worker_id: str = "inline",
) -> Dict[str, Any]:
    """Execute one task envelope and build its result envelope.

    Pure with respect to the queue — callers (the worker loop, tests,
    an inline fallback) decide where the envelope goes.  ``cached`` in
    the returned envelope reports whether the fingerprint was served
    from the shared store without executing the pipeline.
    """
    kind = task["kind"]
    fingerprint = task["fingerprint"]
    if kind == KIND_EXPERIMENT:
        from dataclasses import replace

        from repro.api.session import Session
        from repro.api.spec import ExecSpec, ExperimentSpec
        from repro.harness.io import experiment_to_dict

        session = Session(cache_dir=cache_dir)
        spec = ExperimentSpec.from_dict(task["payload"]["spec"])
        # Execute locally whatever the spec's plan says — a "multihost"
        # exec plan reaching a worker must not recurse into dispatch.
        # The fingerprint excludes exec, so cache routing is unchanged.
        result = session.run(
            replace(spec, exec=ExecSpec(executor="serial")),
            use_cache=task["payload"].get("use_cache", True),
        )
        return result_envelope(
            kind,
            fingerprint,
            {"experiment": experiment_to_dict(result)},
            worker=worker_id,
            cached=session.cache_hits > 0,
        )
    if kind == KIND_SEQUENCE:
        from repro.core.config import build_system
        from repro.harness.io import sequence_result_to_dict

        store = SequenceResultStore(cache_dir) if cache_dir is not None else None
        cached = True
        result = store.load(fingerprint) if store is not None else None
        if result is None:
            cached = False
            config = resolve_task_config(task["payload"])
            sequence = resolve_task_sequence(task["payload"])
            frame_range = task["payload"].get("frame_range")
            if frame_range is not None:
                from repro.engine.scheduler import run_frame_range

                # No clamping: a range beyond the sequence raises (the
                # task records a failure) rather than storing a silently
                # truncated result under the full-range fingerprint.
                start, stop = frame_range
                result = run_frame_range(config, sequence, int(start), int(stop))
            else:
                result = build_system(config).process_sequence(sequence)
            if store is not None:
                store.store(fingerprint, result)
        return result_envelope(
            kind,
            fingerprint,
            {"sequence": sequence_result_to_dict(result)},
            worker=worker_id,
            cached=cached,
        )
    raise ValueError(f"unknown task kind {kind!r}")


class _Heartbeat:
    """Background lease renewal while a shard executes."""

    def __init__(self, lease: Lease, interval: float):
        self._lease = lease
        self._interval = interval
        self._stop = threading.Event()
        self.lost = False
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            if not self._lease.heartbeat():
                # An observer re-queued us; keep executing (the result is
                # deterministic and idempotent) but record the loss.
                self.lost = True
                return

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=1.0)


class Worker:
    """A claim/execute/ack loop over one :class:`FileWorkQueue`.

    Parameters
    ----------
    queue:
        The queue (or its root directory).
    cache_dir:
        Shared result store; defaults to ``<queue root>/cache``.  Pass
        ``cache_dir=None`` explicitly via ``use_cache=False`` semantics
        by giving a falsy path — the CLI exposes ``--no-cache``.
    worker_id:
        Defaults to ``host:pid``.
    heartbeat_interval:
        Lease renewal period; defaults to a third of the queue's TTL.
    metrics:
        A :class:`~repro.obs.registry.MetricsRegistry` for this worker's
        counters (tasks by outcome, lease-lost events, per-task service
        time); defaults to the process-global registry.
    sinks:
        :class:`~repro.obs.sinks.Sink`\\ s receiving one ``worker.task``
        record per finished/failed task and a ``worker.lease_lost``
        record per lost lease.  Emitted, never closed — lifecycle
        belongs to the caller.
    health:
        ``"auto"`` writes health snapshots to ``<queue>/health/`` while
        :meth:`run` drains; a path overrides the directory; ``None``
        disables health reporting.
    """

    def __init__(
        self,
        queue: Union[FileWorkQueue, str, Path],
        *,
        cache_dir: Optional[Union[str, Path]] = "auto",
        worker_id: Optional[str] = None,
        heartbeat_interval: Optional[float] = None,
        metrics: Optional[MetricsRegistry] = None,
        sinks: Union[None, Sink, list] = None,
        health: Optional[Union[str, Path]] = "auto",
    ):
        self.queue = queue if isinstance(queue, FileWorkQueue) else FileWorkQueue(queue)
        if cache_dir == "auto":
            cache_dir = default_cache_dir(self.queue.root)
        self.cache_dir = cache_dir
        self.worker_id = worker_id or default_worker_id()
        self.heartbeat_interval = (
            heartbeat_interval
            if heartbeat_interval is not None
            else max(0.05, self.queue.lease_ttl / 3.0)
        )
        self.metrics = resolve_registry(metrics)
        self.sinks = as_sinks(sinks)
        if health == "auto":
            health = health_dir(self.queue.root)
        self._health_dir = Path(health) if health is not None else None
        self._health: Optional[HealthReporter] = None
        self.tasks_done = 0
        self.tasks_failed = 0
        #: Shards finished after an observer had already re-leased them
        #: (the duplicate result is byte-identical, so completion is
        #: harmless — but the count signals the lease TTL is too short
        #: for the shard size).
        self.leases_lost = 0
        #: Structured records of those losses (task id, elapsed seconds,
        #: attempt number), newest last; published in health snapshots.
        self.lease_lost_events: list = []
        self._m_tasks = self.metrics.counter(
            "worker_tasks_total", "tasks finished by this worker, by outcome",
            labels=("outcome",),
        )
        self._m_lease_lost = self.metrics.counter(
            "worker_leases_lost_total",
            "leases an observer expired while this worker kept executing",
        )
        self._m_task_seconds = self.metrics.histogram(
            "worker_task_seconds", "wall-clock service time per executed task",
            buckets=DEFAULT_LATENCY_BUCKETS,
        )

    def _record_lease_lost(self, lease: Lease, elapsed: float) -> None:
        """Satellite of the heartbeat-loss path: make the loss observable.

        Before observability, a lease lost mid-execution was silently
        folded into the envelope — no counter, no trace of *which* task
        or how far in.  Now every loss emits a structured event through
        the registry, the sinks, and the health snapshot.
        """
        event = {
            "task_id": lease.task_id,
            "elapsed_seconds": elapsed,
            "attempt": int(lease.task.get("attempts", 0)) + 1,
            "worker": self.worker_id,
        }
        self.leases_lost += 1
        self.lease_lost_events.append(event)
        del self.lease_lost_events[:-MAX_LEASE_LOST_EVENTS]
        self._m_lease_lost.inc()
        for sink in self.sinks:
            sink.emit({"record": "worker.lease_lost", **event})

    def _emit_task(self, task_id: str, outcome: str, elapsed: float) -> None:
        self._m_tasks.inc(labels=(outcome,))
        self._m_task_seconds.observe(elapsed)
        for sink in self.sinks:
            sink.emit(
                {
                    "record": "worker.task",
                    "task_id": task_id,
                    "outcome": outcome,
                    "seconds": elapsed,
                    "worker": self.worker_id,
                }
            )

    def run_one(self) -> bool:
        """Claim and finish (or fail) at most one task; ``True`` if claimed."""
        lease = self.queue.claim(self.worker_id)
        if lease is None:
            return False
        if self._health is not None:
            self._health.in_flight = lease.task_id
            self._health.beat(force=True)
        start = time.perf_counter()
        try:
            with _Heartbeat(lease, self.heartbeat_interval) as heartbeat:
                envelope = execute_task(
                    lease.task, cache_dir=self.cache_dir, worker_id=self.worker_id
                )
            if heartbeat.lost:
                self._record_lease_lost(lease, time.perf_counter() - start)
                envelope["lease_lost"] = True
        except KeyboardInterrupt:
            # Put the shard straight back rather than waiting out the TTL.
            lease.fail("interrupted")
            raise
        except Exception:
            self.tasks_failed += 1
            lease.fail(traceback.format_exc(limit=20))
            self._emit_task(lease.task_id, "failed", time.perf_counter() - start)
            return True
        finally:
            if self._health is not None:
                self._health.in_flight = None
        lease.complete(envelope)
        self.tasks_done += 1
        self._emit_task(lease.task_id, "done", time.perf_counter() - start)
        return True

    def run(
        self,
        *,
        max_tasks: Optional[int] = None,
        idle_timeout: Optional[float] = None,
        poll_interval: float = 0.2,
        on_task: Optional[Callable[[int], None]] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> int:
        """Drain the queue; returns the number of tasks processed.

        Runs until ``max_tasks`` tasks were processed, the queue stayed
        empty for ``idle_timeout`` seconds, or ``should_stop()`` turns
        true — whichever comes first (``None`` limits mean forever, the
        daemon default).  Between claims the worker also sweeps expired
        peers' leases, so a fleet self-heals without a coordinator.

        While draining, the worker refreshes a health snapshot (pid,
        uptime, in-flight task, lease-lost events, metrics) under the
        queue's ``health/`` directory — ``repro status`` reads it live.
        A clean exit removes the snapshot; a crash leaves it to go stale.
        """
        if self._health_dir is not None:
            self._health = HealthReporter(
                self._health_dir,
                component="worker",
                component_id=self.worker_id,
                registry=self.metrics,
            )
        processed = 0
        idle_since: Optional[float] = None
        try:
            while True:
                if self._health is not None and self._health.due():
                    self._health.extra["lease_lost_events"] = list(
                        self.lease_lost_events
                    )
                    self._health.extra["queue"] = self.queue.stats()
                    self._health.beat()
                if should_stop is not None and should_stop():
                    return processed
                if max_tasks is not None and processed >= max_tasks:
                    return processed
                self.queue.recover_expired()
                if self.run_one():
                    processed += 1
                    idle_since = None
                    if on_task is not None:
                        on_task(processed)
                    continue
                now = time.time()
                if idle_since is None:
                    idle_since = now
                if idle_timeout is not None and now - idle_since >= idle_timeout:
                    return processed
                time.sleep(poll_interval)
        finally:
            if self._health is not None:
                self._health.close()
                self._health = None
