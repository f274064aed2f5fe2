"""Durable file-based work queue: atomic leases over a shared directory.

The broker is the filesystem — any directory visible to every host (NFS,
a shared volume, or plain local disk for same-box workers) is a queue.
No server process, no sockets, no extra dependencies; all transitions
are single ``rename``/``replace`` calls, which POSIX makes atomic within
a filesystem.

Layout under the queue root::

    tasks/<task_id>.json     pending, claimable by any worker
    leases/<task_id>.json    claimed; file mtime + lease_ttl = deadline
    results/<task_id>.json   finished result envelope
    dead/<task_id>.json      dead-lettered after max_attempts failures

Lifecycle:

* **submit** writes ``tasks/<id>.json`` atomically (tmp + rename).
* **claim** renames ``tasks/<id>.json`` → ``leases/<id>.json``.  Rename
  fails for every process but one, so exactly one worker wins each task
  with no locking.
* **heartbeat** is ``os.utime`` on the lease file — the lease deadline is
  its mtime plus the TTL, so renewal is one syscall and crash detection
  needs no clock agreement beyond the shared filesystem's.
* **complete** writes the result, then removes the lease.  A crash
  between the two leaves both files; reconciliation treats any task with
  a result as done.
* **recover_expired** requeues leases past their deadline (incrementing
  the attempt count) and dead-letters tasks that exhausted
  ``max_attempts`` — the crash-safety half of the contract: a SIGKILL'd
  worker's shard reappears in ``tasks/`` after one TTL.

Because execution is deterministic, the races left open are benign: a
worker that outlives its lease at worst duplicates work, producing a
byte-identical result envelope.
"""

from __future__ import annotations

import json
import os
import socket
import time
import uuid
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.api.cache import atomic_write_json
from repro.cluster.protocol import validate_task
from repro.obs.registry import MetricsRegistry, resolve_registry

#: Default seconds a claimed task may go without a heartbeat before any
#: observer may re-queue it.
DEFAULT_LEASE_TTL = 60.0

#: Default number of lease grants (first try included) before dead-letter.
DEFAULT_MAX_ATTEMPTS = 3


def default_worker_id() -> str:
    """``host:pid`` — unique enough across a shared-filesystem fleet."""
    return f"{socket.gethostname()}:{os.getpid()}"


class Lease:
    """One claimed task: the envelope plus renewal/ack handles."""

    def __init__(self, queue: "FileWorkQueue", task_id: str, task: Dict[str, Any]):
        self.queue = queue
        self.task_id = task_id
        self.task = task

    @property
    def path(self) -> Path:
        return self.queue.lease_dir / f"{self.task_id}.json"

    def heartbeat(self) -> bool:
        """Renew the lease (reset its deadline).

        Returns ``False`` when the lease no longer exists — an observer
        judged this worker dead and re-queued the task.  The holder should
        stop billing work against it (finishing anyway is harmless: the
        result is byte-identical to the re-executed one).
        """
        try:
            os.utime(self.path)
            return True
        except OSError:
            return False

    def complete(self, result: Dict[str, Any]) -> Path:
        """Write the result envelope, then release the lease."""
        path = self.queue._write_json(self.queue.result_dir / f"{self.task_id}.json", result)
        self.path.unlink(missing_ok=True)
        self.queue._m_tasks.inc(labels=("completed",))
        return path

    def fail(self, error: str) -> None:
        """Record a failure and re-queue (or dead-letter) the task."""
        self.queue._requeue(self.task_id, self.task, error=error, lease_path=self.path)


class FileWorkQueue:
    """A durable task queue over one shared directory (see module docs)."""

    def __init__(
        self,
        root: Union[str, Path],
        *,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be positive, got {lease_ttl}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.root = Path(root)
        self.lease_ttl = float(lease_ttl)
        self.max_attempts = int(max_attempts)
        self.task_dir = self.root / "tasks"
        self.lease_dir = self.root / "leases"
        self.result_dir = self.root / "results"
        self.dead_dir = self.root / "dead"
        for d in (self.task_dir, self.lease_dir, self.result_dir, self.dead_dir):
            d.mkdir(parents=True, exist_ok=True)
        # Per-process view of this process's queue traffic (every process
        # touching a shared queue has its own registry; the fleet-wide
        # truth stays on disk and is what `repro status` reads).
        registry = resolve_registry(metrics)
        self.metrics = registry
        self._m_tasks = registry.counter(
            "cluster_tasks_total",
            "queue transitions performed by this process, by event",
            labels=("event",),
        )
        self._m_depth = registry.gauge(
            "cluster_queue_depth", "tasks by state at the last stats() sweep",
            labels=("state",),
        )
        self._m_lease_age = registry.gauge(
            "cluster_oldest_lease_age_seconds",
            "age of the oldest live lease at the last stats() sweep",
        )

    # ----------------------------------------------------------------- #
    # Producer side
    # ----------------------------------------------------------------- #

    def submit(self, task: Dict[str, Any], *, task_id: Optional[str] = None) -> str:
        """Enqueue one task envelope; returns its queue-unique id.

        Generated ids embed the content fingerprint for debuggability but
        stay unique per submission, so re-dispatching a grid never
        collides with an in-flight run.
        """
        validate_task(task)
        if task_id is None:
            task_id = f"{task['fingerprint'][:12]}-{uuid.uuid4().hex[:8]}"
        record = dict(task)
        record.setdefault("attempts", 0)
        record.setdefault("history", [])
        record["id"] = task_id
        self._write_json(self.task_dir / f"{task_id}.json", record)
        self._m_tasks.inc(labels=("submitted",))
        return task_id

    def result(self, task_id: str) -> Optional[Dict[str, Any]]:
        """The finished envelope for ``task_id``, or ``None`` if pending.

        A partially-visible write (rare on NFS renames, impossible
        locally) reads as still-pending and is retried by the caller's
        poll loop.
        """
        try:
            with open(self.result_dir / f"{task_id}.json", "r", encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None

    def dead_letter(self, task_id: str) -> Optional[Dict[str, Any]]:
        """The dead-letter record for ``task_id``, or ``None``."""
        try:
            with open(self.dead_dir / f"{task_id}.json", "r", encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None

    # ----------------------------------------------------------------- #
    # Worker side
    # ----------------------------------------------------------------- #

    def claim(self, worker_id: Optional[str] = None) -> Optional[Lease]:
        """Atomically claim one pending task; ``None`` when queue is empty.

        Claim order follows sorted task ids.  Losing a rename race just
        moves on to the next candidate.
        """
        worker_id = worker_id or default_worker_id()
        for entry in sorted(self.task_dir.glob("*.json")):
            lease_path = self.lease_dir / entry.name
            try:
                os.rename(entry, lease_path)
            except OSError:
                continue  # another worker won this one
            try:
                with open(lease_path, "r", encoding="utf-8") as fh:
                    task = json.load(fh)
                validate_task(task)
            except (json.JSONDecodeError, ValueError, KeyError, OSError) as exc:
                self._dead_letter_raw(entry.stem, lease_path, f"unreadable task: {exc}")
                continue
            task["worker"] = worker_id
            task["claimed_at"] = time.time()
            # Rewrite-in-place (atomic, same dir) both records the claimant
            # and freshens mtime, which is what the lease deadline reads.
            self._write_json(lease_path, task)
            self._m_tasks.inc(labels=("claimed",))
            return Lease(self, entry.stem, task)
        return None

    # ----------------------------------------------------------------- #
    # Recovery / observation
    # ----------------------------------------------------------------- #

    def recover_expired(self, *, now: Optional[float] = None) -> List[str]:
        """Re-queue every lease past its deadline; returns affected ids.

        Tasks whose attempt budget is exhausted move to ``dead/`` instead.
        Any observer may call this — workers between claims, the
        coordinator while polling.  Requeue is a single atomic rename of
        the held lease back into ``tasks/``, so concurrent recoveries (or
        a recovery racing a claim) at worst duplicate deterministic work —
        they can never strand a shard outside both directories.
        """
        now = time.time() if now is None else now
        recovered: List[str] = []
        for lease_path in sorted(self.lease_dir.glob("*.json")):
            try:
                expired = lease_path.stat().st_mtime + self.lease_ttl < now
            except OSError:
                continue  # completed/recovered concurrently
            if not expired:
                continue
            task_id = lease_path.stem
            if (self.result_dir / f"{task_id}.json").exists():
                # Finished but crashed before releasing the lease.
                lease_path.unlink(missing_ok=True)
                continue
            try:
                with open(lease_path, "r", encoding="utf-8") as fh:
                    task = json.load(fh)
                validate_task(task)
            except (json.JSONDecodeError, ValueError, KeyError, OSError) as exc:
                self._dead_letter_raw(task_id, lease_path, f"corrupt lease: {exc}")
                recovered.append(task_id)
                continue
            worker = task.get("worker", "?")
            self._m_tasks.inc(labels=("lease_expired",))
            self._requeue(
                task_id, task,
                error=f"lease expired (worker {worker})",
                lease_path=lease_path,
            )
            recovered.append(task_id)
        return recovered

    def stats(self, *, now: Optional[float] = None) -> Dict[str, int]:
        counts = {
            "pending": sum(1 for _ in self.task_dir.glob("*.json")),
            "leased": sum(1 for _ in self.lease_dir.glob("*.json")),
            "done": sum(1 for _ in self.result_dir.glob("*.json")),
            "dead": sum(1 for _ in self.dead_dir.glob("*.json")),
        }
        # Refresh the observational gauges as a side effect: callers that
        # poll stats() (workers' health beats, the coordinator) keep the
        # registry's queue-depth view current for free.
        now = time.time() if now is None else now
        for state, count in counts.items():
            self._m_depth.set(count, labels=(state,))
        oldest = 0.0
        for lease_path in self.lease_dir.glob("*.json"):
            try:
                oldest = max(oldest, now - lease_path.stat().st_mtime)
            except OSError:
                continue
        self._m_lease_age.set(oldest)
        return counts

    # ----------------------------------------------------------------- #
    # Internals
    # ----------------------------------------------------------------- #

    _write_json = staticmethod(atomic_write_json)

    def _requeue(
        self,
        task_id: str,
        task: Dict[str, Any],
        *,
        error: str,
        lease_path: Path,
    ) -> None:
        record = dict(task)
        record["attempts"] = int(record.get("attempts", 0)) + 1
        record.setdefault("history", []).append(error)
        record.pop("worker", None)
        record.pop("claimed_at", None)
        if record["attempts"] >= self.max_attempts:
            self._write_json(self.dead_dir / f"{task_id}.json", record)
            lease_path.unlink(missing_ok=True)
            self._m_tasks.inc(labels=("dead_lettered",))
            return
        self._m_tasks.inc(labels=("retried",))
        # Rewrite the held lease with the updated record, then move it back
        # to pending with ONE atomic rename.  Writing to tasks/ first and
        # unlinking the lease after would open a window where a concurrent
        # claim renames the fresh task file onto the still-present lease
        # path and our unlink then deletes the claimant's lease — losing
        # the shard entirely.  With the rename protocol the task is never
        # in zero directories: any race at worst duplicates deterministic
        # work, it cannot lose it.
        try:
            self._write_json(lease_path, record)
            os.rename(lease_path, self.task_dir / f"{task_id}.json")
        except OSError:
            pass  # completed/recovered concurrently; their state wins

    def _dead_letter_raw(self, task_id: str, lease_path: Path, error: str) -> None:
        """Dead-letter a task whose envelope cannot even be parsed."""
        self._write_json(
            self.dead_dir / f"{task_id}.json",
            {"id": task_id, "error": error, "history": [error]},
        )
        lease_path.unlink(missing_ok=True)
        self._m_tasks.inc(labels=("dead_lettered",))
