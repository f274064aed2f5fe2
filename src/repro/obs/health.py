"""Health/readiness snapshots for long-running components.

Workers and servers periodically write one small JSON file each into a
``health/`` directory next to the queue (or wherever the operator
points them).  Each write is atomic
(:func:`repro.api.cache.atomic_write_json`), so readers
— ``repro status``, a watchdog, another host on the shared filesystem —
always see a complete document, and the *file mtime* doubles as the
liveness signal: a component that stops refreshing goes stale without
any unregister step, exactly like the queue's lease files.

A snapshot carries identity (component kind, id, pid, host), timing
(started / uptime / heartbeat), what the component is doing right now
(``in_flight``), and a full ``metrics`` snapshot from its registry, so
``status`` can surface counters without talking to the process.
"""

from __future__ import annotations

import json
import os
import socket
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.obs.registry import MetricsRegistry

#: Directory for health files under a queue root (sibling of tasks/leases).
HEALTH_SUBDIR = "health"

#: Seconds without a refresh before a component is reported as stale.
DEFAULT_STALE_AFTER = 15.0


def health_dir(queue_root: Union[str, Path]) -> Path:
    """Where a queue's components write health files: ``<root>/health``."""
    return Path(queue_root) / HEALTH_SUBDIR


def _safe_id(component_id: str) -> str:
    """A component id as a filesystem-safe file stem."""
    return "".join(c if (c.isalnum() or c in "-_.") else "_" for c in component_id)


class HealthReporter:
    """Writes one component's health file, rate-limited and atomic.

    ``beat()`` is cheap to call from a hot loop: it returns immediately
    unless ``interval`` seconds have passed since the last write (or
    ``force=True``).  The reporter never raises out of ``beat()`` for
    filesystem errors — health is best-effort telemetry and must not
    take down the component it describes.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        *,
        component: str,
        component_id: str,
        registry: Optional[MetricsRegistry] = None,
        interval: float = 2.0,
    ):
        self.directory = Path(directory)
        self.component = component
        self.component_id = component_id
        self.registry = registry
        self.interval = float(interval)
        self.path = self.directory / f"{_safe_id(component_id)}.json"
        self.started = time.time()
        self.in_flight: Optional[str] = None
        self.extra: Dict[str, Any] = {}
        self._last_write = 0.0

    def due(self, now: Optional[float] = None) -> bool:
        """Whether the next :meth:`beat` would actually write.

        Lets callers skip gathering expensive ``extra`` payloads (queue
        sweeps, snapshots) on the iterations where beat() would no-op.
        """
        now = time.time() if now is None else now
        return now - self._last_write >= self.interval

    def beat(self, *, force: bool = False, now: Optional[float] = None) -> bool:
        """Refresh the health file if due; returns whether it was written."""
        now = time.time() if now is None else now
        if not force and now - self._last_write < self.interval:
            return False
        record: Dict[str, Any] = {
            "component": self.component,
            "id": self.component_id,
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "started": self.started,
            "uptime_seconds": now - self.started,
            "heartbeat": now,
            "in_flight": self.in_flight,
        }
        if self.extra:
            record.update(self.extra)
        if self.registry is not None:
            record["metrics"] = self.registry.snapshot()
        # Imported here: obs stays a leaf package at import time.
        from repro.api.cache import atomic_write_json

        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            atomic_write_json(self.path, record)
        except OSError:
            return False
        self._last_write = now
        return True

    def close(self) -> None:
        """Remove this component's health file (clean shutdown)."""
        try:
            self.path.unlink(missing_ok=True)
        except OSError:
            pass


def read_health(
    directory: Union[str, Path],
    *,
    stale_after: float = DEFAULT_STALE_AFTER,
    now: Optional[float] = None,
) -> List[Dict[str, Any]]:
    """Every parseable health record under ``directory``, oldest-id first.

    Each record gains two reader-side fields: ``age_seconds`` (since the
    file's last refresh, from its mtime) and ``stale`` (age beyond
    ``stale_after``).  Unparseable or concurrently-removed files are
    skipped — a reader races writers by design.
    """
    directory = Path(directory)
    now = time.time() if now is None else now
    records: List[Dict[str, Any]] = []
    if not directory.is_dir():
        return records
    for path in sorted(directory.glob("*.json")):
        try:
            mtime = path.stat().st_mtime
            with open(path, "r", encoding="utf-8") as fh:
                record = json.load(fh)
        except (OSError, json.JSONDecodeError):
            continue
        if not isinstance(record, dict):
            continue
        age = max(0.0, now - mtime)
        record["age_seconds"] = age
        record["stale"] = age > stale_after
        records.append(record)
    return records
