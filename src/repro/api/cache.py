"""Content-addressed on-disk stores: one layout, one writer, one reader.

:class:`ContentStore` backs every cached artifact — experiment results
(:class:`ResultCache`), serve and fleet reports, compute traces and
cluster sequence results — each kind a thin subclass declaring its
``format`` tag, payload key and codec.  All kinds share one root, so
``repro cache stats/ls/prune`` manage every entry (keys are sha256
content addresses; kinds never collide).  Layout:
``<root>/<fp[:2]>/<fp>.json``.  Writes are atomic
(:func:`atomic_write_json`), so concurrent writers at worst duplicate
work; an unreadable, corrupt or foreign-format entry reads as a miss
and is recomputed and overwritten.

Experiment results are keyed by a spec fingerprint (see
:attr:`repro.api.spec.ExperimentSpec.fingerprint`) or, for ad-hoc
datasets, by :func:`experiment_key`.  Their payloads are the lossless
``repro-experiment-full/1`` JSON of :mod:`repro.harness.io`, so a hit
is bit-identical to the original computation.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Union

from repro.core.config import SystemConfig, config_from_dict, config_to_dict
from repro.harness.io import experiment_from_dict, experiment_to_dict

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.spec import EvalSpec
    from repro.datasets.types import Dataset
    from repro.harness.experiment import ExperimentResult

#: What a stored entry may fail with on the way back in; each one is a miss.
_READ_ERRORS = (OSError, ValueError, KeyError, TypeError, IndexError, AttributeError)


def atomic_write_json(path: Union[str, Path], payload: Any) -> Path:
    """Write ``payload`` as JSON to ``path`` atomically; returns ``path``.

    The payload goes to a sibling tmp file first and is renamed over
    ``path`` in one step, so readers see the old document or the new
    one, never half of either.  The tmp name carries the pid *and* a
    random suffix: threads of one process (a coordinator and in-process
    workers) never share a tmp file.
    """
    path = Path(path)
    tmp = path.with_suffix(f".tmp.{os.getpid()}.{uuid.uuid4().hex[:6]}")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, allow_nan=True)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def fingerprint_dataset(dataset: "Dataset") -> str:
    """Stable content digest of a dataset's ground truth.

    Hashes the geometry and every track's boxes/occlusion/truncation
    arrays, so two datasets with identical content share cache entries
    regardless of how they were constructed.
    """
    h = hashlib.sha256()
    h.update(repr((dataset.name, [
        (c.name, c.label, c.min_iou) for c in dataset.classes
    ], dataset.labeled_frames)).encode("utf-8"))
    for seq in dataset.sequences:
        h.update(
            repr((seq.name, seq.width, seq.height, seq.num_frames, seq.fps)).encode("utf-8")
        )
        for track in seq.tracks:
            h.update(repr((track.track_id, track.label, track.first_frame)).encode("utf-8"))
            h.update(track.boxes.tobytes())
            h.update(track.occlusion.tobytes())
            h.update(track.truncation.tobytes())
    return h.hexdigest()


def experiment_key(
    config: SystemConfig, dataset_fingerprint: str, eval_spec: "EvalSpec"
) -> str:
    """Cache key for the classic ``run_experiment(config, dataset)`` path."""
    payload = {
        "format": "repro-experiment-key/1",
        "system": config_to_dict(config),
        "dataset": dataset_fingerprint,
        "eval": eval_spec.result_key_dict(),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CacheEntry:
    """One stored entry: its key plus on-disk accounting."""

    fingerprint: str
    path: Path
    size_bytes: int
    mtime: float
    label: Optional[str] = None


class ContentStore:
    """Content-addressed JSON store under ``root`` (see the module docs).

    An entry is ``{"format": format_tag, "fingerprint": fp, ["spec":
    spec,] payload_key: encode(value)}``.  Accounting (``len``,
    :meth:`entries`, :meth:`stats`, :meth:`prune`, :meth:`clear`) spans
    every entry under ``root``, whatever its kind.
    """

    #: Outer ``format`` tag written into, and required of, every entry.
    format_tag: str = ""
    #: Key of the encoded value inside an entry.
    payload_key: str = ""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)

    def encode(self, value: Any) -> Any:
        raise NotImplementedError

    def decode(self, data: Any) -> Any:
        raise NotImplementedError

    def path_for(self, fingerprint: str) -> Path:
        return self.root / fingerprint[:2] / f"{fingerprint}.json"

    def load(self, fingerprint: str) -> Any:
        """The stored value for ``fingerprint``, or ``None`` on a miss."""
        try:
            with open(self.path_for(fingerprint), "r", encoding="utf-8") as fh:
                entry = json.load(fh)
            if entry.get("format") != self.format_tag:
                return None
            return self.decode(entry[self.payload_key])
        except _READ_ERRORS:
            return None

    def store(
        self, fingerprint: str, value: Any, *, spec: Optional[Dict[str, Any]] = None
    ) -> Path:
        """Atomically write ``value`` under ``fingerprint``; returns the file.

        ``spec`` (a plain dict, e.g. ``ExperimentSpec.to_dict()``) is
        stored alongside for human inspection of what produced the entry.
        """
        entry: Dict[str, Any] = {"format": self.format_tag, "fingerprint": fingerprint}
        if spec is not None:
            entry["spec"] = spec
        entry[self.payload_key] = self.encode(value)
        path = self.path_for(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        return atomic_write_json(path, entry)

    def __contains__(self, fingerprint: str) -> bool:
        return self.path_for(fingerprint).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for entry in self.root.glob("*/*.json"):
            entry.unlink()
            removed += 1
        return removed

    def entries(self, *, with_labels: bool = False) -> List[CacheEntry]:
        """Every stored entry, newest first.

        ``with_labels`` additionally opens each file to pull the stored
        spec's human label (slower — it reads every payload).
        """
        out: List[CacheEntry] = []
        for path in self.root.glob("*/*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue  # pruned/overwritten concurrently
            out.append(
                CacheEntry(
                    fingerprint=path.stem,
                    path=path,
                    size_bytes=stat.st_size,
                    mtime=stat.st_mtime,
                    label=self._entry_label(path) if with_labels else None,
                )
            )
        out.sort(key=lambda e: e.mtime, reverse=True)
        return out

    @staticmethod
    def _entry_label(path: Path) -> Optional[str]:
        return None

    def stats(self) -> Dict[str, Any]:
        """Aggregate accounting: entry count, bytes, oldest/newest age."""
        entries = self.entries()
        now = time.time()
        return {
            "root": str(self.root),
            "entries": len(entries),
            "total_bytes": sum(e.size_bytes for e in entries),
            "newest_age_seconds": now - entries[0].mtime if entries else None,
            "oldest_age_seconds": now - entries[-1].mtime if entries else None,
        }

    def prune(self, older_than_seconds: float) -> int:
        """Delete entries not written in the last ``older_than_seconds``.

        Returns how many entries were removed; empty shard directories
        are cleaned up too.
        """
        if older_than_seconds < 0:
            raise ValueError(f"older_than_seconds must be >= 0, got {older_than_seconds}")
        cutoff = time.time() - older_than_seconds
        removed = 0
        for entry in self.entries():
            if entry.mtime < cutoff:
                try:
                    entry.path.unlink()
                    removed += 1
                except OSError:
                    continue
        if self.root.exists():
            for shard in self.root.iterdir():
                if shard.is_dir():
                    try:
                        shard.rmdir()  # only succeeds when empty
                    except OSError:
                        pass
        return removed


class ResultCache(ContentStore):
    """Store of :class:`ExperimentResult`\\ s; counts ``hits``/``misses``."""

    format_tag = "repro-result-cache/1"
    payload_key = "result"
    encode = staticmethod(experiment_to_dict)
    decode = staticmethod(experiment_from_dict)

    def __init__(self, root: Union[str, Path]):
        super().__init__(root)
        self.hits = 0
        self.misses = 0

    def load(self, fingerprint: str) -> Optional["ExperimentResult"]:
        result = ContentStore.load(self, fingerprint)
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
        return result

    # Bound in this class's own body, not inherited: method-level tracers
    # (perfbench/layers.py) wrap through ``cls.__dict__``.
    store = ContentStore.store

    @staticmethod
    def _entry_label(path: Path) -> Optional[str]:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            spec = payload.get("spec") or {}
            system = spec.get("system") or payload.get("result", {}).get("config")
            if system is None:
                return None
            label = config_from_dict(system).label
            family = (spec.get("dataset") or {}).get("family")
            return f"{label} @ {family}" if family else label
        except _READ_ERRORS:
            return None
