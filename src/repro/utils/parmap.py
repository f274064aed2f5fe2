"""Deterministic, fail-fast process-pool map: the library's only pool.

Sweep points and dataset sequences are pure functions of their inputs,
with no shared state beyond the content-addressed cache, whose atomic
writes already make concurrent writers safe.  :func:`parallel_map` fans
such items out over a :class:`~concurrent.futures.ProcessPoolExecutor`
and reassembles results **in input order** whatever order the workers
finish in, so a parallel run returns exactly the serial run's list.
Progress callbacks fire in *as-completed* order — that is the whole
point of watching a parallel run.

The tuning sweeps and the dataset executors of
:mod:`repro.engine.scheduler` all run on it.  The first worker exception
cancels everything still pending and re-raises in the caller as a
:class:`ParallelMapError` naming the item; Ctrl-C abandons the pool
without waiting for stragglers.
"""

from __future__ import annotations

import os
from typing import Any, Callable, List, Optional, Sequence


def effective_cpu_count() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


class ParallelMapError(RuntimeError):
    """``fn`` failed on the item named ``label``; ``__cause__`` is why."""

    def __init__(self, label: str, cause: BaseException):
        super().__init__(f"{label!r} failed: {cause}")
        self.label = label


def resolve_workers(workers: Optional[int], num_items: int) -> int:
    """The worker-process count a ``workers`` request resolves to.

    ``None`` or ``1`` mean serial; ``0`` means one per available core;
    explicit counts are clamped to the number of items (an idle worker
    is pure spawn cost).
    """
    if workers is None:
        return 1
    workers = int(workers)
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        workers = effective_cpu_count()
    return max(1, min(workers, num_items))


def parallel_map(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    *,
    workers: Optional[int] = 1,
    on_progress: Optional[Callable[[int, int, str], None]] = None,
    labels: Optional[Sequence[str]] = None,
) -> List[Any]:
    """``[fn(item) for item in items]``, optionally across processes.

    Results always come back in input order.  ``on_progress(done,
    total, label)`` fires once per finished item — in input order when
    serial, in completion order when parallel.  An exception from ``fn``
    surfaces as :class:`ParallelMapError` either way.  ``fn`` and every
    item must be picklable when ``workers`` resolves past 1.
    """
    total = len(items)
    names = list(labels) if labels is not None else [str(i) for i in range(total)]
    if labels is not None and len(names) != total:
        raise ValueError(
            f"labels/items length mismatch: {len(names)} != {total}"
        )
    workers = resolve_workers(workers, total)
    if workers <= 1 or total <= 1:
        out = []
        for i, item in enumerate(items):
            try:
                out.append(fn(item))
            except Exception as exc:
                raise ParallelMapError(names[i], exc) from exc
            if on_progress is not None:
                on_progress(i + 1, total, names[i])
        return out

    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    pool = ProcessPoolExecutor(max_workers=workers)
    interrupted = False
    try:
        futures = [pool.submit(fn, item) for item in items]
        index = {f: i for i, f in enumerate(futures)}
        pending = set(futures)
        done_count = 0
        while pending:
            # Not "first exception": with no failure that returns only once
            # everything finished, holding back progress (and a Ctrl-C
            # raised from on_progress) until the straggler is done.
            finished, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in finished:
                exc = future.exception()
                if exc is not None:
                    for f in pending:
                        f.cancel()
                    raise ParallelMapError(names[index[future]], exc) from exc
                done_count += 1
                if on_progress is not None:
                    on_progress(done_count, total, names[index[future]])
        return [f.result() for f in futures]
    except (KeyboardInterrupt, SystemExit):
        interrupted = True
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    finally:
        if not interrupted:
            pool.shutdown(wait=True, cancel_futures=True)
