"""In-memory span tracer that wraps functions of the ``repro`` package.

A span is ``[name, start, end, parent, value]``: ``start``/``end`` come
from :func:`time.perf_counter` (CLOCK_MONOTONIC on Linux, so spans of
forked workers share the parent's time base), ``parent`` indexes the
enclosing span in the same buffer (``-1`` at top level), and ``value``
is an optional number or tuple of numbers that a per-target extractor
computes from the call's arguments and result (frames in a batch, boxes
in a kernel call, tracks after an update, bytes written, ...).

Wrapping is done from outside the program.  ``from x import f`` copies
the binding, so :meth:`Tracer.wrap_function` rebinds *every* ``repro.*``
module attribute and every registry entry that aliases the function.

Fork-started pool workers inherit the installed wrappers.  An
``os.register_at_fork`` hook gives each child an empty buffer; whenever
a child closes a top-level span it appends its buffer to
``<flush_dir>/spans-<pid>.jsonl``, so the parent can read worker spans
after the pool returns.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

Extractor = Callable[[tuple, dict, Any], Any]


class Tracer:
    def __init__(self, flush_dir: Optional[Path] = None):
        self.enabled = False
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.worker = False
        self.flush_dir = flush_dir
        self._replaced: List[Tuple[Any, str, Any]] = []
        os.register_at_fork(after_in_child=self._after_fork)

    # -- recording ------------------------------------------------------ #

    def _after_fork(self) -> None:
        self.spans = []
        self.stack = []
        self.worker = True

    def wrap(self, name: str, fn: Callable, value: Optional[Extractor] = None):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer.stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if value is not None:
                rec[4] = value(args, kwargs, result)
            if tracer.worker and not stack:
                tracer._flush_worker()
            return result

        traced.__wrapped_by_perfbench__ = fn
        return traced

    def _flush_worker(self) -> None:
        path = self.flush_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(self.spans) + "\n")
        self.spans = []

    def take(self) -> List[list]:
        """Hand over (and clear) the parent's span buffer."""
        spans, self.spans = self.spans, []
        return spans

    def worker_chunks(self) -> List[List[list]]:
        """Span buffers flushed by forked workers, one list per top-level span."""
        chunks = []
        if self.flush_dir is None:
            return chunks
        for path in sorted(self.flush_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                chunks.extend(json.loads(line) for line in fh if line.strip())
        return chunks

    # -- installing ----------------------------------------------------- #

    def wrap_function(self, module: str, attr: str, name: str, value=None) -> None:
        """Wrap ``module.attr`` and rebind every alias of it in ``repro.*``."""
        original = getattr(sys.modules[module], attr)
        wrapped = self.wrap(name, original, value)
        for owner, key in _aliases(original):
            self._set(owner, key, wrapped)

    def wrap_method(self, cls: type, attr: str, name: str, value=None) -> None:
        """Wrap a plain method or classmethod on its class."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(name, raw.__func__, value))
        else:
            new = self.wrap(name, raw, value)
        self._set(cls, attr, new)

    def _set(self, owner: Any, key: Any, new: Any) -> None:
        if isinstance(owner, dict):
            self._replaced.append((owner, key, owner[key]))
            owner[key] = new
        else:
            self._replaced.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, new)

    def stale_aliases(self) -> List[str]:
        """``repro.*`` bindings still pointing at a wrapped function's original."""
        stale = []
        for owner, _, old in self._replaced:
            if isinstance(owner, type):
                continue  # methods are looked up on the class, which holds the wrapper
            for alias_owner, key in _aliases(old):
                stale.append(f"{getattr(alias_owner, '__name__', 'registry')}.{key}")
        return stale


def _aliases(fn: Callable) -> List[Tuple[Any, Any]]:
    """Every ``repro.*`` module attribute and registry entry bound to ``fn``."""
    from repro.api.registry import Registry

    found, registries = [], {}
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for key, val in list(vars(module).items()):
            if val is fn:
                found.append((module, key))
            elif isinstance(val, Registry):
                registries[id(val)] = val
    for registry in registries.values():
        found.extend((registry._entries, k) for k, v in registry._entries.items() if v is fn)
    return found


# -- span aggregation ---------------------------------------------------- #


class SpanStats:
    """Per-name totals over one or more span buffers."""

    def __init__(self) -> None:
        self.count: Dict[str, int] = {}
        self.total: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        self.value: Dict[str, Any] = {}
        self.durations: Dict[str, List[float]] = {}

    def add(self, spans: List[list]) -> None:
        child_time = [0.0] * len(spans)
        for rec in spans:
            parent = rec[3]
            if parent >= 0:
                child_time[parent] += rec[2] - rec[1]
        for i, (name, start, end, _parent, value) in enumerate(spans):
            dur = end - start
            self.count[name] = self.count.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + dur
            self.self_time[name] = self.self_time.get(name, 0.0) + dur - child_time[i]
            self.durations.setdefault(name, []).append(dur)
            if value is not None:
                self.value[name] = _add_values(self.value.get(name), value)

    def calls(self, *names: str) -> int:
        return sum(self.count.get(n, 0) for n in names)

    def self_s(self, *prefixes: str) -> float:
        return sum(
            t for n, t in self.self_time.items() if n.startswith(prefixes)
        )

    def val(self, name: str, index: int = 0) -> float:
        v = self.value.get(name)
        if v is None:
            return 0.0
        return float(v[index] if isinstance(v, (list, tuple)) else v)


def _add_values(acc, value):
    if acc is None:
        return list(value) if isinstance(value, (list, tuple)) else value
    if isinstance(value, (list, tuple)):
        return [a + b for a, b in zip(acc, value)]
    return acc + value
