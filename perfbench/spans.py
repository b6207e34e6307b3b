"""In-memory span recorder and run-time wrappers around qkevolve's layers.

The benchmark never edits the package. It replaces, for the duration of a
`with installed(...)` block, the module attributes through which the pipeline
calls each layer (for example `qkevolve.evolve.evaluate_states`, which is
where `evaluate_fitness` looks that name up) and always restores the
originals afterwards.

A span records name, start, end, the span that caused it and the fitness
evaluation it belongs to. Spans stay in `Recorder.spans` until the benchmark
writes them out at the end.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable

# Name of the synthetic span that covers work an observer does after a call
# returns (correctness checks, census reads). It is a child of the caller, so
# the caller's self time excludes it.
CHECK_SPAN = "trace.check"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    eval_id: int | None
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One wrapped call site: `module.attr` becomes a span called `name`.

    `observe(args, kwargs, result)` may return a dict of span attributes; it
    runs after the call and is timed as a CHECK_SPAN. `eval_id(args, kwargs)`
    marks the span as the root of one fitness evaluation.
    """

    module: object
    attr: str
    name: str
    observe: Callable | None = None
    eval_id: Callable | None = None


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _context(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.eval_id = None
        return local

    def _append(self, sid, name, start, end, parent, eval_id, attrs) -> None:
        self.spans.append(
            Span(sid, name, start, end, parent, eval_id, threading.get_ident(), attrs)
        )

    def wrap(self, target: Target, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ctx = self._context()
            parent = ctx.stack[-1] if ctx.stack else None
            outer_eval = ctx.eval_id
            if target.eval_id is not None:
                ctx.eval_id = target.eval_id(args, kwargs)
            eval_id = ctx.eval_id
            sid = next(self._ids)
            ctx.stack.append(sid)
            # The span keeps this dict, so what the observer adds lands on it.
            attrs = {}
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                attrs["error"] = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                ctx.stack.pop()
                ctx.eval_id = outer_eval
                self._append(sid, target.name, start, end, parent, eval_id, attrs)
            if target.observe is not None:
                check_start = time.perf_counter()
                attrs.update(target.observe(args, kwargs, result) or {})
                self._append(next(self._ids), CHECK_SPAN, check_start, time.perf_counter(),
                             parent, eval_id, {})
            return result

        return wrapper

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")


@contextmanager
def installed(recorder: Recorder, targets: list[Target]):
    """Swap every target attribute for a recording wrapper; restore on exit,
    also when the block raises."""
    originals = []
    try:
        for target in targets:
            original = getattr(target.module, target.attr)
            originals.append((target.module, target.attr, original))
            setattr(target.module, target.attr, recorder.wrap(target, original))
        yield recorder
    finally:
        for module, attr, original in reversed(originals):
            setattr(module, attr, original)


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus the part of its interval
    that its children cover (overlapping children are counted once)."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    return {s.id: s.seconds - covered(s.start, s.end, children.get(s.id, [])) for s in spans}


def covered(start: float, end: float, spans: list[Span]) -> float:
    """Length of the union of the spans' intervals clipped to [start, end]."""
    total = 0.0
    cursor = start
    for s in sorted(spans, key=lambda s: s.start):
        lo, hi = max(s.start, cursor), min(s.end, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total
