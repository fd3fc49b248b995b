"""Benchmark-side spans around the program's public layer functions.

:func:`install` wraps each layer's public entry points (see
``perfbench/README.md``) with a recording wrapper and returns a :class:`Recorder`;
:meth:`Recorder.uninstall` puts the originals back.  The program itself is
not modified: wrappers are bound onto the classes and into every module that
imported a wrapped function by name.

A span records its name, start, end, parent, thread and request id.  Spans
started on a thread inside another span are its children.  Kernel calls on
backend pool threads have no enclosing span on their own thread; the
``ExecutionBackend.run`` wrapper registers its tasks, and the
``execute_task`` hook makes the registering run span their parent, so the
fold attributes them across threads.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    """One timed call into a layer."""

    id: int
    name: str
    parent: "Span | None"
    request: int
    thread: int
    start: float
    end: float = 0.0
    result: object = field(default=None, repr=False)

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals, lo: float, hi: float) -> float:
    """Return the length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def children_of(spans) -> dict[int, list[tuple[float, float]]]:
    """Map each span id to its children's ``(start, end)`` intervals."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent.id].append((span.start, span.end))
    return children


def fold(spans) -> dict[str, dict]:
    """Fold spans into per-name ``calls``, ``total_s`` and ``self_s``.

    Self time is a span's duration minus the part of its interval covered by
    its children, whatever thread they ran on; overlapping children (pool
    threads running in parallel) are counted once.
    """
    children = children_of(spans)
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for span in spans:
        row = out[span.name]
        row["calls"] += 1
        row["total_s"] += span.duration
        covered = union_length(children.get(span.id, ()), span.start, span.end)
        row["self_s"] += span.duration - covered
    return dict(out)


def uncovered(root: Span, children) -> float:
    """Return the seconds of ``root`` that none of its child spans cover.

    ``children`` is the :func:`children_of` map of the run's spans.
    """
    return root.duration - union_length(children.get(root.id, ()), root.start, root.end)


class Recorder:
    """Collects spans in memory while :attr:`enabled`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = True
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._task_parent: dict[int, Span] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- span stack ------------------------------------------------------ #
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        span = Span(
            id=span_id,
            name=name,
            parent=parent,
            request=parent.request if parent is not None else span_id,
            thread=threading.get_ident(),
            start=time.perf_counter(),
        )
        stack.append(span)
        return span

    def end(self, span: Span, result=None) -> None:
        span.end = time.perf_counter()
        span.result = result
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def wrap(self, fn, name: str, summary=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``summary`` maps the call's return value to what the span keeps
        (never the return value itself, which may hold a whole result).
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            span = recorder.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                recorder.end(
                    span, summary(result) if summary and result is not None else None
                )

        return wrapper

    def wrap_backend_run(self, fn, name: str):
        """Wrap ``ExecutionBackend.run``: a span that adopts its tasks' kernels.

        The span keeps the summed local-join seconds of the outcomes.
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(backend, tasks, *args, **kwargs):
            if not recorder.enabled:
                return fn(backend, tasks, *args, **kwargs)
            span = recorder.begin(name)
            for task in tasks:
                recorder._task_parent[id(task)] = span
            result = None
            try:
                result = fn(backend, tasks, *args, **kwargs)
                return result
            finally:
                for task in tasks:
                    recorder._task_parent.pop(id(task), None)
                recorder.end(
                    span,
                    sum(o.local_seconds for o in result) if result is not None else None,
                )

        return wrapper

    def wrap_execute_task(self, fn):
        """Run a task with its backend ``run`` span as the enclosing span."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(task, *args, **kwargs):
            parent = recorder._task_parent.get(id(task)) if recorder.enabled else None
            if parent is None:
                return fn(task, *args, **kwargs)
            stack = recorder._stack()
            stack.append(parent)
            try:
                return fn(task, *args, **kwargs)
            finally:
                stack.pop()

        return wrapper

    # -- patching -------------------------------------------------------- #
    def patch_attr(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_function(self, original, replacement) -> None:
        """Rebind ``original`` to ``replacement`` in every loaded ``repro`` module."""
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.patch_attr(module, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


@dataclass(frozen=True)
class EngineSummary:
    """What an ``engine.execute`` span keeps of its :class:`EngineResult`."""

    merge_s: float  # wall time outside routing and backend execution
    total_input: int
    baseline_input: int


def _engine_summary(result) -> EngineSummary:
    return EngineSummary(
        merge_s=result.wall_seconds - result.routing_seconds - result.execution_seconds,
        total_input=result.total_input,
        baseline_input=result.job.baseline_input,
    )


def _subclasses(cls):
    seen, todo = [], [cls]
    while todo:
        current = todo.pop()
        for sub in current.__subclasses__():
            if sub not in seen:
                seen.append(sub)
                todo.append(sub)
    return seen


def install() -> Recorder:
    """Wrap every layer's public functions; returns the recording handle."""
    from repro.core.recpart import RecPartPartitioner
    from repro.engine import backends, routing
    from repro.engine.engine import ParallelJoinEngine
    from repro.engine.plan_cache import PlanCache
    from repro.local_join.base import LocalJoinAlgorithm
    from repro.sampling import input_sampler, output_sampler
    from repro.service.catalog import RelationCatalog
    from repro.service.service import BandJoinService

    rec = Recorder()
    rec.patch_attr(
        RecPartPartitioner, "partition",
        rec.wrap(RecPartPartitioner.partition, "core.partition"),
    )
    for fn in (input_sampler.draw_input_sample, output_sampler.draw_output_sample):
        rec.patch_function(fn, rec.wrap(fn, "sampling"))
    rec.patch_attr(PlanCache, "get_or_build", rec.wrap(PlanCache.get_or_build, "plan_cache"))
    for fn in (routing.route_side, routing.build_worker_tasks, routing.stream_worker_tasks):
        rec.patch_function(fn, rec.wrap(fn, "routing"))
    for cls in _subclasses(backends.ExecutionBackend):
        if "run" in cls.__dict__:
            rec.patch_attr(cls, "run", rec.wrap_backend_run(cls.__dict__["run"], "backends"))
    rec.patch_function(backends.execute_task, rec.wrap_execute_task(backends.execute_task))
    for cls in [LocalJoinAlgorithm, *_subclasses(LocalJoinAlgorithm)]:
        for method in ("join", "count"):
            fn = cls.__dict__.get(method)
            if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                rec.patch_attr(cls, method, rec.wrap(fn, "local_join"))
    rec.patch_attr(
        ParallelJoinEngine, "execute",
        rec.wrap(ParallelJoinEngine.execute, "engine.execute", _engine_summary),
    )
    rec.patch_attr(BandJoinService, "query", rec.wrap(BandJoinService.query, "scheduler.query"))
    rec.patch_attr(
        RelationCatalog, "append",
        rec.wrap(RelationCatalog.append, "catalog.append"),
    )
    rec.patch_attr(
        RelationCatalog, "compact",
        rec.wrap(RelationCatalog.compact, "catalog.compact"),
    )
    return rec
