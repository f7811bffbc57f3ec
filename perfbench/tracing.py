"""In-memory spans and counters for the traced benchmark run.

A span records its name, start, end, parent span and task id.  The
benchmark opens spans around its own calls into the library, and
:meth:`Tracer.hooked` wraps, by module and attribute name, the public
callables one layer calls in another, so that their time is recorded as
a child span of whichever span called them.  A name that no longer
exists is reported as absent instead of failing the run.

A span's self time is its duration minus the durations of its children;
the task's root span keeps only the time no layer span covers, which is
reported as the untraced remainder.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Callable, Optional, Union

ROOT_SPAN = "trace.remainder_s"


@dataclass(frozen=True)
class Hook:
    """A callable to wrap: ``attr`` is a dotted path inside ``module``.

    ``span`` names the span (or maps the call's positional and keyword
    arguments to a name); ``count`` maps (args, kwargs, result) to
    counter increments.
    """

    module: str
    attr: str
    span: Union[str, Callable[[tuple, dict], str]]
    count: Optional[Callable[[tuple, dict, object], dict]] = None

    @property
    def label(self) -> str:
        return f"{self.module}.{self.attr}"


class NullTracer:
    """Tracer stand-in for untraced runs: records nothing."""

    def span(self, name: str):
        return nullcontext()

    def add(self, name: str, value: float) -> None:
        pass


class Tracer:
    def __init__(self):
        # [name, start, end, parent index or -1, task id]
        self.spans: list[list] = []
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        self._task = None

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self._task]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def task(self, task_id):
        """Root span of one task; spans and counts inside carry its id."""
        self._task = task_id
        try:
            with self.span(ROOT_SPAN):
                yield
        finally:
            self._task = None

    def add(self, name: str, value: float) -> None:
        self.counts[self._task][name] += value

    def self_times(self) -> dict:
        """``{task: {span name: summed self time}}``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        by_task: dict = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, task) in enumerate(self.spans):
            by_task[task][name] += (end - start) - child[i]
        return by_task

    def _wrap(self, fn, hook: Hook):
        span_of = hook.span if callable(hook.span) else (lambda a, k: hook.span)
        count = hook.count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(span_of(args, kwargs)):
                result = fn(*args, **kwargs)
            if count is not None:
                for name, value in count(args, kwargs, result).items():
                    self.add(name, value)
            return result

        return wrapper

    @contextmanager
    def hooked(self, hooks):
        """Install ``hooks`` for the duration; yields the absent labels."""
        restore, absent = [], []
        try:
            for hook in hooks:
                try:
                    owner = importlib.import_module(hook.module)
                    *path, name = hook.attr.split(".")
                    for part in path:
                        owner = getattr(owner, part)
                    static = inspect.getattr_static(owner, name)
                except (ImportError, AttributeError):
                    absent.append(hook.label)
                    continue
                own = name in getattr(owner, "__dict__", {})
                if isinstance(static, classmethod):
                    wrapped = classmethod(self._wrap(static.__func__, hook))
                else:
                    wrapped = self._wrap(getattr(owner, name), hook)
                setattr(owner, name, wrapped)
                restore.append((owner, name, static if own else None))
            yield absent
        finally:
            for owner, name, original in reversed(restore):
                if original is None:
                    delattr(owner, name)
                else:
                    setattr(owner, name, original)
