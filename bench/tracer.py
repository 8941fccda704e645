"""Outside-in span tracer for the traced benchmark run.

The tracer replaces public functions of ``qst_control`` with wrappers that
record a span (id, name, start, end, parent id) per call.  A function is
replaced at every place a caller looks it up: each loaded ``qst_control``
module attribute that holds the original object is rebound, so
``sample_noise_gate`` is traced whether ``chain`` or ``dqn`` calls it.
Methods are replaced on their class.

Each thread keeps its own parent stack.  ``harness.run_jobs`` wraps every
job thunk in a ``harness.job`` span whose parent is the ``run_jobs`` span,
so jobs on pool threads nest under the call that submitted them.

Spans and counters stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, start, end, parent, thread)
        self.counters: dict[str, float] = defaultdict(float)
        self.deferred: dict[str, list] = defaultdict(list)
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patched: list[tuple] = []

    def add(self, key: str, value: float = 1) -> None:
        with self._lock:
            self.counters[key] += value

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, threading.get_ident()))

    def wrap(self, fn, name: str, after=None):
        """Traced version of ``fn``; ``after(args, kwargs, result)`` runs
        once the span has closed, to update counters."""
        spans, ids, stack_of, clock = self.spans, self._ids, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, threading.get_ident()))
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def wrap_run_jobs(self, fn, name: str = "harness.run_jobs"):
        """Like :meth:`wrap`, but each job runs inside a ``harness.job`` span
        parented to this call, on whichever thread executes it."""
        spans, ids, stack_of, clock = self.spans, self._ids, self._stack, time.perf_counter

        def job_span(job, parent):
            def run():
                stack = stack_of()
                jid = next(ids)
                stack.append(jid)
                start = clock()
                try:
                    return job()
                finally:
                    end = clock()
                    stack.pop()
                    spans.append((jid, "harness.job", start, end, parent, threading.get_ident()))

            return run

        @functools.wraps(fn)
        def traced(jobs, workers=1):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else None
            wrapped = {key: job_span(job, sid) for key, job in jobs.items()}
            stack.append(sid)
            start = clock()
            try:
                return fn(wrapped, workers)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, threading.get_ident()))
                self.add("harness.run_jobs.capacity_s", max(1, workers) * (end - start))

        return traced

    def patch_function(self, module, attr: str, name: str, after=None, wrapper=None) -> None:
        """Rebind ``module.attr`` wherever a ``qst_control`` module holds it."""
        original = getattr(module, attr)
        traced = wrapper(original) if wrapper is not None else self.wrap(original, name, after)
        package = module.__name__.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, key, original))
                    setattr(mod, key, traced)

    def patch_method(self, cls, attr: str, name: str, after=None) -> None:
        original = cls.__dict__[attr]
        self._patched.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name, after))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["id", "name", "start", "end", "parent", "thread"],
                    "spans": self.spans,
                    "counters": dict(self.counters),
                },
                fh,
            )


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for sid, _name, start, end, parent, _thread in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _name, start, end, _parent, _thread in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sid] = (end - start) - covered
    return out


def totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for sid, name, start, end, _parent, _thread in spans:
        row = out[name]
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += selfs[sid]
    return dict(out)


def blocking_self_s(spans, root_id: int) -> float:
    """Sum of self times of the spans on the root's own thread under ``root_id``.

    Jobs on pool threads run beside the caller, so the blocking path
    through a parallel ``run_jobs`` is that call's wall time; self times
    here are taken against same-thread children only.
    """
    by_id = {s[0]: s for s in spans}
    thread = by_id[root_id][5]
    same = [s for s in spans if s[5] == thread]
    kids = defaultdict(list)
    for s in same:
        if s[4] is not None:
            kids[s[4]].append(s[0])
    members, todo = [], [root_id]
    while todo:
        sid = todo.pop()
        members.append(sid)
        todo.extend(kids.get(sid, ()))
    selfs = self_times(same)
    return sum(selfs[sid] for sid in members)
