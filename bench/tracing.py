"""Spans around the benchmark's own calls into the package.

A span records name, start, end, parent and job id.  Spans stay in
memory and are written once, when the run ends.  The package itself is
not instrumented: every span sits at a public-function boundary that
the benchmark crosses.  Span names are ``<layer>.<function>``, where the
layer is a module of ``curvedkepler``; ``bench.job`` spans wrap one job.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter

LAYERS = ("ktrig", "geometry", "dynamics", "effective_potential", "orbit", "conics", "cli")


class NullTracer:
    """Tracing off: calls go straight through."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def job(self, job_id):
        return nullcontext()

    def tag(self, job_id):
        return nullcontext()


class Tracer:
    """Tracing on: every call and span is recorded with its parent."""

    enabled = True

    def __init__(self):
        # [name, start, end, parent index or -1, job id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._job = None

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self._job])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = perf_counter()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def tag(self, job_id):
        """Give the spans opened inside the block this job id."""
        self._job = job_id
        try:
            yield
        finally:
            self._job = None

    @contextmanager
    def job(self, job_id):
        with self.tag(job_id), self.span("bench.job"):
            yield

    def durations(self, name, job_ids) -> list[float]:
        """Durations of the spans called ``name`` within the given jobs."""
        return [end - start for n, start, end, _, job in self.spans if n == name and job in job_ids]

    def self_time_by_layer(self, job_ids) -> dict[str, float]:
        """Self time summed per layer over the spans inside the given jobs.

        A span's self time is its duration minus that of its direct
        children.  Only spans under a ``bench.job`` span count, so work the
        benchmark does after a job (checks, decomposition) is left out.
        """
        child_total = [0.0] * len(self.spans)
        in_job = [False] * len(self.spans)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child_total[parent] += end - start
                in_job[i] = in_job[parent]
            in_job[i] = in_job[i] or name == "bench.job"
        out = dict.fromkeys(LAYERS, 0.0)
        for i, (name, start, end, _, job) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            if in_job[i] and job in job_ids and layer in out:
                out[layer] += (end - start) - child_total[i]
        return out

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "job")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)
