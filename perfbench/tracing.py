"""In-memory span recorder for the benchmark.

Every call the benchmark makes into a `polyhls` module goes through
`Recorder.call`, named `<module>.<function>`, and every pass, phase and
analysis through `Recorder.region`.  With tracing off both are plain
calls; with tracing on each becomes a span (name, start, end, parent span,
job id, pass number) kept in memory and written out when the run ends.
"""

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Recorder:
    def __init__(self, traced):
        self.traced = traced
        self.spans = []  # [id, parent, name, job, pass, start, end]
        self.job = None
        self.pass_no = None
        self._stack = []

    def _open(self, name):
        span = [len(self.spans), self._stack[-1] if self._stack else None,
                name, self.job, self.pass_no, time.perf_counter(), None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span):
        span[6] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """`fn(*args, **kwargs)`, recorded as span `name` when tracing."""
        if not self.traced:
            return fn(*args, **kwargs)
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    @contextmanager
    def region(self, name):
        """A span `name` around the block when tracing."""
        if not self.traced:
            yield
            return
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def self_times(self):
        """{pass number: {span name: self seconds}}.  A span's self time is
        its duration minus the durations of its direct children; spans of
        one thread never overlap, so the children cover disjoint parts."""
        child = defaultdict(float)
        for sid, parent, _, _, _, t0, t1 in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = defaultdict(lambda: defaultdict(float))
        for sid, _, name, _, pass_no, t0, t1 in self.spans:
            out[pass_no][name] += (t1 - t0) - child[sid]
        return out

    def write(self, path):
        with open(path, "w") as f:
            for sid, parent, name, job, pass_no, t0, t1 in self.spans:
                f.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                    "job": job, "pass": pass_no,
                                    "start": t0, "end": t1}) + "\n")
