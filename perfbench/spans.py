"""In-memory spans around calls into the simulator's public functions.

The benchmark never edits ``src/``: a traced repetition replaces
selected public callables (class methods, module functions, policy
hook bindings) with wrappers that record a span per call.  A span is
``(name, start_ns, end_ns, parent index)``; spans stay in memory and
are written out once, when the repetition ends.  A layer's self time
is its spans' duration minus the part its child spans cover.
"""

import json
import time


class SpanRecorder:
    """Nested call spans, kept in parallel lists."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._stack = []

    def wrap(self, name, fn):
        """A drop-in replacement for ``fn`` that records one span per call."""
        names, starts, ends, parents = (
            self.names, self.starts, self.ends, self.parents
        )
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def add(self, name, start_ns, end_ns, parent=-1):
        """Record a span timed elsewhere (e.g. in a worker process)."""
        self.names.append(name)
        self.starts.append(start_ns)
        self.ends.append(end_ns)
        self.parents.append(parent)

    def patch(self, owner, attr, name):
        """Replace ``owner.attr`` (class, module, or instance) in place."""
        setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    def totals(self):
        """``{name: {"calls", "total_s", "self_s"}}`` over every span."""
        child_ns = [0] * len(self.names)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child_ns[parent] += self.ends[index] - self.starts[index]
        out = {}
        for index, name in enumerate(self.names):
            duration = self.ends[index] - self.starts[index]
            row = out.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["calls"] += 1
            row["total_s"] += duration / 1e9
            row["self_s"] += (duration - child_ns[index]) / 1e9
        return out

    def write(self, path):
        """Dump every span (columnar JSON) to ``path``."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "names": self.names,
                    "start_ns": self.starts,
                    "end_ns": self.ends,
                    "parent": self.parents,
                },
                handle,
            )
