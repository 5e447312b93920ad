"""Spans recorded from outside the library, for the benchmark's traced pass.

A span is a name, a start, an end, the index of the span that was open when
it started (its parent) and the index of the outermost span above it (its
root), plus a few counts measured at the same boundary.  Coarse calls
(one `train`, one `assemble`, one solve) each get a span.  Calls made
millions of times (`env.step`, `epsilon_greedy`) are folded into a per-parent
aggregate of call count and seconds, so memory stays flat however long a
run is.  Everything is kept in memory and written out once, at the end.

When `active` is false every wrapper calls straight through, so the untimed
baseline pass and the output checks record nothing.
"""

from __future__ import annotations

import time


class Tracer:
    def __init__(self):
        self.active = False
        self.clock = time.perf_counter
        # each span: [name, start, end, parent, root, attrs]
        self.spans: list[list] = []
        # (parent span index, name) -> [calls, seconds]
        self.leaves: dict[tuple[int, str], list] = {}
        self._stack: list[int] = []

    # ---------------------------------------------------------------- spans

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent][4] if parent >= 0 else len(self.spans)
        self.spans.append([name, self.clock(), None, parent, root, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int):
        self.spans[idx][2] = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    def call(self, name: str, fn, *args, _before=None, _after=None, **kwargs):
        """Call fn inside a span.

        _before(args, kwargs) runs before the span opens and its result is
        handed to _after(state, args, kwargs, out), which runs after the span
        closes and returns the span's counts; neither is timed.
        """
        if not self.active:
            return fn(*args, **kwargs)
        state = _before(args, kwargs) if _before is not None else None
        idx = self._open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            self._close(idx)
        if _after is not None:
            self.spans[idx][5] = _after(state, args, kwargs, out)
        return out

    def wrap(self, name: str, fn, before=None, after=None):
        """fn with a span around every call (a method when fn is a function
        stored on a class)."""
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, _before=before, _after=after, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def leaf(self, name: str, fn):
        """fn with its calls counted and timed into the enclosing span."""
        clock = self.clock
        leaves = self.leaves
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            t0 = clock()
            out = fn(*args, **kwargs)
            dt = clock() - t0
            key = (stack[-1] if stack else -1, name)
            rec = leaves.get(key)
            if rec is None:
                leaves[key] = [1, dt]
            else:
                rec[0] += 1
                rec[1] += dt
            return out
        traced.__wrapped__ = fn
        return traced

    # -------------------------------------------------------------- queries

    def self_times(self) -> list[float]:
        """Each span's duration minus its child spans and folded leaf calls."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        for (parent, _name), (_calls, secs) in self.leaves.items():
            if parent >= 0:
                own[parent] -= secs
        return own

    def totals(self) -> dict[str, dict]:
        """Per span or leaf name: calls, total seconds, self seconds, and the
        sum of each count recorded on its spans."""
        out: dict[str, dict] = {}
        for s, own in zip(self.spans, self.self_times()):
            rec = out.setdefault(s[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["total_s"] += s[2] - s[1]
            rec["self_s"] += own
            for key, val in (s[5] or {}).items():
                rec[key] = rec.get(key, 0) + val
        for (_parent, name), (calls, secs) in self.leaves.items():
            rec = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            rec["calls"] += calls
            rec["total_s"] += secs
            rec["self_s"] += secs
        return out

    def leaf_calls_under(self, root: int, name: str) -> int:
        """Calls of one leaf name anywhere below the span `root`."""
        return sum(calls for (parent, leaf), (calls, _s) in self.leaves.items()
                   if leaf == name and parent >= 0 and self.spans[parent][4] == root)

    def dump(self) -> dict:
        return {
            "span_fields": ["name", "start", "end", "parent", "root", "counts"],
            "spans": self.spans,
            "leaf_fields": ["parent", "name", "calls", "seconds"],
            "leaves": [[p, n, c, s] for (p, n), (c, s) in sorted(self.leaves.items())],
            "summary": dict(sorted(self.totals().items())),
        }
