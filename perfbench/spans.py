"""In-memory spans around calls into expbouquet's public functions.

The tracer wraps a function where its module holds it, so a span is
recorded for every call that looks the name up there: the benchmark's own
calls, and calls between functions of the same module (``classify`` ->
``potential``, ``render_escape`` -> ``escape_times``).  Modules that bound
the function at import (``strata`` imports ``potential``) call the original,
so their spans include that work.  Nothing inside the library is changed.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

_now = time.perf_counter_ns


class Tracer:
    """Span list of (name, start_ns, end_ns, parent index, query id, attrs)."""

    def __init__(self):
        self.spans: list[list] = []
        self.query_id = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, _now(), None, parent, self.query_id, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int, **attrs) -> None:
        self.spans[idx][2] = _now()
        self._stack.pop()
        if attrs:
            self.spans[idx][5] = attrs

    def unwind(self, idx: int, **attrs) -> None:
        """End span ``idx`` and any span still open inside it (after an exception)."""
        del self._stack[self._stack.index(idx) + 1:]
        self.end(idx, **attrs)

    def wrap(self, owner, attr: str, name: str, outcome=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper until ``restore``.

        ``outcome(result, args)`` gives attributes recorded on the span once
        the call has returned (outside the timed interval).
        """
        raw = vars(owner)[attr]
        is_static = isinstance(raw, staticmethod)
        fn = raw.__func__ if is_static else raw
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                tracer.end(idx, error=type(e).__name__)
                raise
            tracer.end(idx)
            if outcome is not None:
                tracer.spans[idx][5] = outcome(result, args)
            return result

        setattr(owner, attr, staticmethod(traced) if is_static else traced)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def summary(self) -> dict:
        """Per span name: calls, busy_s, self_s and p50_s.

        Busy time counts a span unless an ancestor has the same name, so
        nested same-name calls are not counted twice; self time subtracts
        the time covered by direct children.
        """
        child_ns = defaultdict(int)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        durs = defaultdict(list)
        for i, (name, start, end, parent, _, _) in enumerate(self.spans):
            d = end - start
            durs[name].append(d)
            s = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["self_s"] += (d - child_ns[i]) / 1e9
            p = parent
            while p is not None and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p is None:
                s["busy_s"] += d / 1e9
        for name, ds in durs.items():
            out[name]["p50_s"] = statistics.median(ds) / 1e9
        return out
