"""In-memory span recorder that times calls into a program from outside it.

A span is one call of a wrapped function: (name, start, end, parent, pass id).
Spans nest on a stack, so each one knows the span it was called from, and a
span's self time is its duration minus the durations of its direct children.
Counters are kept next to the spans, per pass. Nothing is written until the
caller asks for ``dump()``; the recorder knows nothing of the program it wraps.

Single-threaded use only: the stack is shared by every wrapped call.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class SpanRecorder:
    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or None, pass id]
        self.counts: dict[int, dict[str, int]] = {}
        self.pass_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [name, self._clock(), None, parent, self.pass_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = self._clock()
            self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        per_pass = self.counts.setdefault(self.pass_id, {})
        per_pass[name] = per_pass.get(name, 0) + n

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, tally=None) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span per call.

        ``tally`` maps counter names to functions of the call's result; each
        adds its value to that counter after the call returns.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            for counter, measure in (tally or {}).items():
                self.count(counter, measure(result))
            return result

        self._patch(owner, attr, wrapper)

    def counter(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a wrapper that only counts calls."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self.count(name)
            return original(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def restore(self) -> None:
        """Undo every wrap and counter, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def layer_totals(self, pass_id: int) -> dict[str, dict[str, float]]:
        """Per span name in one pass: inclusive seconds, self seconds, calls.

        Inclusive time sums every span of the name, so it double counts a
        wrapped function that reaches itself again through other spans.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, dict[str, float]] = {}
        for k, (name, start, end, _, pid) in enumerate(self.spans):
            if pid != pass_id:
                continue
            t = totals.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            t["calls"] += 1
            t["s"] += end - start
            t["self_s"] += (end - start) - child_time[k]
        return totals

    def dump(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "pass"],
            "spans": self.spans,
            "counts": {str(k): v for k, v in sorted(self.counts.items())},
        }
