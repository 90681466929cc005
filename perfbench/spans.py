"""In-memory spans recorded around calls into tspheat's layers.

A span holds its name, start and end (perf_counter seconds), the index of the
span that was open when it started, the run id shared by every span of a run,
and counts read from the call's result. Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
            "counts": {},
        }
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            self._open.pop()
            rec["end"] = time.perf_counter()

    def wrap(self, name: str, fn, counts=None):
        """fn inside a span; counts(result) -> dict is stored on the span."""

        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if counts is not None:
                    rec["counts"] = counts(result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Replace module attributes by traced wrappers for the duration.

        targets: (module, attribute, span name, counts or None). An attribute
        the module does not have raises AttributeError, naming it.
        """
        saved = []
        try:
            for module, attr, name, counts in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, counts))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time covered by child spans."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            out[s["name"]] += (s["end"] - s["start"]) - child[i]
        return dict(out)


def duration(span: dict) -> float:
    return span["end"] - span["start"]
