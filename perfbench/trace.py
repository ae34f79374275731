"""Spans recorded from the benchmark's side, for the traced run.

A span has a name, a start and an end (``perf_counter`` seconds from
the run's start), its parent span and the id of the operation it
belongs to; all spans of one operation share that id.  Spans stay in
memory and are written out once, when the run ends.

Layer functions are looked up by module and attribute name at call
time.  One that a later change renames or removes is recorded as
missing and its spans are skipped; it never fails the run.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """In-memory span recorder; a no-op when disabled."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self.missing: set[str] = set()
        self._next_op = 0
        self._stack: list[int] = []

    def new_op(self) -> int:
        self._next_op += 1
        return self._next_op

    @contextmanager
    def span(self, name: str, op: int):
        if not self.enabled:
            yield None
            return
        record = {"id": len(self.spans), "op": op, "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter() - self.origin, "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter() - self.origin

    def layer(self, module: str, attribute: str):
        """The named layer function, or ``None`` (recorded as missing)."""
        try:
            return getattr(importlib.import_module(module), attribute)
        except (ImportError, AttributeError):
            self.missing.add(f"{module}.{attribute}")
            return None

    def durations(self, name: str) -> list[float]:
        return [span["end"] - span["start"] for span in self.spans
                if span["name"] == name and span["end"] is not None]

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"meta": meta, "missing": sorted(self.missing),
                   "spans": self.spans}
        path.write_text(json.dumps(payload), encoding="utf-8")
