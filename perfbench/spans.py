"""Traced pass: spans and counts recorded around the public calls into each layer.

Tracing wraps the names the tracker calls each layer through, for the
duration of one run only, so nothing else (input synthesis in particular,
which replays through FsmFleet) is counted. Spans stay in memory as
(name, start_ns, end_ns, parent, capture_index) tuples; a layer's self time
is its spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import gc
import io
import time
from collections import Counter
from contextlib import contextmanager
from types import SimpleNamespace

import poet.tracker
from poet.capture import RawFrame
from poet.dissect import MalformedFrame
from poet.fsm import FsmInstance
from poet.inventory import AssetInventory
from poet.tracker import Tracker, TrackerReport

ROOTS = ("tracker.process", "tracker.dumps")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.index = -1  # capture index of the frame in flight
        self.counts: Counter[str] = Counter()
        self.deferred_hwm = 0
        self._gc: tuple[int, int, int] | None = None

    def _open(self) -> tuple[int, int, int]:
        slot = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(slot)
        return slot, parent, time.perf_counter_ns()

    def _close(self, name: str, slot: int, parent: int, start: int) -> None:
        end = time.perf_counter_ns()
        self.stack.pop()
        self.spans[slot] = (name, start, end, parent, self.index)

    def wrap(self, name: str, fn, observe=None):
        """Return fn recorded as span `name`; observe(result) counts its output."""
        def traced(*args, **kwargs):
            opened = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, *opened)
            if observe is not None:
                observe(result)
            return result

        return traced

    def stream(self, items, tracker: Tracker):
        """The capture stream with each pull recorded as a capture.read span."""
        it = iter(items)
        while True:
            opened = self._open()
            item = next(it, None)
            if item is not None:
                self.index = item.capture_index
            self._close("capture.read", *opened)
            if item is None:
                return
            self.deferred_hwm = max(self.deferred_hwm, len(tracker.deferred))
            if isinstance(item, RawFrame):
                self.counts["capture.frames"] += 1
            else:
                self.counts["capture.errors"] += 1
            yield item

    def sink(self) -> tuple[SimpleNamespace, io.StringIO]:
        buffer = io.StringIO()
        return (
            SimpleNamespace(
                write=self.wrap("tracker.sink", buffer.write),
                flush=self.wrap("tracker.sink", buffer.flush),
            ),
            buffer,
        )

    def _on_gc(self, phase: str, info: dict) -> None:
        # Collections outside the program's calls belong to the benchmark.
        if phase == "start":
            self._gc = self._open() if self.stack else None
            self.counts["gc.collections"] += self._gc is not None
        elif self._gc is not None:
            self._close("gc.pause", *self._gc)

    def _dissected(self, parsed) -> None:
        self.counts["dissect.frames_" + parsed.protocol.removeprefix("pn-")] += 1

    def _updated(self, changes) -> None:
        self.counts["inventory.changes"] += len(changes)
        self.counts["inventory.conflicts"] += sum(c.conflict for c in changes)

    def _derived(self, derived) -> None:
        self.counts["models.events"] += len(derived.events)
        self.counts["models.deferrals"] += derived.new_deferral is not None

    def _fired(self, record) -> None:
        self.counts["fsm.rejected"] += record.verdict == "rejected"

    @contextmanager
    def installed(self):
        """Wrap every layer entry point, and hook the collector, for one run."""
        dissect = self.wrap("dissect", poet.tracker.dissect, self._dissected)

        def counted_dissect(raw):
            try:
                return dissect(raw)
            except MalformedFrame:
                self.counts["dissect.malformed"] += 1
                raise

        patches = [
            (poet.tracker, "dissect", counted_dissect),
            (poet.tracker, "derive_events", self.wrap("models.derive", poet.tracker.derive_events, self._derived)),
            (AssetInventory, "update_from_frame", self.wrap("inventory.update", AssetInventory.update_from_frame, self._updated)),
            (AssetInventory, "find_mac_by_name", self.wrap("inventory.lookup", AssetInventory.find_mac_by_name)),
            (FsmInstance, "fire", self.wrap("fsm.fire", FsmInstance.fire, self._fired)),
            (Tracker, "process", self.wrap("tracker.process", Tracker.process)),
            (Tracker, "report", self.wrap("tracker.report", Tracker.report)),
            (TrackerReport, "dumps", self.wrap("tracker.dumps", TrackerReport.dumps)),
        ]
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        for owner, attr, traced in patches:
            setattr(owner, attr, traced)
        gc.callbacks.append(self._on_gc)
        try:
            yield
        finally:
            gc.callbacks.remove(self._on_gc)
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    def summary(self) -> tuple[dict[str, float], Counter[str]]:
        """Self seconds and call counts per span name."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        for (name, start, end, _, _), children in zip(spans, child_ns):
            self_ns[name] += end - start - children
            calls[name] += 1
        roots = [(name, end - start) for name, start, end, parent, _ in spans if parent < 0]
        if sum(self_ns.values()) != sum(ns for _, ns in roots) or {n for n, _ in roots} - set(ROOTS):
            raise RuntimeError("span tree is inconsistent: self times do not sum to the root spans")
        return {name: ns / 1e9 for name, ns in self_ns.items()}, calls

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("name,start_ns,end_ns,parent,capture_index\n")
            f.writelines(f"{n},{s},{e},{p},{i}\n" for n, s, e, p, i in self.spans)
