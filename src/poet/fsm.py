"""Deterministic finite-state-machine runtime with a bounded transition log.

Definitions are immutable tables of named states and edges. Firing an event
either follows the single applicable edge (a specific edge shadows a wildcard
for the same event) or records a rejection and leaves the state untouched.
Rejections are the anomaly signal consumed downstream; they never move the
machine into an error state, so tracking continues afterwards.

An instance keeps every rejected entry, the last LOG_WINDOW entries, and per
edge it has followed a count with the edge's first and last entry. Its memory
therefore grows with the rejections and the distinct edges, not with the
accepted traffic.

Each fire is given its cause and the capture index of the frame that fires
it. The cause is a `FrameRef`, or a `SharedCause`: the protocol and summary
that every frame of one source shares, such as a bound CR's good frames, so
that such a frame builds no cause of its own. A record's cause is the
`FrameRef` as it is, or the shared cause at the firing frame's index.

A fire builds no record. Each definition compiles, once, one `Step` per state
and alphabet event: the edge it follows, or the state's rejection of the event.
Every instance shares them. A fire, accepted or rejected, logs a `(timestamp,
index, cause, step)` entry and returns the step. `records()` and
`edge_tallies()` build the records from the entries when they are read, and
most entries leave the window unread. The report is written from `entries()`,
each entry read as its record would be.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import NamedTuple

from .record import FrozenRecord, Record


LOG_WINDOW = 64  # most recent entries, accepted or rejected, that each instance keeps


class UnknownEvent(Exception):
    """Event name outside the definition's alphabet (a programming error)."""


class FrameRef(Record):
    """Provenance of the frame that caused a transition or alert."""

    __slots__ = ("capture_index", "protocol", "summary")

    def __init__(self, capture_index: int, protocol: str, summary: str) -> None:
        self.capture_index = capture_index
        self.protocol = protocol
        self.summary = summary

    def to_json(self) -> dict:
        return {
            "capture_index": self.capture_index,
            "protocol": self.protocol,
            "summary": self.summary,
        }


class SharedCause(FrozenRecord):
    """The protocol and summary of every frame from one source; a record adds the frame's index."""

    __slots__ = ("protocol", "summary")

    def __init__(self, protocol: str, summary: str) -> None:
        self._init(protocol, summary)


Cause = FrameRef | SharedCause


def frame_ref(cause: Cause, capture_index: int) -> FrameRef:
    """The `FrameRef` a record shows for `cause` fired by the frame at `capture_index`."""
    if type(cause) is FrameRef:
        return cause
    return FrameRef(capture_index, cause.protocol, cause.summary)


class Edge(FrozenRecord):
    __slots__ = ("from_state", "event", "to_state", "empirical")

    def __init__(self, from_state: str, event: str, to_state: str, empirical: bool = False) -> None:
        self._init(from_state, event, to_state, empirical)


class WildcardEdge(FrozenRecord):
    """Edge applicable from any state unless shadowed by a specific edge."""

    __slots__ = ("event", "to_state")

    def __init__(self, event: str, to_state: str) -> None:
        self._init(event, to_state)


class FsmDefinition(FrozenRecord):
    # No __slots__: the compiled tables below are cached in the instance's __dict__.
    _fields = (
        "name",
        "states",
        "initial_state",
        "edges",
        "wildcard_edges",
        "reject_only_events",
        "state_operations",
    )

    def __init__(
        self,
        name: str,
        states: frozenset[str],
        initial_state: str,
        edges: tuple[Edge, ...],
        wildcard_edges: tuple[WildcardEdge, ...] = (),
        # events that are part of the alphabet but have no edge anywhere
        reject_only_events: frozenset[str] = frozenset(),
        # optional state -> operation label mapping, opaque to the engine
        state_operations: tuple[tuple[str, str], ...] = (),
    ) -> None:
        self._init(name, states, initial_state, edges, wildcard_edges, reject_only_events, state_operations)

    @cached_property
    def table(self) -> dict[str, dict[str, str]]:
        """Every state's `{event: target}`, compiled once per definition.

        A state's specific edges shadow the wildcards. Among duplicates the
        first listed edge wins, so only it ever fires. Every state an instance
        can be in has a row: the declared ones, the initial one and each target.
        """
        # Written in reverse, so the first listed of duplicate entries is the one kept.
        wildcards = {w.event: w.to_state for w in reversed(self.wildcard_edges)}
        states = {self.initial_state, *self.states, *wildcards.values()}
        for edge in self.edges:
            states.update((edge.from_state, edge.to_state))
        table = {state: dict(wildcards) for state in states}
        for edge in reversed(self.edges):
            table[edge.from_state][edge.event] = edge.to_state
        return table

    @cached_property
    def steps(self) -> dict[str, dict[str, Step]]:
        """Each state's `Step` per alphabet event, its edge in `table` or its rejection; built once, shared."""
        return {
            state: {
                event: Step(state, event, row.get(event), "accepted" if event in row else "rejected")
                for event in self.alphabet
            }
            for state, row in self.table.items()
        }

    @cached_property
    def alphabet(self) -> frozenset[str]:
        events = {e.event for e in self.edges}
        events.update(w.event for w in self.wildcard_edges)
        events.update(self.reject_only_events)
        return frozenset(events)

    @cached_property
    def operations(self) -> dict[str, str]:
        return dict(reversed(self.state_operations))

    def operation_for(self, state: str) -> str | None:
        return self.operations.get(state)

    def export(self) -> dict:
        return {
            "name": self.name,
            "initial_state": self.initial_state,
            "states": sorted(self.states),
            "edges": [
                {
                    "from": e.from_state,
                    "event": e.event,
                    "to": e.to_state,
                    "empirical": e.empirical,
                }
                for e in self.edges
            ],
            "wildcard_edges": [
                {"event": w.event, "to": w.to_state} for w in self.wildcard_edges
            ],
            "reject_only_events": sorted(self.reject_only_events),
            "state_operations": {name: label for name, label in self.state_operations},
        }


class TransitionRecord(Record):
    __slots__ = ("timestamp", "event", "from_state", "to_state", "verdict", "cause")

    def __init__(
        self,
        timestamp: tuple[int, int],  # (sec, nsec)
        event: str,
        from_state: str,
        to_state: str | None,  # None marks a rejection
        verdict: str,  # "accepted" | "rejected"
        cause: FrameRef,
    ) -> None:
        self.timestamp = timestamp
        self.event = event
        self.from_state = from_state
        self.to_state = to_state
        self.verdict = verdict
        self.cause = cause

    def to_json(self) -> dict:
        return {
            "timestamp": list(self.timestamp),
            "event": self.event,
            "from_state": self.from_state,
            "to_state": self.to_state,
            "verdict": self.verdict,
            "cause": self.cause.to_json(),
        }


class Step(Record):
    """What firing one event in one state does: follow an edge, or reject the event.

    A fire logs and returns it in place of a record. It hashes and compares by
    identity, so keying the edge tallies by it costs no Python-level call.
    """

    __slots__ = ("from_state", "event", "to_state", "verdict")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, from_state: str, event: str, to_state: str | None, verdict: str) -> None:
        self.from_state = from_state
        self.event = event
        self.to_state = to_state  # None marks a rejection
        self.verdict = verdict  # "accepted" | "rejected"


# A log entry: a fire's (timestamp, capture index, cause, step).
Entry = tuple[tuple[int, int], int, Cause, Step]


def _record(entry: Entry) -> TransitionRecord:
    """The record of a log entry, built from its step and cause."""
    timestamp, index, cause, step = entry
    return TransitionRecord(
        timestamp, step.event, step.from_state, step.to_state, step.verdict, frame_ref(cause, index)
    )


class EdgeTally(NamedTuple):
    """One followed edge: how often it fired, with its first and last entry."""

    count: int
    first: Entry
    last: Entry

    def to_json(self) -> dict:
        return {"count": self.count, "first": _record(self.first).to_json(), "last": _record(self.last).to_json()}


class FsmInstance:
    """One live machine bound to a definition; single-writer."""

    def __init__(self, definition: FsmDefinition, instance_key: str):
        self.definition = definition
        self.steps = definition.steps  # compiled once per definition, shared
        self.instance_key = instance_key
        self.current_state = definition.initial_state
        self.transitions = 0  # events fired, accepted or rejected
        # The last LOG_WINDOW entries: a list until it first fills, since most
        # instances never fire that often, then a bounded deque.
        self.window: list[Entry] | deque[Entry] = []
        self.rejected: list[Entry] = []
        # step -> [count, first entry, last entry], in order of first firing.
        self.edges: dict[Step, list] = {}

    def fire(self, event: str, cause: Cause, timestamp: tuple[int, int], index: int) -> Step:
        """Apply one event, fired by the frame at capture `index`; returns its step.

        The step has the `verdict`, `event`, `from_state` and `to_state` of the
        record that `records()` builds for the fire, whose cause is
        `frame_ref(cause, index)`. The entry keeps `cause` as it is given.
        """
        step = self.steps[self.current_state].get(event)
        if step is None:
            raise UnknownEvent(f"{self.definition.name}: event {event!r} not in alphabet")
        entry = (timestamp, index, cause, step)
        to_state = step.to_state
        if to_state is None:
            self.rejected.append(entry)
        else:
            self.current_state = to_state
            tally = self.edges.get(step)
            if tally is None:
                self.edges[step] = [1, entry, entry]
            else:
                tally[0] += 1
                tally[2] = entry
        self.transitions += 1
        if self.transitions == LOG_WINDOW:
            self.window = deque(self.window, LOG_WINDOW)
        self.window.append(entry)
        return step

    def entries(self) -> list[Entry]:
        """Every rejected entry plus the window's entries, in fire order.

        This is the whole log while at most LOG_WINDOW events have fired.
        """
        if self.transitions <= LOG_WINDOW:
            return list(self.window)  # every entry, the rejected ones included
        in_window = sum(entry[3].to_state is None for entry in self.window)
        return self.rejected[: len(self.rejected) - in_window] + list(self.window)

    def records(self) -> list[TransitionRecord]:
        """`entries()` as records, each built from its entry as it is read."""
        return [_record(entry) for entry in self.entries()]

    def edge_tallies(self) -> list[EdgeTally]:
        """Each followed edge's count, first and last entry, in order of first firing.

        Empty while the log is whole, since the log then holds every edge's entries.
        """
        if self.transitions <= LOG_WINDOW:
            return []
        return [EdgeTally(*tally) for tally in self.edges.values()]
