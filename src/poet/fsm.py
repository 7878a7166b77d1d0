"""Deterministic finite-state-machine runtime with a bounded transition log.

Definitions are immutable tables of named states and edges. Firing an event
either follows the single applicable edge (a specific edge shadows a wildcard
for the same event) or records a rejection and leaves the state untouched.
Rejections are the anomaly signal consumed downstream; they never move the
machine into an error state, so tracking continues afterwards.

An instance keeps every rejected record, the last LOG_WINDOW records, and per
edge it has followed a count with the edge's first and last record. Its memory
therefore grows with the rejections and the distinct edges, not with the
accepted traffic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property


LOG_WINDOW = 64  # most recent records, accepted or rejected, that each instance keeps


class UnknownEvent(Exception):
    """Event name outside the definition's alphabet (a programming error)."""


@dataclass(slots=True)
class FrameRef:
    """Provenance of the frame that caused a transition or alert."""

    capture_index: int
    protocol: str
    summary: str

    def to_json(self) -> dict:
        return {
            "capture_index": self.capture_index,
            "protocol": self.protocol,
            "summary": self.summary,
        }


@dataclass(frozen=True)
class Edge:
    from_state: str
    event: str
    to_state: str
    empirical: bool = False


@dataclass(frozen=True)
class WildcardEdge:
    """Edge applicable from any state unless shadowed by a specific edge."""

    event: str
    to_state: str


@dataclass(frozen=True)
class FsmDefinition:
    name: str
    states: frozenset[str]
    initial_state: str
    edges: tuple[Edge, ...]
    wildcard_edges: tuple[WildcardEdge, ...] = ()
    # events that are part of the alphabet but have no edge anywhere
    reject_only_events: frozenset[str] = frozenset()
    # optional state -> operation label mapping, opaque to the engine
    state_operations: tuple[tuple[str, str], ...] = ()

    # Lookup tables compiled once per definition. Duplicate keys keep the
    # first listed entry, so only the first of duplicate edges ever fires.

    @cached_property
    def transitions(self) -> dict[tuple[str, str], str]:
        return {(e.from_state, e.event): e.to_state for e in reversed(self.edges)}

    @cached_property
    def wildcards(self) -> dict[str, str]:
        return {w.event: w.to_state for w in reversed(self.wildcard_edges)}

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


@dataclass(slots=True)
class TransitionRecord:
    timestamp: tuple[int, int]  # (sec, nsec)
    event: str
    from_state: str
    to_state: str | None  # None marks a rejection
    verdict: str  # "accepted" | "rejected"
    cause: FrameRef

    def to_json(self) -> dict:
        return {
            "timestamp": list(self.timestamp),
            "event": self.event,
            "from_state": self.from_state,
            "to_state": self.to_state,
            "verdict": self.verdict,
            "cause": self.cause.to_json(),
        }


@dataclass(frozen=True)
class DefinitionDiagnostic:
    kind: str  # "nondeterministic" | "unreachable" | "dangling"
    state: str
    event: str | None = None


class FsmInstance:
    """One live machine bound to a definition; single-writer."""

    def __init__(self, definition: FsmDefinition, instance_key: str):
        self.definition = definition
        self.instance_key = instance_key
        self.current_state = definition.initial_state
        self.transitions = 0  # events fired, accepted or rejected
        self.window: deque[TransitionRecord] = deque(maxlen=LOG_WINDOW)
        self.rejected: list[TransitionRecord] = []
        # (from_state, event) -> [count, first record, last record], in order of
        # first firing; the definition is deterministic, so the key fixes the target.
        self.edges: dict[tuple[str, str], list] = {}

    def fire(self, event: str, cause: FrameRef, timestamp: tuple[int, int]) -> TransitionRecord:
        """Apply one event; returns its record (accepted or rejected)."""
        definition = self.definition
        if event not in definition.alphabet:
            raise UnknownEvent(f"{definition.name}: event {event!r} not in alphabet")
        edge = (self.current_state, event)
        target = definition.transitions.get(edge)
        if target is None:
            target = definition.wildcards.get(event)
        self.transitions += 1
        if target is None:
            record = TransitionRecord(timestamp, event, self.current_state, None, "rejected", cause)
            self.rejected.append(record)
        else:
            record = TransitionRecord(timestamp, event, self.current_state, target, "accepted", cause)
            self.current_state = target
            tally = self.edges.get(edge)
            if tally is None:
                self.edges[edge] = [1, record, record]
            else:
                tally[0] += 1
                tally[2] = record
        self.window.append(record)
        return record

    def records(self) -> list[TransitionRecord]:
        """Every rejected record plus the window, in fire order.

        This is the whole log while at most LOG_WINDOW events have fired.
        """
        in_window = sum(record.verdict == "rejected" for record in self.window)
        return self.rejected[: len(self.rejected) - in_window] + list(self.window)

    def export_log(self) -> list[dict]:
        return [record.to_json() for record in self.records()]

    def export_edges(self) -> list[dict]:
        """Each followed edge's count, first and last record, in order of first firing.

        Empty while the log is whole, since the log then holds every edge's records.
        """
        if self.transitions <= LOG_WINDOW:
            return []
        return [
            {"count": count, "first": first.to_json(), "last": last.to_json()}
            for count, first, last in self.edges.values()
        ]


def fold_log(definition: FsmDefinition, log: list[TransitionRecord]) -> str:
    """Replay a log's accepted records from the initial state."""
    state = definition.initial_state
    for record in log:
        if record.verdict == "accepted":
            state = record.to_state  # type: ignore[assignment]
    return state


def validate_definition(definition: FsmDefinition) -> list[DefinitionDiagnostic]:
    """Check determinism, endpoint integrity and reachability from the initial state."""
    diagnostics: list[DefinitionDiagnostic] = []

    if definition.initial_state not in definition.states:
        diagnostics.append(DefinitionDiagnostic("dangling", definition.initial_state, None))
    for edge in definition.edges:
        for endpoint in (edge.from_state, edge.to_state):
            if endpoint not in definition.states:
                diagnostics.append(DefinitionDiagnostic("dangling", endpoint, edge.event))
    for wild in definition.wildcard_edges:
        if wild.to_state not in definition.states:
            diagnostics.append(DefinitionDiagnostic("dangling", wild.to_state, wild.event))

    seen: dict[tuple[str, str], set[str]] = {}
    for edge in definition.edges:
        seen.setdefault((edge.from_state, edge.event), set()).add(edge.to_state)
    for (state, event), targets in seen.items():
        if len(targets) > 1:
            diagnostics.append(DefinitionDiagnostic("nondeterministic", state, event))
    wild_targets: dict[str, set[str]] = {}
    for wild in definition.wildcard_edges:
        wild_targets.setdefault(wild.event, set()).add(wild.to_state)
    for event, targets in wild_targets.items():
        if len(targets) > 1:
            diagnostics.append(DefinitionDiagnostic("nondeterministic", "*", event))

    reachable = reachable_states(definition, definition.initial_state)
    for state in sorted(definition.states - reachable):
        diagnostics.append(DefinitionDiagnostic("unreachable", state, None))

    return diagnostics


def reachable_states(definition: FsmDefinition, start: str) -> set[str]:
    """States reachable from `start`, wildcards treated as edges from every state."""
    successors: dict[str, set[str]] = {s: set() for s in definition.states}
    for edge in definition.edges:
        if edge.from_state in successors:
            successors[edge.from_state].add(edge.to_state)
    wildcard_targets = {w.to_state for w in definition.wildcard_edges}
    reached = {start}
    frontier = [start]
    while frontier:
        state = frontier.pop()
        nexts = successors.get(state, set()) | wildcard_targets
        for nxt in nexts:
            if nxt not in reached:
                reached.add(nxt)
                frontier.append(nxt)
    return reached
