"""Test helper: the static checks of an FSM definition.

A definition is deterministic, names only its own states, and reaches every
state from its initial one. The tests run these checks over each table.
"""

from __future__ import annotations

from dataclasses import dataclass

from poet.fsm import FsmDefinition


@dataclass(frozen=True)
class DefinitionDiagnostic:
    kind: str  # "nondeterministic" | "unreachable" | "dangling"
    state: str
    event: str | None = None


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
