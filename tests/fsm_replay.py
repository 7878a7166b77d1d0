"""Test helper: replay an instance's transition log."""

from __future__ import annotations

from poet.fsm import FsmDefinition, TransitionRecord


def fold_log(definition: FsmDefinition, log: list[TransitionRecord]) -> str:
    """Replay a log's accepted records from the initial state."""
    state = definition.initial_state
    for record in log:
        if record.verdict == "accepted":
            state = record.to_state  # type: ignore[assignment]
    return state
