"""Test helpers: replay an instance's transition log, and keep an eager reference log."""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from contextlib import contextmanager

from poet.fsm import LOG_WINDOW, FrameRef, FsmDefinition, FsmInstance, TransitionRecord


def fold_log(definition: FsmDefinition, log: list[TransitionRecord]) -> str:
    """Replay a log's accepted records from the initial state."""
    state = definition.initial_state
    for record in log:
        if record.verdict == "accepted":
            state = record.to_state  # type: ignore[assignment]
    return state


class EagerLog:
    """The log an instance must read as, kept by building each fire's record at once:
    every rejected record, the last LOG_WINDOW records, and per followed edge its
    count with its first and last record, in order of first firing."""

    def __init__(self) -> None:
        self.transitions = 0
        self.window: deque[TransitionRecord] = deque(maxlen=LOG_WINDOW)
        self.rejected: list[TransitionRecord] = []
        self.edges: dict[tuple[str, str], list] = {}  # (from_state, event) -> [count, first, last]

    def add(self, record: TransitionRecord) -> None:
        self.transitions += 1
        self.window.append(record)
        if record.verdict == "rejected":
            self.rejected.append(record)
        else:
            tally = self.edges.setdefault((record.from_state, record.event), [0, record, record])
            tally[0] += 1
            tally[2] = record

    def records(self) -> list[TransitionRecord]:
        if self.transitions <= LOG_WINDOW:
            return list(self.window)
        in_window = sum(record.verdict == "rejected" for record in self.window)
        return self.rejected[: len(self.rejected) - in_window] + list(self.window)

    def edge_tallies(self) -> list[dict]:
        """Each followed edge's tally as `EdgeTally.to_json()` writes it."""
        if self.transitions <= LOG_WINDOW:
            return []
        return [
            {"count": count, "first": first.to_json(), "last": last.to_json()}
            for count, first, last in self.edges.values()
        ]


@contextmanager
def eager_logs() -> Iterator[dict[FsmInstance, EagerLog]]:
    """While open, each `FsmInstance.fire` also adds its record to its instance's EagerLog.

    The record is built from the state before the fire and from what `fire` returns. Its
    cause is a `FrameRef` as it was given, or a shared cause at the firing frame's index.
    Yields the logs by instance; an instance that never fired has none.
    """
    logs: dict[FsmInstance, EagerLog] = {}
    fire = FsmInstance.fire

    def logged(instance, event, cause, timestamp, index):
        state = instance.current_state
        outcome = fire(instance, event, cause, timestamp, index)
        if not isinstance(cause, FrameRef):
            cause = FrameRef(index, cause.protocol, cause.summary)
        record = TransitionRecord(timestamp, event, state, outcome.to_state, outcome.verdict, cause)
        logs.setdefault(instance, EagerLog()).add(record)
        return outcome

    FsmInstance.fire = logged
    try:
        yield logs
    finally:
        FsmInstance.fire = fire
