"""Engine semantics: firing, rejection safety, validation, log folding."""

from __future__ import annotations

import tracemalloc
from collections import deque

import pytest
from hypothesis import given, strategies as st

from poet.fsm import (
    LOG_WINDOW,
    Edge,
    FrameRef,
    FsmDefinition,
    FsmInstance,
    TransitionRecord,
    UnknownEvent,
)
from poet.models import connection_fsm_table, device_fsm_table, system_fsm_table

from fsm_checks import DefinitionDiagnostic, validate_definition
from fsm_replay import eager_logs, fold_log

CAUSE = FrameRef(0, "test", "unit")
TS = (0, 0)


def simple_def() -> FsmDefinition:
    return FsmDefinition(
        name="simple",
        states=frozenset({"A", "B", "C"}),
        initial_state="A",
        edges=(
            Edge("A", "go", "B"),
            Edge("B", "go", "C"),
            Edge("C", "loop", "C"),
            *(Edge(s, "reset", "A") for s in "ABC"),
        ),
        reject_only_events=frozenset({"forbidden"}),
    )


def test_accepted_transition():
    inst = FsmInstance(simple_def(), "x")
    record = inst.fire("go", CAUSE, TS, 0)
    assert record.verdict == "accepted"
    assert (record.from_state, record.to_state) == ("A", "B")
    assert inst.current_state == "B"


def test_detect_neighbours_from_every_device_state():
    table = device_fsm_table()
    for state in sorted(table.states):
        inst = FsmInstance(table, "dev")
        inst.current_state = state
        record = inst.fire("detect_neighbours", CAUSE, TS, 0)
        assert record.verdict == "accepted"
        assert record.to_state == inst.current_state == "NeighbourhoodDetection"


def test_rejected_event_keeps_state():
    table = device_fsm_table()
    inst = FsmInstance(table, "dev")
    inst.current_state = "DataExchange"
    record = inst.fire("name_set_requested", CAUSE, TS, 0)
    assert record.verdict == "rejected"
    assert record.to_state is None
    assert inst.current_state == "DataExchange"


def test_self_loop_accepted():
    inst = FsmInstance(simple_def(), "x")
    inst.current_state = "C"
    record = inst.fire("loop", CAUSE, TS, 0)
    assert record.verdict == "accepted"
    assert record.from_state == record.to_state == "C"


def test_unknown_event_raises():
    """Each state has one shared step per alphabet event, an edge or a rejection, and an
    event outside the alphabet raises in every state."""
    for definition in (simple_def(), device_fsm_table(), connection_fsm_table(), system_fsm_table()):
        for state, row in definition.table.items():
            assert set(definition.steps[state]) == definition.alphabet
            for event in sorted(definition.alphabet):
                step = definition.steps[state][event]
                target = row.get(event)
                verdict = "rejected" if target is None else "accepted"
                assert (step.from_state, step.event, step.to_state, step.verdict) == (state, event, target, verdict)
                one, two = FsmInstance(definition, "one"), FsmInstance(definition, "two")
                one.current_state = two.current_state = state
                assert one.fire(event, CAUSE, TS, 0) is two.fire(event, CAUSE, TS, 0) is step
            inst = FsmInstance(definition, "x")
            inst.current_state = state
            with pytest.raises(UnknownEvent):
                inst.fire("not-an-event", CAUSE, TS, 0)
            assert (inst.current_state, inst.transitions) == (state, 0)


@pytest.mark.parametrize("table_of", [device_fsm_table, connection_fsm_table, system_fsm_table])
def test_each_exported_machine_is_its_compiled_table(table_of):
    """The exported edges, the first per state and event, are every edge the machine follows."""
    definition = table_of()
    rows: dict[str, dict[str, str]] = {}
    for edge in definition.export()["edges"]:
        rows.setdefault(edge["from"], {}).setdefault(edge["event"], edge["to"])
    assert rows == {state: row for state, row in definition.table.items() if row}


def test_reject_only_event_in_alphabet():
    inst = FsmInstance(simple_def(), "x")
    record = inst.fire("forbidden", CAUSE, TS, 0)
    assert record.verdict == "rejected"


def test_validator_clean_definition():
    assert validate_definition(simple_def()) == []


def test_validator_nondeterministic():
    definition = FsmDefinition(
        name="dup",
        states=frozenset({"A", "B", "C"}),
        initial_state="A",
        edges=(Edge("A", "e", "B"), Edge("A", "e", "C"), Edge("B", "f", "C"), Edge("C", "f", "B")),
    )
    diags = validate_definition(definition)
    assert DefinitionDiagnostic("nondeterministic", "A", "e") in diags


def test_validator_unreachable():
    definition = FsmDefinition(
        name="island",
        states=frozenset({"A", "B", "C"}),
        initial_state="A",
        edges=(Edge("A", "e", "B"), Edge("C", "f", "B")),
    )
    diags = validate_definition(definition)
    assert DefinitionDiagnostic("unreachable", "C", None) in diags


def test_validator_dangling():
    definition = FsmDefinition(
        name="dangle",
        states=frozenset({"A"}),
        initial_state="A",
        edges=(Edge("A", "e", "Ghost"),),
    )
    diags = validate_definition(definition)
    assert any(d.kind == "dangling" and d.state == "Ghost" for d in diags)


def test_duplicate_edges_first_listed_wins():
    definition = FsmDefinition(
        name="dup",
        states=frozenset({"A", "B", "C"}),
        initial_state="A",
        edges=(Edge("A", "go", "B"), Edge("A", "go", "C")),
    )
    inst = FsmInstance(definition, "x")
    assert inst.fire("go", CAUSE, TS, 0).to_state == "B"


def test_log_export_jsonl_round_trip():
    import json

    inst = FsmInstance(simple_def(), "x")
    inst.fire("go", CAUSE, (1, 500), 0)
    inst.fire("forbidden", CAUSE, (2, 0), 0)
    decoded = json.loads(json.dumps([record.to_json() for record in inst.records()]))
    assert len(decoded) == 2
    assert decoded[0]["verdict"] == "accepted"
    assert decoded[1]["verdict"] == "rejected"
    assert decoded[1]["to_state"] is None
    assert decoded[0]["cause"]["protocol"] == "test"


def test_log_keeps_rejections_window_and_edge_counts():
    with eager_logs() as logs:
        inst = FsmInstance(simple_def(), "x")
        inst.fire("forbidden", FrameRef(0, "test", "early"), (0, 0), 0)
        inst.fire("go", CAUSE, (1, 0), 0)
        inst.fire("go", CAUSE, (2, 0), 0)
        for second in range(3, 3 + 2 * LOG_WINDOW):
            inst.fire("loop", CAUSE, (second, 0), 0)
        inst.fire("forbidden", FrameRef(0, "test", "late"), (999, 0), 0)
    reference = logs[inst]

    assert inst.transitions == reference.transitions == 4 + 2 * LOG_WINDOW
    records = inst.records()
    assert records == reference.records()
    # the early rejection outlives the window; the late one is in it, once
    assert [r.cause.summary for r in records if r.verdict == "rejected"] == ["early", "late"]
    assert records[1:] == list(reference.window)
    assert len(reference.window) == LOG_WINDOW
    assert [r.timestamp[0] for r in records] == [0, *range(3 + LOG_WINDOW + 1, 3 + 2 * LOG_WINDOW), 999]

    edges = [tally.to_json() for tally in inst.edge_tallies()]
    assert edges == reference.edge_tallies()
    assert [(e["first"]["from_state"], e["first"]["event"], e["count"]) for e in edges] == [
        ("A", "go", 1),
        ("B", "go", 1),
        ("C", "loop", 2 * LOG_WINDOW),
    ]
    assert edges[2]["first"]["timestamp"] == [3, 0]
    assert edges[2]["last"]["timestamp"] == [2 + 2 * LOG_WINDOW, 0]


# --- Property tests ------------------------------------------------------------


@st.composite
def definitions_and_events(draw):
    states = draw(st.lists(st.sampled_from("ABCDEF"), min_size=1, max_size=6, unique=True))
    events = draw(st.lists(st.sampled_from("pqrstu"), min_size=1, max_size=6, unique=True))
    edges = []
    seen = set()
    for _ in range(draw(st.integers(0, 10))):
        frm = draw(st.sampled_from(states))
        event = draw(st.sampled_from(events))
        if (frm, event) in seen:
            continue
        seen.add((frm, event))
        edges.append(Edge(frm, event, draw(st.sampled_from(states))))
    definition = FsmDefinition(
        name="prop",
        states=frozenset(states),
        initial_state=states[0],
        edges=tuple(edges),
    )
    if not definition.alphabet:
        return definition, []
    sequence = draw(st.lists(st.sampled_from(sorted(definition.alphabet)), max_size=30))
    return definition, sequence


@given(definitions_and_events())
def test_replay_determinism(case):
    definition, sequence = case
    if not definition.alphabet:
        return
    runs = []
    for _ in range(2):
        inst = FsmInstance(definition, "p")
        records = [inst.fire(e, CAUSE, TS, 0) for e in sequence]
        runs.append([(r.event, r.from_state, r.to_state, r.verdict) for r in records])
    assert runs[0] == runs[1]


@given(definitions_and_events())
def test_log_folding_reproduces_state(case):
    definition, sequence = case
    if not definition.alphabet:
        return
    inst = FsmInstance(definition, "p")
    for event in sequence:
        inst.fire(event, CAUSE, TS, 0)
    assert fold_log(definition, inst.records()) == inst.current_state


@given(definitions_and_events(), st.integers(1, 5))
def test_window_and_counters_account_for_every_event(case, repeat):
    """However long the run, the window chains to the current state and the counters add up."""
    definition, sequence = case
    if not definition.alphabet:
        return
    inst = FsmInstance(definition, "p")
    every = []  # each fire's record, built at once from the state before it and its outcome
    for event in sequence * repeat * 4:
        state = inst.current_state
        outcome = inst.fire(event, CAUSE, TS, 0)
        every.append(TransitionRecord(TS, event, state, outcome.to_state, outcome.verdict, CAUSE))
    assert inst.records()[-LOG_WINDOW:] == every[-LOG_WINDOW:]
    steps = definition.steps
    assert inst.rejected == [(TS, 0, CAUSE, steps[r.from_state][r.event]) for r in every if r.verdict == "rejected"]
    assert inst.records() == [r for r in every[:-LOG_WINDOW] if r.verdict == "rejected"] + every[-LOG_WINDOW:]
    tallies = {}
    for r in every:
        if r.verdict == "accepted":
            tallies.setdefault((r.from_state, r.event), []).append(r)
    # in order of first firing; the edges are written once the log is no longer whole
    expected = [{"count": len(rs), "first": rs[0].to_json(), "last": rs[-1].to_json()} for rs in tallies.values()]
    assert [tally.to_json() for tally in inst.edge_tallies()] == (expected if len(every) > LOG_WINDOW else [])
    assert inst.transitions == len(every)


@given(definitions_and_events())
def test_rejection_safety(case):
    """Removing rejected events from a sequence leaves behavior identical."""
    definition, sequence = case
    if not definition.alphabet:
        return
    full = FsmInstance(definition, "full")
    accepted_events = []
    for event in sequence:
        if full.fire(event, CAUSE, TS, 0).verdict == "accepted":
            accepted_events.append(event)
    filtered = FsmInstance(definition, "filtered")
    for event in accepted_events:
        assert filtered.fire(event, CAUSE, TS, 0).verdict == "accepted"
    assert filtered.current_state == full.current_state


@st.composite
def tangled_definitions_and_events(draw):
    """Definitions with duplicate and dangling edges and reject-only events, and event
    sequences that stray outside the alphabet."""
    names = st.sampled_from("ABCDEFG")
    states = draw(st.lists(st.sampled_from("ABCDE"), min_size=1, max_size=5, unique=True))
    events = st.sampled_from("pqrstu")
    edges = draw(st.lists(st.builds(Edge, st.sampled_from(states), events, names), max_size=14))
    definition = FsmDefinition(
        name="tangled",
        states=frozenset(states),
        initial_state=states[0],
        edges=tuple(edges),
        reject_only_events=frozenset(draw(st.lists(events, max_size=3))),
    )
    sequence = draw(st.lists(st.sampled_from("pqrstuvw"), max_size=40))
    return definition, sequence


def _reference_target(definition: FsmDefinition, state: str, event: str) -> str | None:
    """The documented rule, read straight off the edge list: the first listed edge, else
    None for a rejection."""
    for edge in definition.edges:
        if (edge.from_state, edge.event) == (state, event):
            return edge.to_state
    return None


@given(tangled_definitions_and_events())
def test_compiled_table_fires_as_the_reference_interpreter(case):
    definition, sequence = case
    alphabet = {e.event for e in definition.edges} | definition.reject_only_events
    inst = FsmInstance(definition, "p")
    state = definition.initial_state
    count = 0
    for event in sequence:
        if event not in alphabet:
            with pytest.raises(UnknownEvent):
                inst.fire(event, CAUSE, TS, 0)
        else:
            target = _reference_target(definition, state, event)
            record = inst.fire(event, CAUSE, TS, 0)
            verdict = "rejected" if target is None else "accepted"
            assert (record.from_state, record.to_state, record.verdict) == (state, target, verdict)
            state = target or state
            count += 1
        assert (inst.current_state, inst.transitions) == (state, count)


def test_short_lived_instances_hold_no_window_deque():
    """An instance that fired a few times keeps its window as a short list, not a deque of
    LOG_WINDOW slots: at least 500 B less per instance."""
    definition = device_fsm_table()
    tracemalloc.start()
    try:
        instances = [FsmInstance(definition, f"{n:012x}") for n in range(1500)]
        for inst in instances:
            for _ in range(3):
                inst.fire("detect_neighbours", CAUSE, TS, 0)
        lazy = tracemalloc.get_traced_memory()[0]
        for inst in instances:
            inst.window = deque(inst.window, LOG_WINDOW)  # what each instance held eagerly
        eager = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert all(len(inst.window) == 3 for inst in instances)
    assert (eager - lazy) / len(instances) >= 500
