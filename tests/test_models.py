"""Operation model tables and event derivation against the normative lists."""

from __future__ import annotations

import uuid

import pytest
from hypothesis import given, strategies as st

from poet.capture import RawFrame
from poet.dissect import (
    DCP_FRAME_ID_GETSET,
    DCP_FRAME_ID_IDENTIFY_RES,
    DCP_FRAME_ID_MIN,
    DCP_SERVICE_GET,
    DCP_SERVICE_HELLO,
    DCP_SERVICE_IDENTIFY,
    DCP_TYPE_REQUEST,
    DCP_TYPE_RESPONSE_UNSUPPORTED,
    CmFrame,
    IocrBlock,
    PnioCyclicFrame,
    dissect,
)
from poet.fsm import FrameRef, FsmInstance, SharedCause
from poet.models import (
    ACYCLIC_DONE,
    ACYCLIC_READ,
    ACYCLIC_WRITE,
    ALL_CONNECTIONS_ESTABLISHED,
    APPLICATION_READY,
    CONNECT_REQUESTED,
    CONNECTION_CONFIRMED,
    CYCLIC_DATA_GOOD,
    DETECT_NEIGHBOURS,
    DUPLICATION_CHECK,
    END_OF_PARAMETRIZATION,
    INPUT_PROCESS_DATA_SENT,
    IP_ASSIGNED,
    IP_ASSIGNMENT_REQUESTED,
    NAME_RESOLUTION_REQUESTED,
    NAME_RESOLVED,
    NAME_SET_REQUESTED,
    OUTPUT_PROCESS_DATA_SENT,
    PARAMETRIZATION_WRITE,
    PN_TRAFFIC_DETECTED,
    ArTable,
    ConnectionRegistration,
    CyclicBinding,
    DeferredEvent,
    DerivedEvents,
    TrackContext,
    connection_fsm_table,
    connection_key,
    cyclic_bindings,
    derive_events,
    device_fsm_table,
    system_fsm_table,
)
from poet.synth import (
    SubmoduleSpec,
    _dcp_block,
    ar_block_request,
    cr_data_length,
    cyclic_c_sdu,
    dcp_identify_request,
    dcp_identify_response,
    dcp_set_name_request,
    encode_cm,
    encode_dcp,
    encode_lldp,
    encode_pnio,
    expected_submodules_block,
    iocr_block_request,
    record_block,
    str_to_mac,
)
from poet.dissect import BLOCK_WRITE_REQ, BLOCK_WRITE_RES, RPC_OPNUM_READ

from fsm_checks import reachable_states, validate_definition

CTRL_MAC = "02:00:00:00:01:00"
DEV_MAC = "02:00:00:00:02:00"
CTRL = str_to_mac(CTRL_MAC)
DEV = str_to_mac(DEV_MAC)
PORT = str_to_mac("02:70:01:01:02:00")
AR = uuid.uuid5(uuid.NAMESPACE_OID, "models-ar")
CAUSE = FrameRef(0, "test", "unit")


def raw(data: bytes, index: int = 0) -> RawFrame:
    return RawFrame(0, 0, data, index)


_TABLES = {"device": device_fsm_table, "connection": connection_fsm_table, "system": system_fsm_table}


class FakeContext(TrackContext):
    def __init__(self):
        self.names: dict[str, str] = {}
        self.ar_table = ArTable()
        self.deferred: list[DeferredEvent] = []
        self.states: dict[tuple[str, str | None], str] = {}  # instances that left their initial state

    def lookup_name(self, name):
        return self.names.get(name)

    def deferred_for_name(self, name):
        return [d for d in self.deferred if d.name == name]

    def state_of(self, scope, key):
        return self.states.get((scope, key), _TABLES[scope]().initial_state)


def _register(ctx: FakeContext, registration: ConnectionRegistration) -> None:
    """Register a Connect's record in `ctx`'s AR table as the tracker does, with no conflict."""
    device = FsmInstance(device_fsm_table(), registration.responder_mac)
    connection = FsmInstance(connection_fsm_table(), registration.key)
    assert ctx.ar_table.register(registration, device, connection, CAUSE) == []


# --- Table shape -----------------------------------------------------------------


def test_device_table_validates_clean():
    assert validate_definition(device_fsm_table()) == []


def test_connection_table_validates_clean():
    assert validate_definition(connection_fsm_table()) == []


def test_system_table_validates_clean():
    assert validate_definition(system_fsm_table()) == []


def test_device_table_shape():
    table = device_fsm_table()
    assert len(table.states) == 15
    assert table.initial_state == "Active"
    assert any(w.event == DETECT_NEIGHBOURS and w.to_state == "NeighbourhoodDetection"
               for w in table.wildcard_edges)
    assert table.reject_only_events == {NAME_SET_REQUESTED}


def test_device_normative_edges_present():
    table = device_fsm_table()
    triples = {(e.from_state, e.event, e.to_state) for e in table.edges}
    expected = [
        ("Active", NAME_RESOLUTION_REQUESTED, "NameResolution"),
        ("NameResolution", NAME_RESOLVED, "NameResolved"),
        ("NameResolved", IP_ASSIGNMENT_REQUESTED, "IpAddressAssignment"),
        ("IpAddressAssignment", IP_ASSIGNED, "IpAddressAssigned"),
        ("IpAddressAssigned", DUPLICATION_CHECK, "IpDuplicationCheck"),
        ("IpDuplicationCheck", CONNECT_REQUESTED, "NewConnectionInitiated"),
        ("NewConnectionInitiated", PARAMETRIZATION_WRITE, "Parametrization"),
        ("Parametrization", PARAMETRIZATION_WRITE, "Parametrization"),
        ("Parametrization", END_OF_PARAMETRIZATION, "EndOfParametrization"),
        ("EndOfParametrization", APPLICATION_READY, "ApplicationReady"),
        ("ApplicationReady", CONNECTION_CONFIRMED, "ConnectionEstablished"),
        ("ConnectionEstablished", CYCLIC_DATA_GOOD, "DataExchange"),
        ("DataExchange", CYCLIC_DATA_GOOD, "DataExchange"),
        ("DataExchange", ACYCLIC_WRITE, "AcyclicParametrization"),
        ("AcyclicParametrization", ACYCLIC_DONE, "DataExchange"),
        ("DataExchange", ACYCLIC_READ, "AcyclicReadingData"),
        ("AcyclicReadingData", ACYCLIC_DONE, "DataExchange"),
    ]
    for triple in expected:
        assert triple in triples, triple


def test_device_empirical_edges_flagged():
    table = device_fsm_table()
    empirical = {(e.from_state, e.event, e.to_state) for e in table.edges if e.empirical}
    assert empirical == {
        ("IpAddressAssignment", IP_ASSIGNED, "IpAddressAssigned"),
        ("IpAddressAssigned", DUPLICATION_CHECK, "IpDuplicationCheck"),
    }


def test_device_fanout_from_neighbourhood_detection():
    table = device_fsm_table()
    fanout = {e.event for e in table.edges if e.from_state == "NeighbourhoodDetection"}
    with_edges = {e.event for e in table.edges}
    assert fanout == with_edges - {DETECT_NEIGHBOURS}
    # the always-rejected rename never gains an edge
    assert NAME_SET_REQUESTED not in fanout


def test_all_states_reachable_from_neighbourhood_detection():
    table = device_fsm_table()
    reached = reachable_states(table, "NeighbourhoodDetection")
    assert reached >= table.states - {"Active"}


def test_rejected_events_have_no_edges_anywhere():
    table = device_fsm_table()
    for event in table.reject_only_events:
        assert not any(e.event == event for e in table.edges)
        assert not any(w.event == event for w in table.wildcard_edges)
        assert event in table.alphabet


def test_connection_table_shape_and_handshake():
    table = connection_fsm_table()
    assert len(table.states) == 7
    assert table.initial_state == "ConnectionCreation"
    inst = FsmInstance(table, "c")
    for event in (PARAMETRIZATION_WRITE, PARAMETRIZATION_WRITE, END_OF_PARAMETRIZATION, APPLICATION_READY):
        assert inst.fire(event, CAUSE, (0, 0), 0).verdict == "accepted"
    assert inst.current_state == "ConnectionEstablished"


def test_connection_rejects_data_before_configuration():
    inst = FsmInstance(connection_fsm_table(), "c")
    record = inst.fire(INPUT_PROCESS_DATA_SENT, CAUSE, (0, 0), 0)
    assert record.verdict == "rejected"
    assert inst.current_state == "ConnectionCreation"


def test_connection_data_exchange_edges():
    table = connection_fsm_table()
    triples = {(e.from_state, e.event, e.to_state) for e in table.edges}
    for state in ("InputDataExchange", "OutputDataExchange"):
        assert (state, INPUT_PROCESS_DATA_SENT, "InputDataExchange") in triples
        assert (state, OUTPUT_PROCESS_DATA_SENT, "OutputDataExchange") in triples
        assert (state, ACYCLIC_WRITE, "AcyclicParametrization") in triples
        assert (state, ACYCLIC_READ, "AcyclicReadingData") in triples
    assert ("AcyclicParametrization", ACYCLIC_DONE, "OutputDataExchange") in triples
    assert ("AcyclicReadingData", ACYCLIC_DONE, "InputDataExchange") in triples


def test_system_table_shape():
    table = system_fsm_table()
    assert len(table.states) == 4
    assert table.initial_state == "Inactive"
    out_of_inactive = [e for e in table.edges if e.from_state == "Inactive"]
    assert [(e.event, e.to_state) for e in out_of_inactive] == [
        (PN_TRAFFIC_DETECTED, "PoweredOn")
    ]
    triples = {(e.from_state, e.event, e.to_state) for e in table.edges}
    assert ("PoweredOn", CONNECT_REQUESTED, "AssetConfigurationAndSystemStartup") in triples
    assert (
        "AssetConfigurationAndSystemStartup",
        ALL_CONNECTIONS_ESTABLISHED,
        "DataExchange",
    ) in triples


def test_system_wakes_on_one_edge_only():
    """pn_traffic_detected leaves Inactive and has no edge out of PoweredOn."""
    table = system_fsm_table()
    assert [(e.from_state, e.to_state) for e in table.edges if e.event == PN_TRAFFIC_DETECTED] == [
        ("Inactive", "PoweredOn")
    ]
    assert PN_TRAFFIC_DETECTED not in table.table["PoweredOn"]
    assert validate_definition(table) == []


def test_state_operation_mapping_total():
    for table in (device_fsm_table(), connection_fsm_table(), system_fsm_table()):
        for state in table.states:
            assert table.operation_for(state) is not None, (table.name, state)


def test_device_operation_groupings():
    table = device_fsm_table()
    assert table.operation_for("NeighbourhoodDetection") == "Asset Discovery & Neighbourhood Detection"
    for state in ("NameResolution", "NameResolved", "IpAddressAssignment",
                  "IpAddressAssigned", "IpDuplicationCheck"):
        assert table.operation_for(state) == "Address Resolution"
    for state in ("NewConnectionInitiated", "Parametrization", "EndOfParametrization",
                  "ApplicationReady", "ConnectionEstablished"):
        assert table.operation_for(state) == "Connection Establishment"
    for state in ("DataExchange", "AcyclicParametrization", "AcyclicReadingData"):
        assert table.operation_for(state) == "Data Exchange"


def test_normal_startup_replay_visits_states_in_order():
    sequence = [
        DETECT_NEIGHBOURS,
        NAME_RESOLUTION_REQUESTED,
        NAME_RESOLVED,
        IP_ASSIGNMENT_REQUESTED,
        IP_ASSIGNED,
        DUPLICATION_CHECK,
        CONNECT_REQUESTED,
        PARAMETRIZATION_WRITE,
        PARAMETRIZATION_WRITE,
        END_OF_PARAMETRIZATION,
        APPLICATION_READY,
        CONNECTION_CONFIRMED,
        CYCLIC_DATA_GOOD,
        CYCLIC_DATA_GOOD,
    ]
    inst = FsmInstance(device_fsm_table(), "dev")
    visited = []
    for event in sequence:
        record = inst.fire(event, CAUSE, (0, 0), 0)
        assert record.verdict == "accepted", (event, record.from_state)
        visited.append(record.to_state)
    expected_order = [
        "NameResolution",
        "NameResolved",
        "IpAddressAssignment",
        "IpAddressAssigned",
        "IpDuplicationCheck",
        "NewConnectionInitiated",
        "Parametrization",
        "EndOfParametrization",
        "ApplicationReady",
        "ConnectionEstablished",
        "DataExchange",
    ]
    positions = [visited.index(state) for state in expected_order]
    assert positions == sorted(positions)
    assert inst.current_state == "DataExchange"


def test_alphabet_closure():
    device_events = {
        DETECT_NEIGHBOURS, NAME_RESOLUTION_REQUESTED, NAME_RESOLVED, IP_ASSIGNMENT_REQUESTED,
        IP_ASSIGNED, DUPLICATION_CHECK, CONNECT_REQUESTED, PARAMETRIZATION_WRITE,
        END_OF_PARAMETRIZATION, APPLICATION_READY, CONNECTION_CONFIRMED, CYCLIC_DATA_GOOD,
        ACYCLIC_WRITE, ACYCLIC_READ, ACYCLIC_DONE, NAME_SET_REQUESTED,
    }
    connection_events = {
        PARAMETRIZATION_WRITE, END_OF_PARAMETRIZATION, APPLICATION_READY,
        INPUT_PROCESS_DATA_SENT, OUTPUT_PROCESS_DATA_SENT,
        ACYCLIC_WRITE, ACYCLIC_READ, ACYCLIC_DONE,
    }
    system_events = {PN_TRAFFIC_DETECTED, CONNECT_REQUESTED, ALL_CONNECTIONS_ESTABLISHED}
    assert device_events == device_fsm_table().alphabet
    assert connection_events == connection_fsm_table().alphabet
    assert system_events == system_fsm_table().alphabet


# --- Event derivation -------------------------------------------------------------


def test_derive_set_name_ufo_targets_bound_device():
    ctx = FakeContext()
    parsed = dissect(raw(dcp_set_name_request(CTRL, DEV, 5, "ufo"), index=9))
    derived = derive_events(parsed, ctx)
    assert [(e.event_name, e.scope, e.key) for e in derived.events] == [
        (NAME_SET_REQUESTED, "device", DEV_MAC)
    ]
    assert derived.events[0].cause.summary == "dcp set name-of-station 'ufo'"
    assert derived.events[0].cause.capture_index == 9


def test_derive_first_lldp_wakes_system():
    ctx = FakeContext()
    parsed = dissect(raw(encode_lldp(DEV, PORT, 20, "lift-motor")))
    derived = derive_events(parsed, ctx)
    assert [(e.event_name, e.scope) for e in derived.events] == [
        (DETECT_NEIGHBOURS, "device"),
        (PN_TRAFFIC_DETECTED, "system"),
    ]
    assert derived.events[0].key == DEV_MAC  # chassis MAC, not the port MAC


@pytest.mark.parametrize(
    "data",
    [encode_lldp(DEV, PORT, 20, "lift-motor"), dcp_identify_request(CTRL, 3, "lift-motor")],
    ids=["lldp", "identify-request"],
)
def test_derive_system_traffic_only_while_inactive(data):
    """Discovery traffic wakes the system once: in PoweredOn it derives no system event."""
    parsed = dissect(raw(data))
    ctx = FakeContext()
    asleep = derive_events(parsed, ctx)
    assert [e.event_name for e in asleep.events if e.scope == "system"] == [PN_TRAFFIC_DETECTED]
    ctx.states["system", None] = "PoweredOn"
    awake = derive_events(parsed, ctx)
    assert [e for e in awake.events if e.scope == "system"] == []


def test_derive_lldp_gated_after_startup():
    ctx = FakeContext()
    ctx.states["system", None] = "DataExchange"
    parsed = dissect(raw(encode_lldp(DEV, PORT, 20, "lift-motor")))
    derived = derive_events(parsed, ctx)
    assert [(e.event_name, e.scope) for e in derived.events] == [(DETECT_NEIGHBOURS, "device")]


def _connect_request(subs, input_len: int | None = None) -> CmFrame:
    """The dissected Connect request from CTRL to DEV for synth submodules `subs`."""
    blocks = ar_block_request(AR, CTRL, "plc-1")
    if subs:
        if input_len is None:
            input_len = cr_data_length("input", subs)
        blocks += iocr_block_request(1, 1, input_len, 0x8001)
        blocks += iocr_block_request(2, 2, cr_data_length("output", subs), 0x8002)
        blocks += expected_submodules_block(subs)
    frame = encode_cm(CTRL, DEV, "192.168.0.1", "192.168.0.11", 0, 0, uuid.uuid4(), 1, blocks)
    return dissect(raw(frame))


def _register_connect(ctx: FakeContext, subs) -> list[CyclicBinding]:
    """Derive a Connect request for `subs` and register it in `ctx`."""
    registration = derive_events(_connect_request(subs), ctx).registration
    _register(ctx, registration)
    return list(registration.frame_id_bindings)


def _pnio(frame_id: int, data: bytes, index: int = 7) -> PnioCyclicFrame:
    """A dissected cyclic frame from the device whose C-SDU is exactly `data`."""
    return PnioCyclicFrame(CTRL_MAC, DEV_MAC, index, frame_id, data)


def test_derive_pnio_good_output():
    ctx = FakeContext()
    key = connection_key(CTRL_MAC, DEV_MAC)
    subs = (SubmoduleSpec(1, 1, "input", 2), SubmoduleSpec(2, 1, "output", 3))
    inputs, outputs = _register_connect(ctx, subs)
    assert (outputs.frame_id, outputs.iops_offsets, outputs.c_sdu_length) == (0x8002, (3,), 4)
    assert (inputs.iops_offsets, inputs.data_event) == ((2,), INPUT_PROCESS_DATA_SENT)
    frame = encode_pnio(CTRL, DEV, 0x8002, cyclic_c_sdu(0, 0, "output", subs), 0)
    derived = derive_events(dissect(raw(frame, 9)), ctx)
    assert [(e.event_name, e.scope, e.key) for e in derived.events] == [
        (CYCLIC_DATA_GOOD, "device", DEV_MAC),
        (OUTPUT_PROCESS_DATA_SENT, "connection", key),
    ]
    # Both carry the CR's one shared cause; each frame's record reads its own index
    # (see test_each_good_cyclic_frame_fires_with_its_own_cause).
    shared = SharedCause("pnio", "pnio cyclic 0x8002 output iops good")
    assert [e.cause for e in derived.events] == [shared, shared]
    assert derived.events[0].cause is derived.events[1].cause


def _connect_with(layout, direction: str = "input", skew: int = 0) -> CmFrame:
    """A Connect request from CTRL to DEV with submodules of `layout`, each entry a data description,
    and one CR of `direction` at 0x8001 whose declared length is off by `skew`."""
    own = sum(d + p for sub_dir, d, p, _ in layout if sub_dir == direction)
    opposite = sum(c for sub_dir, _, _, c in layout if sub_dir != direction)
    iocr = IocrBlock(direction, 0x8001, own + opposite + skew)
    return CmFrame(DEV_MAC, CTRL_MAC, 0, "request", "Connect", AR.bytes, (iocr,), tuple(layout))


@pytest.mark.parametrize(
    "layout, data, fires, skew",
    [
        pytest.param([("input", 2, 2, 0)], b"\x01\x02\x80\x81", True, 0, id="multi-byte-iops"),
        pytest.param([("input", 2, 2, 0)], b"\x01\x02\x80\x7f", False, 0, id="multi-byte-iops-bad"),
        pytest.param([("input", 0, 1, 0)], b"\x80", True, 0, id="zero-length-submodule"),
        pytest.param([("input", 0, 1, 0)], b"\x00", False, 0, id="zero-length-submodule-bad"),
        pytest.param([("input", 2, 1, 0)], b"\x80\x80", False, 0, id="c-sdu-one-byte-short"),
        pytest.param([], b"\x80\x80", False, 0, id="cr-without-submodules"),
        pytest.param([("output", 2, 1, 1)], b"\x80\x80", False, 0, id="cr-without-own-submodule"),
        pytest.param([("input", 1, 1, 0)], b"\x80\x80", True, 0, id="consistent-connect"),
        pytest.param([("input", 1, 1, 0)], b"\x80\x80", False, 1, id="inconsistent-connect"),
        pytest.param(
            [("input", 1, 1, 0)] * 3,
            b"\x01\x80\x02\x00\x03\x80",
            False,
            0,
            id="one-bad-iops-among-several",
        ),
        pytest.param(
            [("input", 1, 1, 0)] * 3,
            b"\x01\x80\x02\xc0\x03\x80",
            True,
            0,
            id="every-iops-good",
        ),
    ],
)
def test_cyclic_binding_fires_iff_iops_good(layout, data, fires, skew):
    (binding,), _ = cyclic_bindings(_connect_with(layout, skew=skew), "k", DEV_MAC)
    ctx = FakeContext()
    _register(ctx, ConnectionRegistration("k", DEV_MAC, AR.bytes, (binding,)))
    derived = derive_events(_pnio(0x8001, data), ctx)
    expected = [(CYCLIC_DATA_GOOD, "device"), (INPUT_PROCESS_DATA_SENT, "connection")]
    assert [(e.event_name, e.scope) for e in derived.events] == (expected if fires else [])
    assert derived.diagnostics == ()


def _iops_good(data: bytes, layout, direction: str) -> bool:
    """The cyclic good-data rule, stated over the layout: the CR has a submodule
    of its direction, and the IOPS bytes that follow each such submodule's data
    bytes are inside the data and GOOD."""
    own = [(d, p) for sub_dir, d, p, _ in layout if sub_dir == direction]
    if not own:
        return False
    position = 0
    for data_length, iops_length in own:
        status_at = position + data_length
        position = status_at + iops_length
        if position > len(data) or any(not b & 0x80 for b in data[status_at:position]):
            return False
    return True


# (direction, data_length, iops_length, iocs_length) of one submodule
_SUBMODULE = st.tuples(
    st.sampled_from(["input", "output"]), st.integers(0, 3), st.integers(0, 3), st.integers(0, 2)
)


@given(
    layout=st.lists(_SUBMODULE, max_size=3),
    direction=st.sampled_from(["input", "output"]),
    skew=st.sampled_from([0, 0, 0, 1]),
    length=st.integers(0, 20),
    raw_bytes=st.binary(min_size=20, max_size=20),
    bad=st.sets(st.integers(0, 19), max_size=2),
)
def test_binding_matches_iops_rule(layout, direction, skew, length, raw_bytes, bad):
    connect = _connect_with(layout, direction, skew)
    ctx = FakeContext()
    derived = derive_events(connect, ctx)
    assert [d.kind for d in derived.diagnostics] == (["inconsistent_connect"] if skew else [])
    _register(ctx, derived.registration)

    # Every byte has the GOOD bit except those at the `bad` positions.
    c_sdu = bytes(b & 0x7F if i in bad else b | 0x80 for i, b in enumerate(raw_bytes[:length]))
    fired = derive_events(_pnio(0x8001, c_sdu), ctx).events
    assert bool(fired) == (not skew and _iops_good(c_sdu, layout, direction))


# --- Cyclic layout ------------------------------------------------------------------


def _iops_oracle(submodules, direction: str) -> list[int]:
    """Independent oracle: each submodule of `direction` puts its data bytes, then
    its one IOPS byte, in declaration order."""
    offsets = []
    position = 0
    for sub in submodules:
        if sub.direction == direction:
            position += sub.length
            offsets.append(position)
            position += 1
    return offsets


def test_cyclic_bindings_single_input_submodule():
    bindings, problem = cyclic_bindings(
        _connect_request((SubmoduleSpec(1, 1, "input", 2),)), "k", DEV_MAC
    )
    assert problem is None
    assert [(b.frame_id, b.data_event, b.iops_offsets, b.c_sdu_length) for b in bindings] == [
        (0x8001, INPUT_PROCESS_DATA_SENT, (2,), 3),
        (0x8002, OUTPUT_PROCESS_DATA_SENT, None, 0),  # the output CR carries only IOCS
    ]
    assert {(b.key, b.responder_mac) for b in bindings} == {("k", DEV_MAC)}
    assert bindings[0].summary == "pnio cyclic 0x8001 input iops good"


def test_cyclic_bindings_record_only_ar():
    assert cyclic_bindings(_connect_request(()), "k", DEV_MAC) == ((), None)


def test_cyclic_bindings_two_outputs_offsets():
    subs = (SubmoduleSpec(1, 1, "output", 1), SubmoduleSpec(2, 1, "output", 4))
    _, outputs = cyclic_bindings(_connect_request(subs), "k", DEV_MAC)[0]
    assert outputs.iops_offsets == (1, 6)
    assert list(outputs.iops_offsets) == _iops_oracle(subs, "output")


@given(
    lengths=st.lists(st.integers(0, 6), min_size=1, max_size=5),
    directions=st.lists(st.sampled_from(["input", "output"]), min_size=1, max_size=5),
)
def test_layout_matches_oracle_and_conserves(lengths, directions):
    n = min(len(lengths), len(directions))
    subs = tuple(
        SubmoduleSpec(i + 1, 1, directions[i], lengths[i]) for i in range(n)
    )
    body = _connect_request(subs)
    bindings, problem = cyclic_bindings(body, "k", DEV_MAC)
    assert problem is None
    for binding, direction in zip(bindings, ("input", "output")):
        oracle = _iops_oracle(subs, direction)
        assert list(binding.iops_offsets or ()) == oracle
        assert binding.c_sdu_length == (oracle[-1] + 1 if oracle else 0)
    # conservation: declared CR length equals laid-out lengths + status bytes
    for iocr in body.iocr_blocks:
        own = sum(s.length + 1 for s in subs if s.direction == iocr.cr_type)
        opposite = sum(1 for s in subs if s.direction != iocr.cr_type)
        assert iocr.data_length == own + opposite


def test_inconsistent_connect_rejected():
    body = _connect_request((SubmoduleSpec(1, 1, "input", 2),), input_len=9)
    bindings, problem = cyclic_bindings(body, "k", DEV_MAC)
    assert problem == "input CR declares 9 bytes, layout needs 3"
    assert [b.iops_offsets for b in bindings] == [None, None]


def test_derive_pnio_orphan_frame_id():
    ctx = FakeContext()
    subs = (SubmoduleSpec(1, 1, "input", 1),)
    frame = encode_pnio(DEV, CTRL, 0x8001, cyclic_c_sdu(0, 0, "input", subs), 0)
    derived = derive_events(dissect(raw(frame)), ctx)
    assert derived.events == []
    assert [d.kind for d in derived.diagnostics] == ["orphan_frame"]


def test_derive_identify_known_name_immediate():
    ctx = FakeContext()
    ctx.names["lift-motor"] = DEV_MAC
    parsed = dissect(raw(dcp_identify_request(CTRL, 3, "lift-motor")))
    derived = derive_events(parsed, ctx)
    assert [(e.event_name, e.scope) for e in derived.events] == [
        (NAME_RESOLUTION_REQUESTED, "device"),
        (PN_TRAFFIC_DETECTED, "system"),
    ]
    assert derived.new_deferral is None


def test_derive_identify_unknown_name_defers_then_replays():
    ctx = FakeContext()
    parsed = dissect(raw(dcp_identify_request(CTRL, 3, "lift-motor"), index=4))
    derived = derive_events(parsed, ctx)
    assert [e.event_name for e in derived.events] == [PN_TRAFFIC_DETECTED]
    assert derived.new_deferral is not None
    assert derived.new_deferral.name == "lift-motor"

    ctx.deferred.append(derived.new_deferral)
    response = dissect(raw(dcp_identify_response(DEV, CTRL, 3, "lift-motor"), index=5))
    replayed = derive_events(response, ctx)
    assert [(e.event_name, e.key) for e in replayed.events] == [
        (NAME_RESOLUTION_REQUESTED, DEV_MAC),
        (NAME_RESOLVED, DEV_MAC),
    ]
    assert replayed.consumed_deferrals == [derived.new_deferral]


# DCP frames that neither identify nor set, each with the service it dissects as: a Hello
# request and an unsupported Identify's response that name the station, and a Get request.
_OTHER_DCP = {
    "hello-request": (
        encode_dcp(
            DEV, str_to_mac("01:0e:cf:00:00:01"), DCP_FRAME_ID_MIN, DCP_SERVICE_HELLO, DCP_TYPE_REQUEST, 1,
            _dcp_block(2, 2, 0, b"lift-motor"),
        ),
        ("Hello", "Request"),
    ),
    "get-request": (
        encode_dcp(CTRL, DEV, DCP_FRAME_ID_GETSET, DCP_SERVICE_GET, DCP_TYPE_REQUEST, 2, b""),
        ("Get", "Request"),
    ),
    "identify-unsupported": (
        encode_dcp(
            DEV, CTRL, DCP_FRAME_ID_IDENTIFY_RES, DCP_SERVICE_IDENTIFY, DCP_TYPE_RESPONSE_UNSUPPORTED, 3,
            _dcp_block(2, 2, 0, b"lift-motor"),
        ),
        ("Identify", "ResponseUnsupported"),
    ),
}


@pytest.mark.parametrize("data, service", list(_OTHER_DCP.values()), ids=list(_OTHER_DCP))
def test_derive_other_dcp_services_derive_nothing(data, service):
    """No event, deferral or diagnostic, and no wake-up, though the system is asleep and the name is known."""
    ctx = FakeContext()
    ctx.names["lift-motor"] = DEV_MAC
    ctx.deferred.append(DeferredEvent("lift-motor", CAUSE))
    parsed = dissect(raw(data))
    assert (parsed.service_id, parsed.service_type) == service
    assert derive_events(parsed, ctx) == DerivedEvents()


def test_derive_write_disambiguation_by_connection_state():
    key = connection_key(CTRL_MAC, DEV_MAC)
    block = record_block(BLOCK_WRITE_REQ, AR, 1, 1, 1, 0x8000, b"\x00")
    frame = encode_cm(CTRL, DEV, "192.168.0.1", "192.168.0.11", 0, 3, uuid.uuid4(), 2, block)

    ctx = FakeContext()
    _register(ctx, ConnectionRegistration(key, DEV_MAC, AR.bytes, ()))
    pre = derive_events(dissect(raw(frame)), ctx)
    assert [e.event_name for e in pre.events] == [PARAMETRIZATION_WRITE, PARAMETRIZATION_WRITE]

    ctx.states["connection", key] = "ConnectionEstablished"
    post = derive_events(dissect(raw(frame)), ctx)
    assert [e.event_name for e in post.events] == [ACYCLIC_WRITE, ACYCLIC_WRITE]


def test_derive_write_response_silent_before_establishment():
    key = connection_key(CTRL_MAC, DEV_MAC)
    block = record_block(BLOCK_WRITE_RES, AR, 1, 1, 1, 0x8000, b"")
    frame = encode_cm(DEV, CTRL, "192.168.0.11", "192.168.0.1", 2, 3, uuid.uuid4(), 2, block)

    ctx = FakeContext()
    _register(ctx, ConnectionRegistration(key, DEV_MAC, AR.bytes, ()))
    assert derive_events(dissect(raw(frame)), ctx).events == []

    ctx.states["connection", key] = "InputDataExchange"
    assert [e.event_name for e in derive_events(dissect(raw(frame)), ctx).events] == [
        ACYCLIC_DONE,
        ACYCLIC_DONE,
    ]


def test_derive_orphan_write_without_connect():
    ctx = FakeContext()
    block = record_block(BLOCK_WRITE_REQ, AR, 1, 1, 1, 0x8000, b"\x00")
    frame = encode_cm(CTRL, DEV, "192.168.0.1", "192.168.0.11", 0, 3, uuid.uuid4(), 2, block)
    derived = derive_events(dissect(raw(frame)), ctx)
    assert derived.events == []
    assert [d.kind for d in derived.diagnostics] == ["orphan_frame"]


def test_derive_orphan_cm_frame_without_ar_reference():
    # A Read response whose arguments hold no block names no AR.
    frame = encode_cm(DEV, CTRL, "192.168.0.11", "192.168.0.1", 2, RPC_OPNUM_READ, uuid.uuid4(), 2, b"")
    derived = derive_events(dissect(raw(frame)), FakeContext())
    assert derived.events == []
    assert [(d.kind, d.detail) for d in derived.diagnostics] == [
        ("orphan_frame", "pn-cm read response without AR reference")
    ]


def test_connection_key_format():
    assert connection_key(CTRL_MAC, DEV_MAC) == "020000000100-020000000200"
