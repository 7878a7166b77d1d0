"""Operation model tables and event derivation against the normative lists."""

from __future__ import annotations

import uuid

from poet.capture import RawFrame
from poet.dissect import dissect, str_to_mac
from poet.fsm import FrameRef, FsmInstance, reachable_states, validate_definition
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
    IP_SET_ON_ESTABLISHED,
    NAME_RESOLUTION_REQUESTED,
    NAME_RESOLVED,
    NAME_SET_REQUESTED,
    OUTPUT_PROCESS_DATA_SENT,
    PARAMETRIZATION_WRITE,
    PN_TRAFFIC_DETECTED,
    DeferredEvent,
    TrackContext,
    connection_fsm_table,
    connection_key,
    derive_events,
    device_fsm_table,
    system_fsm_table,
)
from poet.synth import (
    SubmoduleSpec,
    cyclic_c_sdu,
    dcp_identify_request,
    dcp_identify_response,
    dcp_set_name_request,
    encode_cm,
    encode_lldp,
    encode_pnio,
    record_block,
)
from poet.dissect import BLOCK_WRITE_REQ, BLOCK_WRITE_RES, RPC_OPNUM_READ

CTRL_MAC = "02:00:00:00:01:00"
DEV_MAC = "02:00:00:00:02:00"
CTRL = str_to_mac(CTRL_MAC)
DEV = str_to_mac(DEV_MAC)
PORT = str_to_mac("02:70:01:01:02:00")
AR = uuid.uuid5(uuid.NAMESPACE_OID, "models-ar")
CAUSE = FrameRef(0, "test", "unit")


def raw(data: bytes, index: int = 0) -> RawFrame:
    return RawFrame(0, 0, data, index)


class FakeConnection:
    def __init__(self, key, responder, established):
        self.key = key
        self.initiator_mac = CTRL
        self.responder_mac = responder
        self.is_established = established


class FakeContext(TrackContext):
    def __init__(self):
        self.names: dict[str, str] = {}
        self.ars: dict[uuid.UUID, FakeConnection] = {}
        self.frame_ids: dict[int, tuple] = {}
        self.deferred: list[DeferredEvent] = []
        self._system_state = "Inactive"

    def lookup_name(self, name):
        return self.names.get(name)

    def connection_for_ar(self, ar_uuid):
        return self.ars.get(ar_uuid)

    def connection_for_frame_id(self, frame_id):
        return self.frame_ids.get(frame_id)

    def deferred_for_name(self, name):
        return [d for d in self.deferred if d.name == name]

    @property
    def system_state(self):
        return self._system_state


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
    assert table.reject_only_events == {NAME_SET_REQUESTED, IP_SET_ON_ESTABLISHED}


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
    # the always-rejected pair never gains an edge
    assert NAME_SET_REQUESTED not in fanout
    assert IP_SET_ON_ESTABLISHED not in fanout


def test_all_states_reachable_from_neighbourhood_detection():
    table = device_fsm_table()
    reached = reachable_states(table, "NeighbourhoodDetection")
    assert reached >= table.states - {"Active"}


def test_rejected_events_have_no_edges_anywhere():
    table = device_fsm_table()
    for event in (NAME_SET_REQUESTED, IP_SET_ON_ESTABLISHED):
        assert not any(e.event == event for e in table.edges)
        assert not any(w.event == event for w in table.wildcard_edges)
        assert event in table.alphabet


def test_connection_table_shape_and_handshake():
    table = connection_fsm_table()
    assert len(table.states) == 7
    assert table.initial_state == "ConnectionCreation"
    inst = FsmInstance(table, "c")
    for event in (PARAMETRIZATION_WRITE, PARAMETRIZATION_WRITE, END_OF_PARAMETRIZATION, APPLICATION_READY):
        assert inst.fire(event, CAUSE, (0, 0)).verdict == "accepted"
    assert inst.current_state == "ConnectionEstablished"


def test_connection_rejects_data_before_configuration():
    inst = FsmInstance(connection_fsm_table(), "c")
    record = inst.fire(INPUT_PROCESS_DATA_SENT, CAUSE, (0, 0))
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
        record = inst.fire(event, CAUSE, (0, 0))
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
    assert device_events <= device_fsm_table().alphabet
    assert connection_events <= connection_fsm_table().alphabet
    assert system_events <= system_fsm_table().alphabet


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


def test_derive_lldp_gated_after_startup():
    ctx = FakeContext()
    ctx._system_state = "DataExchange"
    parsed = dissect(raw(encode_lldp(DEV, PORT, 20, "lift-motor")))
    derived = derive_events(parsed, ctx)
    assert [(e.event_name, e.scope) for e in derived.events] == [(DETECT_NEIGHBOURS, "device")]


def test_derive_pnio_good_output():
    ctx = FakeContext()
    key = connection_key(CTRL_MAC, DEV_MAC)
    subs = (SubmoduleSpec(1, 1, "input", 2), SubmoduleSpec(2, 1, "output", 3))
    from poet.dissect import IoDataSpec

    specs = (IoDataSpec("output", 2, 1, 0, 3),)
    ctx.frame_ids[0x8002] = (FakeConnection(key, DEV_MAC, True), "output", specs)
    frame = encode_pnio(CTRL, DEV, 0x8002, cyclic_c_sdu(0, 0, "output", subs), 0)
    derived = derive_events(dissect(raw(frame)), ctx)
    assert [(e.event_name, e.scope) for e in derived.events] == [
        (CYCLIC_DATA_GOOD, "device"),
        (OUTPUT_PROCESS_DATA_SENT, "connection"),
    ]
    assert derived.events[0].key == DEV_MAC


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


def test_derive_write_disambiguation_by_connection_state():
    key = connection_key(CTRL_MAC, DEV_MAC)
    block = record_block(BLOCK_WRITE_REQ, AR, 1, 1, 1, 0x8000, b"\x00")
    frame = encode_cm(CTRL, DEV, "192.168.0.1", "192.168.0.11", 0, 3, uuid.uuid4(), 2, block)

    ctx = FakeContext()
    ctx.ars[AR] = FakeConnection(key, DEV_MAC, established=False)
    pre = derive_events(dissect(raw(frame)), ctx)
    assert [e.event_name for e in pre.events] == [PARAMETRIZATION_WRITE, PARAMETRIZATION_WRITE]

    ctx.ars[AR] = FakeConnection(key, DEV_MAC, established=True)
    post = derive_events(dissect(raw(frame)), ctx)
    assert [e.event_name for e in post.events] == [ACYCLIC_WRITE, ACYCLIC_WRITE]


def test_derive_write_response_silent_before_establishment():
    key = connection_key(CTRL_MAC, DEV_MAC)
    block = record_block(BLOCK_WRITE_RES, AR, 1, 1, 1, 0x8000, b"")
    frame = encode_cm(DEV, CTRL, "192.168.0.11", "192.168.0.1", 2, 3, uuid.uuid4(), 2, block)

    ctx = FakeContext()
    ctx.ars[AR] = FakeConnection(key, DEV_MAC, established=False)
    assert derive_events(dissect(raw(frame)), ctx).events == []

    ctx.ars[AR] = FakeConnection(key, DEV_MAC, established=True)
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
