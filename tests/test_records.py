"""What every runtime record does with its fields: construction, repr, equality and hashing.

The records of `capture`, `dissect`, `fsm`, `inventory`, `models` and `tracker` print as
`Name(field=value, ...)`, which the dissect golden digests hash. Records compare by value
within one class and are unhashable; the immutable ones (`CaptureError`, `SharedCause`,
`Edge`, `WildcardEdge`, `FsmDefinition`, `ConnectionRegistration`) also hash by value and
refuse assignment; `Step` and `DeferredEvent` compare and hash by identity.
"""

from __future__ import annotations

import importlib
import uuid

import pytest

from poet.capture import CaptureError, RawFrame
from poet.dissect import ArpPacket, CmFrame, DcpFrame, IocrBlock, LldpFrame, ParsedFrame, PnioCyclicFrame
from poet.fsm import Edge, FrameRef, FsmDefinition, SharedCause, Step, TransitionRecord, WildcardEdge
from poet.inventory import AssetRecord, InventoryChange, Provenance
from poet.models import (
    ArTable,
    ConnectionRegistration,
    CyclicBinding,
    DeferredEvent,
    DerivedEvents,
    ProtocolEvent,
    TrackDiagnostic,
)
from poet.tracker import DEFAULT_SYSTEM_NAME, AnomalyAlert, TrackerConfig, TrackerReport

# By name: `poet.dissect` is the package's `dissect` function, which shadows its module.
_MODULES = [
    importlib.import_module(f"poet.{name}") for name in ("capture", "dissect", "fsm", "inventory", "models", "tracker")
]

_AR = uuid.UUID("12345678-1234-5678-1234-567812345678")
_CAUSE = FrameRef(7, "pn-dcp", "dcp Identify Request")
_EDGE = Edge("A", "go", "B")

# Each record class with a value for every field, in declaration order.
RECORDS = [
    (RawFrame, {"ts_sec": 1, "ts_nsec": 2, "frame_bytes": b"\x01\x02", "capture_index": 3}),
    (CaptureError, {"byte_offset": 24, "capture_index": 3, "reason": "truncated record body"}),
    (ParsedFrame, {"dst_mac": "01:0e:cf:00:00:00", "src_mac": "02:00:00:00:01:00", "capture_index": 4}),
    (
        LldpFrame,
        {
            "dst_mac": "01:80:c2:00:00:0e",
            "src_mac": "02:00:00:00:02:00",
            "capture_index": 5,
            "subject_mac": "02:00:00:00:02:01",
            "port_mac": "02:00:00:00:02:02",
            "station_name": "lift-motor",
            "management_address": "192.168.0.11",
            "violations": ("no TTL",),
        },
    ),
    (
        ArpPacket,
        {
            "dst_mac": "ff:ff:ff:ff:ff:ff",
            "src_mac": "02:00:00:00:02:00",
            "capture_index": 6,
            "sender_mac": "02:00:00:00:02:00",
            "sender_ip": "192.168.0.11",
            "target_ip": "192.168.0.1",
        },
    ),
    (
        DcpFrame,
        {
            "dst_mac": "01:0e:cf:00:00:00",
            "src_mac": "02:00:00:00:01:00",
            "capture_index": 7,
            "service_id": "Identify",
            "service_type": "Request",
            "facts": (("name", "lift-motor"),),
            "name_of_station": "lift-motor",
            "violations": ("bad padding",),
        },
    ),
    (IocrBlock, {"cr_type": "input", "frame_id": 0x8001, "data_length": 40}),
    (
        CmFrame,
        {
            "dst_mac": "02:00:00:00:02:00",
            "src_mac": "02:00:00:00:01:00",
            "capture_index": 8,
            "direction": "request",
            "operation": "Connect",
            "ar_uuid": _AR,
            "iocr_blocks": (IocrBlock("input", 0x8001, 40),),
            "expected_submodules": (("input", 2, 1, 1),),
        },
    ),
    (
        PnioCyclicFrame,
        {
            "dst_mac": "02:00:00:00:01:00",
            "src_mac": "02:00:00:00:02:00",
            "capture_index": 9,
            "frame_id": 0x8001,
            "data": b"\x80\x80",
        },
    ),
    (FrameRef, {"capture_index": 7, "protocol": "pn-dcp", "summary": "dcp Identify Request"}),
    (SharedCause, {"protocol": "pnio", "summary": "pnio cyclic 0x8001 input iops good"}),
    (Edge, {"from_state": "A", "event": "go", "to_state": "B", "empirical": True}),
    (WildcardEdge, {"event": "reset", "to_state": "A"}),
    (
        FsmDefinition,
        {
            "name": "toy",
            "states": frozenset({"A"}),
            "initial_state": "A",
            "edges": (_EDGE,),
            "wildcard_edges": (WildcardEdge("reset", "A"),),
            "reject_only_events": frozenset({"forbidden"}),
            "state_operations": (("A", "Idle"),),
        },
    ),
    (
        TransitionRecord,
        {
            "timestamp": (100, 5),
            "event": "go",
            "from_state": "A",
            "to_state": "B",
            "verdict": "accepted",
            "cause": _CAUSE,
        },
    ),
    (Step, {"from_state": "A", "event": "go", "to_state": "B", "verdict": "accepted"}),
    (Provenance, {"protocol": "lldp", "capture_index": 5, "conflict": True}),
    (
        AssetRecord,
        {
            "interface_mac": "02:00:00:00:02:00",
            "name_of_station": "lift-motor",
            "port_macs": {"02:00:00:00:02:02"},
            "ip_address": "192.168.0.11",
            "subnet": "255.255.255.0",
            "gateway": "192.168.0.1",
            "vendor_id": 0x002A,
            "device_id": 0x0301,
            "role": "device",
            "first_seen": (100, 0),
            "last_seen": (101, 0),
            "provenance": {"name_of_station": Provenance("pn-dcp", 7)},
        },
    ),
    (
        InventoryChange,
        {
            "mac": "02:00:00:00:02:00",
            "fieldname": "name_of_station",
            "old": None,
            "new": "lift-motor",
            "conflict": False,
            "cause": _CAUSE,
        },
    ),
    (
        ProtocolEvent,
        {"event_name": "identify_requested", "scope": "device", "key": "02:00:00:00:02:00", "cause": _CAUSE, "instance": None},
    ),
    (
        TrackDiagnostic,
        {"kind": "orphan", "detail": "no Connect", "cause": _CAUSE, "scope": "device", "key": "02:00:00:00:02:00"},
    ),
    (DeferredEvent, {"name": "lift-motor", "cause": _CAUSE}),
    (
        CyclicBinding,
        {
            "frame_id": 0x8001,
            "responder_mac": "02:00:00:00:02:00",
            "key": "020000000100-020000000200",
            "data_event": "input_process_data_sent",
            "iops_offsets": (2,),
            "c_sdu_length": 3,
            "summary": "pnio cyclic 0x8001 input iops good",
            "good": None,
        },
    ),
    (
        ConnectionRegistration,
        {
            "key": "020000000100-020000000200",
            "responder_mac": "02:00:00:00:02:00",
            "ar_uuid": _AR,
            "frame_id_bindings": (),
        },
    ),
    (ArTable, {"ars": {}, "frame_ids": {}}),
    (
        DerivedEvents,
        {
            "events": [ProtocolEvent("pn_traffic_detected", "system", None, _CAUSE)],
            "diagnostics": (),
            "new_deferral": None,
            "consumed_deferrals": (),
            "registration": None,
        },
    ),
    (
        AnomalyAlert,
        {
            "timestamp": (100, 5),
            "instance_kind": "device",
            "instance_key": "02:00:00:00:02:00",
            "state_at_event": "DataExchange",
            "offending_event": "name_set_requested",
            "cause": _CAUSE,
            "explanation": "rename during operation",
            "severity": "anomaly",
        },
    ),
    (TrackerConfig, {"system_name": "plant", "alert_sink": None}),
    (TrackerReport, {"summary": {"frames": 1}, "alerts": [], "fleet": None, "assets": []}),
]

VALUE_HASHED = {CaptureError, SharedCause, Edge, WildcardEdge, FsmDefinition, ConnectionRegistration}
IDENTITY = {Step, DeferredEvent}
# Fields that neither `==` nor the repr reads.
HIDDEN = {CyclicBinding: {"good"}}

_params = pytest.mark.parametrize(("cls", "values"), RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])


def _shown(cls: type, values: dict) -> dict:
    return {name: value for name, value in values.items() if name not in HIDDEN.get(cls, ())}


def test_every_runtime_record_class_is_listed():
    # A record class is one with a repr of its own, other than an exception or a named tuple.
    found = {
        obj
        for module in _MODULES
        for obj in vars(module).values()
        if isinstance(obj, type)
        and obj.__module__ == module.__name__
        and obj.__repr__ is not object.__repr__
        and not issubclass(obj, (BaseException, tuple))
    }
    assert found == {cls for cls, _ in RECORDS}
    assert len(RECORDS) == 29


@_params
def test_fields_in_order_by_keyword_and_position(cls, values):
    record = cls(**values)
    for name, value in values.items():
        assert getattr(record, name) is value
    positional = cls(*values.values())
    assert [getattr(positional, name) for name in values] == list(values.values())


@_params
def test_repr_names_each_field_in_order(cls, values):
    shown = ", ".join(f"{name}={value!r}" for name, value in _shown(cls, values).items())
    assert repr(cls(**values)) == f"{cls.__qualname__}({shown})"


def test_repr_byte_for_byte_with_nested_records():
    assert repr(RawFrame(1, 2, b"\x00", 3)) == "RawFrame(ts_sec=1, ts_nsec=2, frame_bytes=b'\\x00', capture_index=3)"
    frame = CmFrame("aa", "bb", 8, "request", "Connect", None, (IocrBlock("input", 0x8001, 40),))
    assert repr(frame) == (
        "CmFrame(dst_mac='aa', src_mac='bb', capture_index=8, direction='request', operation='Connect', "
        "ar_uuid=None, iocr_blocks=(IocrBlock(cr_type='input', frame_id=32769, data_length=40),), "
        "expected_submodules=())"
    )


@_params
def test_equality(cls, values):
    record = cls(**values)
    assert record == record
    assert not record != record
    twin = cls(**values)
    if cls in IDENTITY:
        assert record != twin
        return
    assert record == twin
    assert not record != twin
    for name in _shown(cls, values):
        assert record != cls(**{**values, name: object()}), name
    assert record != values
    assert record != tuple(values.values())


def test_a_subclass_record_never_equals_its_base():
    base = ParsedFrame("aa", "bb", 1)
    lldp = LldpFrame("aa", "bb", 1, "cc", None)
    assert base != lldp
    assert lldp != base
    assert base == ParsedFrame("aa", "bb", 1)


def test_a_binding_prebuilt_events_are_not_compared_or_shown():
    fields = (0x8001, "mac", "key", "input_process_data_sent", (2,), 3, "summary")
    bound = CyclicBinding(*fields, good=DerivedEvents())
    assert bound == CyclicBinding(*fields)
    assert "good" not in repr(bound)
    assert bound.good == DerivedEvents()


@_params
def test_hashing(cls, values):
    record = cls(**values)
    if cls in IDENTITY:
        assert hash(record) == object.__hash__(record)
        assert len({record, cls(**values)}) == 2
    elif cls in VALUE_HASHED:
        assert hash(record) == hash(cls(**values)) == hash(tuple(values.values()))
        assert len({record, cls(**values)}) == 1
    else:
        with pytest.raises(TypeError):
            hash(record)


@_params
def test_only_the_value_hashed_records_refuse_assignment(cls, values):
    record = cls(**values)
    name = next(iter(values))
    if cls in VALUE_HASHED:
        with pytest.raises(AttributeError):
            setattr(record, name, values[name])
        with pytest.raises(AttributeError):
            delattr(record, name)
    else:
        setattr(record, name, "changed")
        assert getattr(record, name) == "changed"


def test_mutable_defaults_are_not_shared():
    first, second = AssetRecord("a"), AssetRecord("b")
    assert first.port_macs == second.port_macs == set()
    assert first.port_macs is not second.port_macs
    assert first.provenance == second.provenance == {}
    assert first.provenance is not second.provenance
    assert DerivedEvents().events is not DerivedEvents().events
    assert ArTable().ars is not ArTable().ars
    assert ArTable().frame_ids is not ArTable().frame_ids


def test_defaults():
    assert AssetRecord("a") == AssetRecord(
        "a", None, set(), None, None, None, None, None, "unknown", (0, 0), (0, 0), {}
    )
    assert LldpFrame("aa", "bb", 1, "cc", None) == LldpFrame("aa", "bb", 1, "cc", None, None, None, ())
    assert DcpFrame("aa", "bb", 1, "Hello", "Request", (), None).violations == ()
    assert CmFrame("aa", "bb", 1, "request", "Read", None) == CmFrame("aa", "bb", 1, "request", "Read", None, (), ())
    assert Edge("A", "go", "B") == Edge("A", "go", "B", False)
    assert FsmDefinition("m", frozenset(), "A", ()) == FsmDefinition("m", frozenset(), "A", (), (), frozenset(), ())
    assert ProtocolEvent("e", "system", None, _CAUSE).instance is None
    assert TrackDiagnostic("k", "d", _CAUSE) == TrackDiagnostic("k", "d", _CAUSE, "system", None)
    assert Provenance("lldp", 1) == Provenance("lldp", 1, False)
    assert DerivedEvents() == DerivedEvents([], (), None, (), None)
    assert TrackerConfig() == TrackerConfig(DEFAULT_SYSTEM_NAME, None)
