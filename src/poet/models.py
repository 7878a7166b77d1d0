"""PROFINET operation models: Device, Connection and System state machines,
plus the mapping from dissected frames to the events that drive them.

The tables encode the valid operation order of a PROFINET system from power-on
through address resolution and connection establishment to cyclic data
exchange. Runtime renaming (name_set_requested) has no edge anywhere: a DCP
Set of the station name during operation is always rejected, which is exactly
the rename-attack signal.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass, field
from functools import cache

from .dissect import (
    DCP_OPTION_IP,
    DCP_SUBOPTION_IP_PARAMETER,
    IOXS_GOOD,
    ArpPacket,
    CmFrame,
    DcpFrame,
    InconsistentConnect,
    IocrBlock,
    IoDataSpec,
    LldpFrame,
    ParsedFrame,
    PnioCyclicFrame,
    extract_io_specs,
    lldp_subject,
)
from .fsm import Edge, FrameRef, FsmDefinition, WildcardEdge

# Event names (device scope unless noted)
DETECT_NEIGHBOURS = "detect_neighbours"
NAME_RESOLUTION_REQUESTED = "name_resolution_requested"
NAME_RESOLVED = "name_resolved"
IP_ASSIGNMENT_REQUESTED = "ip_assignment_requested"
IP_ASSIGNED = "ip_assigned"
DUPLICATION_CHECK = "duplication_check"
CONNECT_REQUESTED = "connect_requested"
PARAMETRIZATION_WRITE = "parametrization_write"
END_OF_PARAMETRIZATION = "end_of_parametrization"
APPLICATION_READY = "application_ready"
CONNECTION_CONFIRMED = "connection_confirmed"
CYCLIC_DATA_GOOD = "cyclic_data_good"
ACYCLIC_WRITE = "acyclic_write"
ACYCLIC_READ = "acyclic_read"
ACYCLIC_DONE = "acyclic_done"
NAME_SET_REQUESTED = "name_set_requested"
IP_SET_ON_ESTABLISHED = "ip_set_on_established"
# connection scope
INPUT_PROCESS_DATA_SENT = "input_process_data_sent"
OUTPUT_PROCESS_DATA_SENT = "output_process_data_sent"
# system scope
PN_TRAFFIC_DETECTED = "pn_traffic_detected"
ALL_CONNECTIONS_ESTABLISHED = "all_connections_established"

# Operation labels (state groupings)
OP_POWER_ON = "Power-On"
OP_OFFLINE = "Offline"
OP_NEIGHBOURHOOD = "Asset Discovery & Neighbourhood Detection"
OP_ADDRESS_RESOLUTION = "Address Resolution"
OP_DISCOVERY_OR_ADDRESS = "Asset Discovery & Address Resolution"
OP_CONNECTION_ESTABLISHMENT = "Connection Establishment"
OP_DATA_EXCHANGE = "Data Exchange"

DEVICE_STATE_OPERATIONS: tuple[tuple[str, str], ...] = (
    ("Active", OP_POWER_ON),
    ("NeighbourhoodDetection", OP_NEIGHBOURHOOD),
    ("NameResolution", OP_ADDRESS_RESOLUTION),
    ("NameResolved", OP_ADDRESS_RESOLUTION),
    ("IpAddressAssignment", OP_ADDRESS_RESOLUTION),
    ("IpAddressAssigned", OP_ADDRESS_RESOLUTION),
    ("IpDuplicationCheck", OP_ADDRESS_RESOLUTION),
    ("NewConnectionInitiated", OP_CONNECTION_ESTABLISHMENT),
    ("Parametrization", OP_CONNECTION_ESTABLISHMENT),
    ("EndOfParametrization", OP_CONNECTION_ESTABLISHMENT),
    ("ApplicationReady", OP_CONNECTION_ESTABLISHMENT),
    ("ConnectionEstablished", OP_CONNECTION_ESTABLISHMENT),
    ("DataExchange", OP_DATA_EXCHANGE),
    ("AcyclicParametrization", OP_DATA_EXCHANGE),
    ("AcyclicReadingData", OP_DATA_EXCHANGE),
)

CONNECTION_STATE_OPERATIONS: tuple[tuple[str, str], ...] = (
    ("ConnectionCreation", OP_CONNECTION_ESTABLISHMENT),
    ("ConnectionConfiguration", OP_CONNECTION_ESTABLISHMENT),
    ("ConnectionEstablished", OP_CONNECTION_ESTABLISHMENT),
    ("InputDataExchange", OP_DATA_EXCHANGE),
    ("OutputDataExchange", OP_DATA_EXCHANGE),
    ("AcyclicParametrization", OP_DATA_EXCHANGE),
    ("AcyclicReadingData", OP_DATA_EXCHANGE),
)

SYSTEM_STATE_OPERATIONS: tuple[tuple[str, str], ...] = (
    ("Inactive", OP_OFFLINE),
    ("PoweredOn", OP_DISCOVERY_OR_ADDRESS),
    ("AssetConfigurationAndSystemStartup", OP_CONNECTION_ESTABLISHMENT),
    ("DataExchange", OP_DATA_EXCHANGE),
)

# System states in which PROFINET traffic is still a wake-up signal: the
# tracker and synth's manifest replay emit pn_traffic_detected only in these.
WAKE_UP_STATES = frozenset({"Inactive", "PoweredOn"})

# Connection states counting as "established or beyond" for the system-level
# all_connections_established evaluation.
CONNECTION_ESTABLISHED_STATES = frozenset(
    {
        "ConnectionEstablished",
        "InputDataExchange",
        "OutputDataExchange",
        "AcyclicParametrization",
        "AcyclicReadingData",
    }
)

# Canonical target state of each device event that has edges; also the target
# of its fan-out edge from NeighbourhoodDetection.
_DEVICE_EVENT_TARGETS: tuple[tuple[str, str], ...] = (
    (NAME_RESOLUTION_REQUESTED, "NameResolution"),
    (NAME_RESOLVED, "NameResolved"),
    (IP_ASSIGNMENT_REQUESTED, "IpAddressAssignment"),
    (IP_ASSIGNED, "IpAddressAssigned"),
    (DUPLICATION_CHECK, "IpDuplicationCheck"),
    (CONNECT_REQUESTED, "NewConnectionInitiated"),
    (PARAMETRIZATION_WRITE, "Parametrization"),
    (END_OF_PARAMETRIZATION, "EndOfParametrization"),
    (APPLICATION_READY, "ApplicationReady"),
    (CONNECTION_CONFIRMED, "ConnectionEstablished"),
    (CYCLIC_DATA_GOOD, "DataExchange"),
    (ACYCLIC_WRITE, "AcyclicParametrization"),
    (ACYCLIC_READ, "AcyclicReadingData"),
    (ACYCLIC_DONE, "DataExchange"),
)


@cache
def device_fsm_table() -> FsmDefinition:
    """The PROFINET device operation machine (15 states), shared by every device."""
    states = frozenset(name for name, _ in DEVICE_STATE_OPERATIONS)
    edges = [
        Edge("Active", NAME_RESOLUTION_REQUESTED, "NameResolution"),
        Edge("NameResolution", NAME_RESOLVED, "NameResolved"),
        Edge("NameResolved", IP_ASSIGNMENT_REQUESTED, "IpAddressAssignment"),
        # Observed on real systems: assignment acknowledgement, then the
        # device itself probes for duplicates via gratuitous ARP.
        Edge("IpAddressAssignment", IP_ASSIGNED, "IpAddressAssigned", empirical=True),
        Edge("IpAddressAssigned", DUPLICATION_CHECK, "IpDuplicationCheck", empirical=True),
        Edge("IpDuplicationCheck", CONNECT_REQUESTED, "NewConnectionInitiated"),
        Edge("NewConnectionInitiated", PARAMETRIZATION_WRITE, "Parametrization"),
        Edge("Parametrization", PARAMETRIZATION_WRITE, "Parametrization"),
        Edge("Parametrization", END_OF_PARAMETRIZATION, "EndOfParametrization"),
        Edge("EndOfParametrization", APPLICATION_READY, "ApplicationReady"),
        Edge("ApplicationReady", CONNECTION_CONFIRMED, "ConnectionEstablished"),
        Edge("ConnectionEstablished", CYCLIC_DATA_GOOD, "DataExchange"),
        Edge("DataExchange", CYCLIC_DATA_GOOD, "DataExchange"),
        Edge("DataExchange", ACYCLIC_WRITE, "AcyclicParametrization"),
        Edge("AcyclicParametrization", ACYCLIC_DONE, "DataExchange"),
        Edge("DataExchange", ACYCLIC_READ, "AcyclicReadingData"),
        Edge("AcyclicReadingData", ACYCLIC_DONE, "DataExchange"),
    ]
    # Every state is reachable from NeighbourhoodDetection: fan out one edge
    # per event towards its canonical target.
    for event, target in _DEVICE_EVENT_TARGETS:
        edges.append(Edge("NeighbourhoodDetection", event, target))
    return FsmDefinition(
        name="device",
        states=states,
        initial_state="Active",
        edges=tuple(edges),
        wildcard_edges=(WildcardEdge(DETECT_NEIGHBOURS, "NeighbourhoodDetection"),),
        reject_only_events=frozenset({NAME_SET_REQUESTED, IP_SET_ON_ESTABLISHED}),
        state_operations=DEVICE_STATE_OPERATIONS,
    )


@cache
def connection_fsm_table() -> FsmDefinition:
    """The PROFINET connection machine (7 states), created on a Connect request."""
    states = frozenset(name for name, _ in CONNECTION_STATE_OPERATIONS)
    edges = (
        Edge("ConnectionCreation", PARAMETRIZATION_WRITE, "ConnectionConfiguration"),
        Edge("ConnectionConfiguration", PARAMETRIZATION_WRITE, "ConnectionConfiguration"),
        Edge("ConnectionConfiguration", END_OF_PARAMETRIZATION, "ConnectionConfiguration"),
        Edge("ConnectionConfiguration", APPLICATION_READY, "ConnectionEstablished"),
        Edge("ConnectionEstablished", OUTPUT_PROCESS_DATA_SENT, "OutputDataExchange"),
        Edge("ConnectionEstablished", INPUT_PROCESS_DATA_SENT, "InputDataExchange"),
        Edge("InputDataExchange", INPUT_PROCESS_DATA_SENT, "InputDataExchange"),
        Edge("InputDataExchange", OUTPUT_PROCESS_DATA_SENT, "OutputDataExchange"),
        Edge("OutputDataExchange", OUTPUT_PROCESS_DATA_SENT, "OutputDataExchange"),
        Edge("OutputDataExchange", INPUT_PROCESS_DATA_SENT, "InputDataExchange"),
        Edge("InputDataExchange", ACYCLIC_WRITE, "AcyclicParametrization"),
        Edge("OutputDataExchange", ACYCLIC_WRITE, "AcyclicParametrization"),
        Edge("AcyclicParametrization", ACYCLIC_DONE, "OutputDataExchange"),
        Edge("InputDataExchange", ACYCLIC_READ, "AcyclicReadingData"),
        Edge("OutputDataExchange", ACYCLIC_READ, "AcyclicReadingData"),
        Edge("AcyclicReadingData", ACYCLIC_DONE, "InputDataExchange"),
    )
    return FsmDefinition(
        name="connection",
        states=states,
        initial_state="ConnectionCreation",
        edges=edges,
        state_operations=CONNECTION_STATE_OPERATIONS,
    )


@cache
def system_fsm_table() -> FsmDefinition:
    """The whole-system machine (4 states)."""
    states = frozenset(name for name, _ in SYSTEM_STATE_OPERATIONS)
    edges = (
        Edge("Inactive", PN_TRAFFIC_DETECTED, "PoweredOn"),
        Edge("PoweredOn", PN_TRAFFIC_DETECTED, "PoweredOn"),
        Edge("PoweredOn", CONNECT_REQUESTED, "AssetConfigurationAndSystemStartup"),
        # Later Connect requests while startup is still in progress stay in place.
        Edge(
            "AssetConfigurationAndSystemStartup",
            CONNECT_REQUESTED,
            "AssetConfigurationAndSystemStartup",
        ),
        Edge("AssetConfigurationAndSystemStartup", ALL_CONNECTIONS_ESTABLISHED, "DataExchange"),
        Edge("DataExchange", CYCLIC_DATA_GOOD, "DataExchange"),
        Edge("DataExchange", ACYCLIC_WRITE, "DataExchange"),
        Edge("DataExchange", ACYCLIC_READ, "DataExchange"),
        Edge("DataExchange", ACYCLIC_DONE, "DataExchange"),
    )
    return FsmDefinition(
        name="system",
        states=states,
        initial_state="Inactive",
        edges=edges,
        state_operations=SYSTEM_STATE_OPERATIONS,
    )


def connection_key(initiator_mac: str, responder_mac: str) -> str:
    """Connection identity: initiator and responder MACs as bare lowercase hex."""
    return f"{initiator_mac.replace(':', '')}-{responder_mac.replace(':', '')}"


@dataclass(slots=True)
class ProtocolEvent:
    """One normalized semantic event derived from a dissected frame."""

    event_name: str
    scope: str  # "device" | "connection" | "system"
    key: str | None  # the device MAC, the connection key, or None for the system
    cause: FrameRef


@dataclass(frozen=True)
class TrackDiagnostic:
    """Non-anomaly finding surfaced to the tracker (orphans, bad layouts)."""

    kind: str
    detail: str
    cause: FrameRef
    subject_mac: str | None = None


@dataclass(frozen=True, eq=False)
class DeferredEvent:
    """Identify request held until its station name binds to a MAC.

    Compared by identity: each held request is its own entry, even if two
    carry the same name and cause.
    """

    name: str
    cause: FrameRef


@dataclass(frozen=True)
class CyclicBinding:
    """One cyclic frame id, compiled once from the Connect request of its CR.

    A frame of this id is good data iff its C-SDU reaches `c_sdu_length` bytes
    and every byte at `iops_offsets` has the GOOD bit. `iops_offsets` is None
    when the CR has no submodule of its direction, or the Connect's layout is
    inconsistent: such a frame drives no event.
    """

    frame_id: int
    responder_mac: str
    key: str  # the connection key
    data_event: str  # input_process_data_sent | output_process_data_sent
    iops_offsets: tuple[int, ...] | None
    c_sdu_length: int
    summary: str  # the cause summary of every good frame


def compile_binding(
    iocr: IocrBlock, specs: list[IoDataSpec] | None, key: str, responder_mac: str
) -> CyclicBinding:
    """The binding of one IOCR, given its Connect's specs (None if inconsistent)."""
    direction = iocr.cr_type
    own = [s for s in specs or () if s.direction == direction]
    offsets: tuple[int, ...] | None = None
    if own:
        offsets = tuple(
            at
            for s in own
            for at in range(s.offset + s.length, s.offset + s.length + s.iops_length)
        )
    return CyclicBinding(
        frame_id=iocr.frame_id,
        responder_mac=responder_mac,
        key=key,
        data_event=INPUT_PROCESS_DATA_SENT if direction == "input" else OUTPUT_PROCESS_DATA_SENT,
        iops_offsets=offsets,
        c_sdu_length=max((s.offset + s.length + s.iops_length for s in own), default=0),
        summary=f"pnio cyclic 0x{iocr.frame_id:04x} {direction} iops good",
    )


@dataclass(frozen=True)
class ConnectionRegistration:
    """Registry payload extracted from one Connect request."""

    key: str
    responder_mac: str
    ar_uuid: uuid.UUID
    frame_id_bindings: tuple[CyclicBinding, ...]  # one per IOCR


@dataclass
class DerivedEvents:
    """Result of derive_events: events to fire plus tracker bookkeeping."""

    events: list[ProtocolEvent] = field(default_factory=list)
    diagnostics: list[TrackDiagnostic] = field(default_factory=list)
    new_deferral: DeferredEvent | None = None
    consumed_deferrals: list[DeferredEvent] = field(default_factory=list)
    registration: ConnectionRegistration | None = None


class TrackContext:
    """Read-only view derive_events needs; the tracker implements it."""

    def lookup_name(self, name: str) -> str | None:
        raise NotImplementedError

    def connection_for_ar(self, ar_uuid: uuid.UUID):
        raise NotImplementedError

    def binding_for_frame_id(self, frame_id: int) -> CyclicBinding | None:
        raise NotImplementedError

    def deferred_for_name(self, name: str) -> list[DeferredEvent]:
        raise NotImplementedError

    @property
    def system_state(self) -> str:
        raise NotImplementedError


def _system_traffic_event(ctx: TrackContext, cause: FrameRef) -> list[ProtocolEvent]:
    if ctx.system_state in WAKE_UP_STATES:
        return [ProtocolEvent(PN_TRAFFIC_DETECTED, "system", None, cause)]
    return []


def derive_events(parsed: ParsedFrame, ctx: TrackContext) -> DerivedEvents:
    """Map one dissected frame to its per-instance FSM events.

    Pure given the context snapshot: all mutation (deferral queues, the
    connection registry) is returned for the tracker to apply.
    """
    derive = _DERIVERS.get(parsed.protocol)
    return derive(parsed, parsed.body, ctx) if derive else DerivedEvents()


def _cause(parsed: ParsedFrame, summary: str) -> FrameRef:
    return FrameRef(parsed.raw_ref, parsed.protocol, summary)


def _derive_lldp(parsed: ParsedFrame, body: LldpFrame, ctx: TrackContext) -> DerivedEvents:
    subject = lldp_subject(parsed)
    name = body.station_name or subject
    cause = _cause(parsed, f"lldp advertisement from {name}")
    out = DerivedEvents()
    out.events.append(ProtocolEvent(DETECT_NEIGHBOURS, "device", subject, cause))
    out.events.extend(_system_traffic_event(ctx, cause))
    return out


def _derive_arp(parsed: ParsedFrame, body: ArpPacket, ctx: TrackContext) -> DerivedEvents:
    out = DerivedEvents()
    if body.is_gratuitous:
        cause = _cause(parsed, f"gratuitous arp for {body.sender_ip}")
        out.events.append(ProtocolEvent(DUPLICATION_CHECK, "device", body.sender_mac, cause))
    return out


def _derive_dcp(parsed: ParsedFrame, body: DcpFrame, ctx: TrackContext) -> DerivedEvents:
    out = DerivedEvents()
    src = parsed.envelope.src_mac
    dst = parsed.envelope.dst_mac

    if body.service_id == "Identify" and body.service_type == "Request":
        name = body.name_of_station
        cause = _cause(parsed, f"dcp identify request for {name!r}")
        if name:
            subject = ctx.lookup_name(name)
            if subject is not None:
                out.events.append(ProtocolEvent(NAME_RESOLUTION_REQUESTED, "device", subject, cause))
            else:
                out.new_deferral = DeferredEvent(name, cause)
        out.events.extend(_system_traffic_event(ctx, cause))
        return out

    if body.service_id == "Identify" and body.service_type == "ResponseSuccess":
        name = body.name_of_station
        cause = _cause(parsed, f"dcp identify response from {name!r}")
        if name:
            # The response binds name -> MAC: release the requests held for it first.
            out.consumed_deferrals = ctx.deferred_for_name(name)
            out.events.extend(
                ProtocolEvent(NAME_RESOLUTION_REQUESTED, "device", src, held.cause)
                for held in out.consumed_deferrals
            )
        out.events.append(ProtocolEvent(NAME_RESOLVED, "device", src, cause))
        return out

    if body.service_id == "Set" and body.service_type == "Request":
        for block in body.blocks:
            if block.is_ip_parameter and block.ip_parameter:
                ip, _, _ = block.ip_parameter
                cause = _cause(parsed, f"dcp set ip-parameter {ip}")
                out.events.append(ProtocolEvent(IP_ASSIGNMENT_REQUESTED, "device", dst, cause))
            elif block.is_name_of_station:
                new_name = block.name_of_station or ""
                cause = _cause(parsed, f"dcp set name-of-station {new_name!r}")
                out.events.append(ProtocolEvent(NAME_SET_REQUESTED, "device", dst, cause))
        return out

    if body.service_id == "Set" and body.service_type == "ResponseSuccess":
        for block in body.blocks:
            target = block.control_response_target
            if target == (DCP_OPTION_IP, DCP_SUBOPTION_IP_PARAMETER):
                cause = _cause(parsed, "dcp set response (ip parameter)")
                out.events.append(ProtocolEvent(IP_ASSIGNED, "device", src, cause))
        return out

    return out


def _derive_cm(parsed: ParsedFrame, body: CmFrame, ctx: TrackContext) -> DerivedEvents:
    out = DerivedEvents()
    src = parsed.envelope.src_mac
    dst = parsed.envelope.dst_mac

    if body.operation == "Connect" and body.direction == "request":
        key = connection_key(src, dst)
        cause = _cause(parsed, f"pn-cm connect request to {dst}")
        specs: list[IoDataSpec] | None = None
        try:
            specs = extract_io_specs(body)
        except InconsistentConnect as exc:
            out.diagnostics.append(
                TrackDiagnostic("inconsistent_connect", str(exc), cause, subject_mac=dst)
            )
        assert body.ar_uuid is not None
        out.registration = ConnectionRegistration(
            key=key,
            responder_mac=dst,
            ar_uuid=body.ar_uuid,
            frame_id_bindings=tuple(
                compile_binding(iocr, specs, key, dst) for iocr in body.iocr_blocks
            ),
        )
        out.events.append(ProtocolEvent(CONNECT_REQUESTED, "device", dst, cause))
        out.events.append(ProtocolEvent(CONNECT_REQUESTED, "system", None, cause))
        return out

    if body.operation == "Connect":
        return out  # connect responses carry no tracked event

    if body.operation == "Release":
        return out

    if body.ar_uuid is None:
        out.diagnostics.append(
            TrackDiagnostic(
                "orphan_frame",
                f"pn-cm {body.operation.lower()} {body.direction} without AR reference",
                _cause(parsed, f"pn-cm {body.operation.lower()} {body.direction}"),
            )
        )
        return out

    conn = ctx.connection_for_ar(body.ar_uuid)
    if conn is None:
        out.diagnostics.append(
            TrackDiagnostic(
                "orphan_frame",
                f"pn-cm {body.operation.lower()} {body.direction} for unknown AR {body.ar_uuid}",
                _cause(parsed, f"pn-cm {body.operation.lower()} {body.direction}"),
            )
        )
        return out

    device = conn.responder_mac
    key = conn.key
    established = conn.is_established
    op = body.operation
    cause = _cause(parsed, f"pn-cm {op.lower()} {body.direction}")

    def both(event_name: str) -> None:
        out.events.append(ProtocolEvent(event_name, "device", device, cause))
        out.events.append(ProtocolEvent(event_name, "connection", key, cause))

    if op == "Write" and body.direction == "request":
        both(ACYCLIC_WRITE if established else PARAMETRIZATION_WRITE)
    elif op == "Read" and body.direction == "request":
        both(ACYCLIC_READ)
    elif op in ("Write", "Read") and body.direction == "response":
        if established:
            both(ACYCLIC_DONE)
    elif op == "DControl" and body.direction == "request":
        both(END_OF_PARAMETRIZATION)
    elif op == "CControl" and body.direction == "request":
        both(APPLICATION_READY)
    elif op == "CControl" and body.direction == "response":
        out.events.append(ProtocolEvent(CONNECTION_CONFIRMED, "device", device, cause))
    return out


def _derive_pnio(parsed: ParsedFrame, body: PnioCyclicFrame, ctx: TrackContext) -> DerivedEvents:
    binding = ctx.binding_for_frame_id(body.frame_id)
    if binding is None:
        out = DerivedEvents()
        out.diagnostics.append(
            TrackDiagnostic(
                "orphan_frame",
                f"pnio cyclic frame id 0x{body.frame_id:04x} has no registered connection",
                _cause(parsed, f"pnio cyclic 0x{body.frame_id:04x}"),
            )
        )
        return out
    data = body.data
    offsets = binding.iops_offsets
    if offsets is None or len(data) < binding.c_sdu_length:
        return DerivedEvents()
    for at in offsets:
        if not data[at] & IOXS_GOOD:
            return DerivedEvents()
    cause = FrameRef(parsed.raw_ref, "pnio", binding.summary)
    return DerivedEvents(
        [
            ProtocolEvent(CYCLIC_DATA_GOOD, "device", binding.responder_mac, cause),
            ProtocolEvent(binding.data_event, "connection", binding.key, cause),
        ]
    )


_DERIVERS = {
    "lldp": _derive_lldp,
    "arp": _derive_arp,
    "pn-dcp": _derive_dcp,
    "pn-cm": _derive_cm,
    "pnio": _derive_pnio,
}
