"""PROFINET operation models: Device, Connection and System state machines,
plus the mapping from dissected frames to the events that drive them.

The tables encode the valid operation order of a PROFINET system from power-on
through address resolution and connection establishment to cyclic data
exchange. Runtime renaming (name_set_requested) has no edge anywhere: a DCP
Set of the station name during operation is always rejected, which is exactly
the rename-attack signal.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cache

from .dissect import (
    IOXS_GOOD,
    ArpPacket,
    CmFrame,
    DcpFrame,
    LldpFrame,
    ParsedFrame,
    PnioCyclicFrame,
)
from .fsm import Edge, FrameRef, FsmDefinition, FsmInstance, SharedCause
from .record import FrozenRecord, Record

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

# Connection states counting as "established or beyond" for the system-level
# all_connections_established evaluation: ConnectionEstablished and every Data Exchange state.
CONNECTION_ESTABLISHED_STATES = frozenset(
    {"ConnectionEstablished", *(state for state, op in CONNECTION_STATE_OPERATIONS if op == OP_DATA_EXCHANGE)}
)


@cache
def device_fsm_table() -> FsmDefinition:
    """The PROFINET device operation machine (15 states), shared by every device."""
    states = frozenset(name for name, _ in DEVICE_STATE_OPERATIONS)
    edges = [
        Edge("Active", NAME_RESOLUTION_REQUESTED, "NameResolution"),
        # A controller retries an unanswered Identify request.
        Edge("NameResolution", NAME_RESOLUTION_REQUESTED, "NameResolution"),
        Edge("NameResolution", NAME_RESOLVED, "NameResolved"),
        Edge("NameResolved", IP_ASSIGNMENT_REQUESTED, "IpAddressAssignment"),
        # Observed on real systems: assignment acknowledgement, then the
        # device itself probes for duplicates via gratuitous ARP.
        Edge("IpAddressAssignment", IP_ASSIGNED, "IpAddressAssigned", empirical=True),
        Edge("IpAddressAssigned", DUPLICATION_CHECK, "IpDuplicationCheck", empirical=True),
        # RFC 5227 sends two gratuitous ARP announcements.
        Edge("IpDuplicationCheck", DUPLICATION_CHECK, "IpDuplicationCheck"),
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
        # Cyclic data keeps flowing while an acyclic Read or Write is in flight.
        Edge("AcyclicParametrization", CYCLIC_DATA_GOOD, "AcyclicParametrization"),
        Edge("AcyclicReadingData", CYCLIC_DATA_GOOD, "AcyclicReadingData"),
    ]
    # Every state is reachable from NeighbourhoodDetection: fan out one edge per
    # event, to the target of that event's first edge, in first-edge order.
    targets: dict[str, str] = {}
    for edge in edges:
        targets.setdefault(edge.event, edge.to_state)
    edges += [Edge("NeighbourhoodDetection", event, target) for event, target in targets.items()]
    # Every state accepts LLDP; listed after the fan-out, so NeighbourhoodDetection gets it once.
    edges += [Edge(state, DETECT_NEIGHBOURS, "NeighbourhoodDetection") for state, _ in DEVICE_STATE_OPERATIONS]
    return FsmDefinition(
        name="device",
        states=states,
        initial_state="Active",
        edges=tuple(edges),
        reject_only_events=frozenset({NAME_SET_REQUESTED}),
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
        # Cyclic data keeps flowing while an acyclic Read or Write is in flight.
        Edge("AcyclicParametrization", INPUT_PROCESS_DATA_SENT, "AcyclicParametrization"),
        Edge("AcyclicParametrization", OUTPUT_PROCESS_DATA_SENT, "AcyclicParametrization"),
        Edge("AcyclicReadingData", INPUT_PROCESS_DATA_SENT, "AcyclicReadingData"),
        Edge("AcyclicReadingData", OUTPUT_PROCESS_DATA_SENT, "AcyclicReadingData"),
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
        # PROFINET traffic wakes the system once: the event is derived only in Inactive.
        Edge("Inactive", PN_TRAFFIC_DETECTED, "PoweredOn"),
        Edge("PoweredOn", CONNECT_REQUESTED, "AssetConfigurationAndSystemStartup"),
        # Later Connect requests while startup is still in progress stay in place.
        Edge(
            "AssetConfigurationAndSystemStartup",
            CONNECT_REQUESTED,
            "AssetConfigurationAndSystemStartup",
        ),
        Edge("AssetConfigurationAndSystemStartup", ALL_CONNECTIONS_ESTABLISHED, "DataExchange"),
    )
    return FsmDefinition(
        name="system",
        states=states,
        initial_state="Inactive",
        edges=edges,
        state_operations=SYSTEM_STATE_OPERATIONS,
    )


# The system's state before any PROFINET traffic, the only one in which pn_traffic_detected is derived.
_SYSTEM_ASLEEP = system_fsm_table().initial_state


def connection_key(initiator_mac: str, responder_mac: str) -> str:
    """Connection identity: initiator and responder MACs as bare lowercase hex."""
    return f"{initiator_mac.replace(':', '')}-{responder_mac.replace(':', '')}"


class ProtocolEvent(Record):
    """One normalized semantic event derived from a dissected frame, addressed by (scope, key).

    A bound CR's two prebuilt events carry the CR's `SharedCause`, which each frame
    that fires them shows at its own capture index. Every other event carries its
    own `FrameRef`.
    """

    __slots__ = (
        "event_name",
        "scope",  # "device" | "connection" | "system"
        "key",  # the device MAC, the connection key, or None for the system
        "cause",
        "instance",  # a bound CR's, resolved at registration: fired with no lookup
    )
    _defaults = {"instance": None}


class TrackDiagnostic(Record):
    """Non-anomaly finding surfaced to the tracker (orphans, bad layouts), addressed as a ProtocolEvent."""

    __slots__ = ("kind", "detail", "cause", "scope", "key")  # scope: "device" | "system"
    _defaults = {"scope": "system", "key": None}


class DeferredEvent(Record):
    """Identify request held until its station name binds to a MAC.

    Compared by identity: each held request is its own entry, even if two
    carry the same name and cause.
    """

    __slots__ = ("name", "cause")
    __eq__ = object.__eq__
    __hash__ = object.__hash__


class CyclicBinding(Record):
    """The record of one CR, compiled once from its Connect request.

    A frame of this id is good data iff its C-SDU reaches `c_sdu_length` bytes
    and every byte at `iops_offsets` has the GOOD bit. `iops_offsets` is None
    when the CR has no submodule of its direction, or the Connect's layout is
    inconsistent: such a frame drives no event. While the AR table binds its frame
    id, it is the live CR: `good` holds the DerivedEvents that each good frame
    returns, built once by `ArTable.register`. Its two events hold the instances
    at ("device", responder_mac) and ("connection", key) and carry one shared
    cause, the protocol "pnio" and `summary`.
    """

    __slots__ = (
        "frame_id",
        "responder_mac",
        "key",  # the connection key
        "data_event",  # input_process_data_sent | output_process_data_sent
        "iops_offsets",
        "c_sdu_length",
        "summary",  # the cause summary of every good frame
        "good",  # set only while bound
    )
    _fields = __slots__[:-1]  # `good` is neither compared nor shown
    _defaults = {"good": None}


_OPPOSITE = {"input": "output", "output": "input"}


def cyclic_bindings(
    connect: CmFrame, key: str, responder_mac: str
) -> tuple[tuple[CyclicBinding, ...], str | None]:
    """Each IOCR of a Connect request compiled to its binding, plus the layout's problem.

    Within a CR, each submodule of the CR's direction contributes its data
    bytes and then its IOPS bytes, in declaration order; the IOCS bytes of the
    other direction's submodules trail at the end. When a CR declares a length
    that contradicts this layout, the problem names the first such CR and every
    binding of the Connect is inert.
    """
    iops: dict[str, list[int]] = {}  # IOPS offsets, for each direction that has a submodule
    own = {"input": 0, "output": 0}  # data and IOPS bytes laid out so far
    iocs = {"input": 0, "output": 0}  # IOCS bytes trailing each direction's CR
    for direction, data_length, iops_length, iocs_length in connect.expected_submodules:
        at = own[direction] + data_length
        iops.setdefault(direction, []).extend(range(at, at + iops_length))
        own[direction] = at + iops_length
        iocs[_OPPOSITE[direction]] += iocs_length
    problem = None
    for iocr in connect.iocr_blocks:
        needed = own[iocr.cr_type] + iocs[iocr.cr_type]
        if iocr.data_length != needed:
            problem = f"{iocr.cr_type} CR declares {iocr.data_length} bytes, layout needs {needed}"
            break
    bindings = tuple(
        CyclicBinding(
            frame_id=iocr.frame_id,
            responder_mac=responder_mac,
            key=key,
            data_event=(
                INPUT_PROCESS_DATA_SENT if iocr.cr_type == "input" else OUTPUT_PROCESS_DATA_SENT
            ),
            iops_offsets=(
                tuple(iops[iocr.cr_type]) if problem is None and iocr.cr_type in iops else None
            ),
            c_sdu_length=own[iocr.cr_type],
            summary=f"pnio cyclic 0x{iocr.frame_id:04x} {iocr.cr_type} iops good",
        )
        for iocr in connect.iocr_blocks
    )
    return bindings, problem


def _ar_text(ar_uuid: bytes) -> str:
    """An AR UUID's 16 wire bytes as canonical UUID text, for a diagnostic's detail."""
    import uuid  # only a diagnostic that names an AR needs it, so `import poet` does not load it

    return str(uuid.UUID(bytes=ar_uuid))


class ConnectionRegistration(FrozenRecord):
    """One AR, compiled from its Connect request: the record the AR table keeps per AR UUID."""

    __slots__ = ("key", "responder_mac", "ar_uuid", "frame_id_bindings")  # a binding per IOCR


class ArTable(Record):
    """A run's AR and frame-id registries: derive_events reads them, and only `register` writes them."""

    __slots__ = (
        "ars",  # each AR by its UUID's 16 bytes
        "frame_ids",  # each bound CR by its frame id
    )
    _fresh = {"ars": dict, "frame_ids": dict}

    def register(
        self, reg: ConnectionRegistration, device: FsmInstance, connection: FsmInstance, cause: FrameRef
    ) -> list[TrackDiagnostic]:
        """Keep a Connect's AR and bind its CRs to the instances that their good frames drive.

        Binding a CR builds, once, the `DerivedEvents` that each of its good frames
        returns: its two events, with the instances and the CR's one `SharedCause`.
        An AR UUID or a frame id held by another connection is refused, as one finding
        each; only the holder's own Connect (a reconnect) rebinds it, and the record it
        replaces keeps no prebuilt events.
        """
        held_ar = self.ars.get(reg.ar_uuid)
        if held_ar is not None and held_ar.key != reg.key:
            detail = f"AR {_ar_text(reg.ar_uuid)} is held by connection {held_ar.key}"
            return [TrackDiagnostic("ar_uuid_conflict", detail, cause, "device", reg.responder_mac)]
        self.ars[reg.ar_uuid] = reg
        findings = []
        for binding in reg.frame_id_bindings:
            held = self.frame_ids.get(binding.frame_id)
            if held is not None:
                if held.key != reg.key:
                    detail = f"frame id 0x{binding.frame_id:04x} is held by connection {held.key}"
                    findings.append(TrackDiagnostic("frame_id_conflict", detail, cause, "device", reg.responder_mac))
                    continue
                held.good = None  # replaced: a record holds instances only while bound
            shared = SharedCause("pnio", binding.summary)
            binding.good = DerivedEvents(
                [
                    ProtocolEvent(CYCLIC_DATA_GOOD, "device", binding.responder_mac, shared, device),
                    ProtocolEvent(binding.data_event, "connection", binding.key, shared, connection),
                ]
            )
            self.frame_ids[binding.frame_id] = binding
        return findings


class DerivedEvents(Record):
    """Result of derive_events: one frame's events, fired in order by one call, plus tracker bookkeeping.

    A bound CR's prebuilt result is returned as it is by every good frame of that CR,
    so it is never changed.
    """

    __slots__ = ("events", "diagnostics", "new_deferral", "consumed_deferrals", "registration")
    _defaults = {"diagnostics": (), "new_deferral": None, "consumed_deferrals": (), "registration": None}
    _fresh = {"events": list}


class TrackContext:
    """Read-only view derive_events needs; the tracker implements it.

    `state_of(scope, key)` is an instance's current state, its machine's initial
    state if it does not exist yet; the tracker's is its `FsmFleet.state_of` itself.
    """

    ar_table: ArTable  # read here, and written only by ArTable.register
    state_of: Callable[[str, str | None], str]
    lookup_name: Callable[[str], str | None]  # the MAC that holds a station name
    deferred_for_name: Callable[[str], list[DeferredEvent]]  # the Identify requests held for a name


def _system_traffic_event(ctx: TrackContext, cause: FrameRef, events: list[ProtocolEvent]) -> None:
    """Append the frame's pn_traffic_detected to its `events` while the system is still Inactive.

    So it fires once, on the wake-up edge, which the system table always accepts.
    """
    if ctx.state_of("system", None) == _SYSTEM_ASLEEP:
        events.append(ProtocolEvent(PN_TRAFFIC_DETECTED, "system", None, cause))


def derive_events(parsed: ParsedFrame, ctx: TrackContext) -> DerivedEvents:
    """Map one dissected frame to its per-instance FSM events.

    Pure given the context snapshot: all mutation is returned for the tracker
    to apply, the deferral queues' and, for `ArTable.register`, the AR table's.
    """
    derive = _DERIVERS.get(parsed.protocol)
    return derive(parsed, ctx) if derive else DerivedEvents()


def _cause(frame: ParsedFrame, summary: str) -> FrameRef:
    return FrameRef(frame.capture_index, frame.protocol, summary)


def _derive_lldp(frame: LldpFrame, ctx: TrackContext) -> DerivedEvents:
    subject = frame.subject_mac
    cause = _cause(frame, f"lldp advertisement from {frame.station_name or subject}")
    out = DerivedEvents()
    out.events.append(ProtocolEvent(DETECT_NEIGHBOURS, "device", subject, cause))
    _system_traffic_event(ctx, cause, out.events)
    return out


def _derive_arp(frame: ArpPacket, ctx: TrackContext) -> DerivedEvents:
    out = DerivedEvents()
    if frame.is_gratuitous:
        cause = _cause(frame, f"gratuitous arp for {frame.sender_ip}")
        out.events.append(ProtocolEvent(DUPLICATION_CHECK, "device", frame.sender_mac, cause))
    return out


def _derive_dcp(frame: DcpFrame, ctx: TrackContext) -> DerivedEvents:
    out = DerivedEvents()
    src = frame.src_mac
    dst = frame.dst_mac

    if frame.service_id == "Identify" and frame.service_type == "Request":
        name = frame.name_of_station
        cause = _cause(frame, f"dcp identify request for {name!r}")
        if name:
            subject = ctx.lookup_name(name)
            if subject is not None:
                out.events.append(ProtocolEvent(NAME_RESOLUTION_REQUESTED, "device", subject, cause))
            else:
                out.new_deferral = DeferredEvent(name, cause)
        _system_traffic_event(ctx, cause, out.events)
        return out

    if frame.service_id == "Identify" and frame.service_type == "ResponseSuccess":
        name = frame.name_of_station
        cause = _cause(frame, f"dcp identify response from {name!r}")
        if name:
            # The response binds name -> MAC: release the requests held for it first.
            out.consumed_deferrals = ctx.deferred_for_name(name)
            out.events.extend(
                ProtocolEvent(NAME_RESOLUTION_REQUESTED, "device", src, held.cause)
                for held in out.consumed_deferrals
            )
        out.events.append(ProtocolEvent(NAME_RESOLVED, "device", src, cause))
        return out

    if frame.service_id == "Set" and frame.service_type == "Request":
        for kind, value in frame.facts:
            if kind == "ip":
                cause = _cause(frame, f"dcp set ip-parameter {value[0]}")
                out.events.append(ProtocolEvent(IP_ASSIGNMENT_REQUESTED, "device", dst, cause))
            elif kind == "name":
                cause = _cause(frame, f"dcp set name-of-station {value!r}")
                out.events.append(ProtocolEvent(NAME_SET_REQUESTED, "device", dst, cause))
        return out

    if frame.service_id == "Set" and frame.service_type == "ResponseSuccess":
        cause = _cause(frame, "dcp set response (ip parameter)")
        for kind, value in frame.facts:
            if kind == "ip_acknowledged":
                out.events.append(ProtocolEvent(IP_ASSIGNED, "device", src, cause))
            elif kind == "ip_refused":
                detail = f"ip parameter set refused with block error {value}"
                out.diagnostics += (TrackDiagnostic("dcp_set_refused", detail, cause, "device", src),)
        return out

    return out


# (operation, direction) of a PN-CM frame on a registered AR -> (event before the
# connection is established, event after); each fires on the device and the connection.
_CM_EVENTS: dict[tuple[str, str], tuple[str | None, str | None]] = {
    ("Write", "request"): (PARAMETRIZATION_WRITE, ACYCLIC_WRITE),
    ("Write", "response"): (None, ACYCLIC_DONE),
    ("Read", "request"): (ACYCLIC_READ, ACYCLIC_READ),
    ("Read", "response"): (None, ACYCLIC_DONE),
    ("DControl", "request"): (END_OF_PARAMETRIZATION, END_OF_PARAMETRIZATION),
    ("CControl", "request"): (APPLICATION_READY, APPLICATION_READY),
}


def _derive_cm(frame: CmFrame, ctx: TrackContext) -> DerivedEvents:
    op, direction = frame.operation, frame.direction
    if op == "Connect" and direction == "request":
        dst = frame.dst_mac
        key = connection_key(frame.src_mac, dst)
        cause = _cause(frame, f"pn-cm connect request to {dst}")
        bindings, problem = cyclic_bindings(frame, key, dst)
        out = DerivedEvents()
        if problem is not None:
            out.diagnostics = (TrackDiagnostic("inconsistent_connect", problem, cause, "device", dst),)
        assert frame.ar_uuid is not None
        out.registration = ConnectionRegistration(key, dst, frame.ar_uuid, bindings)
        out.events.append(ProtocolEvent(CONNECT_REQUESTED, "device", dst, cause))
        out.events.append(ProtocolEvent(CONNECT_REQUESTED, "system", None, cause))
        return out
    if op in ("Connect", "Release"):
        return DerivedEvents()  # Connect responses and Releases drive no tracked event

    cause = _cause(frame, f"pn-cm {op.lower()} {direction}")
    conn = ctx.ar_table.ars.get(frame.ar_uuid)
    if conn is None:
        missing = "without AR reference" if frame.ar_uuid is None else f"for unknown AR {_ar_text(frame.ar_uuid)}"
        orphan = TrackDiagnostic("orphan_frame", f"{cause.summary} {missing}", cause)
        return DerivedEvents(diagnostics=(orphan,))
    device = conn.responder_mac
    if op == "CControl" and direction == "response":
        # The controller's confirmation completes the device's establishment only.
        return DerivedEvents([ProtocolEvent(CONNECTION_CONFIRMED, "device", device, cause)])
    before, after = _CM_EVENTS.get((op, direction), (None, None))
    event = after if ctx.state_of("connection", conn.key) in CONNECTION_ESTABLISHED_STATES else before
    if event is None:
        return DerivedEvents()
    return DerivedEvents(
        [ProtocolEvent(event, "device", device, cause), ProtocolEvent(event, "connection", conn.key, cause)]
    )


def _derive_pnio(frame: PnioCyclicFrame, ctx: TrackContext) -> DerivedEvents:
    binding = ctx.ar_table.frame_ids.get(frame.frame_id)
    if binding is None:
        orphan = TrackDiagnostic(
            "orphan_frame",
            f"pnio cyclic frame id 0x{frame.frame_id:04x} has no registered connection",
            _cause(frame, f"pnio cyclic 0x{frame.frame_id:04x}"),
        )
        return DerivedEvents(diagnostics=(orphan,))
    data = frame.data
    offsets = binding.iops_offsets
    if offsets is None or len(data) < binding.c_sdu_length:
        return DerivedEvents()
    for at in offsets:
        if not data[at] & IOXS_GOOD:
            return DerivedEvents()
    return binding.good  # never None: register sets it on every CR it binds


_DERIVERS = {
    "lldp": _derive_lldp,
    "arp": _derive_arp,
    "pn-dcp": _derive_dcp,
    "pn-cm": _derive_cm,
    "pnio": _derive_pnio,
}
