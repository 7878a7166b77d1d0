"""Byte-accurate scenario synthesis for desk-scale testing.

Builds capture files for a normal multi-device startup choreography
(neighbourhood detection, per-device address resolution, interleaved
connection establishment, cyclic data exchange), with optional attack
injections: runtime rename, rogue connect, malformed frames. Every frame
carries its intended semantic events; the ground-truth manifest is computed
by replaying those events through the same FSM tables the tracker uses, so
transition semantics agree by construction while byte-level correctness is
anchored independently by the dissector round-trip tests.
"""

from __future__ import annotations

import json
import math
import struct
import uuid
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

from .dissect import (
    BLOCK_AR_REQ,
    BLOCK_AR_RES,
    BLOCK_CCONTROL_REQ,
    BLOCK_CCONTROL_RES,
    BLOCK_DCONTROL_REQ,
    BLOCK_DCONTROL_RES,
    BLOCK_EXPECTED_SUBMODULES,
    BLOCK_IOCR_REQ,
    BLOCK_IOCR_RES,
    BLOCK_READ_REQ,
    BLOCK_READ_RES,
    BLOCK_WRITE_REQ,
    BLOCK_WRITE_RES,
    DCP_FRAME_ID_GETSET,
    DCP_FRAME_ID_IDENTIFY_REQ,
    DCP_FRAME_ID_IDENTIFY_RES,
    DCP_OPTION_DEVICE,
    DCP_OPTION_IP,
    DCP_SUBOPTION_IP_PARAMETER,
    DCP_SUBOPTION_NAME_OF_STATION,
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    ETHERTYPE_LLDP,
    ETHERTYPE_PROFINET,
    PNIO_CM_UDP_PORT,
    RPC_OPNUM_CONNECT,
    RPC_OPNUM_CONTROL,
    RPC_OPNUM_READ,
    RPC_OPNUM_WRITE,
    RPC_PTYPE_REQUEST,
    RPC_PTYPE_RESPONSE,
    UUID_IO_CONTROLLER,
    UUID_IO_DEVICE,
    name_of_station_violations,
)
from .fsm import FrameRef
from .models import (
    ACYCLIC_DONE,
    ACYCLIC_READ,
    ACYCLIC_WRITE,
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
    ProtocolEvent,
    connection_key,
)
from .tracker import DEFAULT_SYSTEM_NAME, FsmFleet


def mac_to_str(mac: bytes) -> str:
    return mac.hex(":")


def str_to_mac(text: str) -> bytes:
    parts = text.replace("-", ":").split(":")
    if len(parts) != 6:
        raise ValueError(f"bad MAC {text!r}")
    return bytes(int(p, 16) for p in parts)


def str_to_ip(text: str) -> bytes:
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"bad IPv4 {text!r}")
    return bytes(int(p) for p in parts)


LLDP_MULTICAST = str_to_mac("01:80:c2:00:00:0e")
DCP_MULTICAST = str_to_mac("01:0e:cf:00:00:00")
BROADCAST = b"\xff" * 6
ATTACKER_MAC = "02:66:6e:00:00:99"
MIN_FRAME = 60  # Ethernet minimum without FCS
PNIO_MIN_CSDU = 40
LLDP_MAX_TLV_VALUE = 0x1FF  # an LLDP TLV's length field is 9 bits
MAX_IPV4_DATAGRAM = 0xFFFF
MAX_CYCLIC_ROUNDS = 100_000  # nothing encodes the round count, so only this bounds a capture's length

GOOD = 0x80
DATA_STATUS_RUN = 0x35


class ScenarioError(ValueError):
    """Scenario specification is invalid: it breaks a rule, or a value does not fit its field."""


# --- Scenario specification ---------------------------------------------------


@dataclass(frozen=True)
class SubmoduleSpec:
    slot: int
    subslot: int
    direction: str  # "input" | "output"
    length: int


@dataclass(frozen=True)
class NodeSpec:
    mac: str
    name: str
    ip: str
    submodules: tuple[SubmoduleSpec, ...] = ()


@dataclass(frozen=True)
class Injection:
    after_index: int
    attack: str  # "rename" | "rogue_connect" | "malformed"
    target: str | None = None  # station name of the target device
    new_name: str | None = None
    protocol: str | None = None  # for malformed


@dataclass(frozen=True)
class ScenarioSpec:
    controller: NodeSpec
    devices: tuple[NodeSpec, ...]
    gap_seconds: float = 0.03
    injections: tuple[Injection, ...] = ()
    initial_lldp: bool = True
    lldp_refresh_every: int = 0  # cyclic rounds between refresh bursts, 0 = off
    cyclic_rounds: int = 8
    writes_per_device: int = 2
    acyclic_exchange: bool = False
    ports_per_device: int = 2
    seed: int = 1
    start_time: int = 1_700_000_000
    system_name: str = DEFAULT_SYSTEM_NAME

    def validate(self) -> None:
        nodes = [self.controller, *self.devices]
        for node in nodes:
            if not _parses(str_to_mac, node.mac):
                raise ScenarioError(f"bad MAC {node.mac!r} in scenario")
            if not _parses(str_to_ip, node.ip):
                raise ScenarioError(f"bad IP {node.ip!r} in scenario")
            if not isinstance(node.name, str):
                raise ScenarioError(f"bad station name {node.name!r} in scenario")
            violations = name_of_station_violations(node.name)
            if violations:
                raise ScenarioError(f"station name {node.name[:64]!r} breaks {', '.join(violations)}")
            for sub in node.submodules:
                numbers_ok = all(isinstance(v, int) for v in (sub.slot, sub.subslot, sub.length))
                if not numbers_ok or sub.direction not in ("input", "output"):
                    raise ScenarioError(f"bad submodule {sub} of {node.name!r}")
        for key in ("ports_per_device", "writes_per_device", "gap_seconds", "lldp_refresh_every"):
            value = getattr(self, key)
            if not 0 <= value < math.inf:
                raise ScenarioError(f"scenario spec {key} {value!r} is not a finite number >= 0")
        rounds = self.cyclic_rounds
        if not isinstance(rounds, int) or not 0 <= rounds <= MAX_CYCLIC_ROUNDS:
            raise ScenarioError(
                f"scenario spec cyclic_rounds {rounds!r} is not an integer in 0..{MAX_CYCLIC_ROUNDS}"
            )
        if self.acyclic_exchange and self.devices and not self.writes_per_device:
            # Without a parametrization write no connection is established to read from.
            raise ScenarioError("acyclic_exchange needs writes_per_device >= 1")
        macs = [str_to_mac(n.mac) for n in nodes]
        names = [n.name for n in nodes]
        ips = [n.ip for n in nodes]
        if len(set(macs)) != len(macs):
            raise ScenarioError("duplicate MAC in scenario")
        if len(set(names)) != len(names):
            raise ScenarioError("duplicate station name in scenario")
        if len(set(ips)) != len(ips):
            raise ScenarioError("duplicate IP in scenario")
        for injection in self.injections:
            texts = (injection.target, injection.new_name, injection.protocol)
            if not isinstance(injection.after_index, int) or any(
                t is not None and not isinstance(t, str) for t in texts
            ):
                raise ScenarioError(f"bad injection {injection}")
            if injection.after_index < 0:
                raise ScenarioError(f"injection after_index {injection.after_index} is negative")
            if injection.attack not in ("rename", "rogue_connect", "malformed"):
                raise ScenarioError(f"unknown attack {injection.attack!r}")
            if injection.attack in ("rename", "rogue_connect"):
                if injection.target not in [d.name for d in self.devices]:
                    raise ScenarioError(f"injection target {injection.target!r} not a device")

    @classmethod
    def from_json(cls, doc: dict) -> "ScenarioSpec":
        try:
            return cls._from_json(_object(doc, "scenario spec"))
        except KeyError as exc:
            raise ScenarioError(f"scenario spec is missing key {exc.args[0]!r}") from None

    @classmethod
    def _from_json(cls, doc: dict) -> "ScenarioSpec":
        def submodule(entry) -> SubmoduleSpec:
            if isinstance(entry, list) and len(entry) == 4:
                return SubmoduleSpec(*entry)
            if isinstance(entry, list):
                raise ScenarioError(f"submodule {entry!r} is not [slot, subslot, direction, length]")
            entry = _object(entry, "submodule")
            return SubmoduleSpec(entry["slot"], entry["subslot"], entry["direction"], entry["length"])

        def node(entry, what: str) -> NodeSpec:
            entry = _object(entry, what)
            subs = tuple(submodule(s) for s in _array(entry, "submodules"))
            return NodeSpec(entry["mac"], entry["name"], entry["ip"], subs)

        def injection(entry) -> Injection:
            entry = _object(entry, "injection")
            return Injection(
                after_index=entry["after_index"],
                attack=entry["attack"],
                target=entry.get("target"),
                new_name=entry.get("new_name"),
                protocol=entry.get("protocol"),
            )

        kwargs = {}
        for key, kind in _SPEC_SCALARS.items():
            if key in doc:
                # A JSON boolean is a Python int, but only a boolean knob takes one.
                if not isinstance(doc[key], kind) or (isinstance(doc[key], bool) and kind is not bool):
                    raise ScenarioError(f"scenario spec {key} {doc[key]!r} has the wrong type")
                kwargs[key] = doc[key]
        return cls(
            controller=node(doc["controller"], "controller"),
            devices=tuple(node(d, "device") for d in _array(doc, "devices")),
            injections=tuple(injection(i) for i in _array(doc, "injections")),
            **kwargs,
        )


# Optional top-level spec keys and the JSON types they accept.
_SPEC_SCALARS: dict[str, type | tuple[type, ...]] = {
    "gap_seconds": (int, float),
    "initial_lldp": bool,
    "lldp_refresh_every": int,
    "cyclic_rounds": int,
    "writes_per_device": int,
    "acyclic_exchange": bool,
    "ports_per_device": int,
    "seed": int,
    "start_time": int,
    "system_name": str,
}


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{what} must be a JSON object, not {value!r}")
    return value


def _array(doc: dict, key: str) -> list:
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise ScenarioError(f"{key} must be a JSON array, not {value!r}")
    return value


def _parses(parse, text) -> bool:
    """Whether text is a string that parse (str_to_mac or str_to_ip) accepts."""
    if not isinstance(text, str):
        return False
    try:
        parse(text)
    except ValueError:
        return False
    return True


# --- Frame plans ---------------------------------------------------------------


@dataclass(frozen=True)
class PlannedEvent:
    event_name: str
    scope: str
    key: str | None = None  # as in ProtocolEvent: device MAC, connection key, None for the system


@dataclass
class FramePlan:
    data: bytes
    label: str
    events: list[PlannedEvent] = field(default_factory=list)
    # (scope, key) of each instance the frame creates without an event, as the tracker does
    new_instances: list[tuple[str, str]] = field(default_factory=list)
    index: int = -1
    ts: tuple[int, int] = (0, 0)


@dataclass
class SynthResult:
    spec: ScenarioSpec
    frames: list[FramePlan]
    manifest: dict
    pcap_bytes: bytes

    def write(self, prefix: str) -> tuple[str, str]:
        pcap_path = prefix + ".pcap"
        manifest_path = prefix + ".manifest.json"
        with open(pcap_path, "wb") as f:
            f.write(self.pcap_bytes)
        with open(manifest_path, "w", encoding="utf-8") as f:
            json.dump(self.manifest, f, sort_keys=True, indent=2)
            f.write("\n")
        return pcap_path, manifest_path


# --- Low-level encoders --------------------------------------------------------


def ethernet(dst: bytes, src: bytes, ethertype: int, payload: bytes, pad_to: int = MIN_FRAME) -> bytes:
    frame = dst + src + struct.pack(">H", ethertype) + payload
    if len(frame) < pad_to:
        frame += b"\x00" * (pad_to - len(frame))
    return frame


def _lldp_tlv(tlv_type: int, value: bytes) -> bytes:
    if len(value) > LLDP_MAX_TLV_VALUE:
        raise ValueError(f"lldp tlv {tlv_type} value of {len(value)} bytes exceeds {LLDP_MAX_TLV_VALUE}")
    return struct.pack(">H", (tlv_type << 9) | len(value)) + value


def encode_lldp(
    chassis_mac: bytes,
    port_mac: bytes,
    ttl: int,
    station_name: str | None,
    port_descriptions: tuple[str, ...] = (),
    management_ip: str | None = None,
    chassis_name: str | None = None,
    port_name: str | None = None,
) -> bytes:
    """An LLDP frame sent from `port_mac` for the station whose interface MAC is `chassis_mac`.

    By default the chassis id is that MAC (MAC subtype). With `chassis_name` it is
    that locally assigned name, and the PNO Chassis-MAC TLV carries the MAC instead.
    By default the port id is `port_mac` (MAC subtype). With `port_name` it is the
    locally assigned `port-001.<port_name>`.
    """
    if chassis_name is None:
        chassis_id = bytes([4]) + chassis_mac  # chassis id, MAC subtype
    else:
        chassis_id = bytes([7]) + chassis_name.encode()  # chassis id, locally assigned
    if port_name is None:
        port_id = bytes([3]) + port_mac  # port id, MAC subtype
    else:
        port_id = bytes([7]) + f"port-001.{port_name}".encode()  # port id, locally assigned
    tlvs = [
        _lldp_tlv(1, chassis_id),
        _lldp_tlv(2, port_id),
        _lldp_tlv(3, struct.pack(">H", ttl)),
    ]
    for description in port_descriptions:
        tlvs.append(_lldp_tlv(4, description.encode()))
    if station_name is not None:
        tlvs.append(_lldp_tlv(5, station_name.encode()))
    if management_ip is not None:
        value = bytes([5, 1]) + str_to_ip(management_ip) + bytes([2]) + struct.pack(">I", 1) + b"\x00"
        tlvs.append(_lldp_tlv(8, value))
    tlvs.append(_lldp_tlv(127, b"\x00\x0e\xcf\x02\x00\x00"))  # PNO port status
    if chassis_name is not None:
        tlvs.append(_lldp_tlv(127, b"\x00\x0e\xcf\x05" + chassis_mac))  # PNO Chassis-MAC
    tlvs.append(_lldp_tlv(0, b""))
    return ethernet(LLDP_MULTICAST, port_mac, ETHERTYPE_LLDP, b"".join(tlvs))


def encode_arp(
    src_mac: bytes,
    dst_mac: bytes,
    operation: int,
    sender_mac: bytes,
    sender_ip: str,
    target_mac: bytes,
    target_ip: str,
) -> bytes:
    payload = struct.pack(">HHBBH", 1, ETHERTYPE_IPV4, 6, 4, operation)
    payload += sender_mac + str_to_ip(sender_ip) + target_mac + str_to_ip(target_ip)
    return ethernet(dst_mac, src_mac, ETHERTYPE_ARP, payload)


def _dcp_block(option: int, suboption: int, qualifier: int | None, payload: bytes) -> bytes:
    body = (struct.pack(">H", qualifier) if qualifier is not None else b"") + payload
    if len(body) > 0xFFFF:
        raise ValueError(f"dcp block body of {len(body)} bytes exceeds 65535")
    block = bytes([option, suboption]) + struct.pack(">H", len(body)) + body
    if len(body) % 2:
        block += b"\x00"
    return block


def encode_dcp(
    src: bytes,
    dst: bytes,
    frame_id: int,
    service_id: int,
    service_type: int,
    xid: int,
    blocks: bytes,
) -> bytes:
    if len(blocks) > 0xFFFF:
        raise ValueError(f"dcp data of {len(blocks)} bytes exceeds 65535")
    payload = struct.pack(">HBBIHH", frame_id, service_id, service_type, xid, 0, len(blocks))
    return ethernet(dst, src, ETHERTYPE_PROFINET, payload + blocks)


def dcp_identify_request(src: bytes, xid: int, name: str) -> bytes:
    blocks = _dcp_block(2, 2, None, name.encode())
    return encode_dcp(src, DCP_MULTICAST, DCP_FRAME_ID_IDENTIFY_REQ, 5, 0, xid, blocks)


def dcp_identify_response(
    src: bytes,
    dst: bytes,
    xid: int,
    name: str,
    ip: str | None = None,
    vendor_id: int = 0x002A,
    device_id: int = 0x0301,
) -> bytes:
    blocks = _dcp_block(2, 2, 0, name.encode())
    blocks += _dcp_block(2, 3, 0, struct.pack(">HH", vendor_id, device_id))
    if ip is not None:
        blocks += _dcp_block(1, 2, 1, str_to_ip(ip) + str_to_ip("255.255.255.0") + str_to_ip("0.0.0.0"))
    return encode_dcp(src, dst, DCP_FRAME_ID_IDENTIFY_RES, 5, 1, xid, blocks)


def dcp_set_ip_request(src: bytes, dst: bytes, xid: int, ip: str, subnet: str, gateway: str) -> bytes:
    blocks = _dcp_block(1, 2, 1, str_to_ip(ip) + str_to_ip(subnet) + str_to_ip(gateway))
    return encode_dcp(src, dst, DCP_FRAME_ID_GETSET, 4, 0, xid, blocks)


def dcp_set_name_request(src: bytes, dst: bytes, xid: int, name: str) -> bytes:
    blocks = _dcp_block(2, 2, 1, name.encode())
    return encode_dcp(src, dst, DCP_FRAME_ID_GETSET, 4, 0, xid, blocks)


def dcp_set_response(src: bytes, dst: bytes, xid: int, option: int, suboption: int, error: int = 0) -> bytes:
    blocks = _dcp_block(5, 4, None, bytes([option, suboption, error]))
    return encode_dcp(src, dst, DCP_FRAME_ID_GETSET, 4, 1, xid, blocks)


def _ipv4_checksum(header: bytes) -> int:
    total = sum(struct.unpack(">10H", header[:20]))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def _cm_block(block_type: int, content: bytes) -> bytes:
    if len(content) + 2 > 0xFFFF:
        raise ValueError(f"pn-cm block 0x{block_type:04x} of {len(content) + 2} bytes exceeds 65535")
    return struct.pack(">HH", block_type, len(content) + 2) + b"\x01\x00" + content


def encode_cm(
    src_mac: bytes,
    dst_mac: bytes,
    src_ip: str,
    dst_ip: str,
    ptype: int,
    opnum: int,
    activity: uuid.UUID,
    seq: int,
    blocks: bytes,
    interface: uuid.UUID | None = None,
) -> bytes:
    if interface is None:
        interface = uuid.UUID(bytes=UUID_IO_DEVICE)
    args = struct.pack("<IIIII", 16384, len(blocks), len(blocks), 0, len(blocks)) + blocks
    rpc = struct.pack(
        "<BBBB3sB",
        4,  # RPC version (connectionless)
        ptype,
        0x00,  # flags1: single fragment
        0x00,  # flags2
        b"\x10\x00\x00",  # drep: little-endian integers
        0,  # serial high
    )
    object_uuid = uuid.UUID("dea00000-6c97-11d1-8271-000000000001")
    rpc += object_uuid.bytes_le + interface.bytes_le + activity.bytes_le
    # boot(4) if_vers(4) seq(4) opnum(2) ihint(2) ahint(2) frag_len(2) frag_num(2) auth(1) serial(1)
    rpc += struct.pack("<IIIHHHHHBB", 0, 1, seq, opnum, 0xFFFF, 0xFFFF, len(args), 0, 0, 0)
    udp = struct.pack(">HHHH", PNIO_CM_UDP_PORT, PNIO_CM_UDP_PORT, 8 + len(rpc) + len(args), 0)
    total_len = 20 + 8 + len(rpc) + len(args)
    if total_len > MAX_IPV4_DATAGRAM:
        raise ValueError(f"pn-cm datagram of {total_len} bytes exceeds one IPv4 datagram")
    ip_header = struct.pack(
        ">BBHHHBBH4s4s",
        0x45,
        0,
        total_len,
        seq & 0xFFFF,
        0,
        64,
        17,
        0,
        str_to_ip(src_ip),
        str_to_ip(dst_ip),
    )
    checksum = _ipv4_checksum(ip_header)
    ip_header = ip_header[:10] + struct.pack(">H", checksum) + ip_header[12:]
    return ethernet(dst_mac, src_mac, ETHERTYPE_IPV4, ip_header + udp + rpc + args)


def ar_block_request(ar_uuid: uuid.UUID, initiator_mac: bytes, station_name: str) -> bytes:
    content = struct.pack(">H", 1) + ar_uuid.bytes + struct.pack(">H", 1) + initiator_mac
    content += uuid.UUID(int=0).bytes  # initiator object uuid
    content += struct.pack(">IHH", 0x11, 100, PNIO_CM_UDP_PORT)
    name = station_name.encode()
    content += struct.pack(">H", len(name)) + name
    return _cm_block(BLOCK_AR_REQ, content)


def ar_block_response(ar_uuid: uuid.UUID, responder_mac: bytes) -> bytes:
    content = struct.pack(">H", 1) + ar_uuid.bytes + struct.pack(">H", 1) + responder_mac
    content += struct.pack(">H", PNIO_CM_UDP_PORT)
    return _cm_block(BLOCK_AR_RES, content)


def _u16(value: int, what: str) -> int:
    """`value`, refused with a message naming `what` unless it fits an unsigned 16-bit field."""
    if not 0 <= value <= 0xFFFF:
        raise ValueError(f"{what} {value} is outside 0..65535")
    return value


def iocr_block_request(cr_type: int, reference: int, data_length: int, frame_id: int) -> bytes:
    content = struct.pack(
        ">HHHHHHHHH", cr_type, reference, ETHERTYPE_PROFINET,
        _u16(data_length, "IOCR data length"), frame_id, 32, 32, 3, 3,
    )
    return _cm_block(BLOCK_IOCR_REQ, content)


def iocr_block_response(cr_type: int, reference: int, frame_id: int) -> bytes:
    content = struct.pack(">HHH", cr_type, reference, frame_id)
    return _cm_block(BLOCK_IOCR_RES, content)


def _group_by_slot(submodules: tuple[SubmoduleSpec, ...]) -> dict[int, list[SubmoduleSpec]]:
    slots: dict[int, list[SubmoduleSpec]] = {}
    for sub in submodules:
        slots.setdefault(sub.slot, []).append(sub)
    return slots


def layout_order(submodules: tuple[SubmoduleSpec, ...]) -> tuple[SubmoduleSpec, ...]:
    """Submodule order as encoded on the wire: slots in first-seen order,
    declaration order within a slot. Cyclic C-SDU layout follows this order."""
    out: list[SubmoduleSpec] = []
    for subs in _group_by_slot(submodules).values():
        out.extend(subs)
    return tuple(out)


def expected_submodules_block(submodules: tuple[SubmoduleSpec, ...]) -> bytes:
    slots = _group_by_slot(submodules)
    content = struct.pack(">H", len(slots))
    for slot, subs in slots.items():
        content += struct.pack(">HIH", _u16(slot, "submodule slot"), 0x100 + slot, len(subs))
        for sub in subs:
            direction = 1 if sub.direction == "input" else 2
            content += struct.pack(
                ">HIBHBB",
                _u16(sub.subslot, "submodule subslot"),
                0x1000 + sub.subslot,
                direction,
                _u16(sub.length, "submodule data length"),
                1,
                1,
            )
    return _cm_block(BLOCK_EXPECTED_SUBMODULES, content)


def record_block(block_type: int, ar_uuid: uuid.UUID, seq: int, slot: int, subslot: int,
                 index: int, data: bytes) -> bytes:
    content = struct.pack(">H", seq) + ar_uuid.bytes + struct.pack(">IHHH", 0, slot, subslot, index)
    content += struct.pack(">I", len(data)) + data
    return _cm_block(block_type, content)


def control_block(block_type: int, ar_uuid: uuid.UUID, command: int) -> bytes:
    content = struct.pack(">H", 0) + ar_uuid.bytes + struct.pack(">HHH", 1, 0, command)
    return _cm_block(block_type, content)


def encode_pnio(
    src: bytes,
    dst: bytes,
    frame_id: int,
    c_sdu: bytes,
    cycle_counter: int,
    data_status: int = DATA_STATUS_RUN,
    transfer_status: int = 0,
) -> bytes:
    if len(c_sdu) < PNIO_MIN_CSDU:
        c_sdu = c_sdu + b"\x00" * (PNIO_MIN_CSDU - len(c_sdu))
    payload = struct.pack(">H", frame_id) + c_sdu + struct.pack(
        ">HBB", cycle_counter, data_status, transfer_status
    )
    return ethernet(dst, src, ETHERTYPE_PROFINET, payload, pad_to=0)


def process_byte(conn_index: int, round_index: int, direction: str, sub_ordinal: int, byte_index: int) -> int:
    """Deterministic process value injected into cyclic frames."""
    directional = 101 if direction == "output" else 0
    return (13 * conn_index + 7 * round_index + directional + 31 * sub_ordinal + byte_index) % 256


def cyclic_c_sdu(
    conn_index: int,
    round_index: int,
    direction: str,
    submodules: tuple[SubmoduleSpec, ...],
) -> bytes:
    """C-SDU layout: own-direction data+IOPS per submodule, opposite IOCS tail."""
    buf = bytearray()
    ordered = layout_order(submodules)
    own = [s for s in ordered if s.direction == direction]
    for ordinal, sub in enumerate(own):
        buf.extend(
            process_byte(conn_index, round_index, direction, ordinal, i) for i in range(sub.length)
        )
        buf.append(GOOD)
    opposite = [s for s in ordered if s.direction != direction]
    buf.extend(GOOD for _ in opposite)
    return bytes(buf)


def cr_data_length(direction: str, submodules: tuple[SubmoduleSpec, ...]) -> int:
    own = sum(s.length + 1 for s in submodules if s.direction == direction)
    opposite = sum(1 for s in submodules if s.direction != direction)
    return own + opposite


# --- Scenario choreography ------------------------------------------------------


def _port_macs(node_index: int, node: NodeSpec, count: int) -> list[bytes]:
    if count > 0xFF:
        raise ValueError(f"port number {count} exceeds 255")
    interface = str_to_mac(node.mac)
    return [
        bytes([0x02, 0x70, node_index & 0xFF, port, interface[4], interface[5]])
        for port in range(1, count + 1)
    ]


def _ar_uuid(seed: int, ordinal: int) -> uuid.UUID:
    return uuid.uuid5(uuid.NAMESPACE_OID, f"poet-ar-{seed}-{ordinal}")


def _activity_uuid(seed: int, ordinal: int) -> uuid.UUID:
    return uuid.uuid5(uuid.NAMESPACE_OID, f"poet-activity-{seed}-{ordinal}")


class _Builder:
    def __init__(self, spec: ScenarioSpec):
        spec.validate()
        self.spec = spec
        self.frames: list[FramePlan] = []
        self.xid = 0x1000
        self.rpc_seq = 0
        self.ctrl_mac = str_to_mac(spec.controller.mac)
        self.device_macs = {d.name: str_to_mac(d.mac) for d in spec.devices}
        self.ar_uuids = {d.name: _ar_uuid(spec.seed, i) for i, d in enumerate(spec.devices)}
        ctrl = mac_to_str(self.ctrl_mac)
        self.conn_keys = {
            name: connection_key(ctrl, mac_to_str(mac)) for name, mac in self.device_macs.items()
        }
        self.frame_ids = {
            d.name: (0x8001 + 2 * i, 0x8002 + 2 * i) for i, d in enumerate(spec.devices)
        }

    def add(self, data: bytes, label: str, events: Sequence[PlannedEvent] = ()) -> FramePlan:
        plan = FramePlan(data, label, list(events))
        self.frames.append(plan)
        return plan

    def next_xid(self) -> int:
        self.xid += 1
        return self.xid

    def next_seq(self) -> int:
        self.rpc_seq += 1
        return self.rpc_seq

    def _device(self, device: NodeSpec) -> tuple[bytes, str, uuid.UUID]:
        """The device's MAC, its connection key and its AR UUID."""
        name = device.name
        return self.device_macs[name], self.conn_keys[name], self.ar_uuids[name]

    # Phases ---------------------------------------------------------------

    def lldp_burst(self, with_ips: bool) -> None:
        spec = self.spec
        for node_index, node in enumerate([spec.controller, *spec.devices]):
            interface = str_to_mac(node.mac)
            ip = node.ip if (node_index == 0 or with_ips) else None
            ports = _port_macs(node_index, node, spec.ports_per_device)
            for port_index, port in enumerate(ports, start=1):
                self.add(
                    encode_lldp(interface, port, 20, node.name, (f"port-{port_index:03d}",), ip),
                    f"lldp {node.name} port {port_index}",
                    [_device_event(DETECT_NEIGHBOURS, interface), _WAKE_UP],
                )

    def address_resolution(self, device: NodeSpec) -> None:
        spec = self.spec
        ctrl = self.ctrl_mac
        dev = self.device_macs[device.name]
        xid = self.next_xid()
        # With no LLDP the name is unbound until the response: the identify
        # event is held and replays just before name_resolved.
        requested = [_device_event(NAME_RESOLUTION_REQUESTED, dev)]
        plan = self.add(
            dcp_identify_request(ctrl, xid, device.name),
            f"dcp identify request {device.name}",
            (requested if spec.initial_lldp else []) + [_WAKE_UP],
        )
        plan.new_instances.append(("device", mac_to_str(ctrl)))
        self.add(
            dcp_identify_response(dev, ctrl, xid, device.name),
            f"dcp identify response {device.name}",
            ([] if spec.initial_lldp else requested) + [_device_event(NAME_RESOLVED, dev)],
        )
        self.add(
            encode_arp(ctrl, BROADCAST, 1, ctrl, spec.controller.ip, b"\x00" * 6, device.ip),
            f"arp probe {device.ip}",
        )
        xid = self.next_xid()
        self.add(
            dcp_set_ip_request(ctrl, dev, xid, device.ip, "255.255.255.0", "0.0.0.0"),
            f"dcp set ip {device.name}",
            [_device_event(IP_ASSIGNMENT_REQUESTED, dev)],
        )
        self.add(
            dcp_set_response(dev, ctrl, xid, DCP_OPTION_IP, DCP_SUBOPTION_IP_PARAMETER),
            f"dcp set ip response {device.name}",
            [_device_event(IP_ASSIGNED, dev)],
        )
        self.add(
            encode_arp(dev, BROADCAST, 1, dev, device.ip, b"\x00" * 6, device.ip),
            f"gratuitous arp {device.name}",
            [_device_event(DUPLICATION_CHECK, dev)],
        )

    def _cm_pair(
        self,
        device: NodeSpec,
        opnum: int,
        label: str,
        request: bytes,
        response: bytes,
        request_events: Sequence[PlannedEvent],
        response_events: Sequence[PlannedEvent] = (),
        request_from_device: bool = False,
    ) -> FramePlan:
        """One PN-CM request and its response; returns the request's plan."""
        spec = self.spec
        caller = (self.ctrl_mac, spec.controller.ip)
        callee = (self.device_macs[device.name], device.ip)
        if request_from_device:
            caller, callee = callee, caller
        interface = uuid.UUID(bytes=UUID_IO_CONTROLLER if request_from_device else UUID_IO_DEVICE)
        plans = []
        for ptype, direction, (src, src_ip), (dst, dst_ip), blocks, events in (
            (RPC_PTYPE_REQUEST, "request", caller, callee, request, request_events),
            (RPC_PTYPE_RESPONSE, "response", callee, caller, response, response_events),
        ):
            activity = _activity_uuid(spec.seed, self.next_seq())
            frame = encode_cm(
                src, dst, src_ip, dst_ip, ptype, opnum, activity, self.rpc_seq, blocks, interface
            )
            plans.append(self.add(frame, f"pn-cm {label} {direction} {device.name}", events))
        return plans[0]

    def connect(self, device: NodeSpec) -> None:
        dev, key, ar = self._device(device)
        input_fid, output_fid = self.frame_ids[device.name]
        response = ar_block_response(ar, dev)
        if device.submodules:
            response += iocr_block_response(1, 1, input_fid) + iocr_block_response(2, 2, output_fid)
        request = _connect_blocks(
            ar, self.ctrl_mac, self.spec.controller.name, device.submodules, (input_fid, output_fid)
        )
        events = _pair(CONNECT_REQUESTED, dev)
        plan = self._cm_pair(device, RPC_OPNUM_CONNECT, "connect", request, response, events)
        plan.new_instances.append(("connection", key))

    def _record_pair(
        self,
        device: NodeSpec,
        opnum: int,
        label: str,
        seq: int,
        index: int,
        data: tuple[bytes, bytes],
        request_events: Sequence[PlannedEvent],
        response_events: Sequence[PlannedEvent] = (),
    ) -> None:
        """A read or write record request and its response, on the device's first submodule."""
        _, _, ar = self._device(device)
        sub = device.submodules[0] if device.submodules else SubmoduleSpec(1, 1, "input", 0)
        block_types = (
            (BLOCK_READ_REQ, BLOCK_READ_RES)
            if opnum == RPC_OPNUM_READ
            else (BLOCK_WRITE_REQ, BLOCK_WRITE_RES)
        )
        request, response = (
            record_block(block_type, ar, seq, sub.slot, sub.subslot, index, payload)
            for block_type, payload in zip(block_types, data)
        )
        self._cm_pair(device, opnum, label, request, response, request_events, response_events)

    def parametrization_write(self, device: NodeSpec, ordinal: int) -> None:
        dev, key, _ = self._device(device)
        data = (bytes([ordinal]) * 4, b"")
        events = _pair(PARAMETRIZATION_WRITE, dev, key)
        self._record_pair(device, RPC_OPNUM_WRITE, "write", ordinal, 0x8000 + ordinal, data, events)

    def dcontrol(self, device: NodeSpec) -> None:
        dev, key, ar = self._device(device)
        self._cm_pair(
            device,
            RPC_OPNUM_CONTROL,
            "dcontrol",
            control_block(BLOCK_DCONTROL_REQ, ar, 0x0001),
            control_block(BLOCK_DCONTROL_RES, ar, 0x0008),
            _pair(END_OF_PARAMETRIZATION, dev, key),
        )

    def ccontrol(self, device: NodeSpec) -> None:
        dev, key, ar = self._device(device)
        self._cm_pair(
            device,
            RPC_OPNUM_CONTROL,
            "ccontrol",
            control_block(BLOCK_CCONTROL_REQ, ar, 0x0002),
            control_block(BLOCK_CCONTROL_RES, ar, 0x0008),
            _pair(APPLICATION_READY, dev, key),
            [_device_event(CONNECTION_CONFIRMED, dev)],
            request_from_device=True,
        )

    def cyclic_round(self, round_index: int) -> None:
        cycle = (round_index * 32) & 0xFFFF
        for conn_index, device in enumerate(self.spec.devices):
            if not device.submodules:
                continue
            dev, key, _ = self._device(device)
            input_fid, output_fid = self.frame_ids[device.name]
            for direction, src, dst, fid, data_event in (
                ("output", self.ctrl_mac, dev, output_fid, OUTPUT_PROCESS_DATA_SENT),
                ("input", dev, self.ctrl_mac, input_fid, INPUT_PROCESS_DATA_SENT),
            ):
                c_sdu = cyclic_c_sdu(conn_index, round_index, direction, device.submodules)
                # A CR with no submodule of its own direction carries only IOCS: no IOPS, no event.
                events = (
                    [_device_event(CYCLIC_DATA_GOOD, dev), PlannedEvent(data_event, "connection", key)]
                    if any(sub.direction == direction for sub in device.submodules)
                    else []
                )
                self.add(
                    encode_pnio(src, dst, fid, c_sdu, cycle),
                    f"pnio {direction} {device.name} round {round_index}",
                    events,
                )

    def acyclic_exchange(self, device: NodeSpec) -> None:
        dev, key, _ = self._device(device)
        done = _pair(ACYCLIC_DONE, dev, key)
        read, write = _pair(ACYCLIC_READ, dev, key), _pair(ACYCLIC_WRITE, dev, key)
        self._record_pair(device, RPC_OPNUM_READ, "read", 0x40, 0xAFF0, (b"", b"\x11\x22"), read, done)
        self._record_pair(device, RPC_OPNUM_WRITE, "acyclic write", 0x41, 0xB000, (b"\x7f", b""), write, done)

    def build_benign(self) -> list[FramePlan]:
        spec = self.spec
        if spec.initial_lldp:
            self.lldp_burst(with_ips=False)
        for device in spec.devices:
            self.address_resolution(device)
        if spec.initial_lldp and spec.lldp_refresh_every:
            self.lldp_burst(with_ips=True)
        for device in spec.devices:
            self.connect(device)
        # Only an encoded write bounds writes_per_device: without devices, count to nothing.
        for ordinal in range(1, spec.writes_per_device + 1 if spec.devices else 1):
            for device in spec.devices:
                self.parametrization_write(device, ordinal)
        for device in spec.devices:
            self.dcontrol(device)
        for device in spec.devices:
            self.ccontrol(device)
        for round_index in range(spec.cyclic_rounds):
            if (
                spec.lldp_refresh_every
                and round_index
                and round_index % spec.lldp_refresh_every == 0
            ):
                self.lldp_burst(with_ips=True)
            self.cyclic_round(round_index)
            if spec.acyclic_exchange and round_index == 1 and spec.devices:
                self.acyclic_exchange(spec.devices[0])
        return self.frames

    # Injections ------------------------------------------------------------

    def attack_frames(self, injection: Injection) -> list[FramePlan]:
        spec = self.spec
        attacker = str_to_mac(ATTACKER_MAC)
        if injection.attack == "malformed":
            return [FramePlan(malformed_frame(injection.protocol or "pn-dcp"), "attack malformed")]
        device = next(d for d in spec.devices if d.name == injection.target)
        dev = self.device_macs[device.name]
        if injection.attack == "rename":
            # The attack is the runtime DCP Set of the station name; the
            # attacker already knows the target MAC from sniffing.
            new_name = injection.new_name or "ufo"
            xid = 0xA001
            return [
                FramePlan(
                    dcp_set_name_request(attacker, dev, xid, new_name),
                    f"attack rename set {new_name!r}",
                    [_device_event(NAME_SET_REQUESTED, dev)],
                    [("device", ATTACKER_MAC)],
                ),
                FramePlan(
                    dcp_set_response(
                        dev, attacker, xid, DCP_OPTION_DEVICE, DCP_SUBOPTION_NAME_OF_STATION
                    ),
                    "attack rename set response",
                ),
            ]
        key = connection_key(ATTACKER_MAC, mac_to_str(dev))
        submodules = (SubmoduleSpec(1, 1, "input", 1),)
        blocks = _connect_blocks(
            _ar_uuid(spec.seed, 0x7FFF), attacker, "intruder", submodules, (0x9001, 0x9002)
        )
        activity = _activity_uuid(spec.seed, 0x7FFF)
        frame = encode_cm(
            attacker, dev, "192.168.0.250", device.ip, RPC_PTYPE_REQUEST, RPC_OPNUM_CONNECT,
            activity, 0x7FFF, blocks,
        )
        events = _pair(CONNECT_REQUESTED, dev)
        created = [("device", ATTACKER_MAC), ("connection", key)]
        return [FramePlan(frame, f"attack rogue connect {device.name}", events, created)]


# The system's wake-up event; the replay drops it once the system has woken.
_WAKE_UP = PlannedEvent(PN_TRAFFIC_DETECTED, "system")


def _device_event(event: str, mac: bytes) -> PlannedEvent:
    return PlannedEvent(event, "device", mac_to_str(mac))


def _pair(event: str, mac: bytes, key: str | None = None) -> list[PlannedEvent]:
    """The same event for the device and for its connection, or for the system without a key."""
    return [_device_event(event, mac), PlannedEvent(event, "connection" if key else "system", key)]


def _connect_blocks(
    ar: uuid.UUID,
    initiator_mac: bytes,
    initiator_name: str,
    submodules: tuple[SubmoduleSpec, ...],
    frame_ids: tuple[int, int],
) -> bytes:
    """A Connect request's blocks; the IO CRs and expected submodules only with submodules."""
    blocks = ar_block_request(ar, initiator_mac, initiator_name)
    if submodules:
        blocks += iocr_block_request(1, 1, cr_data_length("input", submodules), frame_ids[0])
        blocks += iocr_block_request(2, 2, cr_data_length("output", submodules), frame_ids[1])
        blocks += expected_submodules_block(submodules)
    return blocks


def malformed_frame(protocol: str) -> bytes:
    """A deliberately broken frame of the given protocol family."""
    src = str_to_mac(ATTACKER_MAC)
    if protocol == "lldp":
        # TTL TLV before Port ID: mandatory order violated
        bad = _lldp_tlv(1, bytes([4]) + src) + _lldp_tlv(3, b"\x00\x14") + _lldp_tlv(0, b"")
        return ethernet(LLDP_MULTICAST, src, ETHERTYPE_LLDP, bad)
    if protocol == "arp":
        return (BROADCAST + src + struct.pack(">H", ETHERTYPE_ARP) + b"\x00\x01\x08\x00")[:24]
    if protocol == "pnio":
        return ethernet(BROADCAST, src, ETHERTYPE_PROFINET, struct.pack(">H", 0x8001) + b"\x00\x00")[:20]
    if protocol == "pn-cm":
        ip_header = struct.pack(
            ">BBHHHBBH4s4s", 0x45, 0, 20 + 8 + 4, 1, 0, 64, 17, 0,
            str_to_ip("192.168.0.250"), str_to_ip("192.168.0.11"),
        )
        udp = struct.pack(">HHHH", PNIO_CM_UDP_PORT, PNIO_CM_UDP_PORT, 12, 0)
        return ethernet(BROADCAST, src, ETHERTYPE_IPV4, ip_header + udp + b"\x04\x00\x00\x00")
    if protocol == "pn-dcp":
        # declared data length exceeds the frame
        payload = struct.pack(">HBBIHH", DCP_FRAME_ID_GETSET, 4, 0, 0xDEAD, 0, 500) + b"\x00\x04"
        return ethernet(BROADCAST, src, ETHERTYPE_PROFINET, payload)
    raise ValueError(f"unknown malformed protocol {protocol!r}")


# --- Manifest replay ------------------------------------------------------------


def _replay_manifest(spec: ScenarioSpec, frames: list[FramePlan]) -> dict:
    anomalies: list[dict] = []

    def collect(alert) -> None:
        if alert.severity == "anomaly":
            anomalies.append(
                {
                    "frame_index": alert.cause.capture_index,
                    "instance_kind": alert.instance_kind,
                    "instance_key": alert.instance_key,
                    "offending_event": alert.offending_event,
                    "state_at_event": alert.state_at_event,
                }
            )

    fleet = FsmFleet(spec.system_name, collect)
    for plan in frames:
        for scope, key in plan.new_instances:
            fleet.ensure(scope, key)
        # As the tracker does, a frame's wake-up is decided before any of its events fire.
        waking = fleet.system.current_state == fleet.system.definition.initial_state
        cause = FrameRef(plan.index, "synth", plan.label)
        events = [
            ProtocolEvent(planned.event_name, planned.scope, planned.key, cause)
            for planned in plan.events
            if waking or planned.event_name != PN_TRAFFIC_DETECTED
        ]
        fleet.fire(events, plan.ts, plan.index)

    final_states = fleet.per_instance(lambda instance: instance.current_state)

    return {
        "system_name": spec.system_name,
        "frames": [
            {
                "index": plan.index,
                "event": plan.events[0].event_name if plan.events else None,
                "subject": (plan.events[0].key or spec.system_name) if plan.events else None,
            }
            for plan in frames
        ],
        "expected": {"anomalies": anomalies, "final_states": final_states},
    }


# --- Entry points ----------------------------------------------------------------


def synthesize(spec: ScenarioSpec) -> SynthResult:
    """Generate the capture and its ground-truth manifest for one scenario."""
    builder = _Builder(spec)
    # Each encoder bounds the fields it writes, and the pcap writer the frame times.
    try:
        frames = builder.build_benign()
        for injection in sorted(spec.injections, key=lambda i: i.after_index, reverse=True):
            if injection.after_index >= len(frames):
                frames.extend(builder.attack_frames(injection))
            else:
                at = injection.after_index + 1
                frames[at:at] = builder.attack_frames(injection)
        gap_us = round(spec.gap_seconds * 1_000_000)
        for index, plan in enumerate(frames):
            plan.index = index
            total_us = spec.start_time * 1_000_000 + index * gap_us
            plan.ts = (total_us // 1_000_000, (total_us % 1_000_000) * 1000)
        pcap = write_pcap_bytes([(plan.ts, plan.data) for plan in frames])
    except (ValueError, OverflowError, struct.error) as exc:
        raise ScenarioError(f"scenario cannot be encoded: {exc}") from exc
    manifest = _replay_manifest(spec, frames)
    return SynthResult(spec=spec, frames=frames, manifest=manifest, pcap_bytes=pcap)


def write_pcap_bytes(frames: list[tuple[tuple[int, int], bytes]]) -> bytes:
    """Microsecond little-endian pcap container."""
    out = bytearray(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1))
    for (sec, nsec), data in frames:
        out += struct.pack("<IIII", sec, nsec // 1000, len(data), len(data))
        out += data
    return bytes(out)


def write_pcapng_bytes(frames: list[tuple[tuple[int, int], bytes]]) -> bytes:
    """Minimal pcapng container (SHB + IDB + EPBs); test aid for the reader."""
    def block(block_type: int, content: bytes) -> bytes:
        total = 12 + len(content)
        return struct.pack("<II", block_type, total) + content + struct.pack("<I", total)

    out = bytearray(block(0x0A0D0D0A, struct.pack("<IHHq", 0x1A2B3C4D, 1, 0, -1)))
    out += block(0x00000001, struct.pack("<HHI", 1, 0, 65535))  # Ethernet, default us resolution
    for (sec, nsec), data in frames:
        ticks = sec * 1_000_000 + nsec // 1000
        pad = (-len(data)) % 4
        content = struct.pack(
            "<IIIII", 0, (ticks >> 32) & 0xFFFFFFFF, ticks & 0xFFFFFFFF, len(data), len(data)
        )
        out += block(0x00000006, content + data + b"\x00" * pad)
    return bytes(out)


# --- Builtin scenarios ------------------------------------------------------------


def _base_devices(count: int) -> tuple[NodeSpec, ...]:
    names = ["lift-motor", "turntable-motor", "conveyor", "drill-unit", "sorter"]
    devices = []
    for i in range(count):
        name = names[i] if i < len(names) else f"device-{i + 1}"
        devices.append(
            NodeSpec(
                f"02:00:00:00:{i + 2:02x}:00",
                name,
                f"192.168.0.{11 + i}",
                (SubmoduleSpec(1, 1, "input", 2), SubmoduleSpec(2, 1, "output", 3)),
            )
        )
    return tuple(devices)


def normal_startup_spec(device_count: int = 2, lldp_refresh_every: int = 0, **kwargs) -> ScenarioSpec:
    return ScenarioSpec(
        controller=NodeSpec("02:00:00:00:01:00", "plc-1", "192.168.0.1"),
        devices=_base_devices(device_count),
        lldp_refresh_every=lldp_refresh_every,
        **kwargs,
    )


def _position_after_cyclic_round(spec: ScenarioSpec, rounds: int) -> int:
    probe = _Builder(spec)
    frames = probe.build_benign()
    seen = 0
    for index, plan in enumerate(frames):
        if plan.label.startswith("pnio input"):
            seen += 1
            if seen == rounds * len([d for d in spec.devices if d.submodules]):
                return index
    return len(frames) - 1


def rename_attack_spec(target: str = "turntable-motor", new_name: str = "ufo") -> ScenarioSpec:
    spec = normal_startup_spec(2)
    position = _position_after_cyclic_round(spec, 3)
    return replace(
        spec, injections=(Injection(position, "rename", target=target, new_name=new_name),)
    )


def rogue_connect_spec(target: str = "lift-motor") -> ScenarioSpec:
    spec = normal_startup_spec(2)
    position = _position_after_cyclic_round(spec, 3)
    return replace(spec, injections=(Injection(position, "rogue_connect", target=target),))


def malformed_spec(protocol: str = "pn-dcp") -> ScenarioSpec:
    spec = normal_startup_spec(1)
    position = _position_after_cyclic_round(spec, 2)
    return replace(spec, injections=(Injection(position, "malformed", protocol=protocol),))


BUILTIN_SCENARIOS = {
    "normal-startup": lambda: normal_startup_spec(2),
    "normal-startup-1": lambda: normal_startup_spec(1),
    "normal-startup-5": lambda: normal_startup_spec(5),
    "normal-startup-lldp": lambda: normal_startup_spec(2, lldp_refresh_every=2),
    "rename-attack": rename_attack_spec,
    "rogue-connect": rogue_connect_spec,
    "malformed-dcp": lambda: malformed_spec("pn-dcp"),
}


def builtin_scenario(name: str) -> ScenarioSpec:
    try:
        factory = BUILTIN_SCENARIOS[name]
    except KeyError:
        raise ScenarioError(
            f"unknown builtin scenario {name!r}; available: {', '.join(sorted(BUILTIN_SCENARIOS))}"
        ) from None
    return factory()
