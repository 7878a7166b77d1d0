"""Frame dissectors for the PROFINET protocol family.

Raw Ethernet frames are classified by ethertype and decoded into typed frame
structures: LLDP (0x88CC), ARP (0x0806), PN-DCP and PNIO cyclic (0x8892,
split by frame id), and PN-CM as DCE/RPC over UDP port 34964. Anything else
passes through as Other. A frame that claims one of these protocols but
violates its own structure raises MalformedFrame; dissection never raises
anything else for inputs of at least 14 bytes.

All PROFINET application fields are big-endian. The DCE/RPC connectionless
header honours its drep byte. Every MAC address is decoded here, once, to the
lowercase "aa:bb:cc:dd:ee:ff" text that the rest of poet keys on.
"""

from __future__ import annotations

import struct
import uuid
from dataclasses import dataclass

from .capture import RawFrame

ETHERTYPE_LLDP = 0x88CC
ETHERTYPE_ARP = 0x0806
ETHERTYPE_VLAN = 0x8100
ETHERTYPE_PROFINET = 0x8892
ETHERTYPE_IPV4 = 0x0800

PNIO_CM_UDP_PORT = 34964  # 0x8894

# 0x8892 frame-id allocation (IEC 61158 ranges used here)
DCP_FRAME_ID_MIN = 0xFEFC
DCP_FRAME_ID_MAX = 0xFEFF
DCP_FRAME_ID_HELLO = 0xFEFC
DCP_FRAME_ID_GETSET = 0xFEFD
DCP_FRAME_ID_IDENTIFY_REQ = 0xFEFE
DCP_FRAME_ID_IDENTIFY_RES = 0xFEFF
RT_CYCLIC_MIN = 0x8000
RT_CYCLIC_MAX = 0xBFFF

# PN-DCP service ids / types
DCP_SERVICE_GET = 3
DCP_SERVICE_SET = 4
DCP_SERVICE_IDENTIFY = 5
DCP_SERVICE_HELLO = 6
DCP_SERVICE_NAMES = {
    DCP_SERVICE_GET: "Get",
    DCP_SERVICE_SET: "Set",
    DCP_SERVICE_IDENTIFY: "Identify",
    DCP_SERVICE_HELLO: "Hello",
}
DCP_TYPE_REQUEST = 0
DCP_TYPE_RESPONSE_SUCCESS = 1
DCP_TYPE_RESPONSE_UNSUPPORTED = 5
DCP_TYPE_NAMES = {
    DCP_TYPE_REQUEST: "Request",
    DCP_TYPE_RESPONSE_SUCCESS: "ResponseSuccess",
    DCP_TYPE_RESPONSE_UNSUPPORTED: "ResponseUnsupported",
}

# PN-DCP options
DCP_OPTION_IP = 1
DCP_SUBOPTION_IP_PARAMETER = 2
DCP_OPTION_DEVICE = 2
DCP_SUBOPTION_NAME_OF_STATION = 2
DCP_SUBOPTION_DEVICE_ID = 3
DCP_OPTION_CONTROL = 5
DCP_SUBOPTION_CONTROL_RESPONSE = 4
DCP_OPTION_ALL = 0xFF

# LLDP TLV types
LLDP_TLV_END = 0
LLDP_TLV_CHASSIS_ID = 1
LLDP_TLV_PORT_ID = 2
LLDP_TLV_TTL = 3
LLDP_TLV_PORT_DESCRIPTION = 4
LLDP_TLV_SYSTEM_NAME = 5
LLDP_TLV_MGMT_ADDRESS = 8
LLDP_TLV_ORG_SPECIFIC = 127
LLDP_SUBTYPE_MAC = 4  # chassis id subtype
LLDP_PORT_SUBTYPE_MAC = 3
PROFINET_OUI = b"\x00\x0e\xcf"

# DCE/RPC connectionless
RPC_VERSION_CL = 4
RPC_PTYPE_REQUEST = 0
RPC_PTYPE_RESPONSE = 2
RPC_HEADER_LEN = 80
UUID_IO_DEVICE = uuid.UUID("dea00001-6c97-11d1-8271-00a02442df7d")
UUID_IO_CONTROLLER = uuid.UUID("dea00002-6c97-11d1-8271-00a02442df7d")

RPC_OPNUM_CONNECT = 0
RPC_OPNUM_RELEASE = 1
RPC_OPNUM_READ = 2
RPC_OPNUM_WRITE = 3
RPC_OPNUM_CONTROL = 4

# PROFINET block types used by the CM dissector
BLOCK_AR_REQ = 0x0101
BLOCK_AR_RES = 0x8101
BLOCK_IOCR_REQ = 0x0102
BLOCK_IOCR_RES = 0x8102
BLOCK_EXPECTED_SUBMODULES = 0x0104
BLOCK_WRITE_REQ = 0x0008
BLOCK_WRITE_RES = 0x8008
BLOCK_READ_REQ = 0x0009
BLOCK_READ_RES = 0x8009
BLOCK_DCONTROL_REQ = 0x0110
BLOCK_DCONTROL_RES = 0x8110
BLOCK_CCONTROL_REQ = 0x0112
BLOCK_CCONTROL_RES = 0x8112
BLOCK_RELEASE = 0x0114

CR_INPUT = 1
CR_OUTPUT = 2

IOXS_GOOD = 0x80


class MalformedFrame(Exception):
    """A claimed protocol frame violates its own structure.

    Malformed frames are potential attack artifacts: they are reported to the
    caller, never silently dropped.
    """

    def __init__(self, protocol: str, offset: int, reason: str):
        super().__init__(f"{protocol} at byte {offset}: {reason}")
        self.protocol = protocol
        self.offset = offset
        self.reason = reason


def mac_to_str(mac: bytes) -> str:
    return mac.hex(":")


def str_to_mac(text: str) -> bytes:
    parts = text.replace("-", ":").split(":")
    if len(parts) != 6:
        raise ValueError(f"bad MAC {text!r}")
    return bytes(int(p, 16) for p in parts)


def ip_to_str(ip: bytes) -> str:
    return ".".join(str(b) for b in ip)


def str_to_ip(text: str) -> bytes:
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"bad IPv4 {text!r}")
    return bytes(int(p) for p in parts)


@dataclass(slots=True)
class EthernetEnvelope:
    dst_mac: str
    src_mac: str
    ethertype: int  # post-VLAN ethertype
    vlan_tag: tuple[int, int] | None  # (pcp, vid)
    payload: bytes


@dataclass(slots=True)
class LldpFrame:
    chassis_id: tuple[int, bytes]  # (subtype, value)
    port_id: tuple[int, bytes]
    ttl_seconds: int
    station_name: str | None = None
    port_descriptions: tuple[str, ...] = ()
    management_address: str | None = None
    profinet_tlvs: tuple[tuple[int, bytes], ...] = ()
    violations: tuple[str, ...] = ()

    @property
    def chassis_mac(self) -> str | None:
        subtype, value = self.chassis_id
        return mac_to_str(value) if subtype == LLDP_SUBTYPE_MAC and len(value) == 6 else None

    @property
    def port_mac(self) -> str | None:
        subtype, value = self.port_id
        return mac_to_str(value) if subtype == LLDP_PORT_SUBTYPE_MAC and len(value) == 6 else None


@dataclass(slots=True)
class ArpPacket:
    operation: str  # "request" | "reply"
    sender_mac: str
    sender_ip: str
    target_mac: str
    target_ip: str

    @property
    def is_gratuitous(self) -> bool:
        return self.sender_ip == self.target_ip


@dataclass(slots=True)
class DcpBlock:
    option: int
    suboption: int
    qualifier: int | None  # BlockQualifier (Set requests) or BlockInfo (responses)
    payload: bytes

    @property
    def is_name_of_station(self) -> bool:
        return self.option == DCP_OPTION_DEVICE and self.suboption == DCP_SUBOPTION_NAME_OF_STATION

    @property
    def is_ip_parameter(self) -> bool:
        return self.option == DCP_OPTION_IP and self.suboption == DCP_SUBOPTION_IP_PARAMETER

    @property
    def name_of_station(self) -> str | None:
        if not self.is_name_of_station:
            return None
        return self.payload.decode("utf-8", errors="replace")

    @property
    def ip_parameter(self) -> tuple[str, str, str] | None:
        if not self.is_ip_parameter or len(self.payload) < 12:
            return None
        return (
            ip_to_str(self.payload[0:4]),
            ip_to_str(self.payload[4:8]),
            ip_to_str(self.payload[8:12]),
        )

    @property
    def control_response_target(self) -> tuple[int, int] | None:
        """(option, suboption) acknowledged by a Control/Result block."""
        if (
            self.option == DCP_OPTION_CONTROL
            and self.suboption == DCP_SUBOPTION_CONTROL_RESPONSE
            and len(self.payload) >= 2
        ):
            return (self.payload[0], self.payload[1])
        return None


@dataclass(slots=True)
class DcpFrame:
    frame_id: int
    service_id: str  # "Identify" | "Get" | "Set" | "Hello"
    service_type: str  # "Request" | "ResponseSuccess" | "ResponseUnsupported"
    xid: int
    blocks: tuple[DcpBlock, ...]
    violations: tuple[str, ...] = ()

    def find_block(self, option: int, suboption: int) -> DcpBlock | None:
        for block in self.blocks:
            if block.option == option and block.suboption == suboption:
                return block
        return None

    @property
    def name_of_station(self) -> str | None:
        block = self.find_block(DCP_OPTION_DEVICE, DCP_SUBOPTION_NAME_OF_STATION)
        return block.name_of_station if block else None


@dataclass(slots=True)
class IocrBlock:
    cr_type: str  # "input" | "output"
    reference: int
    frame_id: int
    data_length: int
    send_clock: int
    reduction_ratio: int
    watchdog_factor: int
    data_hold_factor: int


@dataclass(slots=True)
class ExpectedSubmodule:
    slot: int
    subslot: int
    module_id: int
    submodule_id: int
    # (direction, data_length, iops_length, iocs_length)
    data_description: tuple[str, int, int, int]


@dataclass(slots=True)
class CmFrame:
    direction: str  # "request" | "response"
    operation: str  # Connect | Write | Read | DControl | CControl | Release
    ar_uuid: uuid.UUID | None
    iocr_blocks: tuple[IocrBlock, ...] = ()
    expected_submodules: tuple[ExpectedSubmodule, ...] = ()
    initiator_mac: str | None = None
    station_name: str | None = None
    slot: int | None = None  # read/write record addressing
    subslot: int | None = None
    record_index: int | None = None
    record_data: bytes = b""


@dataclass(slots=True)
class PnioCyclicFrame:
    frame_id: int
    data: bytes
    cycle_counter: int
    data_status: int
    transfer_status: int


@dataclass(slots=True)
class OtherBody:
    ethertype: int
    tag: str | None = None


Body = LldpFrame | ArpPacket | DcpFrame | CmFrame | PnioCyclicFrame | OtherBody

# The protocol tag of each body type; dissect stamps it on every ParsedFrame.
_PROTOCOL_TAGS: dict[type, str] = {
    LldpFrame: "lldp",
    ArpPacket: "arp",
    DcpFrame: "pn-dcp",
    CmFrame: "pn-cm",
    PnioCyclicFrame: "pnio",
    OtherBody: "other",
}


@dataclass(slots=True)
class ParsedFrame:
    envelope: EthernetEnvelope
    body: Body
    raw_ref: int  # capture_index of the source frame
    protocol: str  # "lldp" | "arp" | "pn-dcp" | "pn-cm" | "pnio" | "other"


def lldp_subject(parsed: ParsedFrame) -> str:
    """The MAC an LLDP frame speaks for: its chassis MAC, else its source MAC."""
    return parsed.body.chassis_mac or parsed.envelope.src_mac


@dataclass(frozen=True)
class IoDataSpec:
    """Location of one submodule's cyclic process data within a CR's C-SDU."""

    direction: str  # "input" | "output"
    slot: int
    subslot: int
    offset: int
    length: int
    iops_length: int = 1


class InconsistentConnect(Exception):
    """Connect frame's declared CR data length contradicts its submodule layout."""


def _need(data: bytes, offset: int, count: int, protocol: str, what: str) -> bytes:
    if offset + count > len(data):
        raise MalformedFrame(protocol, offset, f"truncated {what}")
    return data[offset : offset + count]


def parse_envelope(frame: bytes) -> EthernetEnvelope:
    if len(frame) < 14:
        raise MalformedFrame("ethernet", 0, "frame shorter than 14 bytes")
    # mac_to_str, inlined: this runs for every frame.
    dst = frame[0:6].hex(":")
    src = frame[6:12].hex(":")
    ethertype = struct.unpack(">H", frame[12:14])[0]
    vlan = None
    offset = 14
    if ethertype == ETHERTYPE_VLAN:
        tci_raw = _need(frame, 14, 4, "ethernet", "VLAN tag")
        tci = struct.unpack(">H", tci_raw[0:2])[0]
        vlan = (tci >> 13, tci & 0x0FFF)
        ethertype = struct.unpack(">H", tci_raw[2:4])[0]
        offset = 18
    return EthernetEnvelope(dst, src, ethertype, vlan, frame[offset:])


def dissect(raw: RawFrame) -> ParsedFrame:
    """Dissect one raw frame into a typed ParsedFrame.

    Unknown traffic becomes Other; structurally broken claims of a known
    protocol raise MalformedFrame.
    """
    envelope = parse_envelope(raw.frame_bytes)
    ethertype = envelope.ethertype
    payload = envelope.payload

    if ethertype == ETHERTYPE_LLDP:
        body: Body = _parse_lldp(payload)
    elif ethertype == ETHERTYPE_ARP:
        body = _parse_arp(payload)
    elif ethertype == ETHERTYPE_PROFINET:
        body = _parse_profinet_rt(payload)
    elif ethertype == ETHERTYPE_IPV4:
        body = _parse_ipv4(payload)
    else:
        body = OtherBody(ethertype)
    return ParsedFrame(envelope, body, raw.capture_index, _PROTOCOL_TAGS[type(body)])


# --- LLDP ------------------------------------------------------------------

NAME_OF_STATION_ALLOWED = set("abcdefghijklmnopqrstuvwxyz0123456789-.")


def _parse_lldp(data: bytes) -> LldpFrame:
    tlvs: list[tuple[int, bytes]] = []
    pos = 0
    while pos + 2 <= len(data):
        typelen = struct.unpack(">H", data[pos : pos + 2])[0]
        tlv_type = typelen >> 9
        tlv_len = typelen & 0x01FF
        if tlv_type == LLDP_TLV_END:
            break
        value = data[pos + 2 : pos + 2 + tlv_len]
        if len(value) < tlv_len:
            raise MalformedFrame("lldp", pos, "TLV length exceeds frame")
        tlvs.append((tlv_type, value))
        pos += 2 + tlv_len

    if len(tlvs) < 3 or [t for t, _ in tlvs[:3]] != [
        LLDP_TLV_CHASSIS_ID,
        LLDP_TLV_PORT_ID,
        LLDP_TLV_TTL,
    ]:
        raise MalformedFrame("lldp", 0, "mandatory TLV order violated")

    chassis_raw = tlvs[0][1]
    port_raw = tlvs[1][1]
    ttl_raw = tlvs[2][1]
    if len(chassis_raw) < 2:
        raise MalformedFrame("lldp", 2, "chassis id too short")
    if len(port_raw) < 2:
        raise MalformedFrame("lldp", 2, "port id too short")
    if len(ttl_raw) != 2:
        raise MalformedFrame("lldp", 2, "ttl must be 2 bytes")

    violations: list[str] = []
    ttl = struct.unpack(">H", ttl_raw)[0]
    if ttl == 0:
        violations.append("ttl-zero")

    station_name = None
    descriptions: list[str] = []
    mgmt_ip = None
    pn_tlvs: list[tuple[int, bytes]] = []
    for tlv_type, value in tlvs[3:]:
        if tlv_type == LLDP_TLV_SYSTEM_NAME:
            station_name = value.decode("utf-8", errors="replace")
        elif tlv_type == LLDP_TLV_PORT_DESCRIPTION:
            descriptions.append(value.decode("utf-8", errors="replace"))
        elif tlv_type == LLDP_TLV_MGMT_ADDRESS and len(value) >= 2:
            addr_len = value[0]
            if addr_len >= 5 and value[1] == 1 and len(value) >= 1 + addr_len:
                mgmt_ip = ip_to_str(value[2:6])
        elif tlv_type == LLDP_TLV_ORG_SPECIFIC and len(value) >= 4:
            if value[0:3] == PROFINET_OUI:
                pn_tlvs.append((value[3], value[4:]))

    return LldpFrame(
        chassis_id=(chassis_raw[0], chassis_raw[1:]),
        port_id=(port_raw[0], port_raw[1:]),
        ttl_seconds=ttl,
        station_name=station_name,
        port_descriptions=tuple(descriptions),
        management_address=mgmt_ip,
        profinet_tlvs=tuple(pn_tlvs),
        violations=tuple(violations),
    )


# --- ARP -------------------------------------------------------------------


def _parse_arp(data: bytes) -> ArpPacket | OtherBody:
    raw = _need(data, 0, 28, "arp", "ARP payload")
    htype, ptype, hlen, plen, oper = struct.unpack(">HHBBH", raw[0:8])
    if htype != 1 or ptype != ETHERTYPE_IPV4 or hlen != 6 or plen != 4:
        return OtherBody(ETHERTYPE_ARP, tag="arp-non-ipv4-ethernet")
    if oper not in (1, 2):
        raise MalformedFrame("arp", 6, f"bad ARP operation {oper}")
    return ArpPacket(
        operation="request" if oper == 1 else "reply",
        sender_mac=mac_to_str(raw[8:14]),
        sender_ip=ip_to_str(raw[14:18]),
        target_mac=mac_to_str(raw[18:24]),
        target_ip=ip_to_str(raw[24:28]),
    )


# --- PROFINET RT (0x8892): DCP vs cyclic -----------------------------------


def _parse_profinet_rt(data: bytes) -> DcpFrame | PnioCyclicFrame | OtherBody:
    frame_id_raw = _need(data, 0, 2, "profinet-rt", "frame id")
    frame_id = struct.unpack(">H", frame_id_raw)[0]
    if DCP_FRAME_ID_MIN <= frame_id <= DCP_FRAME_ID_MAX:
        return _parse_dcp(data, frame_id)
    if RT_CYCLIC_MIN <= frame_id <= RT_CYCLIC_MAX:
        return _parse_pnio_cyclic(data, frame_id)
    return OtherBody(ETHERTYPE_PROFINET, tag=f"pnio-unhandled-frame-id-0x{frame_id:04x}")


def name_of_station_violations(name: str) -> list[str]:
    """PROFINET station-name rule check; returns rule tags, empty when clean."""
    issues: list[str] = []
    if not name:
        issues.append("name-empty")
        return issues
    if len(name) > 240:
        issues.append("name-too-long")
    if any(c not in NAME_OF_STATION_ALLOWED for c in name):
        issues.append("name-charset")
    for label in name.split("."):
        if not label or label.startswith("-") or label.endswith("-"):
            issues.append("name-label-shape")
            break
    return issues


def _parse_dcp(data: bytes, frame_id: int) -> DcpFrame:
    # frame_id(2) service_id(1) service_type(1) xid(4) response_delay(2) data_length(2)
    header = _need(data, 2, 10, "pn-dcp", "DCP header")
    service_id, service_type = header[0], header[1]
    xid = struct.unpack(">I", header[2:6])[0]
    data_length = struct.unpack(">H", header[8:10])[0]
    if service_id not in DCP_SERVICE_NAMES:
        raise MalformedFrame("pn-dcp", 2, f"unknown service id {service_id}")
    if service_type not in DCP_TYPE_NAMES:
        raise MalformedFrame("pn-dcp", 3, f"unknown service type {service_type}")
    blocks_raw = data[12 : 12 + data_length]
    if len(blocks_raw) < data_length:
        raise MalformedFrame("pn-dcp", 12, "dcp data length exceeds frame")

    is_request = service_type == DCP_TYPE_REQUEST
    is_set = service_id == DCP_SERVICE_SET

    violations: list[str] = []
    blocks: list[DcpBlock] = []
    pos = 0
    while pos < len(blocks_raw):
        head = blocks_raw[pos : pos + 4]
        if len(head) < 4:
            raise MalformedFrame("pn-dcp", 10 + pos, "truncated block header")
        option, suboption = head[0], head[1]
        block_len = struct.unpack(">H", head[2:4])[0]
        payload = blocks_raw[pos + 4 : pos + 4 + block_len]
        if len(payload) < block_len:
            raise MalformedFrame("pn-dcp", 10 + pos, "block length exceeds dcp data")

        is_control_result = (
            option == DCP_OPTION_CONTROL and suboption == DCP_SUBOPTION_CONTROL_RESPONSE
        )
        qualifier: int | None = None
        # Identify request filters and Control/Result blocks carry bare data;
        # Set requests prefix a BlockQualifier, responses prefix a BlockInfo.
        if not is_control_result and ((is_set and is_request) or not is_request):
            if len(payload) < 2:
                raise MalformedFrame("pn-dcp", 10 + pos, "block too short for qualifier")
            qualifier = struct.unpack(">H", payload[0:2])[0]
            payload = payload[2:]

        block = DcpBlock(option, suboption, qualifier, payload)
        if block.is_name_of_station:
            name = block.name_of_station or ""
            violations.extend(name_of_station_violations(name))
        blocks.append(block)
        pos += 4 + block_len + (block_len % 2)  # blocks pad to even length

    return DcpFrame(
        frame_id=frame_id,
        service_id=DCP_SERVICE_NAMES[service_id],
        service_type=DCP_TYPE_NAMES[service_type],
        xid=xid,
        blocks=tuple(blocks),
        violations=tuple(violations),
    )


def _parse_pnio_cyclic(data: bytes, frame_id: int) -> PnioCyclicFrame:
    if len(data) < 7:  # frame id + >=1 data byte + 4 trailer bytes
        raise MalformedFrame("pnio", 2, "cyclic frame too short for C-SDU")
    cycle_counter, data_status, transfer_status = struct.unpack(">HBB", data[-4:])
    return PnioCyclicFrame(frame_id, data[2:-4], cycle_counter, data_status, transfer_status)


# --- IPv4 / UDP / DCE-RPC / PN-CM -------------------------------------------


def _parse_ipv4(data: bytes) -> CmFrame | OtherBody:
    head = data[:20]
    if len(head) < 20:
        raise MalformedFrame("ipv4", 0, "truncated IPv4 header")
    version = head[0] >> 4
    ihl = (head[0] & 0x0F) * 4
    if version != 4:
        raise MalformedFrame("ipv4", 0, f"claimed IPv4 but version {version}")
    if ihl < 20:
        raise MalformedFrame("ipv4", 0, f"bad header length {ihl}")
    total_length = struct.unpack(">H", head[2:4])[0]
    if total_length < ihl or total_length > len(data):
        raise MalformedFrame("ipv4", 2, "total length inconsistent")
    flags_frag = struct.unpack(">H", head[6:8])[0]
    if flags_frag & 0x3FFF:  # MF set or fragment offset nonzero
        return OtherBody(ETHERTYPE_IPV4, tag="ipv4-fragment")
    protocol = head[9]
    if protocol != 17:
        return OtherBody(ETHERTYPE_IPV4)
    udp = data[ihl:total_length]
    if len(udp) < 8:
        raise MalformedFrame("udp", ihl, "truncated UDP header")
    sport, dport, udp_len = struct.unpack(">HHH", udp[0:6])
    if PNIO_CM_UDP_PORT not in (sport, dport):
        return OtherBody(ETHERTYPE_IPV4)
    if udp_len < 8 or udp_len > len(udp):
        raise MalformedFrame("udp", ihl + 4, "UDP length inconsistent")
    return _parse_dcerpc(udp[8:udp_len], ihl + 8)


def _rpc_uuid(raw: bytes, little_endian: bool) -> uuid.UUID:
    return uuid.UUID(bytes_le=raw) if little_endian else uuid.UUID(bytes=raw)


def _parse_dcerpc(data: bytes, base: int) -> CmFrame | OtherBody:
    head = data[:RPC_HEADER_LEN]
    if len(head) < RPC_HEADER_LEN:
        raise MalformedFrame("pn-cm", base, "truncated DCE/RPC header")
    if head[0] != RPC_VERSION_CL:
        return OtherBody(ETHERTYPE_IPV4, tag=f"rpc-version-{head[0]}")
    ptype = head[1]
    if ptype not in (RPC_PTYPE_REQUEST, RPC_PTYPE_RESPONSE):
        return OtherBody(ETHERTYPE_IPV4, tag=f"rpc-ptype-{ptype}")
    flags1 = head[2]
    little_endian = (head[4] & 0xF0) == 0x10
    e = "<" if little_endian else ">"
    interface_uuid = _rpc_uuid(head[24:40], little_endian)
    if interface_uuid not in (UUID_IO_DEVICE, UUID_IO_CONTROLLER):
        return OtherBody(ETHERTYPE_IPV4, tag="rpc-foreign-interface")
    opnum = struct.unpack(e + "H", head[68:70])[0]
    frag_len = struct.unpack(e + "H", head[74:76])[0]
    frag_num = struct.unpack(e + "H", head[76:78])[0]
    if frag_num != 0 or ((flags1 & 0x04) and not (flags1 & 0x02)):
        raise MalformedFrame("pn-cm", base, "fragmented RPC PDU unsupported")
    body = data[RPC_HEADER_LEN : RPC_HEADER_LEN + frag_len]
    if len(body) < frag_len:
        raise MalformedFrame("pn-cm", base + RPC_HEADER_LEN, "fragment length exceeds datagram")

    if opnum > RPC_OPNUM_CONTROL:
        return OtherBody(ETHERTYPE_IPV4, tag=f"pn-cm-opnum-{opnum}")
    direction = "request" if ptype == RPC_PTYPE_REQUEST else "response"

    # NDR args: args_max/status(4) args_len(4) max_count(4) offset(4) actual_count(4)
    if len(body) < 20:
        raise MalformedFrame("pn-cm", base + RPC_HEADER_LEN, "truncated NDR args header")
    args_len = struct.unpack(e + "I", body[4:8])[0]
    blocks_raw = body[20 : 20 + args_len]
    if len(blocks_raw) < args_len:
        raise MalformedFrame("pn-cm", base + RPC_HEADER_LEN + 4, "args length exceeds fragment")

    return _parse_cm_blocks(direction, opnum, blocks_raw, base + RPC_HEADER_LEN + 20)


def _iter_blocks(raw: bytes, base: int):
    pos = 0
    while pos < len(raw):
        head = raw[pos : pos + 6]
        if len(head) < 6:
            raise MalformedFrame("pn-cm", base + pos, "truncated block header")
        block_type, block_len = struct.unpack(">HH", head[0:4])
        content = raw[pos + 6 : pos + 4 + block_len]
        if block_len < 2 or len(content) < block_len - 2:
            raise MalformedFrame("pn-cm", base + pos, "block length exceeds args")
        yield block_type, content, base + pos
        pos += 4 + block_len


def _parse_cm_blocks(direction: str, opnum: int, raw: bytes, base: int) -> CmFrame:
    ar_uuid: uuid.UUID | None = None
    initiator_mac: str | None = None
    station_name: str | None = None
    iocrs: list[IocrBlock] = []
    submodules: list[ExpectedSubmodule] = []
    operation: str | None = None
    slot = subslot = record_index = None
    record_data = b""

    for block_type, content, at in _iter_blocks(raw, base):
        if block_type in (BLOCK_AR_REQ, BLOCK_AR_RES):
            # ar_type(2) ar_uuid(16) session_key(2) mac(6) then request-only:
            # object_uuid(16) properties(4) timeout(2) udp_port(2) name_len(2) name
            operation = "Connect"
            if len(content) < 26:
                raise MalformedFrame("pn-cm", at, "AR block too short")
            ar_uuid = uuid.UUID(bytes=content[2:18])
            initiator_mac = mac_to_str(content[20:26])
            if block_type == BLOCK_AR_REQ:
                if len(content) < 52:
                    raise MalformedFrame("pn-cm", at, "AR request block too short")
                name_len = struct.unpack(">H", content[50:52])[0]
                name_raw = content[52 : 52 + name_len]
                if len(name_raw) < name_len:
                    raise MalformedFrame("pn-cm", at, "station name exceeds AR block")
                station_name = name_raw.decode("utf-8", errors="replace")
        elif block_type == BLOCK_IOCR_REQ:
            if len(content) < 18:
                raise MalformedFrame("pn-cm", at, "IOCR block too short")
            (cr_type, reference, _lt, data_length, frame_id, send_clock,
             reduction, watchdog, data_hold) = struct.unpack(">HHHHHHHHH", content[0:18])
            if cr_type not in (CR_INPUT, CR_OUTPUT):
                raise MalformedFrame("pn-cm", at, f"bad IOCR type {cr_type}")
            iocrs.append(
                IocrBlock(
                    cr_type="input" if cr_type == CR_INPUT else "output",
                    reference=reference,
                    frame_id=frame_id,
                    data_length=data_length,
                    send_clock=send_clock,
                    reduction_ratio=reduction,
                    watchdog_factor=watchdog,
                    data_hold_factor=data_hold,
                )
            )
        elif block_type == BLOCK_IOCR_RES:
            operation = operation or "Connect"
        elif block_type == BLOCK_EXPECTED_SUBMODULES:
            submodules.extend(_parse_expected_submodules(content, at))
        elif block_type in (BLOCK_WRITE_REQ, BLOCK_WRITE_RES, BLOCK_READ_REQ, BLOCK_READ_RES):
            # seq(2) ar_uuid(16) api(4) slot(2) subslot(2) index(2) data_len(4) data
            operation = "Write" if block_type in (BLOCK_WRITE_REQ, BLOCK_WRITE_RES) else "Read"
            if len(content) < 32:
                raise MalformedFrame("pn-cm", at, "record block too short")
            ar_uuid = uuid.UUID(bytes=content[2:18])
            slot, subslot, record_index = struct.unpack(">HHH", content[22:28])
            data_len = struct.unpack(">I", content[28:32])[0]
            record_data = content[32 : 32 + data_len]
            if len(record_data) < data_len:
                raise MalformedFrame("pn-cm", at, "record data exceeds block")
        elif block_type in (BLOCK_DCONTROL_REQ, BLOCK_DCONTROL_RES):
            operation = "DControl"
            if len(content) < 18:
                raise MalformedFrame("pn-cm", at, "control block too short")
            ar_uuid = uuid.UUID(bytes=content[2:18])
        elif block_type in (BLOCK_CCONTROL_REQ, BLOCK_CCONTROL_RES):
            operation = "CControl"
            if len(content) < 18:
                raise MalformedFrame("pn-cm", at, "control block too short")
            ar_uuid = uuid.UUID(bytes=content[2:18])
        elif block_type == BLOCK_RELEASE:
            operation = "Release"
            if len(content) >= 18:
                ar_uuid = uuid.UUID(bytes=content[2:18])
        else:
            raise MalformedFrame("pn-cm", at, f"unknown block type 0x{block_type:04x}")

    if operation is None:
        # Map bare opnums for block-less PDUs (e.g. empty responses).
        operation = {
            RPC_OPNUM_CONNECT: "Connect",
            RPC_OPNUM_RELEASE: "Release",
            RPC_OPNUM_READ: "Read",
            RPC_OPNUM_WRITE: "Write",
            RPC_OPNUM_CONTROL: "DControl",
        }[opnum]
    if operation == "Connect" and direction == "request":
        if ar_uuid is None:
            raise MalformedFrame("pn-cm", base, "Connect request without AR block")
        if iocrs and not submodules:
            raise MalformedFrame("pn-cm", base, "IO CRs declared without expected submodules")

    return CmFrame(
        direction=direction,
        operation=operation,
        ar_uuid=ar_uuid,
        iocr_blocks=tuple(iocrs),
        expected_submodules=tuple(submodules),
        initiator_mac=initiator_mac,
        station_name=station_name,
        slot=slot,
        subslot=subslot,
        record_index=record_index,
        record_data=record_data,
    )


def _parse_expected_submodules(content: bytes, at: int) -> list[ExpectedSubmodule]:
    out: list[ExpectedSubmodule] = []
    if len(content) < 2:
        raise MalformedFrame("pn-cm", at, "expected submodule block too short")
    num_slots = struct.unpack(">H", content[0:2])[0]
    pos = 2
    for _ in range(num_slots):
        head = content[pos : pos + 8]
        if len(head) < 8:
            raise MalformedFrame("pn-cm", at + pos, "truncated slot entry")
        slot, module_id, num_sub = struct.unpack(">HIH", head)
        pos += 8
        for _ in range(num_sub):
            entry = content[pos : pos + 11]
            if len(entry) < 11:
                raise MalformedFrame("pn-cm", at + pos, "truncated submodule entry")
            subslot, submodule_id, direction, data_length, iops_len, iocs_len = struct.unpack(
                ">HIBHBB", entry[0:11]
            )
            if direction not in (CR_INPUT, CR_OUTPUT):
                raise MalformedFrame("pn-cm", at + pos, f"bad submodule direction {direction}")
            out.append(
                ExpectedSubmodule(
                    slot=slot,
                    subslot=subslot,
                    module_id=module_id,
                    submodule_id=submodule_id,
                    data_description=(
                        "input" if direction == CR_INPUT else "output",
                        data_length,
                        iops_len,
                        iocs_len,
                    ),
                )
            )
            pos += 11
    if pos != len(content):
        raise MalformedFrame("pn-cm", at + pos, "trailing bytes in expected submodule block")
    return out


# --- Cyclic data layout ------------------------------------------------------


def extract_io_specs(connect: CmFrame) -> list[IoDataSpec]:
    """Compute per-submodule C-SDU offsets from a Connect request.

    Within a CR, each submodule of that direction contributes its data bytes
    followed by its IOPS bytes, in declaration order; consumer-status (IOCS)
    bytes for the opposite direction's submodules trail at the end of the CR.
    """
    if connect.operation != "Connect" or connect.direction != "request":
        raise ValueError("extract_io_specs needs a Connect request")
    specs: list[IoDataSpec] = []
    by_direction: dict[str, int] = {"input": 0, "output": 0}
    for direction in ("input", "output"):
        offset = 0
        for sub in connect.expected_submodules:
            sub_dir, data_length, iops_len, _iocs_len = sub.data_description
            if sub_dir != direction:
                continue
            specs.append(
                IoDataSpec(
                    direction=direction,
                    slot=sub.slot,
                    subslot=sub.subslot,
                    offset=offset,
                    length=data_length,
                    iops_length=iops_len,
                )
            )
            offset += data_length + iops_len
        opposite = "output" if direction == "input" else "input"
        iocs_total = sum(
            sub.data_description[3]
            for sub in connect.expected_submodules
            if sub.data_description[0] == opposite
        )
        by_direction[direction] = offset + iocs_total

    for iocr in connect.iocr_blocks:
        expected = by_direction[iocr.cr_type]
        if iocr.data_length != expected:
            raise InconsistentConnect(
                f"{iocr.cr_type} CR declares {iocr.data_length} bytes, layout needs {expected}"
            )
    return specs

