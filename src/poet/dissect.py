"""Frame dissectors for the PROFINET protocol family.

Raw Ethernet frames are classified by ethertype and decoded into typed frame
structures: LLDP (0x88CC), ARP (0x0806), PN-DCP and PNIO cyclic (0x8892,
split by frame id), and PN-CM as DCE/RPC over UDP port 34964. Anything else
passes through as Other. A frame that claims one of these protocols but
violates its own structure raises MalformedFrame; dissection never raises
anything else for inputs of at least 14 bytes.

All PROFINET application fields are big-endian. The DCE/RPC connectionless
header honours its drep byte. Only the facts poet reads are decoded, each one
once. Every MAC address is decoded here to the lowercase "aa:bb:cc:dd:ee:ff"
text that the rest of poet keys on.
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

# LLDP TLV types
LLDP_TLV_END = 0
LLDP_TLV_CHASSIS_ID = 1
LLDP_TLV_PORT_ID = 2
LLDP_TLV_TTL = 3
LLDP_TLV_SYSTEM_NAME = 5
LLDP_TLV_MGMT_ADDRESS = 8
LLDP_SUBTYPE_MAC = 4  # chassis id subtype
LLDP_PORT_SUBTYPE_MAC = 3

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
BLOCK_ALARMCR_REQ = 0x0103
BLOCK_ALARMCR_RES = 0x8103
BLOCK_EXPECTED_SUBMODULES = 0x0104
BLOCK_MODULE_DIFF = 0x8104
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
class LldpFrame:
    # The MAC the frame speaks for: a 6-byte chassis id of the MAC subtype, else the source MAC.
    subject_mac: str
    port_mac: str | None  # a port id of the MAC subtype; None for any other subtype
    station_name: str | None = None
    management_address: str | None = None
    violations: tuple[str, ...] = ()


@dataclass(slots=True)
class ArpPacket:
    sender_mac: str
    sender_ip: str
    target_ip: str

    @property
    def is_gratuitous(self) -> bool:
        return self.sender_ip == self.target_ip


@dataclass(slots=True)
class DcpFrame:
    service_id: str  # "Identify" | "Get" | "Set" | "Hello"
    service_type: str  # "Request" | "ResponseSuccess" | "ResponseUnsupported"
    # The blocks poet reads, decoded in block order: ("name", str), ("ip", (ip, subnet,
    # gateway)), ("device_id", (vendor, device)), ("ip_acknowledged", None) or
    # ("ip_refused", block error).
    facts: tuple[tuple[str, object], ...]
    name_of_station: str | None  # of the first name block
    violations: tuple[str, ...] = ()


@dataclass(slots=True)
class IocrBlock:
    cr_type: str  # "input" | "output"
    frame_id: int
    data_length: int


@dataclass(slots=True)
class CmFrame:
    direction: str  # "request" | "response"
    operation: str  # Connect | Write | Read | DControl | CControl | Release
    ar_uuid: uuid.UUID | None
    iocr_blocks: tuple[IocrBlock, ...] = ()
    # each submodule's (direction, data_length, iops_length, iocs_length)
    expected_submodules: tuple[tuple[str, int, int, int], ...] = ()


@dataclass(slots=True)
class PnioCyclicFrame:
    frame_id: int
    data: bytes  # the C-SDU, without the cycle counter and status trailer


class OtherBody:
    """A frame poet does not follow; it carries nothing."""

    __slots__ = ()


_OTHER = OtherBody()


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
    dst_mac: str
    src_mac: str
    body: Body
    capture_index: int  # of the source frame
    protocol: str  # "lldp" | "arp" | "pn-dcp" | "pn-cm" | "pnio" | "other"


_U16 = struct.Struct(">H").unpack_from


def _need(data: bytes, offset: int, count: int, protocol: str, what: str) -> bytes:
    if offset + count > len(data):
        raise MalformedFrame(protocol, offset, f"truncated {what}")
    return data[offset : offset + count]


def dissect(raw: RawFrame) -> ParsedFrame:
    """Dissect one raw frame into a typed ParsedFrame.

    Unknown traffic becomes Other; structurally broken claims of a known
    protocol raise MalformedFrame.
    """
    frame = raw.frame_bytes
    if len(frame) < 14:
        raise MalformedFrame("ethernet", 0, "frame shorter than 14 bytes")
    # mac_to_str, inlined: this runs for every frame.
    dst = frame[0:6].hex(":")
    src = frame[6:12].hex(":")
    ethertype = _U16(frame, 12)[0]
    start = 14  # of the payload
    if ethertype == ETHERTYPE_VLAN:
        # The tag's priority and VLAN id are skipped: poet keys on neither.
        if len(frame) < 18:
            raise MalformedFrame("ethernet", 14, "truncated VLAN tag")
        ethertype = _U16(frame, 16)[0]
        start = 18

    if ethertype == ETHERTYPE_PROFINET:
        body: Body = _parse_profinet_rt(frame, start)
    elif ethertype == ETHERTYPE_LLDP:
        body = _parse_lldp(frame[start:], src)
    elif ethertype == ETHERTYPE_ARP:
        body = _parse_arp(frame[start:])
    elif ethertype == ETHERTYPE_IPV4:
        body = _parse_ipv4(frame[start:])
    else:
        body = _OTHER
    return ParsedFrame(dst, src, body, raw.capture_index, _PROTOCOL_TAGS[type(body)])


# --- LLDP ------------------------------------------------------------------

NAME_OF_STATION_ALLOWED = frozenset("abcdefghijklmnopqrstuvwxyz0123456789-.")


def _parse_lldp(data: bytes, src_mac: str) -> LldpFrame:
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

    station_name = None
    mgmt_ip = None
    for tlv_type, value in tlvs[3:]:
        if tlv_type == LLDP_TLV_SYSTEM_NAME:
            station_name = value.decode("utf-8", errors="replace")
        elif tlv_type == LLDP_TLV_MGMT_ADDRESS and len(value) >= 2:
            addr_len = value[0]
            if addr_len >= 5 and value[1] == 1 and len(value) >= 1 + addr_len:
                mgmt_ip = ip_to_str(value[2:6])

    return LldpFrame(
        subject_mac=_lldp_mac(chassis_raw, LLDP_SUBTYPE_MAC) or src_mac,
        port_mac=_lldp_mac(port_raw, LLDP_PORT_SUBTYPE_MAC),
        station_name=station_name,
        management_address=mgmt_ip,
        violations=("ttl-zero",) if ttl_raw == b"\x00\x00" else (),
    )


def _lldp_mac(id_tlv: bytes, mac_subtype: int) -> str | None:
    """The MAC a chassis or port id TLV holds, if it is of the MAC subtype."""
    if id_tlv[0] == mac_subtype and len(id_tlv) == 7:
        return mac_to_str(id_tlv[1:])
    return None


# --- ARP -------------------------------------------------------------------


def _parse_arp(data: bytes) -> ArpPacket | OtherBody:
    raw = _need(data, 0, 28, "arp", "ARP payload")
    htype, ptype, hlen, plen, oper = struct.unpack(">HHBBH", raw[0:8])
    if htype != 1 or ptype != ETHERTYPE_IPV4 or hlen != 6 or plen != 4:
        return _OTHER
    if oper not in (1, 2):
        raise MalformedFrame("arp", 6, f"bad ARP operation {oper}")
    return ArpPacket(
        sender_mac=mac_to_str(raw[8:14]),
        sender_ip=ip_to_str(raw[14:18]),
        target_ip=ip_to_str(raw[24:28]),
    )


# --- PROFINET RT (0x8892): DCP vs cyclic -----------------------------------


def _parse_profinet_rt(frame: bytes, start: int) -> DcpFrame | PnioCyclicFrame | OtherBody:
    """The RT payload at `start`, read in place; refusal offsets count from `start`."""
    size = len(frame) - start
    if size < 2:
        raise MalformedFrame("profinet-rt", 0, "truncated frame id")
    frame_id = _U16(frame, start)[0]
    if RT_CYCLIC_MIN <= frame_id <= RT_CYCLIC_MAX:
        if size < 7:  # frame id + >=1 data byte + 4 trailer bytes
            raise MalformedFrame("pnio", 2, "cyclic frame too short for C-SDU")
        return PnioCyclicFrame(frame_id, frame[start + 2 : -4])
    if DCP_FRAME_ID_MIN <= frame_id <= DCP_FRAME_ID_MAX:
        return _parse_dcp(frame[start:])
    return _OTHER


def name_of_station_violations(name: str) -> list[str]:
    """PROFINET station-name rule check; returns rule tags, empty when clean."""
    issues: list[str] = []
    if not name:
        issues.append("name-empty")
        return issues
    if len(name) > 240:
        issues.append("name-too-long")
    if not NAME_OF_STATION_ALLOWED.issuperset(name):
        issues.append("name-charset")
    for label in name.split("."):
        if not label or label.startswith("-") or label.endswith("-"):
            issues.append("name-label-shape")
            break
    return issues


_NAME_OF_STATION = (DCP_OPTION_DEVICE, DCP_SUBOPTION_NAME_OF_STATION)
_IP_PARAMETER = (DCP_OPTION_IP, DCP_SUBOPTION_IP_PARAMETER)
_DEVICE_ID = (DCP_OPTION_DEVICE, DCP_SUBOPTION_DEVICE_ID)
_CONTROL_RESULT = (DCP_OPTION_CONTROL, DCP_SUBOPTION_CONTROL_RESPONSE)


def _parse_dcp(data: bytes) -> DcpFrame:
    # frame_id(2) service_id(1) service_type(1) xid(4) response_delay(2) data_length(2)
    header = _need(data, 2, 10, "pn-dcp", "DCP header")
    service_id, service_type = header[0], header[1]
    data_length = struct.unpack(">H", header[8:10])[0]
    if service_id not in DCP_SERVICE_NAMES:
        raise MalformedFrame("pn-dcp", 2, f"unknown service id {service_id}")
    if service_type not in DCP_TYPE_NAMES:
        raise MalformedFrame("pn-dcp", 3, f"unknown service type {service_type}")
    blocks_raw = data[12 : 12 + data_length]
    if len(blocks_raw) < data_length:
        raise MalformedFrame("pn-dcp", 12, "dcp data length exceeds frame")

    # Identify request filters and Control/Result blocks carry bare data; Set
    # requests prefix a BlockQualifier, responses and Hello requests a BlockInfo.
    prefixed = service_id in (DCP_SERVICE_SET, DCP_SERVICE_HELLO) or service_type != DCP_TYPE_REQUEST

    facts: list[tuple[str, object]] = []
    first_name: str | None = None
    violations: list[str] = []
    pos = 0
    while pos < len(blocks_raw):
        at = 12 + pos  # refusal offsets count from the RT payload, as the header's do
        head = blocks_raw[pos : pos + 4]
        if len(head) < 4:
            raise MalformedFrame("pn-dcp", at, "truncated block header")
        block = (head[0], head[1])
        block_len = _U16(head, 2)[0]
        payload = blocks_raw[pos + 4 : pos + 4 + block_len]
        if len(payload) < block_len:
            raise MalformedFrame("pn-dcp", at, "block length exceeds dcp data")
        pos += 4 + block_len + (block_len % 2)  # blocks pad to even length

        if block == _CONTROL_RESULT:
            # The answered option and suboption, then a BlockError; zero (or none) acknowledges.
            if tuple(payload[:2]) == _IP_PARAMETER:
                error = payload[2] if len(payload) > 2 else 0
                facts.append(("ip_refused", error) if error else ("ip_acknowledged", None))
            continue
        if prefixed:
            if len(payload) < 2:
                raise MalformedFrame("pn-dcp", at, "block too short for qualifier")
            payload = payload[2:]
        if block == _NAME_OF_STATION:
            name = payload.decode("utf-8", errors="replace")
            violations.extend(name_of_station_violations(name))
            facts.append(("name", name))
            if first_name is None:
                first_name = name
        elif block == _IP_PARAMETER and len(payload) >= 12:
            ip = (ip_to_str(payload[0:4]), ip_to_str(payload[4:8]), ip_to_str(payload[8:12]))
            facts.append(("ip", ip))
        elif block == _DEVICE_ID and len(payload) >= 4:
            facts.append(("device_id", struct.unpack(">HH", payload[0:4])))

    return DcpFrame(
        service_id=DCP_SERVICE_NAMES[service_id],
        service_type=DCP_TYPE_NAMES[service_type],
        facts=tuple(facts),
        name_of_station=first_name,
        violations=tuple(violations),
    )


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
    # A fragment (MF set or fragment offset nonzero), or not UDP.
    if flags_frag & 0x3FFF or head[9] != 17:
        return _OTHER
    udp = data[ihl:total_length]
    if len(udp) < 8:
        raise MalformedFrame("udp", ihl, "truncated UDP header")
    sport, dport, udp_len = struct.unpack(">HHH", udp[0:6])
    if PNIO_CM_UDP_PORT not in (sport, dport):
        return _OTHER
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
        return _OTHER
    ptype = head[1]
    if ptype not in (RPC_PTYPE_REQUEST, RPC_PTYPE_RESPONSE):
        return _OTHER
    flags1 = head[2]
    little_endian = (head[4] & 0xF0) == 0x10
    e = "<" if little_endian else ">"
    interface_uuid = _rpc_uuid(head[24:40], little_endian)
    if interface_uuid not in (UUID_IO_DEVICE, UUID_IO_CONTROLLER):
        return _OTHER
    opnum = struct.unpack(e + "H", head[68:70])[0]
    frag_len = struct.unpack(e + "H", head[74:76])[0]
    frag_num = struct.unpack(e + "H", head[76:78])[0]
    if frag_num != 0 or ((flags1 & 0x04) and not (flags1 & 0x02)):
        raise MalformedFrame("pn-cm", base, "fragmented RPC PDU unsupported")
    body = data[RPC_HEADER_LEN : RPC_HEADER_LEN + frag_len]
    if len(body) < frag_len:
        raise MalformedFrame("pn-cm", base + RPC_HEADER_LEN, "fragment length exceeds datagram")

    if opnum > RPC_OPNUM_CONTROL:
        return _OTHER
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


# Each block that names an AR: block type -> (operation, least content length, refusal).
# The AR UUID follows a 2-byte field in each; a Release may omit it, so it has no least length.
_AR_BLOCKS: dict[int, tuple[str, int, str]] = {
    # ar_type(2) ar_uuid(16) session_key(2) mac(6), then a request's object_uuid(16)
    # properties(4) timeout(2) udp_port(2) name_len(2) name
    BLOCK_AR_REQ: ("Connect", 26, "AR block too short"),
    BLOCK_AR_RES: ("Connect", 26, "AR block too short"),
    # seq(2) ar_uuid(16) api(4) slot(2) subslot(2) index(2) data_len(4) data
    BLOCK_WRITE_REQ: ("Write", 32, "record block too short"),
    BLOCK_WRITE_RES: ("Write", 32, "record block too short"),
    BLOCK_READ_REQ: ("Read", 32, "record block too short"),
    BLOCK_READ_RES: ("Read", 32, "record block too short"),
    BLOCK_DCONTROL_REQ: ("DControl", 18, "control block too short"),
    BLOCK_DCONTROL_RES: ("DControl", 18, "control block too short"),
    BLOCK_CCONTROL_REQ: ("CControl", 18, "control block too short"),
    BLOCK_CCONTROL_RES: ("CControl", 18, "control block too short"),
    BLOCK_RELEASE: ("Release", 0, ""),
}
# Connect blocks that poet does not read: framing-checked and skipped. Alone they
# name the operation Connect; a block of _AR_BLOCKS names it in their place.
_SKIPPED_BLOCKS = frozenset({BLOCK_IOCR_RES, BLOCK_ALARMCR_REQ, BLOCK_ALARMCR_RES, BLOCK_MODULE_DIFF})
# The operation of a PDU without blocks (e.g. an empty response), by opnum.
_OPNUM_OPERATIONS = ("Connect", "Release", "Read", "Write", "DControl")


def _parse_cm_blocks(direction: str, opnum: int, raw: bytes, base: int) -> CmFrame:
    ar_uuid: uuid.UUID | None = None
    iocrs: list[IocrBlock] = []
    submodules: list[tuple[str, int, int, int]] = []
    operation: str | None = None

    for block_type, content, at in _iter_blocks(raw, base):
        ar_block = _AR_BLOCKS.get(block_type)
        if ar_block is not None:
            operation, least, too_short = ar_block
            if len(content) < least:
                raise MalformedFrame("pn-cm", at, too_short)
            if len(content) >= 18:
                ar_uuid = uuid.UUID(bytes=content[2:18])
            if block_type == BLOCK_AR_REQ:
                if len(content) < 52:
                    raise MalformedFrame("pn-cm", at, "AR request block too short")
                name_len = struct.unpack(">H", content[50:52])[0]
                if len(content) < 52 + name_len:
                    raise MalformedFrame("pn-cm", at, "station name exceeds AR block")
            elif operation in ("Write", "Read"):
                data_len = struct.unpack(">I", content[28:32])[0]
                if len(content) < 32 + data_len:
                    raise MalformedFrame("pn-cm", at, "record data exceeds block")
        elif block_type == BLOCK_IOCR_REQ:
            # cr_type(2) reference(2) lt(2) data_length(2) frame_id(2) then timing(8)
            if len(content) < 18:
                raise MalformedFrame("pn-cm", at, "IOCR block too short")
            cr_type, data_length, frame_id = struct.unpack(">H4xHH", content[0:10])
            if cr_type not in (CR_INPUT, CR_OUTPUT):
                raise MalformedFrame("pn-cm", at, f"bad IOCR type {cr_type}")
            iocrs.append(IocrBlock("input" if cr_type == CR_INPUT else "output", frame_id, data_length))
        elif block_type in _SKIPPED_BLOCKS:
            operation = operation or "Connect"
        elif block_type == BLOCK_EXPECTED_SUBMODULES:
            submodules.extend(_parse_expected_submodules(content, at))
        else:
            raise MalformedFrame("pn-cm", at, f"unknown block type 0x{block_type:04x}")

    operation = operation or _OPNUM_OPERATIONS[opnum]
    if operation == "Connect" and direction == "request":
        if ar_uuid is None:
            raise MalformedFrame("pn-cm", base, "Connect request without AR block")
        if iocrs and not submodules:
            raise MalformedFrame("pn-cm", base, "IO CRs declared without expected submodules")

    return CmFrame(direction, operation, ar_uuid, tuple(iocrs), tuple(submodules))


def _parse_expected_submodules(content: bytes, at: int) -> list[tuple[str, int, int, int]]:
    out: list[tuple[str, int, int, int]] = []
    if len(content) < 2:
        raise MalformedFrame("pn-cm", at, "expected submodule block too short")
    num_slots = struct.unpack(">H", content[0:2])[0]
    pos = 2
    for _ in range(num_slots):
        head = content[pos : pos + 8]
        if len(head) < 8:
            raise MalformedFrame("pn-cm", at + pos, "truncated slot entry")
        # slot(2) module_id(4) then the count of submodules
        num_sub = struct.unpack(">H", head[6:8])[0]
        pos += 8
        for _ in range(num_sub):
            # subslot(2) submodule_id(4) then the data description
            entry = content[pos : pos + 11]
            if len(entry) < 11:
                raise MalformedFrame("pn-cm", at + pos, "truncated submodule entry")
            direction, data_length, iops_len, iocs_len = struct.unpack(">BHBB", entry[6:11])
            if direction not in (CR_INPUT, CR_OUTPUT):
                raise MalformedFrame("pn-cm", at + pos, f"bad submodule direction {direction}")
            out.append(("input" if direction == CR_INPUT else "output", data_length, iops_len, iocs_len))
            pos += 11
    if pos != len(content):
        raise MalformedFrame("pn-cm", at + pos, "trailing bytes in expected submodule block")
    return out
