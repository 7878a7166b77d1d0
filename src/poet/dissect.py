"""Frame dissectors for the PROFINET protocol family.

Raw Ethernet frames are classified by ethertype and decoded into typed frame
structures: LLDP (0x88CC), ARP (0x0806), PN-DCP and PNIO cyclic (0x8892,
split by frame id), and PN-CM as DCE/RPC over UDP port 34964. Each frame
becomes one record of its protocol's class; anything else is a bare
ParsedFrame tagged "other". A frame that claims one of these protocols but
violates its own structure raises MalformedFrame; dissection never raises
anything else for inputs of at least 14 bytes.

All PROFINET application fields are big-endian. The DCE/RPC connectionless
header honours its drep byte. Only the facts poet reads are decoded, each one
once. Every parser reads the frame in place, at absolute positions, from its
payload's offset after the Ethernet header and any 802.1Q tag; a refusal's
offset counts from there. Every MAC address is decoded here to the lowercase
"aa:bb:cc:dd:ee:ff" text that the rest of poet keys on.
"""

from __future__ import annotations

import re
import struct
from typing import ClassVar

from .capture import RawFrame
from .record import Record

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
LLDP_TLV_ORG_SPECIFIC = 127
# The PNO Chassis-MAC TLV: the PROFINET OUI 00-0E-CF and subtype 5, then the interface MAC.
LLDP_PNO_CHASSIS_MAC = b"\x00\x0e\xcf\x05"
LLDP_SUBTYPE_MAC = 4  # chassis id subtype
LLDP_SUBTYPE_LOCAL = 7  # chassis id subtype: locally assigned
LLDP_PORT_SUBTYPE_MAC = 3

# DCE/RPC connectionless
RPC_VERSION_CL = 4
RPC_PTYPE_REQUEST = 0
RPC_PTYPE_RESPONSE = 2
RPC_HEADER_LEN = 80
# The PN-IO device and controller interface UUIDs, big-endian as a drep ">" header carries them.
UUID_IO_DEVICE = bytes.fromhex("dea000016c9711d1827100a02442df7d")
UUID_IO_CONTROLLER = bytes.fromhex("dea000026c9711d1827100a02442df7d")

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
BLOCK_RELEASE_RES = 0x8114

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


def ip_to_str(ip: bytes) -> str:
    return ".".join(str(b) for b in ip)


class ParsedFrame(Record):
    """One dissected frame: its Ethernet addresses and capture index.

    Each protocol poet follows is a subclass that adds the facts poet reads and
    sets its own `protocol` tag; a frame poet does not follow is a bare
    ParsedFrame, tagged "other".
    """

    __slots__ = ("dst_mac", "src_mac", "capture_index")  # capture_index: of the source frame
    protocol: ClassVar[str] = "other"  # "lldp" | "arp" | "pn-dcp" | "pn-cm" | "pnio" | "other"


class LldpFrame(ParsedFrame):
    __slots__ = (
        # The MAC the frame speaks for: the PNO Chassis-MAC TLV's, else a 6-byte chassis id of
        # the MAC subtype, else the source MAC.
        "subject_mac",
        # A 6-byte port id of the MAC subtype; else, with the PNO Chassis-MAC TLV, the source MAC.
        "port_mac",
        # The System Name; else, with the PNO Chassis-MAC TLV, a locally assigned chassis id.
        "station_name",
        "management_address",
        "violations",
    )
    _defaults = {"station_name": None, "management_address": None, "violations": ()}
    protocol: ClassVar[str] = "lldp"


class ArpPacket(ParsedFrame):
    __slots__ = ("sender_mac", "sender_ip", "target_ip")
    protocol: ClassVar[str] = "arp"

    @property
    def is_gratuitous(self) -> bool:
        return self.sender_ip == self.target_ip


class DcpFrame(ParsedFrame):
    __slots__ = (
        "service_id",  # "Identify" | "Get" | "Set" | "Hello"
        "service_type",  # "Request" | "ResponseSuccess" | "ResponseUnsupported"
        # The blocks poet reads, decoded in block order: ("name", str), ("ip", (ip, subnet,
        # gateway)), ("device_id", (vendor, device)), ("ip_acknowledged", None) or
        # ("ip_refused", block error).
        "facts",
        "name_of_station",  # of the first name block
        "violations",
    )
    _defaults = {"violations": ()}
    protocol: ClassVar[str] = "pn-dcp"


class IocrBlock(Record):
    __slots__ = ("cr_type", "frame_id", "data_length")  # cr_type: "input" | "output"


class CmFrame(ParsedFrame):
    __slots__ = (
        "direction",  # "request" | "response"
        "operation",  # Connect | Write | Read | DControl | CControl | Release
        "ar_uuid",  # the 16 bytes of the AR UUID as its block carries them, or None
        "iocr_blocks",
        "expected_submodules",  # each submodule's (direction, data_length, iops_length, iocs_length)
    )
    _defaults = {"iocr_blocks": (), "expected_submodules": ()}
    protocol: ClassVar[str] = "pn-cm"


class PnioCyclicFrame(ParsedFrame):
    __slots__ = ("frame_id", "data")  # data: the C-SDU, without the cycle counter and status trailer
    protocol: ClassVar[str] = "pnio"


_U16 = struct.Struct(">H").unpack_from
# The Ethernet header and the 16-bit word after it, which is an untagged PROFINET frame's frame id;
# and the header alone, for a frame of 14 or 15 bytes.
_ETHERNET_HEADER = struct.Struct(">6s6sHH").unpack_from
_ETHERNET_HEADER_ONLY = struct.Struct(">6s6sH").unpack_from


def dissect(raw: RawFrame) -> ParsedFrame:
    """Dissect one raw frame into one record of its protocol's ParsedFrame subclass.

    Unknown traffic becomes a bare ParsedFrame; structurally broken claims of a
    known protocol raise MalformedFrame. Every parser reads the frame in place
    from its payload's offset `start`, and counts its refusal offsets from there.
    Each gets the frame's (dst_mac, src_mac, capture_index), the fields its record
    starts with; the LLDP parser gets the source MAC alone and returns the fields
    after them, which a PDU seen before reads from a table.
    """
    frame = raw.frame_bytes
    size = len(frame)
    if size >= 16:
        dst, src, ethertype, frame_id = _ETHERNET_HEADER(frame)
    elif size >= 14:
        dst, src, ethertype = _ETHERNET_HEADER_ONLY(frame)
        frame_id = None  # the frame ends first
    else:
        raise MalformedFrame("ethernet", 0, "frame shorter than 14 bytes")
    # MACs as colon-separated lowercase hex, the form every record and report shows.
    dst = dst.hex(":")
    src = src.hex(":")
    start = 14  # of the payload
    if ethertype == ETHERTYPE_VLAN:
        # The tag's priority and VLAN id are skipped: poet keys on neither.
        if size < 18:
            raise MalformedFrame("ethernet", 14, "truncated VLAN tag")
        ethertype = _U16(frame, 16)[0]
        start = 18
        frame_id = _U16(frame, 18)[0] if size >= 20 else None

    if ethertype == ETHERTYPE_PROFINET:
        # The RT payload is read in place; its refusal offsets count from `start`.
        if frame_id is None:
            raise MalformedFrame("profinet-rt", 0, "truncated frame id")
        if RT_CYCLIC_MIN <= frame_id <= RT_CYCLIC_MAX:
            # Nearly all of a running plant's frames, so built here.
            if size - start < 7:  # frame id + >=1 data byte + 4 trailer bytes
                raise MalformedFrame("pnio", 2, "cyclic frame too short for C-SDU")
            return PnioCyclicFrame(dst, src, raw.capture_index, frame_id, frame[start + 2 : -4])
        if DCP_FRAME_ID_MIN <= frame_id <= DCP_FRAME_ID_MAX:
            return _parse_dcp(frame, start, (dst, src, raw.capture_index))
    elif ethertype == ETHERTYPE_LLDP:
        # A station repeats its PDU byte for byte on each refresh, so the TLVs are walked twice
        # at most: once when the PDU is first seen, and once to keep its facts.
        key = frame[6:]
        facts = _LLDP_FACTS.get(key)
        if not facts:  # unseen (None), or seen once (())
            seen = facts is not None
            facts = _parse_lldp(frame, start, src)
            if len(_LLDP_FACTS) >= LLDP_FACTS_BOUND:
                _LLDP_FACTS.clear()
            _LLDP_FACTS[key] = facts if seen else ()
        return LldpFrame(dst, src, raw.capture_index, *facts)
    elif ethertype == ETHERTYPE_ARP:
        return _parse_arp(frame, start, (dst, src, raw.capture_index))
    elif ethertype == ETHERTYPE_IPV4:
        return _parse_ipv4(frame, start, (dst, src, raw.capture_index))
    return ParsedFrame(dst, src, raw.capture_index)


# --- LLDP ------------------------------------------------------------------

NAME_OF_STATION_ALLOWED = frozenset("abcdefghijklmnopqrstuvwxyz0123456789-.")

# An LldpFrame's fields after its Ethernet addresses and capture index.
_LldpFacts = tuple[str, str | None, str | None, str | None, tuple[str, ...]]

# The facts of each LLDP PDU that parsed, keyed by its bytes from the source MAC on: the
# subject and port fall back to the source MAC, and a VLAN tag moves the TLVs. The facts
# are a function of the key alone, so every caller may share them. A refused PDU is never
# stored. A PDU seen once holds an empty tuple, and its facts from its second sighting: a
# kept tuple is walked by the next young-generation collection, and a flood of distinct
# PDUs, each sent once, would add one to every collection. The table is cleared when
# full, so such a flood costs one insert each. 256 PDUs are every port of 128 two-port
# stations, at about 130 bytes each beyond the strings the records share.
_LLDP_FACTS: dict[bytes, _LldpFacts | tuple[()]] = {}
LLDP_FACTS_BOUND = 256


def _parse_lldp(frame: bytes, start: int, src_mac: str) -> _LldpFacts:
    """The facts of the LLDP frame sent from `src_mac` whose TLVs start at `start`, read in
    place; refusal offsets count from `start`."""
    end = len(frame)
    pos = start
    # The first three TLVs' types, in the order walked, and each one's value span.
    mandatory = 0
    walked = 0
    chassis_at = chassis_end = port_at = port_end = ttl_at = ttl_end = 0
    station_name = None
    mgmt_ip = None
    chassis_mac = None
    while pos + 2 <= end:
        typelen = _U16(frame, pos)[0]
        tlv_type = typelen >> 9
        if tlv_type == LLDP_TLV_END:
            break
        at = pos + 2
        pos = at + (typelen & 0x01FF)
        if pos > end:
            raise MalformedFrame("lldp", at - 2 - start, "TLV length exceeds frame")
        if walked < 3:
            mandatory = mandatory << 8 | tlv_type
            if walked == 0:
                chassis_at, chassis_end = at, pos
            elif walked == 1:
                port_at, port_end = at, pos
            else:
                ttl_at, ttl_end = at, pos
            walked += 1
        elif tlv_type == LLDP_TLV_SYSTEM_NAME:
            station_name = frame[at:pos].decode("utf-8", errors="replace")
        elif tlv_type == LLDP_TLV_MGMT_ADDRESS and pos - at >= 2:
            addr_len = frame[at]
            if addr_len >= 5 and frame[at + 1] == 1 and pos - at >= 1 + addr_len:
                mgmt_ip = ip_to_str(frame[at + 2 : at + 6])
        elif (
            tlv_type == LLDP_TLV_ORG_SPECIFIC
            and pos - at >= 10
            and frame.startswith(LLDP_PNO_CHASSIS_MAC, at)
        ):
            # A station with a locally assigned chassis id (its NameOfStation) names its
            # interface MAC here, and may send from each port's own MAC; Wireshark's
            # packet-lldp.c reads the same six bytes. A shorter TLV is ignored.
            chassis_mac = frame[at + 4 : at + 10].hex(":")

    # Refused only once the whole walk fits the frame: a TLV that overruns it is refused first.
    # Fewer than three TLVs never pack to the three mandatory types.
    if mandatory != _LLDP_MANDATORY_ORDER:
        raise MalformedFrame("lldp", 0, "mandatory TLV order violated")
    # Each refusal points at the value it refuses.
    if chassis_end - chassis_at < 2:
        raise MalformedFrame("lldp", chassis_at - start, "chassis id too short")
    if port_end - port_at < 2:
        raise MalformedFrame("lldp", port_at - start, "port id too short")
    if ttl_end - ttl_at != 2:
        raise MalformedFrame("lldp", ttl_at - start, "ttl must be 2 bytes")

    port_mac = _lldp_mac(frame, port_at, port_end, LLDP_PORT_SUBTYPE_MAC)
    if chassis_mac is not None:
        # Such a station's locally assigned chassis id is its NameOfStation, and it
        # sends from the port's own MAC; its port id is then a name (port-001.<name>).
        if station_name is None and frame[chassis_at] == LLDP_SUBTYPE_LOCAL:
            station_name = frame[chassis_at + 1 : chassis_end].decode("utf-8", errors="replace")
        if port_mac is None:
            port_mac = src_mac
    return (
        chassis_mac or _lldp_mac(frame, chassis_at, chassis_end, LLDP_SUBTYPE_MAC) or src_mac,
        port_mac,
        station_name,
        mgmt_ip,
        ("ttl-zero",) if _U16(frame, ttl_at)[0] == 0 else (),
    )


# The chassis id, port id and TTL TLV types, packed one byte each as _parse_lldp packs them.
_LLDP_MANDATORY_ORDER = LLDP_TLV_CHASSIS_ID << 16 | LLDP_TLV_PORT_ID << 8 | LLDP_TLV_TTL


def _lldp_mac(frame: bytes, at: int, end: int, mac_subtype: int) -> str | None:
    """The MAC a chassis or port id TLV's value frame[at:end] holds, if it is of the MAC subtype."""
    if end - at == 7 and frame[at] == mac_subtype:
        return frame[at + 1 : end].hex(":")
    return None


# --- ARP -------------------------------------------------------------------

# htype(2) ptype(2) hlen(1) plen(1) oper(2) sender_mac(6) sender_ip(4) target_mac(6) target_ip(4)
_ARP = struct.Struct(">HHBBH6s4s6x4s").unpack_from


def _parse_arp(frame: bytes, start: int, eth: tuple[str, str, int]) -> ParsedFrame:
    """The ARP packet that starts at `start`, read in place."""
    if len(frame) - start < 28:
        raise MalformedFrame("arp", 0, "truncated ARP payload")
    htype, ptype, hlen, plen, oper, sender_mac, sender_ip, target_ip = _ARP(frame, start)
    if htype != 1 or ptype != ETHERTYPE_IPV4 or hlen != 6 or plen != 4:
        return ParsedFrame(*eth)
    if oper not in (1, 2):
        raise MalformedFrame("arp", 6, f"bad ARP operation {oper}")
    return ArpPacket(*eth, sender_mac.hex(":"), ip_to_str(sender_ip), ip_to_str(target_ip))


# --- PN-DCP (0x8892, DCP frame ids) ----------------------------------------


# A name that breaks no rule below: 1 to 63 characters of the charset per label, neither
# first nor last a hyphen (the DNS label shape), labels joined by dots. Its length is checked apart.
_NAME_LABEL = r"[a-z0-9](?:[a-z0-9-]{0,61}[a-z0-9])?"
_CLEAN_NAME = re.compile(rf"{_NAME_LABEL}(?:\.{_NAME_LABEL})*").fullmatch


def name_of_station_violations(name: str) -> list[str]:
    """PROFINET station-name rule check; returns rule tags, empty when clean.

    IEC 61158-6-10 limits a name to 240 octets and each dot-separated label to
    63, the DNS label limit of RFC 1035 section 2.3.4. Lengths are counted in
    characters, which are octets in every name of the allowed charset. A clean
    name is answered by one match; only a name that fails it is tagged rule by rule.
    """
    if len(name) <= 240 and _CLEAN_NAME(name):
        return []
    issues: list[str] = []
    if not name:
        issues.append("name-empty")
        return issues
    if len(name) > 240:
        issues.append("name-too-long")
    if not NAME_OF_STATION_ALLOWED.issuperset(name):
        issues.append("name-charset")
    labels = name.split(".")
    for label in labels:
        if not label or label.startswith("-") or label.endswith("-"):
            issues.append("name-label-shape")
            break
    if max(map(len, labels)) > 63:
        issues.append("name-label-too-long")
    return issues


# DCP blocks by option << 8 | suboption, as _parse_dcp reads a block's first two bytes.
_NAME_OF_STATION = DCP_OPTION_DEVICE << 8 | DCP_SUBOPTION_NAME_OF_STATION
_IP_PARAMETER = DCP_OPTION_IP << 8 | DCP_SUBOPTION_IP_PARAMETER
_DEVICE_ID = DCP_OPTION_DEVICE << 8 | DCP_SUBOPTION_DEVICE_ID
_CONTROL_RESULT = DCP_OPTION_CONTROL << 8 | DCP_SUBOPTION_CONTROL_RESPONSE

# service_id(1) service_type(1) xid(4) response_delay(2) data_length(2), after the frame id
_DCP_HEADER = struct.Struct(">BB6xH").unpack_from
_U16X2 = struct.Struct(">HH").unpack_from


def _parse_dcp(frame: bytes, start: int, eth: tuple[str, str, int]) -> DcpFrame:
    """The DCP frame whose RT payload (frame id first) starts at `start`, read in place.

    Refusal offsets count from `start`, as the RT payload's own do.
    """
    if len(frame) - start < 12:
        raise MalformedFrame("pn-dcp", 2, "truncated DCP header")
    service_id, service_type, data_length = _DCP_HEADER(frame, start + 2)
    service = DCP_SERVICE_NAMES.get(service_id)
    if service is None:
        raise MalformedFrame("pn-dcp", 2, f"unknown service id {service_id}")
    kind = DCP_TYPE_NAMES.get(service_type)
    if kind is None:
        raise MalformedFrame("pn-dcp", 3, f"unknown service type {service_type}")
    pos = start + 12  # of the first block
    end = pos + data_length
    if end > len(frame):
        raise MalformedFrame("pn-dcp", 12, "dcp data length exceeds frame")

    # Identify request filters and Control/Result blocks carry bare data; Set
    # requests prefix a BlockQualifier, responses and Hello requests a BlockInfo.
    prefixed = service_id in (DCP_SERVICE_SET, DCP_SERVICE_HELLO) or service_type != DCP_TYPE_REQUEST

    facts: list[tuple[str, object]] = []
    first_name: str | None = None
    violations: tuple[str, ...] = ()
    while pos < end:
        if pos + 4 > end:
            raise MalformedFrame("pn-dcp", pos - start, "truncated block header")
        block, block_len = _U16X2(frame, pos)  # option and suboption, block length
        at = pos + 4  # of the block's data
        stop = at + block_len
        if stop > end:
            raise MalformedFrame("pn-dcp", pos - start, "block length exceeds dcp data")
        if block == _CONTROL_RESULT:
            # The answered option and suboption, then a BlockError; zero (or none) acknowledges.
            if block_len >= 2 and _U16(frame, at)[0] == _IP_PARAMETER:
                error = frame[at + 2] if block_len > 2 else 0
                facts.append(("ip_refused", error) if error else ("ip_acknowledged", None))
        else:
            if prefixed:
                if block_len < 2:
                    raise MalformedFrame("pn-dcp", pos - start, "block too short for qualifier")
                at += 2
            if block == _NAME_OF_STATION:
                name = frame[at:stop].decode("utf-8", errors="replace")
                issues = name_of_station_violations(name)
                if issues:
                    violations += tuple(issues)
                facts.append(("name", name))
                if first_name is None:
                    first_name = name
            elif block == _IP_PARAMETER and stop - at >= 12:
                ip, subnet, gateway = (ip_to_str(frame[i : i + 4]) for i in range(at, at + 12, 4))
                facts.append(("ip", (ip, subnet, gateway)))
            elif block == _DEVICE_ID and stop - at >= 4:
                facts.append(("device_id", _U16X2(frame, at)))
        pos = stop + (block_len & 1)  # blocks pad to even length

    return DcpFrame(
        *eth,
        service_id=service,
        service_type=kind,
        facts=tuple(facts),
        name_of_station=first_name,
        violations=violations,
    )


# --- IPv4 / UDP / DCE-RPC / PN-CM -------------------------------------------

# version_ihl(1) tos(1) total_length(2) id(2) flags_fragment(2) ttl(1) protocol(1)
_IPV4 = struct.Struct(">BxH2xHxB").unpack_from
_U16X3 = struct.Struct(">HHH").unpack_from  # a UDP header's ports and length


def _parse_ipv4(frame: bytes, start: int, eth: tuple[str, str, int]) -> ParsedFrame:
    """The IPv4 packet that starts at `start`, read in place, with the UDP datagram it carries."""
    if len(frame) - start < 20:
        raise MalformedFrame("ipv4", 0, "truncated IPv4 header")
    version_ihl, total_length, flags_frag, protocol = _IPV4(frame, start)
    version = version_ihl >> 4
    ihl = (version_ihl & 0x0F) * 4
    if version != 4:
        raise MalformedFrame("ipv4", 0, f"claimed IPv4 but version {version}")
    if ihl < 20:
        raise MalformedFrame("ipv4", 0, f"bad header length {ihl}")
    if total_length < ihl or total_length > len(frame) - start:
        raise MalformedFrame("ipv4", 2, "total length inconsistent")
    # A fragment (MF set or fragment offset nonzero), or not UDP.
    if flags_frag & 0x3FFF or protocol != 17:
        return ParsedFrame(*eth)
    if total_length - ihl < 8:
        raise MalformedFrame("udp", ihl, "truncated UDP header")
    pos = start + ihl  # of the UDP header
    sport, dport, udp_len = _U16X3(frame, pos)
    if PNIO_CM_UDP_PORT not in (sport, dport):
        return ParsedFrame(*eth)
    if udp_len < 8 or udp_len > total_length - ihl:
        raise MalformedFrame("udp", ihl + 4, "UDP length inconsistent")
    return _parse_dcerpc(frame, start, pos + 8, pos + udp_len, eth)


# By the byte order its drep byte names: the fields poet reads of the connectionless header,
# rpc_vers(1) ptype(1) flags1(1) flags2(1) drep(3) serial_hi(1) object(16) interface(16)
# activity(16) server_boot(4) interface_version(4) sequence(4) opnum(2) interface_hint(2)
# activity_hint(2) fragment_length(2) fragment_number(2) auth_proto(1) serial_lo(1); the NDR
# args length; and the PROFINET IO device and controller interfaces as they are on the wire.
_RPC_BY_ORDER = {
    e: (
        struct.Struct(e + "BBB21x16s28xH4xHH2x").unpack_from,
        struct.Struct(e + "I").unpack_from,
        # A little-endian header stores a UUID's first three fields (4, 2 and 2 bytes) byte-reversed.
        frozenset(
            u[3::-1] + u[5:3:-1] + u[7:5:-1] + u[8:] if e == "<" else u for u in (UUID_IO_DEVICE, UUID_IO_CONTROLLER)
        ),
    )
    for e in "<>"
}


def _parse_dcerpc(frame: bytes, start: int, pos: int, end: int, eth: tuple[str, str, int]) -> ParsedFrame:
    """The DCE/RPC PDU in frame[pos:end], a UDP datagram's payload, read in place."""
    if end - pos < RPC_HEADER_LEN:
        raise MalformedFrame("pn-cm", pos - start, "truncated DCE/RPC header")
    header, u32, interfaces = _RPC_BY_ORDER["<" if frame[pos + 4] >> 4 == 1 else ">"]
    version, ptype, flags1, interface, opnum, frag_len, frag_num = header(frame, pos)
    if version != RPC_VERSION_CL or ptype not in (RPC_PTYPE_REQUEST, RPC_PTYPE_RESPONSE) or interface not in interfaces:
        return ParsedFrame(*eth)
    if frag_num != 0 or ((flags1 & 0x04) and not (flags1 & 0x02)):
        raise MalformedFrame("pn-cm", pos - start, "fragmented RPC PDU unsupported")
    pos += RPC_HEADER_LEN  # of the body
    if frag_len > end - pos:
        raise MalformedFrame("pn-cm", pos - start, "fragment length exceeds datagram")
    if opnum > RPC_OPNUM_CONTROL:
        return ParsedFrame(*eth)
    # NDR args: args_max/status(4) args_len(4) max_count(4) offset(4) actual_count(4)
    if frag_len < 20:
        raise MalformedFrame("pn-cm", pos - start, "truncated NDR args header")
    args_len = u32(frame, pos + 4)[0]
    if args_len > frag_len - 20:
        raise MalformedFrame("pn-cm", pos + 4 - start, "args length exceeds fragment")
    direction = "request" if ptype == RPC_PTYPE_REQUEST else "response"
    return _parse_cm_blocks(frame, start, pos + 20, pos + 20 + args_len, eth, direction, opnum)


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
    BLOCK_RELEASE_RES: ("Release", 0, ""),
}
# Connect blocks that poet does not read: framing-checked and skipped. Alone they
# name the operation Connect; a block of _AR_BLOCKS names it in their place.
_SKIPPED_BLOCKS = frozenset({BLOCK_IOCR_RES, BLOCK_ALARMCR_REQ, BLOCK_ALARMCR_RES, BLOCK_MODULE_DIFF})
# The operation of a PDU without blocks (e.g. an empty response), by opnum.
_OPNUM_OPERATIONS = ("Connect", "Release", "Read", "Write", "DControl")

_AR_UUID = struct.Struct("2x16s").unpack_from
_U32 = struct.Struct(">I").unpack_from
# cr_type(2) reference(2) lt(2) data_length(2) frame_id(2), then timing(8)
_IOCR = struct.Struct(">H4xHH").unpack_from


def _parse_cm_blocks(
    frame: bytes, start: int, pos: int, end: int, eth: tuple[str, str, int], direction: str, opnum: int
) -> CmFrame:
    """The PN-CM PDU whose blocks fill frame[pos:end], read in place; a refusal points at a block."""
    first = pos
    ar_uuid: bytes | None = None
    iocrs: list[IocrBlock] = []
    submodules: list[tuple[str, int, int, int]] = []
    operation: str | None = None

    while pos < end:
        if end - pos < 6:
            raise MalformedFrame("pn-cm", pos - start, "truncated block header")
        block_type, block_len = _U16X2(frame, pos)
        at = pos + 6  # of the content, after the type, the length and the version
        stop = pos + 4 + block_len
        if block_len < 2 or stop > end:
            raise MalformedFrame("pn-cm", pos - start, "block length exceeds args")
        size = stop - at
        ar_block = _AR_BLOCKS.get(block_type)
        if ar_block is not None:
            operation, least, too_short = ar_block
            if size < least:
                raise MalformedFrame("pn-cm", pos - start, too_short)
            if size >= 18:
                ar_uuid = _AR_UUID(frame, at)[0]
            if block_type == BLOCK_AR_REQ:
                if size < 52:
                    raise MalformedFrame("pn-cm", pos - start, "AR request block too short")
                if size < 52 + _U16(frame, at + 50)[0]:  # name_len
                    raise MalformedFrame("pn-cm", pos - start, "station name exceeds AR block")
            elif operation in ("Write", "Read"):
                if size < 32 + _U32(frame, at + 28)[0]:  # data_len
                    raise MalformedFrame("pn-cm", pos - start, "record data exceeds block")
        elif block_type == BLOCK_IOCR_REQ:
            if size < 18:
                raise MalformedFrame("pn-cm", pos - start, "IOCR block too short")
            cr_type, data_length, frame_id = _IOCR(frame, at)
            if cr_type not in (CR_INPUT, CR_OUTPUT):
                raise MalformedFrame("pn-cm", pos - start, f"bad IOCR type {cr_type}")
            iocrs.append(IocrBlock("input" if cr_type == CR_INPUT else "output", frame_id, data_length))
        elif block_type in _SKIPPED_BLOCKS:
            operation = operation or "Connect"
        elif block_type == BLOCK_EXPECTED_SUBMODULES:
            submodules += _parse_expected_submodules(frame, start, pos, stop)
        else:
            raise MalformedFrame("pn-cm", pos - start, f"unknown block type 0x{block_type:04x}")
        pos = stop

    operation = operation or _OPNUM_OPERATIONS[opnum]
    if operation == "Connect" and direction == "request":
        if ar_uuid is None:
            raise MalformedFrame("pn-cm", first - start, "Connect request without AR block")
        if iocrs and not submodules:
            raise MalformedFrame("pn-cm", first - start, "IO CRs declared without expected submodules")

    return CmFrame(*eth, direction, operation, ar_uuid, tuple(iocrs), tuple(submodules))


# subslot(2) submodule_id(4) then the data description: direction(1) data_length(2)
# iops_length(1) iocs_length(1)
_SUBMODULE = struct.Struct(">6xBHBB").unpack_from


def _parse_expected_submodules(frame: bytes, start: int, pos: int, end: int) -> list[tuple[str, int, int, int]]:
    """The submodules of the block whose header is at `pos` and which ends at `end`. A refusal
    of the block points at its header, of an entry at the entry."""
    if end - pos < 8:
        raise MalformedFrame("pn-cm", pos - start, "expected submodule block too short")
    num_slots = _U16(frame, pos + 6)[0]
    pos += 8  # of the first slot entry
    out: list[tuple[str, int, int, int]] = []
    for _ in range(num_slots):
        # slot(2) module_id(4) then the count of submodules
        if end - pos < 8:
            raise MalformedFrame("pn-cm", pos - start, "truncated slot entry")
        num_sub = _U16(frame, pos + 6)[0]
        pos += 8
        for _ in range(num_sub):
            if end - pos < 11:
                raise MalformedFrame("pn-cm", pos - start, "truncated submodule entry")
            direction, data_length, iops_len, iocs_len = _SUBMODULE(frame, pos)
            if direction not in (CR_INPUT, CR_OUTPUT):
                raise MalformedFrame("pn-cm", pos - start, f"bad submodule direction {direction}")
            out.append(("input" if direction == CR_INPUT else "output", data_length, iops_len, iocs_len))
            pos += 11
    if pos != end:
        raise MalformedFrame("pn-cm", pos - start, "trailing bytes in expected submodule block")
    return out
