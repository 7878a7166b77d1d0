"""Dissector behaviour: classification, round trips, layout, totality."""

from __future__ import annotations

import struct
import uuid

import pytest
from hypothesis import given, strategies as st

from poet.capture import RawFrame
from poet.dissect import (
    ArpPacket,
    CmFrame,
    DcpFrame,
    ETHERTYPE_PROFINET,
    LldpFrame,
    MalformedFrame,
    OtherBody,
    ParsedFrame,
    PnioCyclicFrame,
    dissect,
    mac_to_str,
    name_of_station_violations,
    str_to_mac,
)
from poet import synth
from poet.synth import (
    SubmoduleSpec,
    ar_block_request,
    cr_data_length,
    cyclic_c_sdu,
    dcp_identify_request,
    dcp_identify_response,
    dcp_set_ip_request,
    dcp_set_name_request,
    dcp_set_response,
    encode_arp,
    encode_cm,
    encode_lldp,
    encode_pnio,
    ethernet,
    expected_submodules_block,
    fuzz_corpus,
    iocr_block_request,
    malformed_frame,
)

CTRL = str_to_mac("02:00:00:00:01:00")
DEV = str_to_mac("02:00:00:00:02:00")
PORT = str_to_mac("02:70:01:01:02:00")


def raw(data: bytes, index: int = 0) -> RawFrame:
    return RawFrame(0, 0, data, index)


def test_lldp_station_name_lift_motor():
    frame = encode_lldp(DEV, PORT, 20, "Lift-Motor", ("port-001",), management_ip="192.168.0.11")
    parsed = dissect(raw(frame))
    assert isinstance(parsed.body, LldpFrame)
    assert parsed.body.station_name == "Lift-Motor"
    assert parsed.body.subject_mac == "02:00:00:00:02:00"  # the chassis MAC, not the source
    assert parsed.body.port_mac == "02:70:01:01:02:00"
    assert parsed.body.management_address == "192.168.0.11"


def test_dcp_set_name_ufo():
    frame = dcp_set_name_request(CTRL, DEV, 7, "ufo")
    parsed = dissect(raw(frame))
    body = parsed.body
    assert isinstance(body, DcpFrame)
    assert body.service_id == "Set"
    assert body.service_type == "Request"
    assert body.name_of_station == "ufo"
    assert body.violations == ()


def test_ipv4_tcp_passes_through_as_other():
    # minimal IPv4 header claiming TCP
    import struct

    ip = struct.pack(
        ">BBHHHBBH4s4s", 0x45, 0, 40, 1, 0, 64, 6, 0, b"\x0a\x00\x00\x01", b"\x0a\x00\x00\x02"
    ) + b"\x00" * 20
    frame = ethernet(DEV, CTRL, 0x0800, ip)
    parsed = dissect(raw(frame))
    assert isinstance(parsed.body, OtherBody)
    assert parsed.protocol == "other"


def test_unknown_ethertype_is_other():
    frame = ethernet(DEV, CTRL, 0x86DD, b"\x00" * 40)
    parsed = dissect(raw(frame))
    assert isinstance(parsed.body, OtherBody)
    assert (parsed.dst_mac, parsed.src_mac) == ("02:00:00:00:02:00", "02:00:00:00:01:00")


def test_vlan_unwrapped_once():
    import struct

    inner = dcp_set_name_request(CTRL, DEV, 9, "ufo")[14:]
    tagged = DEV + CTRL + struct.pack(">HH", 0x8100, (3 << 13) | 42) + struct.pack(">H", ETHERTYPE_PROFINET) + inner
    parsed = dissect(raw(tagged))
    assert (parsed.dst_mac, parsed.src_mac) == ("02:00:00:00:02:00", "02:00:00:00:01:00")
    assert parsed.protocol == "pn-dcp"
    assert isinstance(parsed.body, DcpFrame)
    assert parsed.body.name_of_station == "ufo"


def test_pnio_alarm_frame_id_is_other():
    frame = ethernet(DEV, CTRL, ETHERTYPE_PROFINET, b"\xfc\x01" + b"\x00" * 40)
    parsed = dissect(raw(frame))
    assert isinstance(parsed.body, OtherBody)
    assert parsed.protocol == "other"


# --- Round trips over every synthesized frame family -------------------------


def test_lldp_round_trip_parameters():
    frame = encode_lldp(DEV, PORT, 30, "turntable-motor", ("port-001", "port-002"), "10.0.0.5")
    body = dissect(raw(frame)).body
    assert isinstance(body, LldpFrame)
    assert (body.subject_mac, body.port_mac) == ("02:00:00:00:02:00", "02:70:01:01:02:00")
    assert body.station_name == "turntable-motor"
    assert body.management_address == "10.0.0.5"


def test_arp_round_trip_and_gratuitous_flag():
    frame = encode_arp(CTRL, b"\xff" * 6, 1, CTRL, "192.168.0.1", b"\x00" * 6, "192.168.0.11")
    body = dissect(raw(frame)).body
    assert isinstance(body, ArpPacket)
    assert body.sender_mac == "02:00:00:00:01:00"
    assert (body.sender_ip, body.target_ip) == ("192.168.0.1", "192.168.0.11")
    assert not body.is_gratuitous

    announce = encode_arp(DEV, b"\xff" * 6, 1, DEV, "192.168.0.11", b"\x00" * 6, "192.168.0.11")
    assert dissect(raw(announce)).body.is_gratuitous


@given(
    sender=st.tuples(*[st.integers(0, 255)] * 4),
    target=st.tuples(*[st.integers(0, 255)] * 4),
)
def test_gratuitous_iff_sender_equals_target(sender, target):
    sender_ip = ".".join(map(str, sender))
    target_ip = ".".join(map(str, target))
    frame = encode_arp(DEV, b"\xff" * 6, 1, DEV, sender_ip, b"\x00" * 6, target_ip)
    body = dissect(raw(frame)).body
    assert isinstance(body, ArpPacket)
    assert body.is_gratuitous == (sender_ip == target_ip)


def test_dcp_identify_round_trip():
    req = dissect(raw(dcp_identify_request(CTRL, 0x42, "lift-motor"))).body
    assert isinstance(req, DcpFrame)
    assert (req.service_id, req.service_type) == ("Identify", "Request")
    assert req.name_of_station == "lift-motor"

    res = dissect(raw(dcp_identify_response(DEV, CTRL, 0x42, "lift-motor", ip="192.168.0.11"))).body
    assert isinstance(res, DcpFrame)
    assert (res.service_id, res.service_type) == ("Identify", "ResponseSuccess")
    assert res.name_of_station == "lift-motor"
    # BlockInfo stripped from each block, so the name, DeviceID and IP triple read whole
    assert res.facts == (
        ("name", "lift-motor"),
        ("device_id", (0x002A, 0x0301)),
        ("ip", ("192.168.0.11", "255.255.255.0", "0.0.0.0")),
    )


def test_dcp_set_round_trip():
    req = dissect(raw(dcp_set_ip_request(CTRL, DEV, 0x43, "192.168.0.11", "255.255.255.0", "0.0.0.0"))).body
    assert isinstance(req, DcpFrame)
    assert req.facts == (("ip", ("192.168.0.11", "255.255.255.0", "0.0.0.0")),)  # qualifier stripped

    res = dissect(raw(dcp_set_response(DEV, CTRL, 0x43, 1, 2))).body
    assert isinstance(res, DcpFrame)
    assert res.service_type == "ResponseSuccess"
    assert res.facts == (("ip_acknowledged", None),)


def test_dcp_uppercase_name_flagged_not_failed():
    frame = dcp_set_name_request(CTRL, DEV, 9, "Lift-Motor")
    body = dissect(raw(frame)).body
    assert isinstance(body, DcpFrame)
    assert body.name_of_station == "Lift-Motor"
    assert "name-charset" in body.violations


def _reference_name_violations(name: str) -> list[str]:
    # The NameOfStation rule read one character and one label at a time.
    if name == "":
        return ["name-empty"]
    tags = []
    if len(name) > 240:
        tags.append("name-too-long")
    for c in name:
        if c not in "abcdefghijklmnopqrstuvwxyz0123456789-.":
            tags.append("name-charset")
            break
    for label in name.split("."):
        if label == "" or label[0] == "-" or label[-1] == "-":
            tags.append("name-label-shape")
            break
    return tags


_NAME_CHARS = st.one_of(
    st.sampled_from("abz09-."),
    st.sampled_from("AZ_ /\x00\x7f\u00e9\u0131\u212a\u2603"),
    st.characters(categories=["Cs"]),  # lone surrogates
    st.characters(),
)


@given(
    st.one_of(
        st.text(_NAME_CHARS, max_size=24),
        st.lists(st.text(_NAME_CHARS, max_size=6), min_size=1, max_size=6).map(".".join),
        st.text(st.sampled_from("az09-.A\u00e9"), min_size=239, max_size=242),  # about the 240 limit
    )
)
def test_name_rule_tags_match_a_per_character_reference(name):
    assert name_of_station_violations(name) == _reference_name_violations(name)


SUBMODULES = (SubmoduleSpec(1, 1, "input", 2), SubmoduleSpec(2, 1, "output", 3))


def _connect_frame(alarm_cr: bytes = b"") -> bytes:
    ar = uuid.uuid5(uuid.NAMESPACE_OID, "test-ar")
    blocks = ar_block_request(ar, CTRL, "plc-1")
    blocks += iocr_block_request(1, 1, cr_data_length("input", SUBMODULES), 0x8001)
    blocks += iocr_block_request(2, 2, cr_data_length("output", SUBMODULES), 0x8002)
    blocks += alarm_cr + expected_submodules_block(SUBMODULES)
    return encode_cm(CTRL, DEV, "192.168.0.1", "192.168.0.11", 0, 0, uuid.uuid4(), 1, blocks)


def test_cm_connect_round_trip():
    frame = _connect_frame()
    body = dissect(raw(frame)).body
    assert isinstance(body, CmFrame)
    assert (body.direction, body.operation) == ("request", "Connect")
    assert body.ar_uuid == uuid.uuid5(uuid.NAMESPACE_OID, "test-ar")
    assert [(c.cr_type, c.frame_id, c.data_length) for c in body.iocr_blocks] == [
        ("input", 0x8001, 4),  # 2 data + 1 iops + 1 iocs(output submodule)
        ("output", 0x8002, 5),  # 3 data + 1 iops + 1 iocs(input submodule)
    ]
    assert body.expected_submodules == (("input", 2, 1, 1), ("output", 3, 1, 1))


def test_cm_connect_with_alarm_cr_block_reads_its_ar_and_iocrs():
    """A real Connect request carries an AlarmCR block, which poet skips."""
    body = dissect(raw(_connect_frame(synth._cm_block(0x0103, bytes(24))))).body
    assert body == dissect(raw(_connect_frame())).body


def test_cm_write_read_control_round_trip():
    from poet.synth import control_block, record_block
    from poet.dissect import (
        BLOCK_CCONTROL_REQ,
        BLOCK_DCONTROL_REQ,
        BLOCK_READ_REQ,
        BLOCK_WRITE_REQ,
    )

    ar = uuid.uuid5(uuid.NAMESPACE_OID, "test-ar")
    cases = [
        (3, record_block(BLOCK_WRITE_REQ, ar, 1, 1, 1, 0x8001, b"\xaa\xbb"), "Write"),
        (2, record_block(BLOCK_READ_REQ, ar, 2, 1, 1, 0xAFF0, b""), "Read"),
        (4, control_block(BLOCK_DCONTROL_REQ, ar, 1), "DControl"),
        (4, control_block(BLOCK_CCONTROL_REQ, ar, 2), "CControl"),
    ]
    for opnum, block, operation in cases:
        frame = encode_cm(CTRL, DEV, "192.168.0.1", "192.168.0.11", 0, opnum, uuid.uuid4(), 5, block)
        body = dissect(raw(frame)).body
        assert isinstance(body, CmFrame)
        assert body.operation == operation
        assert body.ar_uuid == ar
        assert body.direction == "request"


def test_pnio_round_trip():
    c_sdu = cyclic_c_sdu(0, 3, "output", SUBMODULES)
    frame = encode_pnio(CTRL, DEV, 0x8002, c_sdu, 96)
    body = dissect(raw(frame)).body
    assert isinstance(body, PnioCyclicFrame)
    assert body.frame_id == 0x8002
    assert body.data[: len(c_sdu)] == c_sdu  # padding beyond the real C-SDU


# --- Malformed frames ------------------------------------------------------------


def test_malformed_lldp_bad_order():
    with pytest.raises(MalformedFrame) as exc:
        dissect(raw(malformed_frame("lldp")))
    assert exc.value.protocol == "lldp"


def test_malformed_dcp_overlong_length():
    with pytest.raises(MalformedFrame) as exc:
        dissect(raw(malformed_frame("pn-dcp")))
    assert exc.value.protocol == "pn-dcp"


def test_malformed_arp_truncated():
    with pytest.raises(MalformedFrame):
        dissect(raw(malformed_frame("arp")))


def test_malformed_pnio_short():
    with pytest.raises(MalformedFrame):
        dissect(raw(malformed_frame("pnio")))


def test_malformed_cm_truncated_rpc():
    with pytest.raises(MalformedFrame) as exc:
        dissect(raw(malformed_frame("pn-cm")))
    assert exc.value.protocol == "pn-cm"


def test_dcp_get_request_bare_blocks():
    from poet.synth import _dcp_block, encode_dcp

    blocks = _dcp_block(1, 2, None, b"") + _dcp_block(2, 2, None, b"")
    frame = encode_dcp(CTRL, DEV, 0xFEFD, 3, 0, 0x55, blocks)
    body = dissect(raw(frame)).body
    assert isinstance(body, DcpFrame)
    assert body.service_id == "Get"
    # Bare blocks: a qualifier stripped from these empty blocks would refuse the frame.
    # The empty name is a fact; the IP block is too short to be one.
    assert body.facts == (("name", ""),)


def test_dcp_hello_parses_without_failure():
    from poet.synth import _dcp_block, encode_dcp

    # A Hello request carries a BlockInfo before each block, as a response does.
    blocks = _dcp_block(2, 2, 0, b"lift-motor")
    frame = encode_dcp(DEV, CTRL, 0xFEFC, 6, 0, 0x66, blocks)
    body = dissect(raw(frame)).body
    assert isinstance(body, DcpFrame)
    assert body.service_id == "Hello"
    assert (body.name_of_station, body.violations) == ("lift-motor", ())


def test_dcp_set_block_too_short_for_qualifier():
    import struct

    from poet.synth import encode_dcp

    bad_block = bytes([1, 2]) + struct.pack(">H", 1) + b"\x01" + b"\x00"
    frame = encode_dcp(CTRL, DEV, 0xFEFD, 4, 0, 0x77, bad_block)
    with pytest.raises(MalformedFrame):
        dissect(raw(frame))


def test_expected_submodules_trailing_bytes_rejected():
    import struct

    ar = uuid.uuid5(uuid.NAMESPACE_OID, "trail-ar")
    blocks = ar_block_request(ar, CTRL, "plc-1")
    blocks += iocr_block_request(1, 1, 4, 0x8001)
    blocks += iocr_block_request(2, 2, 5, 0x8002)
    good = expected_submodules_block(SUBMODULES)
    block_type, block_len = struct.unpack(">HH", good[0:4])
    padded = good[0:2] + struct.pack(">H", block_len + 2) + good[4:] + b"\x00\x00"
    frame = encode_cm(CTRL, DEV, "192.168.0.1", "192.168.0.11", 0, 0, uuid.uuid4(), 1, blocks + padded)
    with pytest.raises(MalformedFrame):
        dissect(raw(frame))


def test_lldp_ttl_zero_flagged_not_dropped():
    frame = encode_lldp(DEV, PORT, 0, "lift-motor")
    body = dissect(raw(frame)).body
    assert isinstance(body, LldpFrame)
    assert "ttl-zero" in body.violations


def test_big_endian_drep_rpc_parsed():
    """The RPC header honours its drep byte; PROFINET blocks stay big-endian."""
    import struct

    from poet.dissect import UUID_IO_DEVICE
    from poet.synth import ar_block_request, _ipv4_checksum

    ar = uuid.uuid5(uuid.NAMESPACE_OID, "be-ar")
    blocks = ar_block_request(ar, CTRL, "plc-1")
    args = struct.pack(">IIIII", 16384, len(blocks), len(blocks), 0, len(blocks)) + blocks
    rpc = struct.pack(">BBBB3sB", 4, 0, 0, 0, b"\x00\x00\x00", 0)  # drep: big-endian
    rpc += uuid.UUID(int=1).bytes + UUID_IO_DEVICE.bytes + uuid.UUID(int=2).bytes
    rpc += struct.pack(">IIIHHHHHBB", 0, 1, 7, 0, 0xFFFF, 0xFFFF, len(args), 0, 0, 0)
    udp = struct.pack(">HHHH", 34964, 34964, 8 + len(rpc) + len(args), 0)
    ip = struct.pack(
        ">BBHHHBBH4s4s", 0x45, 0, 28 + len(rpc) + len(args), 1, 0, 64, 17, 0,
        b"\xc0\xa8\x00\x01", b"\xc0\xa8\x00\x0b",
    )
    ip = ip[:10] + struct.pack(">H", _ipv4_checksum(ip)) + ip[12:]
    frame = ethernet(DEV, CTRL, 0x0800, ip + udp + rpc + args)
    body = dissect(raw(frame)).body
    assert isinstance(body, CmFrame)
    assert body.operation == "Connect"
    assert body.ar_uuid == ar


def test_fragmented_rpc_rejected():
    frame = bytearray(_connect_frame())
    # frag_num lives at RPC header offset 76; IPv4(20) + UDP(8) follow the 14-byte ethernet header
    frag_num_at = 14 + 20 + 8 + 76
    frame[frag_num_at] = 1
    with pytest.raises(MalformedFrame) as exc:
        dissect(raw(bytes(frame)))
    assert "fragment" in exc.value.reason


# --- Refusals: every MalformedFrame the dissector raises, with its position -------

AR = uuid.uuid5(uuid.NAMESPACE_OID, "refusal-ar")


def _lldp(*tlvs: bytes) -> bytes:
    return ethernet(DEV, CTRL, 0x88CC, b"".join(tlvs), pad_to=0)


CHASSIS = synth._lldp_tlv(1, bytes([4]) + DEV)
PORT_ID = synth._lldp_tlv(2, bytes([3]) + PORT)
TTL = synth._lldp_tlv(3, b"\x00\x14")


def _dcp(service_id: int, service_type: int, blocks: bytes, frame_id: int = 0xFEFD) -> bytes:
    return synth.encode_dcp(CTRL, DEV, frame_id, service_id, service_type, 1, blocks)


def _ipv4(payload: bytes, first: int = 0x45, total: int | None = None) -> bytes:
    """A UDP datagram; `first` is the version/IHL byte."""
    total = 20 + len(payload) if total is None else total
    header = struct.pack(">BBHHHBBH4s4s", first, 0, total, 1, 0, 64, 17, 0,
                         b"\xc0\xa8\x00\x01", b"\xc0\xa8\x00\x0b")
    return ethernet(DEV, CTRL, 0x0800, header + payload, pad_to=0)


def _udp(payload: bytes, length: int | None = None) -> bytes:
    length = 8 + len(payload) if length is None else length
    return struct.pack(">HHHH", 34964, 34964, length, 0) + payload


def _cm(blocks: bytes, opnum: int = 0) -> bytes:
    return encode_cm(CTRL, DEV, "192.168.0.1", "192.168.0.11", 0, opnum, uuid.UUID(int=3), 1, blocks)


def _patched(frame: bytes, at: int, value: bytes) -> bytes:
    return frame[:at] + value + frame[at + len(value):]


# Offsets in a PN-CM frame: the RPC header follows Ethernet(14), IPv4(20) and UDP(8);
# the NDR args header follows the 80-byte RPC header, and the blocks follow it.
RPC_AT = 14 + 20 + 8
RPC_BASE = 20 + 8  # refusal offsets count from the start of the IPv4 header
BLOCKS_BASE = RPC_BASE + 80 + 20
AR_HEAD = struct.pack(">H", 1) + AR.bytes + struct.pack(">H", 1) + CTRL  # 26 bytes
AR_REQUEST_HEAD = AR_HEAD + bytes(16) + struct.pack(">IHH", 0x11, 100, 34964)  # 50 bytes
SLOT = struct.pack(">HIH", 1, 0x101, 1)


def _submodule(direction: int) -> bytes:
    return struct.pack(">HIBHBB", 1, 0x1001, direction, 2, 1, 1)


REFUSALS = [
    # Ethernet
    ("short-frame", bytes(13), "ethernet", 0, "frame shorter than 14 bytes"),
    ("vlan-tag-cut", DEV + CTRL + b"\x81\x00\x00\x2a", "ethernet", 14, "truncated VLAN tag"),
    # LLDP
    ("lldp-tlv-overlong", _lldp(CHASSIS, struct.pack(">H", (2 << 9) | 7) + b"\x03\x02"),
     "lldp", 9, "TLV length exceeds frame"),
    ("lldp-order", _lldp(CHASSIS, TTL, PORT_ID), "lldp", 0, "mandatory TLV order violated"),
    ("lldp-missing-ttl", _lldp(CHASSIS, PORT_ID), "lldp", 0, "mandatory TLV order violated"),
    ("lldp-chassis-short", _lldp(synth._lldp_tlv(1, b"\x04"), PORT_ID, TTL),
     "lldp", 2, "chassis id too short"),
    ("lldp-port-short", _lldp(CHASSIS, synth._lldp_tlv(2, b"\x03"), TTL), "lldp", 2, "port id too short"),
    ("lldp-ttl-size", _lldp(CHASSIS, PORT_ID, synth._lldp_tlv(3, b"\x14")), "lldp", 2, "ttl must be 2 bytes"),
    # ARP
    ("arp-short", ethernet(DEV, CTRL, 0x0806, bytes(27), pad_to=0), "arp", 0, "truncated ARP payload"),
    ("arp-operation", encode_arp(CTRL, DEV, 3, CTRL, "192.168.0.1", DEV, "192.168.0.11"),
     "arp", 6, "bad ARP operation 3"),
    # PROFINET RT
    ("rt-frame-id", ethernet(DEV, CTRL, ETHERTYPE_PROFINET, b"\xfe", pad_to=0),
     "profinet-rt", 0, "truncated frame id"),
    ("dcp-header", ethernet(DEV, CTRL, ETHERTYPE_PROFINET, b"\xfe\xfe" + bytes(9), pad_to=0),
     "pn-dcp", 2, "truncated DCP header"),
    ("dcp-service-id", _dcp(9, 0, b""), "pn-dcp", 2, "unknown service id 9"),
    ("dcp-service-type", _dcp(5, 7, b""), "pn-dcp", 3, "unknown service type 7"),
    ("dcp-data-length",
     ethernet(DEV, CTRL, ETHERTYPE_PROFINET, struct.pack(">HBBIHH", 0xFEFE, 5, 0, 1, 0, 8) + bytes(6),
              pad_to=0),
     "pn-dcp", 12, "dcp data length exceeds frame"),
    ("dcp-block-header", _dcp(5, 0, synth._dcp_block(2, 2, None, b"ab") + b"\x02\x02", 0xFEFE),
     "pn-dcp", 18, "truncated block header"),
    ("dcp-block-length", _dcp(5, 0, bytes([2, 2]) + struct.pack(">H", 10) + b"ab", 0xFEFE),
     "pn-dcp", 12, "block length exceeds dcp data"),
    ("dcp-set-qualifier", _dcp(4, 0, synth._dcp_block(2, 2, None, b"a")),
     "pn-dcp", 12, "block too short for qualifier"),
    ("dcp-response-blockinfo", _dcp(5, 1, synth._dcp_block(2, 2, None, b"a"), 0xFEFF),
     "pn-dcp", 12, "block too short for qualifier"),
    ("pnio-short", ethernet(DEV, CTRL, ETHERTYPE_PROFINET, b"\x80\x01" + bytes(4), pad_to=0),
     "pnio", 2, "cyclic frame too short for C-SDU"),
    # IPv4 and UDP
    ("ipv4-header", ethernet(DEV, CTRL, 0x0800, b"\x45" + bytes(18), pad_to=0),
     "ipv4", 0, "truncated IPv4 header"),
    ("ipv4-version", _ipv4(_udp(b""), first=0x65), "ipv4", 0, "claimed IPv4 but version 6"),
    ("ipv4-ihl", _ipv4(_udp(b""), first=0x44), "ipv4", 0, "bad header length 16"),
    ("ipv4-total-under", _ipv4(_udp(b""), total=19), "ipv4", 2, "total length inconsistent"),
    ("ipv4-total-over", _ipv4(_udp(b""), total=29), "ipv4", 2, "total length inconsistent"),
    ("udp-header", _ipv4(_udp(b"")[:7]), "udp", 20, "truncated UDP header"),
    ("udp-length-under", _ipv4(_udp(b"", length=7)), "udp", 24, "UDP length inconsistent"),
    ("udp-length-over", _ipv4(_udp(b"", length=9)), "udp", 24, "UDP length inconsistent"),
    # DCE/RPC
    ("rpc-header", _ipv4(_udp(b"\x04" + bytes(78))), "pn-cm", RPC_BASE, "truncated DCE/RPC header"),
    ("rpc-fragment-number", _patched(_cm(b""), RPC_AT + 76, b"\x01"),
     "pn-cm", RPC_BASE, "fragmented RPC PDU unsupported"),
    ("rpc-fragment-flag", _patched(_cm(b""), RPC_AT + 2, b"\x04"),
     "pn-cm", RPC_BASE, "fragmented RPC PDU unsupported"),
    ("rpc-fragment-length", _patched(_cm(b""), RPC_AT + 74, b"\x15\x00"),
     "pn-cm", RPC_BASE + 80, "fragment length exceeds datagram"),
    ("ndr-header", _patched(_cm(b""), RPC_AT + 74, b"\x13\x00"),
     "pn-cm", RPC_BASE + 80, "truncated NDR args header"),
    ("ndr-args-length", _patched(_cm(b""), RPC_AT + 80 + 4, b"\x01"),
     "pn-cm", RPC_BASE + 84, "args length exceeds fragment"),
    # PN-CM blocks
    ("cm-block-header", _cm(b"\x01\x01\x00\x1c\x01"), "pn-cm", BLOCKS_BASE, "truncated block header"),
    ("cm-block-length-under", _cm(struct.pack(">HH", 0x0101, 1) + b"\x01\x00"),
     "pn-cm", BLOCKS_BASE, "block length exceeds args"),
    ("cm-block-length-over", _cm(struct.pack(">HH", 0x0101, 9) + b"\x01\x00" + bytes(6)),
     "pn-cm", BLOCKS_BASE, "block length exceeds args"),
    ("ar-block", _cm(synth._cm_block(0x8101, AR_HEAD[:25])), "pn-cm", BLOCKS_BASE, "AR block too short"),
    ("ar-request-block", _cm(synth._cm_block(0x0101, AR_REQUEST_HEAD + b"\x00")),
     "pn-cm", BLOCKS_BASE, "AR request block too short"),
    ("ar-station-name", _cm(synth._cm_block(0x0101, AR_REQUEST_HEAD + struct.pack(">H", 4) + b"plc")),
     "pn-cm", BLOCKS_BASE, "station name exceeds AR block"),
    ("iocr-block", _cm(synth._cm_block(0x0102, bytes(17))), "pn-cm", BLOCKS_BASE, "IOCR block too short"),
    ("iocr-type", _cm(iocr_block_request(3, 1, 4, 0x8001)), "pn-cm", BLOCKS_BASE, "bad IOCR type 3"),
    ("record-block", _cm(synth._cm_block(0x0008, bytes(31)), 3),
     "pn-cm", BLOCKS_BASE, "record block too short"),
    ("record-data", _cm(synth._cm_block(0x0009, bytes(28) + struct.pack(">I", 3) + b"ab"), 2),
     "pn-cm", BLOCKS_BASE, "record data exceeds block"),
    ("dcontrol-block", _cm(synth._cm_block(0x0110, bytes(17)), 4),
     "pn-cm", BLOCKS_BASE, "control block too short"),
    ("ccontrol-block", _cm(synth._cm_block(0x8112, bytes(17)), 4),
     "pn-cm", BLOCKS_BASE, "control block too short"),
    ("cm-block-type", _cm(ar_block_request(AR, CTRL, "plc") + synth._cm_block(0x0555, b"")),
     "pn-cm", BLOCKS_BASE + 61, "unknown block type 0x0555"),  # after the 61-byte AR block
    ("connect-without-ar", _cm(b""), "pn-cm", BLOCKS_BASE, "Connect request without AR block"),
    ("connect-crs-without-submodules",
     _cm(ar_block_request(AR, CTRL, "plc") + iocr_block_request(1, 1, 4, 0x8001)),
     "pn-cm", BLOCKS_BASE, "IO CRs declared without expected submodules"),
    ("submodule-block", _cm(synth._cm_block(0x0104, b"\x00")),
     "pn-cm", BLOCKS_BASE, "expected submodule block too short"),
    ("slot-entry", _cm(synth._cm_block(0x0104, struct.pack(">H", 1) + SLOT[:7])),
     "pn-cm", BLOCKS_BASE + 2, "truncated slot entry"),
    ("submodule-entry", _cm(synth._cm_block(0x0104, struct.pack(">H", 1) + SLOT + _submodule(1)[:10])),
     "pn-cm", BLOCKS_BASE + 10, "truncated submodule entry"),
    ("submodule-direction", _cm(synth._cm_block(0x0104, struct.pack(">H", 1) + SLOT + _submodule(3))),
     "pn-cm", BLOCKS_BASE + 10, "bad submodule direction 3"),
    ("submodule-trailing",
     _cm(synth._cm_block(0x0104, struct.pack(">H", 1) + SLOT + _submodule(1) + b"\x00")),
     "pn-cm", BLOCKS_BASE + 21, "trailing bytes in expected submodule block"),
]


@pytest.mark.parametrize(
    "frame, protocol, offset, reason",
    [pytest.param(*case[1:], id=case[0]) for case in REFUSALS],
)
def test_refusal(frame, protocol, offset, reason):
    with pytest.raises(MalformedFrame) as exc:
        dissect(raw(frame))
    assert (exc.value.protocol, exc.value.offset, exc.value.reason) == (protocol, offset, reason)


# --- Totality ---------------------------------------------------------------------


def test_fuzz_totality_thousand():
    for data in fuzz_corpus(seed=7, count=1000):
        try:
            outcome = dissect(raw(data))
            assert isinstance(outcome, ParsedFrame)
        except MalformedFrame:
            pass


@given(st.binary(min_size=14, max_size=200))
def test_fuzz_totality_random_bytes(data):
    try:
        dissect(raw(data))
    except MalformedFrame:
        pass


def test_mac_helpers_round_trip():
    assert mac_to_str(CTRL) == "02:00:00:00:01:00"
    assert str_to_mac(mac_to_str(DEV)) == DEV
