"""Dissector behaviour: classification, round trips, layout, totality."""

from __future__ import annotations

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
    assert parsed.body.chassis_mac == "02:00:00:00:02:00"
    assert parsed.body.port_mac == "02:70:01:01:02:00"
    assert parsed.body.ttl_seconds == 20
    assert parsed.body.port_descriptions == ("port-001",)
    assert parsed.body.management_address == "192.168.0.11"
    assert parsed.body.profinet_tlvs  # PNO org TLV retained


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
    assert parsed.body.ethertype == 0x0800


def test_unknown_ethertype_is_other():
    frame = ethernet(DEV, CTRL, 0x86DD, b"\x00" * 40)
    parsed = dissect(raw(frame))
    assert isinstance(parsed.body, OtherBody)
    assert parsed.body.ethertype == 0x86DD


def test_vlan_unwrapped_once():
    import struct

    inner = dcp_set_name_request(CTRL, DEV, 9, "ufo")[14:]
    tagged = DEV + CTRL + struct.pack(">HH", 0x8100, (3 << 13) | 42) + struct.pack(">H", ETHERTYPE_PROFINET) + inner
    parsed = dissect(raw(tagged))
    assert parsed.envelope.vlan_tag == (3, 42)
    assert parsed.envelope.ethertype == ETHERTYPE_PROFINET
    assert isinstance(parsed.body, DcpFrame)


def test_pnio_alarm_frame_id_is_other_with_tag():
    frame = ethernet(DEV, CTRL, ETHERTYPE_PROFINET, b"\xfc\x01" + b"\x00" * 40)
    parsed = dissect(raw(frame))
    assert isinstance(parsed.body, OtherBody)
    assert parsed.body.tag == "pnio-unhandled-frame-id-0xfc01"


# --- Round trips over every synthesized frame family -------------------------


def test_lldp_round_trip_parameters():
    frame = encode_lldp(DEV, PORT, 30, "turntable-motor", ("port-001", "port-002"), "10.0.0.5")
    body = dissect(raw(frame)).body
    assert isinstance(body, LldpFrame)
    assert (body.chassis_mac, body.port_mac, body.ttl_seconds) == (
        "02:00:00:00:02:00",
        "02:70:01:01:02:00",
        30,
    )
    assert body.station_name == "turntable-motor"
    assert body.port_descriptions == ("port-001", "port-002")
    assert body.management_address == "10.0.0.5"


def test_arp_round_trip_and_gratuitous_flag():
    frame = encode_arp(CTRL, b"\xff" * 6, 1, CTRL, "192.168.0.1", b"\x00" * 6, "192.168.0.11")
    body = dissect(raw(frame)).body
    assert isinstance(body, ArpPacket)
    assert body.operation == "request"
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
    assert (req.service_id, req.service_type, req.xid) == ("Identify", "Request", 0x42)
    assert req.name_of_station == "lift-motor"

    res = dissect(raw(dcp_identify_response(DEV, CTRL, 0x42, "lift-motor", ip="192.168.0.11"))).body
    assert isinstance(res, DcpFrame)
    assert (res.service_id, res.service_type) == ("Identify", "ResponseSuccess")
    assert res.name_of_station == "lift-motor"
    ip_block = res.find_block(1, 2)
    assert ip_block is not None
    assert ip_block.ip_parameter == ("192.168.0.11", "255.255.255.0", "0.0.0.0")
    identity = res.find_block(2, 3)
    assert identity is not None and len(identity.payload) == 4


def test_dcp_set_round_trip():
    req = dissect(raw(dcp_set_ip_request(CTRL, DEV, 0x43, "192.168.0.11", "255.255.255.0", "0.0.0.0"))).body
    assert isinstance(req, DcpFrame)
    block = req.find_block(1, 2)
    assert block is not None
    assert block.qualifier == 1
    assert block.ip_parameter == ("192.168.0.11", "255.255.255.0", "0.0.0.0")

    res = dissect(raw(dcp_set_response(DEV, CTRL, 0x43, 1, 2))).body
    assert isinstance(res, DcpFrame)
    assert res.service_type == "ResponseSuccess"
    assert res.blocks[0].control_response_target == (1, 2)


def test_dcp_uppercase_name_flagged_not_failed():
    frame = dcp_set_name_request(CTRL, DEV, 9, "Lift-Motor")
    body = dissect(raw(frame)).body
    assert isinstance(body, DcpFrame)
    assert body.name_of_station == "Lift-Motor"
    assert "name-charset" in body.violations


SUBMODULES = (SubmoduleSpec(1, 1, "input", 2), SubmoduleSpec(2, 1, "output", 3))


def _connect_frame() -> bytes:
    ar = uuid.uuid5(uuid.NAMESPACE_OID, "test-ar")
    blocks = ar_block_request(ar, CTRL, "plc-1")
    blocks += iocr_block_request(1, 1, cr_data_length("input", SUBMODULES), 0x8001)
    blocks += iocr_block_request(2, 2, cr_data_length("output", SUBMODULES), 0x8002)
    blocks += expected_submodules_block(SUBMODULES)
    return encode_cm(CTRL, DEV, "192.168.0.1", "192.168.0.11", 0, 0, uuid.uuid4(), 1, blocks)


def test_cm_connect_round_trip():
    frame = _connect_frame()
    body = dissect(raw(frame)).body
    assert isinstance(body, CmFrame)
    assert (body.direction, body.operation) == ("request", "Connect")
    assert body.ar_uuid == uuid.uuid5(uuid.NAMESPACE_OID, "test-ar")
    assert body.initiator_mac == "02:00:00:00:01:00"
    assert body.station_name == "plc-1"
    assert [(c.cr_type, c.frame_id, c.data_length) for c in body.iocr_blocks] == [
        ("input", 0x8001, 4),  # 2 data + 1 iops + 1 iocs(output submodule)
        ("output", 0x8002, 5),  # 3 data + 1 iops + 1 iocs(input submodule)
    ]
    assert [(s.slot, s.subslot, s.data_description) for s in body.expected_submodules] == [
        (1, 1, ("input", 2, 1, 1)),
        (2, 1, ("output", 3, 1, 1)),
    ]


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
    write = dissect(raw(encode_cm(CTRL, DEV, "192.168.0.1", "192.168.0.11", 0, 3, uuid.uuid4(), 5,
                                  record_block(BLOCK_WRITE_REQ, ar, 1, 4, 2, 0x8001, b"\xaa\xbb")))).body
    assert (write.slot, write.subslot, write.record_index) == (4, 2, 0x8001)
    assert write.record_data == b"\xaa\xbb"


def test_pnio_round_trip():
    c_sdu = cyclic_c_sdu(0, 3, "output", SUBMODULES)
    frame = encode_pnio(CTRL, DEV, 0x8002, c_sdu, 96)
    body = dissect(raw(frame)).body
    assert isinstance(body, PnioCyclicFrame)
    assert body.frame_id == 0x8002
    assert body.cycle_counter == 96
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
    assert [(b.option, b.suboption, b.qualifier, b.payload) for b in body.blocks] == [
        (1, 2, None, b""),
        (2, 2, None, b""),
    ]


def test_dcp_hello_parses_without_failure():
    from poet.synth import _dcp_block, encode_dcp

    blocks = _dcp_block(2, 2, None, b"lift-motor")
    frame = encode_dcp(DEV, CTRL, 0xFEFC, 6, 0, 0x66, blocks)
    body = dissect(raw(frame)).body
    assert isinstance(body, DcpFrame)
    assert body.service_id == "Hello"


def test_dcp_set_block_too_short_for_qualifier():
    import struct

    from poet.synth import encode_dcp

    bad_block = bytes([1, 2]) + struct.pack(">H", 1) + b"\x01" + b"\x00"
    frame = encode_dcp(CTRL, DEV, 0xFEFD, 4, 0, 0x77, bad_block)
    with pytest.raises(MalformedFrame):
        dissect(raw(frame))


def test_expected_submodules_trailing_bytes_rejected():
    import struct
    import poet.synth as synthmod

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
