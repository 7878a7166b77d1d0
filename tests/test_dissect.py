"""Dissector behaviour: classification, round trips, layout, totality."""

from __future__ import annotations

import struct
import tracemalloc
import uuid

import pytest
from hypothesis import example, given, settings, strategies as st

from poet.capture import RawFrame
from poet.dissect import (
    LLDP_FACTS_BOUND,
    _LLDP_FACTS,
    ArpPacket,
    CmFrame,
    DcpFrame,
    ETHERTYPE_PROFINET,
    LldpFrame,
    MalformedFrame,
    ParsedFrame,
    PnioCyclicFrame,
    dissect,
    name_of_station_violations,
    _parse_lldp,
)
from poet import synth
from poet.synth import (
    NodeSpec,
    ScenarioError,
    ScenarioSpec,
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
    iocr_block_request,
    mac_to_str,
    malformed_frame,
    str_to_mac,
)

from corpus import fuzz_corpus

CTRL = str_to_mac("02:00:00:00:01:00")
DEV = str_to_mac("02:00:00:00:02:00")
PORT = str_to_mac("02:70:01:01:02:00")


def raw(data: bytes, index: int = 0) -> RawFrame:
    return RawFrame(0, 0, data, index)


def test_lldp_station_name_lift_motor():
    frame = encode_lldp(DEV, PORT, 20, "Lift-Motor", ("port-001",), management_ip="192.168.0.11")
    parsed = dissect(raw(frame))
    assert isinstance(parsed, LldpFrame)
    assert parsed.station_name == "Lift-Motor"
    assert parsed.subject_mac == "02:00:00:00:02:00"  # the chassis MAC, not the source
    assert parsed.port_mac == "02:70:01:01:02:00"
    assert parsed.management_address == "192.168.0.11"


def test_dcp_set_name_ufo():
    frame = dcp_set_name_request(CTRL, DEV, 7, "ufo")
    body = dissect(raw(frame))
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
    assert type(parsed) is ParsedFrame
    assert parsed.protocol == "other"


def test_unknown_ethertype_is_other():
    frame = ethernet(DEV, CTRL, 0x86DD, b"\x00" * 40)
    parsed = dissect(raw(frame))
    assert type(parsed) is ParsedFrame
    assert (parsed.dst_mac, parsed.src_mac) == ("02:00:00:00:02:00", "02:00:00:00:01:00")


def test_vlan_unwrapped_once():
    import struct

    inner = dcp_set_name_request(CTRL, DEV, 9, "ufo")[14:]
    tagged = DEV + CTRL + struct.pack(">HH", 0x8100, (3 << 13) | 42) + struct.pack(">H", ETHERTYPE_PROFINET) + inner
    parsed = dissect(raw(tagged))
    assert (parsed.dst_mac, parsed.src_mac) == ("02:00:00:00:02:00", "02:00:00:00:01:00")
    assert parsed.protocol == "pn-dcp"
    assert isinstance(parsed, DcpFrame)
    assert parsed.name_of_station == "ufo"


def test_pnio_alarm_frame_id_is_other():
    frame = ethernet(DEV, CTRL, ETHERTYPE_PROFINET, b"\xfc\x01" + b"\x00" * 40)
    parsed = dissect(raw(frame))
    assert type(parsed) is ParsedFrame
    assert parsed.protocol == "other"


# --- Round trips over every synthesized frame family -------------------------


def test_lldp_round_trip_parameters():
    frame = encode_lldp(DEV, PORT, 30, "turntable-motor", ("port-001", "port-002"), "10.0.0.5")
    body = dissect(raw(frame))
    assert isinstance(body, LldpFrame)
    assert (body.subject_mac, body.port_mac) == ("02:00:00:00:02:00", "02:70:01:01:02:00")
    assert body.station_name == "turntable-motor"
    assert body.management_address == "10.0.0.5"


def test_lldp_chassis_name_with_pno_chassis_mac_round_trip():
    frame = encode_lldp(DEV, PORT, 20, "lift-motor", chassis_name="lift-motor")
    body = dissect(raw(frame))
    assert (body.subject_mac, body.port_mac) == ("02:00:00:00:02:00", "02:70:01:01:02:00")
    assert body.station_name == "lift-motor"


PNO_CHASSIS_MAC = b"\x00\x0e\xcf\x05"  # the PROFINET OUI, then subtype 5


def test_lldp_named_station_gives_its_name_and_port_mac():
    """A station named only by its chassis id, with a named port id, sending from its port's MAC."""
    tlvs = (
        synth._lldp_tlv(1, b"\x07lift-motor")
        + synth._lldp_tlv(2, b"\x07port-001.lift-motor")
        + synth._lldp_tlv(3, b"\x00\x14")
        + synth._lldp_tlv(127, PNO_CHASSIS_MAC + DEV)
        + synth._lldp_tlv(0, b"")
    )
    body = dissect(raw(ethernet(synth.LLDP_MULTICAST, PORT, 0x88CC, tlvs)))
    assert isinstance(body, LldpFrame)
    assert (body.subject_mac, body.port_mac, body.station_name) == (
        "02:00:00:00:02:00",
        "02:70:01:01:02:00",
        "lift-motor",
    )
    encoded = encode_lldp(DEV, PORT, 20, None, chassis_name="lift-motor", port_name="lift-motor")
    assert b"\x07port-001.lift-motor" in encoded
    assert dissect(raw(encoded)) == body


@pytest.mark.parametrize(
    "chassis_id, port_id, system_name, pno_tlv, expected",
    [
        # The System Name wins over the chassis id, and a MAC port id over the source MAC.
        pytest.param(
            b"\x07lift", b"\x07port-001.lift", b"plc-7", PNO_CHASSIS_MAC + DEV,
            ("02:00:00:00:02:00", "02:70:01:01:02:00", "plc-7"), id="system-name",
        ),
        pytest.param(
            b"\x07lift", b"\x03" + CTRL, None, PNO_CHASSIS_MAC + DEV,
            ("02:00:00:00:02:00", "02:00:00:00:01:00", "lift"), id="mac-port-id",
        ),
        # A chassis id of another subtype is no name.
        pytest.param(
            b"\x04" + CTRL, b"\x07port-001", None, PNO_CHASSIS_MAC + DEV,
            ("02:00:00:00:02:00", "02:70:01:01:02:00", None), id="mac-chassis-id",
        ),
        # Without the Chassis-MAC TLV neither id names the station or its port.
        pytest.param(
            b"\x07lift", b"\x07port-001.lift", None, None,
            ("02:70:01:01:02:00", None, None), id="no-pno-chassis-mac",
        ),
    ],
)
def test_lldp_named_station_rules(chassis_id, port_id, system_name, pno_tlv, expected):
    tlvs = synth._lldp_tlv(1, chassis_id) + synth._lldp_tlv(2, port_id) + synth._lldp_tlv(3, b"\x00\x14")
    if system_name is not None:
        tlvs += synth._lldp_tlv(5, system_name)
    if pno_tlv is not None:
        tlvs += synth._lldp_tlv(127, pno_tlv)
    body = dissect(raw(ethernet(synth.LLDP_MULTICAST, PORT, 0x88CC, tlvs + synth._lldp_tlv(0, b""))))
    assert (body.subject_mac, body.port_mac, body.station_name) == expected


@pytest.mark.parametrize(
    "chassis_id, pno_tlv, subject",
    [
        # The PNO Chassis-MAC TLV names the subject over a MAC-subtype chassis id and over
        # the source MAC; a short one is ignored, not refused.
        pytest.param(bytes([4]) + DEV, PNO_CHASSIS_MAC + CTRL, "02:00:00:00:01:00", id="over-mac-chassis"),
        pytest.param(bytes([7]) + b"lift", PNO_CHASSIS_MAC + CTRL, "02:00:00:00:01:00", id="over-source"),
        pytest.param(bytes([4]) + DEV, PNO_CHASSIS_MAC + CTRL[:5], "02:00:00:00:02:00", id="short"),
        pytest.param(bytes([7]) + b"lift", PNO_CHASSIS_MAC, "02:70:01:01:02:00", id="empty"),
        pytest.param(bytes([7]) + b"lift", b"\x00\x0e\xcf\x02" + CTRL, "02:70:01:01:02:00", id="other-subtype"),
        pytest.param(bytes([7]) + b"lift", b"\x00\x0e\xce\x05" + CTRL, "02:70:01:01:02:00", id="other-oui"),
    ],
)
def test_lldp_subject_prefers_the_pno_chassis_mac(chassis_id, pno_tlv, subject):
    tlvs = (
        synth._lldp_tlv(1, chassis_id)
        + synth._lldp_tlv(2, bytes([3]) + PORT)
        + synth._lldp_tlv(3, b"\x00\x14")
        + synth._lldp_tlv(127, pno_tlv)
        + synth._lldp_tlv(0, b"")
    )
    body = dissect(raw(ethernet(DEV, PORT, 0x88CC, tlvs)))
    assert isinstance(body, LldpFrame)
    assert body.subject_mac == subject


def test_arp_round_trip_and_gratuitous_flag():
    frame = encode_arp(CTRL, b"\xff" * 6, 1, CTRL, "192.168.0.1", b"\x00" * 6, "192.168.0.11")
    body = dissect(raw(frame))
    assert isinstance(body, ArpPacket)
    assert body.sender_mac == "02:00:00:00:01:00"
    assert (body.sender_ip, body.target_ip) == ("192.168.0.1", "192.168.0.11")
    assert not body.is_gratuitous

    announce = encode_arp(DEV, b"\xff" * 6, 1, DEV, "192.168.0.11", b"\x00" * 6, "192.168.0.11")
    assert dissect(raw(announce)).is_gratuitous


@given(
    sender=st.tuples(*[st.integers(0, 255)] * 4),
    target=st.tuples(*[st.integers(0, 255)] * 4),
)
def test_gratuitous_iff_sender_equals_target(sender, target):
    sender_ip = ".".join(map(str, sender))
    target_ip = ".".join(map(str, target))
    frame = encode_arp(DEV, b"\xff" * 6, 1, DEV, sender_ip, b"\x00" * 6, target_ip)
    body = dissect(raw(frame))
    assert isinstance(body, ArpPacket)
    assert body.is_gratuitous == (sender_ip == target_ip)


def test_dcp_identify_round_trip():
    req = dissect(raw(dcp_identify_request(CTRL, 0x42, "lift-motor")))
    assert isinstance(req, DcpFrame)
    assert (req.service_id, req.service_type) == ("Identify", "Request")
    assert req.name_of_station == "lift-motor"

    res = dissect(raw(dcp_identify_response(DEV, CTRL, 0x42, "lift-motor", ip="192.168.0.11")))
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
    req = dissect(raw(dcp_set_ip_request(CTRL, DEV, 0x43, "192.168.0.11", "255.255.255.0", "0.0.0.0")))
    assert isinstance(req, DcpFrame)
    assert req.facts == (("ip", ("192.168.0.11", "255.255.255.0", "0.0.0.0")),)  # qualifier stripped

    res = dissect(raw(dcp_set_response(DEV, CTRL, 0x43, 1, 2)))
    assert isinstance(res, DcpFrame)
    assert res.service_type == "ResponseSuccess"
    assert res.facts == (("ip_acknowledged", None),)


def test_dcp_uppercase_name_flagged_not_failed():
    frame = dcp_set_name_request(CTRL, DEV, 9, "Lift-Motor")
    body = dissect(raw(frame))
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
    for label in name.split("."):
        if len(label) > 63:  # the DNS label limit, RFC 1035 section 2.3.4
            tags.append("name-label-too-long")
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
        st.text(st.sampled_from("az09-."), min_size=60, max_size=70),  # about the 63 label limit
    )
)
def test_name_rule_tags_match_a_per_character_reference(name):
    assert name_of_station_violations(name) == _reference_name_violations(name)


@pytest.mark.parametrize(
    "name, tags",
    [
        ("a" * 63, []),
        ("a" * 64, ["name-label-too-long"]),
        ("plc." + "b" * 63, []),
        ("plc." + "b" * 64 + ".line", ["name-label-too-long"]),
        ("-" + "c" * 64, ["name-label-shape", "name-label-too-long"]),
    ],
)
def test_name_label_holds_at_most_63_octets(name, tags):
    assert name_of_station_violations(name) == _reference_name_violations(name) == tags
    spec = ScenarioSpec(NodeSpec("02:00:00:00:01:00", name, "192.168.0.1"), ())
    if tags:
        with pytest.raises(ScenarioError, match="name-label-too-long"):
            spec.validate()
    else:
        spec.validate()


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
    body = dissect(raw(frame))
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
    body = dissect(raw(_connect_frame(synth._cm_block(0x0103, bytes(24)))))
    assert body == dissect(raw(_connect_frame()))


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
        body = dissect(raw(frame))
        assert isinstance(body, CmFrame)
        assert body.operation == operation
        assert body.ar_uuid == ar
        assert body.direction == "request"


def test_pnio_round_trip():
    c_sdu = cyclic_c_sdu(0, 3, "output", SUBMODULES)
    frame = encode_pnio(CTRL, DEV, 0x8002, c_sdu, 96)
    body = dissect(raw(frame))
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
    body = dissect(raw(frame))
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
    body = dissect(raw(frame))
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
    body = dissect(raw(frame))
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
    body = dissect(raw(frame))
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
    # A mandatory TLV's refusal points at its value: 9 bytes of chassis TLV, then the port id's.
    ("lldp-port-short", _lldp(CHASSIS, synth._lldp_tlv(2, b"\x03"), TTL), "lldp", 11, "port id too short"),
    ("lldp-ttl-size", _lldp(CHASSIS, PORT_ID, synth._lldp_tlv(3, b"\x14")), "lldp", 20, "ttl must be 2 bytes"),
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
    # An entry's refusal points at the entry: the block's content follows its 6-byte header.
    ("slot-entry", _cm(synth._cm_block(0x0104, struct.pack(">H", 1) + SLOT[:7])),
     "pn-cm", BLOCKS_BASE + 6 + 2, "truncated slot entry"),
    ("submodule-entry", _cm(synth._cm_block(0x0104, struct.pack(">H", 1) + SLOT + _submodule(1)[:10])),
     "pn-cm", BLOCKS_BASE + 6 + 10, "truncated submodule entry"),
    ("submodule-direction", _cm(synth._cm_block(0x0104, struct.pack(">H", 1) + SLOT + _submodule(3))),
     "pn-cm", BLOCKS_BASE + 6 + 10, "bad submodule direction 3"),
    ("submodule-trailing",
     _cm(synth._cm_block(0x0104, struct.pack(">H", 1) + SLOT + _submodule(1) + b"\x00")),
     "pn-cm", BLOCKS_BASE + 6 + 21, "trailing bytes in expected submodule block"),
]


@pytest.mark.parametrize(
    "frame, protocol, offset, reason",
    [pytest.param(*case[1:], id=case[0]) for case in REFUSALS],
)
def test_refusal(frame, protocol, offset, reason):
    with pytest.raises(MalformedFrame) as exc:
        dissect(raw(frame))
    assert (exc.value.protocol, exc.value.offset, exc.value.reason) == (protocol, offset, reason)


# --- The LLDP facts table ---------------------------------------------------------

_MACS = st.binary(min_size=6, max_size=6)
_NAMES = st.text("abcdefghijklmnopqrstuvwxyz0123456789-.", min_size=1, max_size=20)
# Chassis and port id values of the MAC and locally assigned subtypes, and any bytes, some too short.
_CHASSIS_IDS = st.one_of(
    _MACS.map(lambda mac: b"\x04" + mac),
    _NAMES.map(lambda name: b"\x07" + name.encode()),
    st.binary(max_size=9),
)
_PORT_IDS = st.one_of(
    _MACS.map(lambda mac: b"\x03" + mac),
    _NAMES.map(lambda name: b"\x07port-001." + name.encode()),
    st.binary(max_size=9),
)
_TTLS = st.sampled_from((b"\x00\x00", b"\x00\x14")) | st.binary(max_size=3)
_OPTIONAL_TLVS = st.one_of(
    _NAMES.map(lambda name: synth._lldp_tlv(5, name.encode())),
    # A Management Address TLV of an IPv4 address and its interface number.
    st.binary(min_size=4, max_size=4).map(lambda ip: synth._lldp_tlv(8, b"\x05\x01" + ip + b"\x02" + bytes(5))),
    _MACS.map(lambda mac: synth._lldp_tlv(127, PNO_CHASSIS_MAC + mac)),
    st.builds(synth._lldp_tlv, st.integers(1, 127), st.binary(max_size=12)),
)
_ENCODED_LLDP = st.builds(
    encode_lldp,
    _MACS,
    _MACS,
    st.sampled_from((0, 20)),
    st.none() | _NAMES,
    st.lists(_NAMES, max_size=2).map(tuple),
    st.none() | st.just("192.168.0.11"),
    st.none() | _NAMES,
    st.none() | _NAMES,
)


@st.composite
def _raw_lldp(draw) -> bytes:
    """An LLDP frame of raw TLVs: the three mandatory ones, in order or not, optional ones and
    an End TLV or none; then perhaps a TLV that overruns the frame, or a cut."""
    tlvs = [synth._lldp_tlv(t, draw(values)) for t, values in ((1, _CHASSIS_IDS), (2, _PORT_IDS), (3, _TTLS))]
    if draw(st.booleans()):
        tlvs = draw(st.permutations(tlvs))
    tlvs += draw(st.lists(_OPTIONAL_TLVS, max_size=4))
    if draw(st.booleans()):
        tlvs.append(synth._lldp_tlv(0, b""))
    if draw(st.booleans()):
        value = draw(st.binary(max_size=8))
        tlvs.append(struct.pack(">H", 5 << 9 | len(value) + draw(st.integers(1, 9))) + value)
    frame = ethernet(synth.LLDP_MULTICAST, PORT, 0x88CC, b"".join(tlvs), pad_to=0)
    return frame[: draw(st.integers(14, len(frame)))] if draw(st.booleans()) else frame


def _lldp_outcome(data: bytes, index: int, fresh: bool) -> object:
    """The record of dissecting `data`, or a fresh parse of it that bypasses the table;
    or the (protocol, offset, reason) of its refusal."""
    try:
        if not fresh:
            return dissect(raw(data, index))
        src = data[6:12].hex(":")
        start = 18 if data[12:14] == b"\x81\x00" else 14
        return LldpFrame(data[:6].hex(":"), src, index, *_parse_lldp(data, start, src))
    except MalformedFrame as exc:
        return (exc.protocol, exc.offset, exc.reason)


@settings(max_examples=300)
@given(_ENCODED_LLDP | _raw_lldp(), st.lists(_MACS, min_size=2, max_size=2, unique=True))
# A station named by its chassis id sends from its port's MAC, which is then its port MAC.
@example(encode_lldp(DEV, PORT, 20, None, chassis_name="lift-motor", port_name="lift-motor"), [PORT, CTRL])
# A chassis id of the MAC subtype one byte short: the subject is the source MAC.
@example(_lldp(synth._lldp_tlv(1, b"\x04" + DEV[:5]), PORT_ID, TTL), [PORT, CTRL])
def test_a_repeated_lldp_pdu_reads_as_its_fresh_parse(frame, sources):
    """An LLDP frame sent from two sources, and 802.1Q-tagged, each dissected three times:
    every record equals a fresh parse with the frame's own addresses and index, every
    refusal is the fresh parse's, a refused frame is never stored, and a record's facts are
    kept from its second sighting, so the third reads them from the table."""
    _LLDP_FACTS.clear()
    tagged = frame[:12] + b"\x81\x00\x20\x05" + frame[12:]
    index = 0
    for data in (*(frame[:6] + source + frame[12:] for source in sources), tagged):
        for sighting in range(3):
            fresh = _lldp_outcome(data, index, fresh=True)
            assert _lldp_outcome(data, index, fresh=False) == fresh
            if not isinstance(fresh, LldpFrame):
                assert data[6:] not in _LLDP_FACTS
            elif sighting:
                assert LldpFrame(fresh.dst_mac, fresh.src_mac, index, *_LLDP_FACTS[data[6:]]) == fresh
            index += 1


def _distinct_lldp_peak(count: int) -> int:
    """tracemalloc's peak while dissecting `count` LLDP PDUs of distinct stations."""
    template = encode_lldp(DEV, PORT, 20, "st-000000")
    _LLDP_FACTS.clear()
    tracemalloc.start()
    try:
        for index in range(count):
            dissect(raw(template.replace(b"st-000000", b"st-%06d" % index), index))
            assert len(_LLDP_FACTS) <= LLDP_FACTS_BOUND
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_lldp_table_holds_at_most_its_bound():
    peaks = [_distinct_lldp_peak(count) for count in (10_000, 40_000)]
    # A table that kept every PDU would peak 30,000 entries (several MB) higher.
    assert peaks[1] - peaks[0] < 256 * 1024, peaks


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
