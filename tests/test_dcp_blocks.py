"""Multi-block PN-DCP frames: the events and inventory changes follow the blocks in order.

The reference reads the raw block list that the test encodes, one block at a
time, so it knows nothing of how `dissect` hands the blocks on.
"""

from __future__ import annotations

import struct

from hypothesis import given, strategies as st

from poet.capture import RawFrame
from poet.dissect import dissect, str_to_mac
from poet.fsm import FrameRef
from poet.inventory import AssetInventory
from poet.models import (
    IP_ASSIGNED,
    IP_ASSIGNMENT_REQUESTED,
    NAME_RESOLUTION_REQUESTED,
    NAME_RESOLVED,
    NAME_SET_REQUESTED,
    ArTable,
    DeferredEvent,
    TrackContext,
    derive_events,
)
from poet.synth import _dcp_block, encode_dcp

SRC_MAC = "02:00:00:00:01:00"
DST_MAC = "02:00:00:00:02:00"
HELD_NAME = "lift-motor"  # the one name with an Identify request waiting for it
HELD = DeferredEvent(HELD_NAME, FrameRef(0, "pn-dcp", "held identify request"))

# (frame id, service id, service type): the three services whose blocks poet reads
SET_REQUEST = (0xFEFD, 4, 0)
SET_RESPONSE = (0xFEFD, 4, 1)
IDENTIFY_RESPONSE = (0xFEFF, 5, 1)

NAMES = st.sampled_from([b"lift-motor", b"ufo", b"Lift-Motor", b"", "motör".encode(), b"\xffbad"])
ADDRESSES = st.sampled_from([b"\xc0\xa8\x00\x0b", b"\xc0\xa8\x00\x0c", b"\x00\x00\x00\x00"])
IP_BLOCKS = st.builds(
    lambda ip, mask, gateway, extra: ip + mask + gateway + extra,
    ADDRESSES, st.sampled_from([b"\xff\xff\xff\x00", b"\xff\xff\x00\x00"]), ADDRESSES,
    st.binary(max_size=2),
)
# (option, suboption, data); data excludes the qualifier or BlockInfo that the encoder adds
BLOCKS = st.one_of(
    st.tuples(st.just(2), st.just(2), NAMES),
    st.tuples(st.just(1), st.just(2), IP_BLOCKS),
    st.tuples(st.just(1), st.just(2), st.binary(max_size=11)),
    st.tuples(st.just(2), st.just(3), st.sampled_from([b"\x00\x2a\x03\x01", b"\x00\x2a\x03\x02\x09"])),
    st.tuples(st.just(2), st.just(3), st.binary(max_size=3)),
    st.tuples(st.just(5), st.just(4), st.sampled_from([b"\x01\x02\x00", b"\x01\x02"])),
    st.tuples(st.just(5), st.just(4), st.sampled_from([b"\x01\x02\x06", b"\x01\x02\x01\x00"])),
    st.tuples(st.just(5), st.just(4), st.just(b"\x02\x02\x00")),
    st.tuples(st.sampled_from([3, 4, 6, 0x80, 0xFF]), st.integers(0, 255), st.binary(max_size=6)),
)


class _Context(TrackContext):
    ar_table = ArTable()  # empty: no DCP frame reads it

    def deferred_for_name(self, name):
        return [HELD] if name == HELD_NAME else []


def _encode(service: tuple[int, int, int], blocks: list[tuple[int, int, bytes]]) -> bytes:
    frame_id, service_id, service_type = service
    data = b""
    for option, suboption, payload in blocks:
        # Control/Result blocks carry bare data; every other block here has a qualifier or BlockInfo.
        qualifier = None if (option, suboption) == (5, 4) else 1
        data += _dcp_block(option, suboption, qualifier, payload)
    src, dst = str_to_mac(SRC_MAC), str_to_mac(DST_MAC)
    return encode_dcp(src, dst, frame_id, service_id, service_type, 7, data)


def _ip_triple(payload: bytes) -> tuple[str, str, str]:
    return tuple(".".join(str(b) for b in payload[at : at + 4]) for at in (0, 4, 8))


def _reference_events(service, blocks) -> list[tuple[str, str, str]]:
    if service == SET_REQUEST:
        out = []
        for option, suboption, payload in blocks:
            if (option, suboption) == (1, 2) and len(payload) >= 12:
                ip = _ip_triple(payload)[0]
                out.append((IP_ASSIGNMENT_REQUESTED, DST_MAC, f"dcp set ip-parameter {ip}"))
            elif (option, suboption) == (2, 2):
                name = payload.decode("utf-8", errors="replace")
                out.append((NAME_SET_REQUESTED, DST_MAC, f"dcp set name-of-station {name!r}"))
        return out
    if service == SET_RESPONSE:
        return [
            (IP_ASSIGNED, SRC_MAC, "dcp set response (ip parameter)")
            for option, suboption, payload in blocks
            if (option, suboption) == (5, 4) and payload[:2] == b"\x01\x02" and not any(payload[2:3])
        ]
    names = [p.decode("utf-8", errors="replace") for o, s, p in blocks if (o, s) == (2, 2)]
    name = names[0] if names else None
    out = []
    if name == HELD_NAME:
        out.append((NAME_RESOLUTION_REQUESTED, SRC_MAC, HELD.cause.summary))
    out.append((NAME_RESOLVED, SRC_MAC, f"dcp identify response from {name!r}"))
    return out


def _reference_diagnostics(service, blocks) -> list[tuple[str, str, str]]:
    """A Set response's Control/Result block with a nonzero BlockError refuses the IP Set."""
    if service != SET_RESPONSE:
        return []
    return [
        ("dcp_set_refused", SRC_MAC, f"ip parameter set refused with block error {payload[2]}")
        for option, suboption, payload in blocks
        if (option, suboption) == (5, 4) and payload[:2] == b"\x01\x02" and any(payload[2:3])
    ]


def _reference_changes(service, blocks) -> list[tuple[str, str, object, object, bool]]:
    if service == SET_RESPONSE:
        return []
    fields: dict[tuple[str, str], object] = {}
    out = []

    def set_(mac, fieldname, value):
        old = fields.get((mac, fieldname), "unknown" if fieldname == "role" else None)
        if value != old:
            fields[mac, fieldname] = value
            out.append((mac, fieldname, old, value, old not in (None, "unknown")))

    # An Identify response describes its sender; a Set request describes its target.
    subject = SRC_MAC if service == IDENTIFY_RESPONSE else DST_MAC
    for option, suboption, payload in blocks:
        if (option, suboption) == (2, 2):
            set_(subject, "name_of_station", payload.decode("utf-8", errors="replace"))
        elif (option, suboption) == (1, 2) and len(payload) >= 12:
            ip, subnet, gateway = _ip_triple(payload)
            if ip != "0.0.0.0":
                set_(subject, "ip_address", ip)
                set_(subject, "subnet", subnet)
                set_(subject, "gateway", gateway)
        elif (option, suboption) == (2, 3) and len(payload) >= 4:
            vendor, device = struct.unpack(">HH", payload[:4])
            set_(subject, "vendor_id", vendor)
            set_(subject, "device_id", device)
    if service == SET_REQUEST:
        set_(SRC_MAC, "role", "controller")
        set_(DST_MAC, "role", "device")
    return out


@given(
    service=st.sampled_from([SET_REQUEST, SET_RESPONSE, IDENTIFY_RESPONSE]),
    blocks=st.lists(BLOCKS, min_size=1, max_size=6),
)
def test_multi_block_frame_matches_block_order_reference(service, blocks):
    parsed = dissect(RawFrame(0, 0, _encode(service, blocks), 3))

    derived = derive_events(parsed, _Context())
    events = [(e.event_name, e.key, e.cause.summary) for e in derived.events]
    assert events == _reference_events(service, blocks)
    diagnostics = [(d.kind, d.key, d.detail) for d in derived.diagnostics]
    assert diagnostics == _reference_diagnostics(service, blocks)

    changes = AssetInventory().update_from_frame(parsed, (1, 0))
    assert [(c.mac, c.fieldname, c.old, c.new, c.conflict) for c in changes] == _reference_changes(
        service, blocks
    )
