"""Multi-block PN-CM PDUs: the operation, AR and refusal follow the blocks in order,
and each AR operation fires the events of a reference table.

The references read the raw block list that the test encodes, one block at a
time, and name each block type by its number, so they know nothing of how
`dissect` or `models` hand the blocks on.
"""

from __future__ import annotations

import itertools
import struct
import uuid

from hypothesis import given, settings, strategies as st

from poet.capture import RawFrame
from poet.dissect import CmFrame, MalformedFrame, dissect
from poet.fsm import FrameRef, FsmInstance
from poet.models import (
    ACYCLIC_DONE,
    ACYCLIC_READ,
    ACYCLIC_WRITE,
    APPLICATION_READY,
    CONNECT_REQUESTED,
    CONNECTION_CONFIRMED,
    END_OF_PARAMETRIZATION,
    PARAMETRIZATION_WRITE,
    ArTable,
    ConnectionRegistration,
    TrackContext,
    connection_fsm_table,
    connection_key,
    derive_events,
    device_fsm_table,
)
from poet.synth import (
    SubmoduleSpec,
    _cm_block,
    ar_block_request,
    ar_block_response,
    control_block,
    encode_cm,
    expected_submodules_block,
    iocr_block_request,
    iocr_block_response,
    record_block,
    str_to_mac,
)

CTRL_MAC = "02:00:00:00:01:00"
DEV_MAC = "02:00:00:00:02:00"
CTRL = str_to_mac(CTRL_MAC)
DEV = str_to_mac(DEV_MAC)
ARS = [uuid.uuid5(uuid.NAMESPACE_OID, f"cm-blocks-{i}") for i in range(3)]
BLOCKS_BASE = 20 + 8 + 80 + 20  # IPv4, UDP, RPC and NDR headers; refusal offsets count from IPv4

AR_REQ, AR_RES = 0x0101, 0x8101
IOCR_REQ, IOCR_RES = 0x0102, 0x8102
ALARMCR_REQ, ALARMCR_RES, MODULE_DIFF = 0x0103, 0x8103, 0x8104
SUBMODULES = 0x0104
WRITE_REQ, WRITE_RES, READ_REQ, READ_RES = 0x0008, 0x8008, 0x0009, 0x8009
DCONTROL_REQ, DCONTROL_RES = 0x0110, 0x8110
CCONTROL_REQ, CCONTROL_RES = 0x0112, 0x8112
RELEASE, RELEASE_RES = 0x0114, 0x8114
OPNUM_OPERATIONS = ["Connect", "Release", "Read", "Write", "DControl"]


def _content(block: bytes) -> bytes:
    """A block's content: what follows its type, length and version."""
    return block[6:]


_AR = st.sampled_from(ARS)
# One strategy per block kind, each drawing (block type, well-formed content); the last
# two kinds are Connect blocks that poet skips and undefined types, which refuse the PDU.
_KINDS = [
    st.builds(lambda ar, name: (AR_REQ, _content(ar_block_request(ar, CTRL, name))),
              _AR, st.sampled_from(["plc", "", "line-controller"])),
    st.builds(lambda ar: (AR_RES, _content(ar_block_response(ar, DEV))), _AR),
    *(
        st.builds(lambda ar, data, t=block_type: (t, _content(record_block(t, ar, 1, 1, 1, 0x8000, data))),
                  _AR, st.binary(max_size=4))
        for block_type in (WRITE_REQ, WRITE_RES, READ_REQ, READ_RES)
    ),
    *(
        st.builds(lambda ar, t=block_type: (t, _content(control_block(t, ar, 1))), _AR)
        for block_type in (DCONTROL_REQ, DCONTROL_RES, CCONTROL_REQ, CCONTROL_RES, RELEASE, RELEASE_RES)
    ),
    st.builds(lambda t, ar, size: (t, _content(control_block(t, ar, 1))[:size]),
              st.sampled_from([RELEASE, RELEASE_RES]), _AR, st.integers(0, 17)),  # a short Release, which names no AR
    st.builds(lambda cr_type, frame_id: (IOCR_REQ, _content(iocr_block_request(cr_type, 1, 4, frame_id))),
              st.sampled_from([1, 2, 3]), st.sampled_from([0x8001, 0x8002])),
    st.builds(lambda cr_type: (IOCR_RES, _content(iocr_block_response(cr_type, 1, 0x8001))),
              st.sampled_from([1, 2])),
    st.builds(
        lambda directions: (SUBMODULES, _content(expected_submodules_block(
            tuple(SubmoduleSpec(1, i + 1, d, 2) for i, d in enumerate(directions))
        ))),
        st.lists(st.sampled_from(["input", "output"]), max_size=2),
    ),
    st.tuples(st.sampled_from([ALARMCR_REQ, ALARMCR_RES, MODULE_DIFF]), st.binary(max_size=24)),
    st.tuples(st.sampled_from([0x0001, 0x0555, 0xFFFF]), st.binary(max_size=6)),
]


@st.composite
def _block(draw) -> tuple[int, bytes]:
    """One block of any kind; one in four is cut short."""
    block_type, content = draw(draw(st.sampled_from(_KINDS)))
    if block_type != SUBMODULES and draw(st.integers(0, 3)) == 0:
        content = content[: draw(st.integers(0, len(content)))]
    return block_type, content


def _reference_dissect(direction: str, opnum: int, blocks) -> tuple:
    """("ok", operation, AR UUID's 16 bytes) of a PDU, or ("refused", reason, offset)."""
    operation = ar = None
    has_iocrs = has_submodules = False
    at = BLOCKS_BASE
    for block_type, content in blocks:
        size = len(content)
        if block_type in (AR_REQ, AR_RES):
            operation = "Connect"
            if size < 26:
                return ("refused", "AR block too short", at)
            ar = content[2:18]
            if block_type == AR_REQ:
                # The station name's length sits after the initiator's object UUID and timing fields.
                if size < 52:
                    return ("refused", "AR request block too short", at)
                if size < 52 + struct.unpack(">H", content[50:52])[0]:
                    return ("refused", "station name exceeds AR block", at)
        elif block_type in (WRITE_REQ, WRITE_RES, READ_REQ, READ_RES):
            operation = "Write" if block_type in (WRITE_REQ, WRITE_RES) else "Read"
            if size < 32:
                return ("refused", "record block too short", at)
            ar = content[2:18]
            if size < 32 + struct.unpack(">I", content[28:32])[0]:
                return ("refused", "record data exceeds block", at)
        elif block_type in (DCONTROL_REQ, DCONTROL_RES, CCONTROL_REQ, CCONTROL_RES):
            operation = "DControl" if block_type in (DCONTROL_REQ, DCONTROL_RES) else "CControl"
            if size < 18:
                return ("refused", "control block too short", at)
            ar = content[2:18]
        elif block_type in (RELEASE, RELEASE_RES):
            operation = "Release"
            if size >= 18:  # a short Release names no AR
                ar = content[2:18]
        elif block_type == IOCR_REQ:
            if size < 18:
                return ("refused", "IOCR block too short", at)
            cr_type = struct.unpack(">H", content[0:2])[0]
            if cr_type not in (1, 2):
                return ("refused", f"bad IOCR type {cr_type}", at)
            has_iocrs = True
        elif block_type in (IOCR_RES, ALARMCR_REQ, ALARMCR_RES, MODULE_DIFF):
            operation = operation or "Connect"
        elif block_type == SUBMODULES:
            has_submodules = has_submodules or struct.unpack(">H", content[0:2])[0] > 0
        else:
            return ("refused", f"unknown block type 0x{block_type:04x}", at)
        at += 6 + size
    operation = operation or OPNUM_OPERATIONS[opnum]
    if operation == "Connect" and direction == "request":
        if ar is None:
            return ("refused", "Connect request without AR block", BLOCKS_BASE)
        if has_iocrs and not has_submodules:
            return ("refused", "IO CRs declared without expected submodules", BLOCKS_BASE)
    return ("ok", operation, ar)


# A PDU whose last operation block is one given type, with nothing refused, is rare:
# 300 examples reach one for each type on nearly every run.
@settings(max_examples=300)
@given(
    direction=st.sampled_from(["request", "response"]),
    opnum=st.integers(0, 4),
    blocks=st.lists(_block(), max_size=5),
)
def test_multi_block_pdu_matches_block_order_reference(direction, opnum, blocks):
    ptype = 0 if direction == "request" else 2
    args = b"".join(_cm_block(block_type, content) for block_type, content in blocks)
    frame = encode_cm(CTRL, DEV, "192.168.0.1", "192.168.0.11", ptype, opnum, uuid.UUID(int=5), 1, args)
    try:
        body = dissect(RawFrame(0, 0, frame, 0))
    except MalformedFrame as refusal:
        assert refusal.protocol == "pn-cm"
        outcome = ("refused", refusal.reason, refusal.offset)
    else:
        assert isinstance(body, CmFrame) and body.direction == direction
        outcome = ("ok", body.operation, body.ar_uuid)
    assert outcome == _reference_dissect(direction, opnum, blocks)


# --- Events of each AR operation ----------------------------------------------------

KNOWN_AR, UNKNOWN_AR = ARS[0], ARS[1]
KEY = connection_key(CTRL_MAC, DEV_MAC)


def _both(event: str) -> list[tuple[str, str, str]]:
    return [(event, "device", DEV_MAC), (event, "connection", KEY)]


# (operation, direction) -> (events before the connection is established, events after),
# for a frame whose AR is registered
KNOWN_AR_EVENTS = {
    ("Connect", "response"): ([], []),
    ("Write", "request"): (_both(PARAMETRIZATION_WRITE), _both(ACYCLIC_WRITE)),
    ("Write", "response"): ([], _both(ACYCLIC_DONE)),
    ("Read", "request"): (_both(ACYCLIC_READ), _both(ACYCLIC_READ)),
    ("Read", "response"): ([], _both(ACYCLIC_DONE)),
    ("DControl", "request"): (_both(END_OF_PARAMETRIZATION), _both(END_OF_PARAMETRIZATION)),
    ("DControl", "response"): ([], []),
    ("CControl", "request"): (_both(APPLICATION_READY), _both(APPLICATION_READY)),
    ("CControl", "response"): ([(CONNECTION_CONFIRMED, "device", DEV_MAC)],) * 2,
    ("Release", "request"): ([], []),
    ("Release", "response"): ([], []),
}


class _Context(TrackContext):
    def __init__(self, established: bool):
        self.established = established
        # KNOWN_AR registered as the tracker registers a Connect, under the table's own rules.
        self.ar_table = ArTable()
        device = FsmInstance(device_fsm_table(), DEV_MAC)
        connection = FsmInstance(connection_fsm_table(), KEY)
        known = ConnectionRegistration(KEY, DEV_MAC, KNOWN_AR.bytes, ())
        assert self.ar_table.register(known, device, connection, FrameRef(0, "pn-cm", "connect request")) == []

    def state_of(self, scope, key):
        assert (scope, key) == ("connection", KEY)
        return "ConnectionEstablished" if self.established else "ConnectionConfiguration"


def _reference_derive(operation, direction, established, ar):
    """(events, diagnostics) of one PN-CM frame, as (name, scope, key) and (kind, detail)."""
    if (operation, direction) == ("Connect", "request"):
        return [(CONNECT_REQUESTED, "device", DEV_MAC), (CONNECT_REQUESTED, "system", None)], []
    if operation in ("Connect", "Release"):
        return [], []
    what = f"pn-cm {operation.lower()} {direction}"
    if ar is None:
        return [], [("orphan_frame", f"{what} without AR reference")]
    if ar == UNKNOWN_AR:
        return [], [("orphan_frame", f"{what} for unknown AR {ar}")]
    return KNOWN_AR_EVENTS[operation, direction][established], []


def test_each_ar_operation_matches_reference_table():
    operations = ["Connect", "Write", "Read", "DControl", "CControl", "Release"]
    for operation, direction, established, ar in itertools.product(
        operations, ["request", "response"], [False, True], [KNOWN_AR, UNKNOWN_AR, None]
    ):
        if (operation, direction, ar) == ("Connect", "request", None):
            continue  # dissect refuses a Connect request without an AR block
        src, dst = (CTRL_MAC, DEV_MAC) if direction == "request" else (DEV_MAC, CTRL_MAC)
        frame = CmFrame(dst, src, 9, direction, operation, None if ar is None else ar.bytes)
        derived = derive_events(frame, _Context(established))
        summary = f"pn-cm {operation.lower()} {direction}"
        connect = (operation, direction) == ("Connect", "request")
        cause = f"pn-cm connect request to {DEV_MAC}" if connect else summary
        assert all(e.cause.summary == cause for e in derived.events)
        assert all(d.cause.summary == summary for d in derived.diagnostics)
        assert all((d.scope, d.key) == ("system", None) for d in derived.diagnostics)
        outcome = (
            [(e.event_name, e.scope, e.key) for e in derived.events],
            [(d.kind, d.detail) for d in derived.diagnostics],
        )
        assert outcome == _reference_derive(operation, direction, established, ar), (
            operation, direction, established, ar,
        )
