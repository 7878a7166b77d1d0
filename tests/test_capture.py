"""Capture ingestion: pcap/pcapng round trips, truncation, stats."""

from __future__ import annotations

import gc
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import poet
from poet import capture
from poet.capture import (
    MAX_SNAPLEN,
    CaptureError,
    CaptureFormatError,
    RawFrame,
    open_capture,
)
from poet.synth import normal_startup_spec, synthesize, write_pcap_bytes, write_pcapng_bytes
from poet.tracker import Tracker

FRAME = bytes(range(64))  # arbitrary 64-byte frame


def _pcapng_block(block_type: int, content: bytes, endian: str = "<") -> bytes:
    total = 12 + len(content)
    return struct.pack(endian + "II", block_type, total) + content + struct.pack(endian + "I", total)


_SHB = _pcapng_block(0x0A0D0D0A, struct.pack("<IHHq", 0x1A2B3C4D, 1, 0, -1))
_IDB = _pcapng_block(0x00000001, struct.pack("<HHI", 1, 0, 65535))  # an Ethernet interface


def _frames(n: int, gap: float = 0.5) -> list[tuple[tuple[int, int], bytes]]:
    out = []
    for i in range(n):
        usec = int(i * gap * 1_000_000)
        out.append(((1_700_000_000 + usec // 1_000_000, (usec % 1_000_000) * 1000), FRAME + bytes([i])))
    return out


def test_empty_pcap_yields_empty_stream(tmp_path):
    path = tmp_path / "empty.pcap"
    path.write_bytes(write_pcap_bytes([]))
    assert list(open_capture(path)) == []


def test_pcap_round_trip_ten_frames(tmp_path):
    frames = _frames(10)
    path = tmp_path / "ten.pcap"
    path.write_bytes(write_pcap_bytes(frames))
    items = list(open_capture(path))
    assert len(items) == 10
    for i, item in enumerate(items):
        assert isinstance(item, RawFrame)
        assert item.frame_bytes == frames[i][1]
        assert (item.ts_sec, item.ts_nsec) == frames[i][0]
        assert item.capture_index == i


def test_pcapng_round_trip(tmp_path):
    frames = _frames(5)
    path = tmp_path / "five.pcapng"
    path.write_bytes(write_pcapng_bytes(frames))
    items = list(open_capture(path))
    assert [i.frame_bytes for i in items] == [f[1] for f in frames]
    assert [(i.ts_sec, i.ts_nsec) for i in items] == [f[0] for f in frames]


def test_truncated_record_yields_error_then_stops(tmp_path):
    frames = _frames(3)
    data = write_pcap_bytes(frames)
    path = tmp_path / "cut.pcap"
    path.write_bytes(data[:-1])  # one byte short of the last record body
    items = list(open_capture(path))
    assert len(items) == 3
    assert [type(i) for i in items] == [RawFrame, RawFrame, CaptureError]
    error = items[-1]
    assert error.reason == "truncated record body"
    assert error.byte_offset == 24 + 2 * (16 + 65)


def test_truncated_record_header(tmp_path):
    data = write_pcap_bytes(_frames(1))
    path = tmp_path / "cuthdr.pcap"
    path.write_bytes(data + b"\x00" * 7)  # partial next record header
    items = list(open_capture(path))
    assert isinstance(items[0], RawFrame)
    assert isinstance(items[1], CaptureError)
    assert "header" in items[1].reason


def test_unknown_magic_raises(tmp_path):
    path = tmp_path / "bad.pcap"
    path.write_bytes(b"\xde\xad\xbe\xef" + b"\x00" * 40)
    with pytest.raises(CaptureFormatError):
        open_capture(path)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        open_capture(tmp_path / "nope.pcap")


def test_streams_dropped_unread_close_their_files(tmp_path):
    pcap = tmp_path / "unread.pcap"
    pcap.write_bytes(write_pcap_bytes(_frames(2)))
    pcapng = tmp_path / "unread.pcapng"
    pcapng.write_bytes(write_pcapng_bytes(_frames(2)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for path in (pcap, pcapng):
            stream = open_capture(path)
            del stream
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_big_endian_and_nanosecond_pcap(tmp_path):
    # Hand-built big-endian microsecond file with one record.
    header = struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
    record = struct.pack(">IIII", 10, 250_000, len(FRAME), len(FRAME)) + FRAME
    path = tmp_path / "be.pcap"
    path.write_bytes(header + record)
    (item,) = list(open_capture(path))
    assert (item.ts_sec, item.ts_nsec) == (10, 250_000_000)

    # Little-endian nanosecond file.
    header = struct.pack("<IHHiIII", 0xA1B23C4D, 2, 4, 0, 0, 65535, 1)
    record = struct.pack("<IIII", 10, 123, len(FRAME), len(FRAME)) + FRAME
    path2 = tmp_path / "ns.pcap"
    path2.write_bytes(header + record)
    (item,) = list(open_capture(path2))
    assert (item.ts_sec, item.ts_nsec) == (10, 123)


def test_runt_frame_rejected_stream_continues(tmp_path):
    header = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
    runt = struct.pack("<IIII", 1, 0, 4, 4) + b"\x01\x02\x03\x04"
    good = struct.pack("<IIII", 2, 0, len(FRAME), len(FRAME)) + FRAME
    path = tmp_path / "runt.pcap"
    path.write_bytes(header + runt + good)
    items = list(open_capture(path))
    assert isinstance(items[0], CaptureError)
    assert "runt" in items[0].reason
    assert isinstance(items[1], RawFrame)
    assert items[1].capture_index == 1


def test_pcapng_skips_unknown_blocks(tmp_path):
    frames = _frames(2)
    data = bytearray(write_pcapng_bytes(frames))
    # Splice a name-resolution block (type 4) between IDB and first EPB.
    nrb = struct.pack("<II", 0x00000004, 16) + b"\x00" * 4 + struct.pack("<I", 16)
    insert_at = 28 + 20  # after SHB(28) + IDB(20)
    data[insert_at:insert_at] = nrb
    path = tmp_path / "mixed.pcapng"
    path.write_bytes(bytes(data))
    items = list(open_capture(path))
    assert [i.frame_bytes for i in items] == [f[1] for f in frames]


def test_pcapng_big_endian_nanosecond_section(tmp_path):
    data = _pcapng_block(0x0A0D0D0A, struct.pack(">IHHq", 0x1A2B3C4D, 1, 0, -1), ">")
    # IDB with if_tsresol option = 9 (nanoseconds)
    idb_opts = struct.pack(">HH", 9, 1) + b"\x09\x00\x00\x00" + struct.pack(">HH", 0, 0)
    data += _pcapng_block(0x00000001, struct.pack(">HHI", 1, 0, 65535) + idb_opts, ">")
    ticks = 7 * 1_000_000_000 + 123_456_789
    pad = (-len(FRAME)) % 4
    epb = struct.pack(">IIIII", 0, ticks >> 32, ticks & 0xFFFFFFFF, len(FRAME), len(FRAME))
    data += _pcapng_block(0x00000006, epb + FRAME + b"\x00" * pad, ">")
    path = tmp_path / "bens.pcapng"
    path.write_bytes(data)
    (item,) = list(open_capture(path))
    assert (item.ts_sec, item.ts_nsec) == (7, 123_456_789)
    assert item.frame_bytes == FRAME


def _option(code: int, value: bytes) -> bytes:
    return struct.pack("<HH", code, len(value)) + value + bytes(-len(value) % 4)


@pytest.mark.parametrize(
    "options, divisor",
    [
        pytest.param(b"", 1_000_000, id="no-option"),
        pytest.param(_option(9, b"\x8a"), 1024, id="power-of-two"),
        pytest.param(_option(9, b"\x09") + _option(9, b"\x03"), 1000, id="repeated-last-wins"),
        pytest.param(_option(9, b"\x09") + _option(9, b"\x09\x00"), 1_000_000, id="repeated-last-malformed"),
        pytest.param(_option(2, b"eth0") + _option(9, b"\x09"), 10**9, id="after-another-option"),
        pytest.param(_option(0, b"") + _option(9, b"\x09"), 1_000_000, id="after-end-of-options"),
        pytest.param(_option(9, b"\x09") + struct.pack("<HH", 2, 8) + b"eth0", 10**9, id="cut-after-tsresol"),
        pytest.param(struct.pack("<HH", 9, 8) + b"\x09\x00\x00\x00", 1_000_000, id="cut-inside-tsresol"),
        pytest.param(struct.pack("<HH", 2, 8) + b"eth0" + _option(9, b"\x09"), 1_000_000, id="cut-before-tsresol"),
    ],
)
def test_pcapng_timestamp_divisor_from_if_tsresol(tmp_path, options, divisor):
    data = _SHB + _pcapng_block(0x00000001, struct.pack("<HHI", 1, 0, 65535) + options)
    ticks = 3 * divisor + divisor // 4
    epb = struct.pack("<IIIII", 0, ticks >> 32, ticks & 0xFFFFFFFF, len(FRAME), len(FRAME))
    data += _pcapng_block(0x00000006, epb + FRAME)
    path = tmp_path / "tsresol.pcapng"
    path.write_bytes(data)
    (item,) = list(open_capture(path))
    assert (item.ts_sec, item.ts_nsec) == (3, 250_000_000)


def test_order_preserved_for_non_monotonic_timestamps(tmp_path):
    frames = [((100, 0), FRAME), ((50, 0), FRAME + b"\x01"), ((75, 0), FRAME + b"\x02")]
    path = tmp_path / "shuffle.pcap"
    path.write_bytes(write_pcap_bytes(frames))
    items = list(open_capture(path))
    assert [i.ts_sec for i in items] == [100, 50, 75]
    assert [i.capture_index for i in items] == [0, 1, 2]


def test_stats_empty_stream():
    summary = Tracker().process([]).summary
    assert (summary["frames"], summary["bytes"], summary["span_seconds"]) == (0, 0, 0.0)


def test_stats_single_frame():
    frame = RawFrame(5, 0, b"\x00" * 60, 0)
    summary = Tracker().process([frame]).summary
    assert (summary["frames"], summary["bytes"], summary["span_seconds"]) == (1, 60, 0.0)


def test_stats_span_three_frames(tmp_path):
    # t = 0.0, 0.5, 2.0 relative: span exactly 2.0 seconds
    frames = [((100, 0), FRAME), ((100, 500_000_000), FRAME), ((102, 0), FRAME)]
    path = tmp_path / "span.pcap"
    path.write_bytes(write_pcap_bytes(frames))
    items = list(open_capture(path))
    assert [((i.ts_sec, i.ts_nsec), i.frame_bytes) for i in items] == frames
    assert Tracker().process(items).summary["span_seconds"] == 2.0


def test_stats_skips_diagnostics(tmp_path):
    data = write_pcap_bytes(_frames(2))
    path = tmp_path / "cut2.pcap"
    path.write_bytes(data[:-1])
    assert [type(i) for i in open_capture(path)] == [RawFrame, CaptureError]


def test_pcap_non_ethernet_link_type_refused(tmp_path):
    path = tmp_path / "cooked.pcap"
    record = struct.pack("<IIII", 1, 0, len(FRAME), len(FRAME)) + FRAME
    path.write_bytes(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 113) + record)
    with pytest.raises(CaptureFormatError, match="link type 113"):
        open_capture(path)
    # The upper 16 bits of the network field carry FCS information, not the link type.
    path.write_bytes(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 0x1 | 0x10000000) + record)
    assert [i.frame_bytes for i in open_capture(path)] == [FRAME]


def test_pcapng_packet_on_non_ethernet_interface_is_one_error(tmp_path):
    data = _SHB + _pcapng_block(0x00000001, struct.pack("<HHI", 113, 0, 65535))  # interface 0: Linux cooked
    data += _IDB  # interface 1: Ethernet
    for iface in (0, 1, 2):  # no block declares interface 2
        data += _pcapng_block(0x00000006, struct.pack("<IIIII", iface, 0, 0, len(FRAME), len(FRAME)) + FRAME)
    path = tmp_path / "mixed-link.pcapng"
    path.write_bytes(data)
    items = list(open_capture(path))
    assert [type(i) for i in items] == [CaptureError, RawFrame, CaptureError]
    assert [i.capture_index for i in items] == [0, 1, 2]
    assert items[0].reason == "interface 0 link type 113 is not Ethernet"
    assert items[2].reason == "packet on undeclared interface 2"


@pytest.mark.parametrize(
    "block_type, content, reason",
    [
        # original packet length, then the frame
        (0x00000003, struct.pack("<I", len(FRAME)) + FRAME, "simple packet block not read"),
        # interface, drops, timestamp, captured and original lengths, then the frame
        (
            0x00000002,
            struct.pack("<HHIIII", 0, 0, 0, 0, len(FRAME), len(FRAME)) + FRAME,
            "obsolete packet block not read",
        ),
    ],
)
def test_pcapng_packet_block_poet_does_not_read_is_one_error(tmp_path, block_type, content, reason):
    epb = _pcapng_block(0x00000006, struct.pack("<IIIII", 0, 0, 0, len(FRAME), len(FRAME)) + FRAME)
    data = _SHB + _IDB + epb + _pcapng_block(block_type, content) + epb
    path = tmp_path / "unread.pcapng"
    path.write_bytes(data)
    items = list(open_capture(path))
    assert [type(i) for i in items] == [RawFrame, CaptureError, RawFrame]
    assert [i.capture_index for i in items] == [0, 1, 2]
    assert (items[1].byte_offset, items[1].reason) == (len(_SHB + _IDB + epb), reason)
    report = Tracker().process(open_capture(path))
    assert report.summary["frames"] == 2
    assert [(a.offending_event, a.cause.capture_index) for a in report.diagnostics] == [("capture_error", 1)]


# Runs in a child whose address space is capped at 1.5 GiB, so a reader that
# allocates a declared 4 GiB length up front fails with MemoryError.
_CAPPED_RUN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))
from poet.capture import open_capture
from poet.tracker import Tracker
report = Tracker().process(open_capture(sys.argv[1]))
for alert in report.alerts:
    print(alert.offending_event, alert.cause.summary)
"""


@pytest.mark.parametrize(
    "fmt, length_at, reason",
    [
        ("pcap", 24 + 8, "record length 4294967280 exceeds 262144"),  # the record's incl_len
        ("pcapng", 28 + 20 + 4, "bad block length 4294967280"),  # the packet block's length
    ],
)
def test_huge_declared_length_is_one_capture_error(tmp_path, fmt, length_at, reason):
    write = write_pcap_bytes if fmt == "pcap" else write_pcapng_bytes
    data = bytearray(write([((1_700_000_000, 0), FRAME[:60])]))
    data[length_at : length_at + 4] = struct.pack("<I", 0xFFFFFFF0)
    path = tmp_path / f"huge.{fmt}"
    path.write_bytes(bytes(data))
    src = os.path.dirname(os.path.dirname(poet.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, "-c", _CAPPED_RUN, str(path)], capture_output=True, text=True, env=env, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [f"capture_error {reason}"]


# What cutting a capture at every byte reaches: (refusals when opening, errors in the stream).
_CUT_REFUSALS = {
    "pcap": (
        {"file too short for a capture header", "truncated pcap global header"},
        {"truncated record header", "truncated record body"},
    ),
    "pcapng": (
        {"file too short for a capture header"},
        {"truncated block header", "truncated section header", "truncated section block", "truncated block"},
    ),
}


@pytest.mark.parametrize("fmt", sorted(_CUT_REFUSALS))
def test_every_prefix_is_refused_or_yields_frames_then_one_error(tmp_path, fmt):
    """Cut a synthesized capture at every byte: the stream stays a prefix of the frames, plus one error."""
    frames = [(plan.ts, plan.data) for plan in synthesize(normal_startup_spec(1)).frames[:3]]
    data = (write_pcap_bytes if fmt == "pcap" else write_pcapng_bytes)(frames)
    path = tmp_path / f"cut.{fmt}"
    refusals, reasons = set(), set()
    for cut in range(len(data) + 1):
        path.write_bytes(data[:cut])
        try:
            stream = open_capture(path)
        except CaptureFormatError as exc:
            refusals.add(str(exc).removeprefix(f"{path}: "))
            continue
        items = list(stream)
        read = [item for item in items if isinstance(item, RawFrame)]
        assert items[: len(read)] == read, cut
        assert [((f.ts_sec, f.ts_nsec), f.frame_bytes) for f in read] == frames[: len(read)], cut
        rest = items[len(read) :]
        assert len(rest) <= 1 and all(isinstance(error, CaptureError) for error in rest), cut
        reasons.update(error.reason for error in rest)
        Tracker().process(items)
    assert (refusals, reasons) == _CUT_REFUSALS[fmt]


def _section_block(content: bytes) -> bytes:
    return _pcapng_block(0x0A0D0D0A, content)


def _packet_block(cap_len: int, data: bytes) -> bytes:
    return _pcapng_block(0x00000006, struct.pack("<IIIII", 0, 0, 0, cap_len, cap_len) + data)


@pytest.mark.parametrize(
    "before, block, reason",
    [
        (b"", _section_block(struct.pack("<IHHq", 0xDEADBEEF, 1, 0, -1)), "bad section byte-order magic"),
        (b"", _section_block(struct.pack("<IHHI", 0x1A2B3C4D, 1, 0, 0)), "bad section block length"),  # < 28
        (_SHB, _section_block(struct.pack("<IHHqH", 0x1A2B3C4D, 1, 0, -1, 0)), "bad section block length"),  # % 4
        (_SHB, _pcapng_block(0x00000001, struct.pack("<HH", 1, 0)), "short interface block"),
        (_SHB + _IDB, _pcapng_block(0x00000006, bytes(16)), "short packet block"),
        (_SHB + _IDB, _packet_block(len(FRAME), FRAME[:60]), "truncated packet data"),
        (_SHB + _IDB, _packet_block(4, FRAME[:4]), "runt frame (4 bytes)"),
    ],
)
def test_pcapng_malformed_block_is_one_capture_error(tmp_path, before, block, reason):
    path = tmp_path / "bad.pcapng"
    path.write_bytes(before + block)
    (item,) = list(open_capture(path))
    assert isinstance(item, CaptureError)
    assert (item.byte_offset, item.capture_index, item.reason) == (len(before), 0, reason)


# --- The bounded read buffer ---------------------------------------------------

# Record lengths: runts, a few bytes, around one default chunk, and up to the snapshot maximum.
_LENGTHS = st.one_of(
    st.integers(0, 13),
    st.integers(14, 80),
    st.integers(capture.READ_CHUNK - 40, capture.READ_CHUNK + 40),
    st.integers(capture.READ_CHUNK + 41, MAX_SNAPLEN),
)
_CHUNKS = (2, 7, 16, 17, 64)
_PATTERN = bytes(range(256)) * (MAX_SNAPLEN // 256 + 1)


def _record_bytes(index: int, length: int) -> bytes:
    return _PATTERN[index : index + length]


def _build_capture(fmt: str, endian: str, nanosecond: bool, lengths: list[int]):
    """A capture of one record per length, the expected stream, and each record's file offset."""
    out = bytearray()
    expected: list = []
    offsets = []
    if fmt == "pcap":
        magic = 0xA1B23C4D if nanosecond else 0xA1B2C3D4
        out += struct.pack(endian + "IHHiIII", magic, 2, 4, 0, 0, MAX_SNAPLEN, 1)
    else:
        out += _pcapng_block(0x0A0D0D0A, struct.pack(endian + "IHHq", 0x1A2B3C4D, 1, 0, -1), endian)
        # An Ethernet interface at the default microsecond resolution, then an unknown block.
        out += _pcapng_block(0x00000001, struct.pack(endian + "HHI", 1, 0, MAX_SNAPLEN), endian)
        out += _pcapng_block(0x00000BAD, bytes(8), endian)
    for index, length in enumerate(lengths):
        frame = _record_bytes(index, length)
        offsets.append(len(out))
        if fmt == "pcap":
            frac = 999_999 - index
            out += struct.pack(endian + "IIII", 1_700_000_000 + index, frac, length, length) + frame
            ts_nsec = frac if nanosecond else frac * 1000
        else:
            ticks = (1_700_000_000 + index) * 1_000_000 + 999_999 - index
            fields = struct.pack(endian + "IIIII", 0, ticks >> 32, ticks & 0xFFFFFFFF, length, length)
            out += _pcapng_block(0x00000006, fields + frame + bytes(-length % 4), endian)
            ts_nsec = (999_999 - index) * 1000
        if length < 14:
            expected.append(CaptureError(offsets[-1], index, f"runt frame ({length} bytes)"))
        else:
            expected.append(RawFrame(1_700_000_000 + index, ts_nsec, frame, index))
    return bytes(out), expected, offsets


_FORMATS = st.sampled_from([("pcap", "<"), ("pcap", ">"), ("pcapng", "<"), ("pcapng", ">")])


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_FORMATS, st.booleans(), st.lists(_LENGTHS, min_size=1, max_size=5))
def test_stream_is_the_same_for_every_chunk_size(tmp_path, fmt_endian, nanosecond, lengths):
    fmt, endian = fmt_endian
    data, expected, _ = _build_capture(fmt, endian, nanosecond, lengths)
    path = tmp_path / f"chunks.{fmt}"
    path.write_bytes(data)
    assert list(open_capture(path)) == expected
    for chunk in _CHUNKS:
        with mock.patch.object(capture, "READ_CHUNK", chunk):
            assert list(open_capture(path)) == expected, chunk


def _streaming_peak(path) -> int:
    """Peak traced memory while streaming a capture and dropping each item."""
    tracemalloc.start()
    try:
        for _ in open_capture(path):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt", ["pcap", "pcapng"])
def test_streaming_memory_does_not_grow_with_the_file(tmp_path, fmt):
    write = write_pcap_bytes if fmt == "pcap" else write_pcapng_bytes
    peaks = []
    for count in (10_000, 40_000):
        path = tmp_path / f"{count}.{fmt}"
        path.write_bytes(write([((1_700_000_000, 0), FRAME)] * count))
        peaks.append(_streaming_peak(path))
    # A reader that held the file would peak 30,000 records (2.4 MB) higher.
    assert peaks[1] - peaks[0] < 256 * 1024, peaks


# Each format's record framing length, and its errors for a cut inside and after that framing.
_CUT_REASONS = {
    "pcap": (16, ("truncated record header", "truncated record body")),
    "pcapng": (8, ("truncated block header", "truncated block")),
}


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_FORMATS, st.lists(_LENGTHS, max_size=3), st.integers(0, 80), st.sampled_from((7, capture.READ_CHUNK)))
def test_cut_inside_the_last_record_is_one_error_at_its_start(tmp_path, fmt_endian, lengths, last, chunk):
    """Cut at every byte of the last record: the earlier records, then one error at its offset."""
    fmt, endian = fmt_endian
    data, expected, offsets = _build_capture(fmt, endian, False, [*lengths, last])
    start = offsets[-1]
    header, reasons = _CUT_REASONS[fmt]
    path = tmp_path / f"cut.{fmt}"
    path.write_bytes(data)
    with open(path, "r+b") as f, mock.patch.object(capture, "READ_CHUNK", chunk):
        for cut in range(len(data) - 1, start, -1):
            f.truncate(cut)
            f.flush()
            error = CaptureError(start, len(lengths), reasons[cut - start >= header])
            assert list(open_capture(path)) == [*expected[:-1], error], cut
