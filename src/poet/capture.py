"""Packet capture ingestion: pcap and pcapng readers yielding raw Ethernet frames.

Streams are plain generators. A stream item is either a RawFrame or, when the
file breaks mid-record, a single CaptureError diagnostic followed by end of
stream. Frames are yielded strictly in record order; timestamps come from the
capture records and are never reordered. Only the Ethernet link type is read:
a pcap of another link type is refused when opened, and a pcapng packet on a
non-Ethernet or undeclared interface is one CaptureError.

Of pcapng's blocks, only the Enhanced Packet Block's frames are read. A Simple
Packet Block or an obsolete Packet Block also holds a frame: each one is one
CaptureError that takes a capture index, and the stream goes on. Every other
block type is skipped silently.
"""

from __future__ import annotations

import os
import struct
import weakref
from typing import Iterator, Union

from .record import FrozenRecord, Record

# pcap global header: magic(4) vmaj(2) vmin(2) thiszone(4) sigfigs(4) snaplen(4) network(4)
PCAP_MAGIC_US_LE = 0xA1B2C3D4
PCAP_MAGIC_US_BE = 0xD4C3B2A1
PCAP_MAGIC_NS_LE = 0xA1B23C4D
PCAP_MAGIC_NS_BE = 0x4D3CB2A1

# pcapng block types
PCAPNG_SHB = 0x0A0D0D0A
PCAPNG_IDB = 0x00000001
PCAPNG_EPB = 0x00000006
# The other blocks that hold a frame, which poet does not read.
PCAPNG_UNREAD_PACKET_BLOCKS = {0x00000002: "obsolete packet block", 0x00000003: "simple packet block"}
PCAPNG_BYTE_ORDER_MAGIC = 0x1A2B3C4D

LINKTYPE_ETHERNET = 1
MIN_ETHERNET_FRAME = 14
# libpcap's largest snapshot length. A longer declared record or block is
# rejected before it is read, so a hostile length field cannot make the
# reader allocate it.
MAX_SNAPLEN = 262_144
# pcapng block framing (type and two lengths) plus the packet block's fixed fields.
PCAPNG_MAX_BLOCK = MAX_SNAPLEN + 12 + 20
# The size of the buffer each capture file is read through. Records are read one
# at a time, so memory holds this buffer and one record, however long the file.
READ_CHUNK = 64 * 1024

# Precompiled field layouts by byte order.
_U32 = {e: struct.Struct(e + "I").unpack_from for e in "<>"}
_U32X4 = {e: struct.Struct(e + "IIII").unpack_from for e in "<>"}  # pcap record header
_U32X5 = {e: struct.Struct(e + "IIIII").unpack_from for e in "<>"}  # packet block fields


class CaptureFormatError(Exception):
    """File is not a readable pcap/pcapng container (unknown magic, short header)."""


class RawFrame(Record):
    """One captured Ethernet frame with its record timestamp."""

    __slots__ = ("ts_sec", "ts_nsec", "frame_bytes", "capture_index")


class CaptureError(FrozenRecord):
    """Diagnostic for a broken or rejected capture record."""

    __slots__ = ("byte_offset", "capture_index", "reason")


StreamItem = Union[RawFrame, CaptureError]


def open_capture(path: str | os.PathLike) -> Iterator[StreamItem]:
    """Open a pcap or pcapng file and return its frame stream; `-` is standard input.

    Standard input is read through the same buffer size and left open when the
    stream ends. The container header is validated eagerly; an unknown magic number or a
    pcap link type other than Ethernet raises CaptureFormatError and an
    unreadable path raises OSError. Truncation later in the file yields one
    CaptureError item and ends the stream.
    """
    if path == "-":
        f = open(0, "rb", buffering=READ_CHUNK, closefd=False)  # file descriptor 0
    else:
        f = open(path, "rb", buffering=READ_CHUNK)
    try:
        head = f.read(4)
        if len(head) < 4:
            raise CaptureFormatError(f"{path}: file too short for a capture header")
        magic_le = struct.unpack("<I", head)[0]
        if magic_le == PCAPNG_SHB:
            stream = _iter_pcapng(f, head)
        elif magic_le in (PCAP_MAGIC_US_LE, PCAP_MAGIC_NS_LE):
            stream = _iter_pcap(f, path, "<", magic_le == PCAP_MAGIC_NS_LE)
        elif magic_le in (PCAP_MAGIC_US_BE, PCAP_MAGIC_NS_BE):
            stream = _iter_pcap(f, path, ">", magic_le == PCAP_MAGIC_NS_BE)
        else:
            raise CaptureFormatError(f"{path}: unknown capture magic 0x{magic_le:08X}")
    except BaseException:
        f.close()
        raise
    # The generator closes the file when it ends or is closed; a stream that is
    # dropped before its first item never runs that block.
    weakref.finalize(stream, f.close)
    return stream


def _iter_pcap(f, path: str | os.PathLike, endian: str, nanosecond: bool) -> Iterator[StreamItem]:
    # Runs eagerly, inside open_capture's handler, which closes `f` if this raises.
    rest = f.read(20)
    if len(rest) < 20:
        raise CaptureFormatError(f"{path}: truncated pcap global header")
    link_type = struct.unpack(endian + "I", rest[16:20])[0] & 0xFFFF
    if link_type != LINKTYPE_ETHERNET:
        raise CaptureFormatError(f"{path}: pcap link type {link_type} is not Ethernet")

    def gen() -> Iterator[StreamItem]:
        record_header = _U32X4[endian]
        index = 0
        offset = 24  # file offset of the next record
        try:
            while True:
                head = f.read(16)
                if len(head) < 16:
                    if head:
                        yield CaptureError(offset, index, "truncated record header")
                    return
                ts_sec, ts_frac, incl_len, _orig_len = record_header(head)
                if incl_len > MAX_SNAPLEN:
                    yield CaptureError(offset, index, f"record length {incl_len} exceeds {MAX_SNAPLEN}")
                    return
                data = f.read(incl_len)
                if len(data) < incl_len:
                    yield CaptureError(offset, index, "truncated record body")
                    return
                ts_nsec = ts_frac if nanosecond else ts_frac * 1000
                if incl_len < MIN_ETHERNET_FRAME:
                    yield CaptureError(offset, index, f"runt frame ({incl_len} bytes)")
                else:
                    yield RawFrame(ts_sec, ts_nsec, data, index)
                index += 1
                offset += 16 + incl_len
        finally:
            f.close()

    return gen()


def _tsresol_divisor(options: bytes, endian: str) -> int:
    """Timestamp units per second from an interface's option list: its last if_tsresol
    option (code 9), else microseconds. The list ends at opt_endofopt or a cut option."""
    raw = b"\x06"
    pos = 0
    while pos + 4 <= len(options):
        code, length = struct.unpack(endian + "HH", options[pos : pos + 4])
        value = options[pos + 4 : pos + 4 + length]
        if code == 0 or len(value) < length:
            break
        if code == 9:
            raw = value
        pos += 4 + length + (-length % 4)
    if len(raw) != 1:
        return 1_000_000
    v = raw[0]
    return 1 << (v & 0x7F) if v & 0x80 else 10**v


def _iter_pcapng(f, first_type: bytes) -> Iterator[StreamItem]:
    """The stream of pcapng file `f`, whose first 4 bytes, `first_type`, open_capture has read.

    `f` is read forward only, so it may be a pipe.
    """
    index = 0
    endian = "<"
    u32 = _U32["<"]
    interfaces: list[tuple[int, int]] = []  # (link type, timestamp divisor) per IDB
    offset = 0  # file offset of the next block
    try:
        head = first_type + f.read(4)  # the first block's type and length
        while True:
            if len(head) < 8:
                if head:
                    yield CaptureError(offset, index, "truncated block header")
                return
            block_type = u32(head)[0]
            section = block_type == PCAPNG_SHB
            if section:
                # Byte order can change per section; magic sits after the length field.
                magic = f.read(4)
                if len(magic) < 4:
                    yield CaptureError(offset, index, "truncated section header")
                    return
                if _U32["<"](magic)[0] == PCAPNG_BYTE_ORDER_MAGIC:
                    endian = "<"
                elif _U32[">"](magic)[0] == PCAPNG_BYTE_ORDER_MAGIC:
                    endian = ">"
                else:
                    yield CaptureError(offset, index, "bad section byte-order magic")
                    return
                u32 = _U32[endian]
            total_len = u32(head, 4)[0]
            if total_len < (28 if section else 12) or total_len % 4 or total_len > PCAPNG_MAX_BLOCK:
                reason = "bad section block length" if section else f"bad block length {total_len}"
                yield CaptureError(offset, index, reason)
                return
            # The rest of the block; for all but a section header, from byte 8 on.
            size = total_len - (12 if section else 8)
            body = f.read(size)
            if len(body) < size:
                reason = "truncated section block" if section else "truncated block"
                yield CaptureError(offset, index, reason)
                return
            content_len = total_len - 12  # without the framing
            if block_type == PCAPNG_EPB:
                if content_len < 20:
                    yield CaptureError(offset, index, "short packet block")
                    return
                iface, ts_high, ts_low, cap_len, _orig = _U32X5[endian](body)
                if cap_len > content_len - 20:
                    yield CaptureError(offset, index, "truncated packet data")
                    return
                if iface >= len(interfaces):
                    yield CaptureError(offset, index, f"packet on undeclared interface {iface}")
                elif interfaces[iface][0] != LINKTYPE_ETHERNET:
                    reason = f"interface {iface} link type {interfaces[iface][0]} is not Ethernet"
                    yield CaptureError(offset, index, reason)
                elif cap_len < MIN_ETHERNET_FRAME:
                    yield CaptureError(offset, index, f"runt frame ({cap_len} bytes)")
                else:
                    divisor = interfaces[iface][1]
                    ts_sec, frac = divmod((ts_high << 32) | ts_low, divisor)
                    ts_nsec = frac * 1_000_000_000 // divisor
                    yield RawFrame(ts_sec, ts_nsec, body[20 : 20 + cap_len], index)
                index += 1
            elif block_type in PCAPNG_UNREAD_PACKET_BLOCKS:
                yield CaptureError(offset, index, f"{PCAPNG_UNREAD_PACKET_BLOCKS[block_type]} not read")
                index += 1
            elif section:
                interfaces = []
            elif block_type == PCAPNG_IDB:
                if content_len < 8:
                    yield CaptureError(offset, index, "short interface block")
                    return
                link_type = struct.unpack_from(endian + "H", body)[0]
                interfaces.append((link_type, _tsresol_divisor(body[8:-4], endian)))
            # Every other block type is skipped silently.
            offset += total_len
            head = f.read(8)
    finally:
        f.close()
