"""Packet capture ingestion: pcap and pcapng readers yielding raw Ethernet frames.

Streams are plain generators. A stream item is either a RawFrame or, when the
file breaks mid-record, a single CaptureError diagnostic followed by end of
stream. Frames are yielded strictly in record order; timestamps come from the
capture records and are never reordered. Only the Ethernet link type is read:
a pcap of another link type is refused when opened, and a pcapng packet on a
non-Ethernet or undeclared interface is one CaptureError.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from typing import Iterator, Union

# pcap global header: magic(4) vmaj(2) vmin(2) thiszone(4) sigfigs(4) snaplen(4) network(4)
PCAP_MAGIC_US_LE = 0xA1B2C3D4
PCAP_MAGIC_US_BE = 0xD4C3B2A1
PCAP_MAGIC_NS_LE = 0xA1B23C4D
PCAP_MAGIC_NS_BE = 0x4D3CB2A1

# pcapng block types
PCAPNG_SHB = 0x0A0D0D0A
PCAPNG_IDB = 0x00000001
PCAPNG_EPB = 0x00000006
PCAPNG_BYTE_ORDER_MAGIC = 0x1A2B3C4D

LINKTYPE_ETHERNET = 1
MIN_ETHERNET_FRAME = 14
# libpcap's largest snapshot length. A longer declared record or block is
# rejected before it is read, so a hostile length field cannot make the
# reader allocate it.
MAX_SNAPLEN = 262_144
# pcapng block framing (type and two lengths) plus the packet block's fixed fields.
PCAPNG_MAX_BLOCK = MAX_SNAPLEN + 12 + 20


class CaptureFormatError(Exception):
    """File is not a readable pcap/pcapng container (unknown magic, short header)."""


@dataclass(frozen=True)
class RawFrame:
    """One captured Ethernet frame with its record timestamp."""

    ts_sec: int
    ts_nsec: int
    frame_bytes: bytes
    capture_index: int


@dataclass(frozen=True)
class CaptureError:
    """Diagnostic for a broken or rejected capture record."""

    byte_offset: int
    capture_index: int
    reason: str


StreamItem = Union[RawFrame, CaptureError]


def open_capture(path: str | os.PathLike) -> Iterator[StreamItem]:
    """Open a pcap or pcapng file and return its frame stream.

    The container header is validated eagerly; an unknown magic number or a
    pcap link type other than Ethernet raises CaptureFormatError and an
    unreadable path raises OSError. Truncation later in the file yields one
    CaptureError item and ends the stream.
    """
    f = open(path, "rb")
    try:
        head = f.read(4)
        if len(head) < 4:
            raise CaptureFormatError(f"{path}: file too short for a capture header")
        magic_le = struct.unpack("<I", head)[0]
        if magic_le == PCAPNG_SHB:
            return _iter_pcapng(f)
        if magic_le in (PCAP_MAGIC_US_LE, PCAP_MAGIC_NS_LE):
            return _iter_pcap(f, path, "<", magic_le == PCAP_MAGIC_NS_LE)
        if magic_le in (PCAP_MAGIC_US_BE, PCAP_MAGIC_NS_BE):
            return _iter_pcap(f, path, ">", magic_le == PCAP_MAGIC_NS_BE)
        raise CaptureFormatError(f"{path}: unknown capture magic 0x{magic_le:08X}")
    except BaseException:
        f.close()
        raise


def _iter_pcap(f, path: str | os.PathLike, endian: str, nanosecond: bool) -> Iterator[StreamItem]:
    try:
        rest = f.read(20)
        if len(rest) < 20:
            raise CaptureFormatError(f"{path}: truncated pcap global header")
        link_type = struct.unpack(endian + "I", rest[16:20])[0] & 0xFFFF
        if link_type != LINKTYPE_ETHERNET:
            raise CaptureFormatError(f"{path}: pcap link type {link_type} is not Ethernet")
    except BaseException:
        f.close()
        raise

    def gen() -> Iterator[StreamItem]:
        index = 0
        try:
            while True:
                offset = f.tell()
                header = f.read(16)
                if not header:
                    return
                if len(header) < 16:
                    yield CaptureError(offset, index, "truncated record header")
                    return
                ts_sec, ts_frac, incl_len, _orig_len = struct.unpack(endian + "IIII", header)
                if incl_len > MAX_SNAPLEN:
                    reason = f"record length {incl_len} exceeds {MAX_SNAPLEN}"
                    yield CaptureError(offset, index, reason)
                    return
                body = f.read(incl_len)
                if len(body) < incl_len:
                    yield CaptureError(offset, index, "truncated record body")
                    return
                ts_nsec = ts_frac if nanosecond else ts_frac * 1000
                if incl_len < MIN_ETHERNET_FRAME:
                    yield CaptureError(offset, index, f"runt frame ({incl_len} bytes)")
                else:
                    yield RawFrame(ts_sec, ts_nsec, body, index)
                index += 1
        finally:
            f.close()

    return gen()


def _pcapng_options(data: bytes, endian: str) -> dict[int, bytes]:
    """Decode a pcapng option list; stops at opt_endofopt or malformed tail."""
    opts: dict[int, bytes] = {}
    pos = 0
    while pos + 4 <= len(data):
        code, length = struct.unpack(endian + "HH", data[pos : pos + 4])
        if code == 0:
            break
        value = data[pos + 4 : pos + 4 + length]
        if len(value) < length:
            break
        opts[code] = value
        pos += 4 + length + (-length % 4)
    return opts


def _tsresol_divisor(raw: bytes) -> int:
    if len(raw) != 1:
        return 1_000_000
    v = raw[0]
    if v & 0x80:
        return 1 << (v & 0x7F)
    return 10**v


def _iter_pcapng(f) -> Iterator[StreamItem]:
    def gen() -> Iterator[StreamItem]:
        index = 0
        endian = "<"
        interfaces: list[tuple[int, int]] = []  # (link type, timestamp divisor) per IDB
        f.seek(0)
        try:
            while True:
                offset = f.tell()
                head = f.read(8)
                if not head:
                    return
                if len(head) < 8:
                    yield CaptureError(offset, index, "truncated block header")
                    return
                block_type = struct.unpack(endian + "I", head[0:4])[0]
                if block_type == PCAPNG_SHB:
                    # Byte order can change per section; magic sits after the length field.
                    magic_raw = f.read(4)
                    if len(magic_raw) < 4:
                        yield CaptureError(offset, index, "truncated section header")
                        return
                    if struct.unpack("<I", magic_raw)[0] == PCAPNG_BYTE_ORDER_MAGIC:
                        endian = "<"
                    elif struct.unpack(">I", magic_raw)[0] == PCAPNG_BYTE_ORDER_MAGIC:
                        endian = ">"
                    else:
                        yield CaptureError(offset, index, "bad section byte-order magic")
                        return
                    total_len = struct.unpack(endian + "I", head[4:8])[0]
                    if total_len < 28 or total_len % 4 or total_len > PCAPNG_MAX_BLOCK:
                        yield CaptureError(offset, index, "bad section block length")
                        return
                    body = f.read(total_len - 12)
                    if len(body) < total_len - 12:
                        yield CaptureError(offset, index, "truncated section block")
                        return
                    interfaces = []
                    continue
                total_len = struct.unpack(endian + "I", head[4:8])[0]
                if total_len < 12 or total_len % 4 or total_len > PCAPNG_MAX_BLOCK:
                    yield CaptureError(offset, index, f"bad block length {total_len}")
                    return
                body = f.read(total_len - 8)
                if len(body) < total_len - 8:
                    yield CaptureError(offset, index, "truncated block")
                    return
                content = body[:-4]
                if block_type == PCAPNG_IDB:
                    if len(content) < 8:
                        yield CaptureError(offset, index, "short interface block")
                        return
                    link_type = struct.unpack(endian + "H", content[:2])[0]
                    opts = _pcapng_options(content[8:], endian)
                    interfaces.append((link_type, _tsresol_divisor(opts.get(9, b"\x06"))))
                elif block_type == PCAPNG_EPB:
                    if len(content) < 20:
                        yield CaptureError(offset, index, "short packet block")
                        return
                    iface, ts_high, ts_low, cap_len, _orig = struct.unpack(
                        endian + "IIIII", content[:20]
                    )
                    data = content[20 : 20 + cap_len]
                    if len(data) < cap_len:
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
                        yield RawFrame(ts_sec, ts_nsec, data, index)
                    index += 1
                # Every other block type is skipped silently.
        finally:
            f.close()

    return gen()

