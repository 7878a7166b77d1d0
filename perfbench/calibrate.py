"""Host-speed calibration: a fixed, poet-independent kernel timed between repetitions.

On a shared host the CPU speed a process gets drifts by up to 1.5x, over
seconds and over minutes, because of other tenants, and every timing moves
with it. The kernel below does the same kinds of interpreter work poet does
(parse bytes, build small objects, fill and probe dicts, encode indented
JSON, sort and scan a table) on fixed data, using only the standard library,
so no change to poet changes its cost. Its median time over a run measures
how slow the host was during that run. run.py divides every end-to-end time
by median kernel time / REFERENCE_S, which gives the time as it would read on
a host where the kernel takes REFERENCE_S.
"""

from __future__ import annotations

import gc
import json
import random
import struct
import time

REFERENCE_S = 0.25


class _Record:
    __slots__ = ("key", "kind", "value", "seen")

    def __init__(self, key: str, kind: int, value: int) -> None:
        self.key = key
        self.kind = kind
        self.value = value
        self.seen = 1


class Kernel:
    def __init__(self) -> None:
        rng = random.Random(0)
        self.frames = [
            struct.pack("!6s6sHHI", rng.randbytes(6), rng.randbytes(6), rng.randrange(8), i, rng.getrandbits(32))
            + rng.randbytes(24)
            for i in range(50_000)
        ]
        self.doc = {
            f"group-{g}": [
                {"index": i, "event": f"event-{i % 7}", "verdict": "accepted", "values": [i, i * 3, str(i)]}
                for i in range(250)
            ]
            for g in range(25)
        }
        self.stations = {
            rng.randbytes(6).hex(":"): _Record(f"station-{i:05d}", i % 8, i) for i in range(1500)
        }
        self.wanted = [f"station-{rng.randrange(3000):05d}" for _ in range(180)]

    def work(self) -> int:
        """One pass of three parts of about equal cost: parse and tabulate, encode, sort and scan."""
        table: dict[str, _Record] = {}
        check = 0
        for frame in self.frames:
            _dst, src, kind, seq, value = struct.unpack_from("!6s6sHHI", frame)
            key = src.hex(":")
            record = table.get(key)
            if record is None:
                table[key] = _Record(key, kind, value)
            elif record.kind == kind:
                record.seen += 1
            payload = frame[18:]
            check ^= int.from_bytes(payload[:4], "big") + seq + value
        text = json.dumps(self.doc, sort_keys=True, indent=2)
        stations = self.stations
        for name in self.wanted:
            for mac in sorted(stations):
                if stations[mac].key == name:
                    check += 1
                    break
        return len(table) + len(text) + check

    def time(self) -> float:
        """Seconds for one pass, with the collector off so the process's heap does not count."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self.work()
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
