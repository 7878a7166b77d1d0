"""Benchmark workloads: captures synthesized from a seed, with their ground truth.

Each workload function returns a Workload holding the capture bytes the program reads
and a check that compares one run's outputs with what the generator knows to
be true. Only `poet.synth`'s public encoders and scenario API are used, so the
program under test sees nothing but the resulting capture file.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from poet.synth import (
    ATTACKER_MAC,
    dcp_identify_request,
    encode_lldp,
    normal_startup_spec,
    synthesize,
    write_pcapng_bytes,
)

START_TIME = 1_700_000_000


@dataclass
class Workload:
    name: str
    suffix: str  # capture file extension: the reader picks its format by magic
    capture: bytes
    frames: int
    # check(report, alert_lines) -> list of problems, empty when correct
    check: Callable[[object, list[dict]], list[str]]
    digests: set[str] = field(default_factory=set)


def _common_problems(report, alert_lines: list[dict], frames: int) -> list[str]:
    """Invariants every workload shares: stream == report, one alert per rejection."""
    problems = []
    if report.summary["frames"] != frames:
        problems.append(f"report counts {report.summary['frames']} frames, capture has {frames}")
    if alert_lines != [a.to_json() for a in report.alerts]:
        problems.append("streamed alerts differ from the report's alerts")
    logs = report.logs
    rejected = sum(r["verdict"] == "rejected" for r in logs["system"])
    for group in ("devices", "connections"):
        rejected += sum(r["verdict"] == "rejected" for log in logs[group].values() for r in log)
    if rejected != len(report.anomalies):
        problems.append(f"{rejected} rejected transitions but {len(report.anomalies)} anomalies")
    return problems


def cyclic_steady(seed: int) -> Workload:
    """A running five-device plant: 41,052 frames, 97% cyclic PNIO."""
    result = synthesize(
        normal_startup_spec(
            5, cyclic_rounds=4000, lldp_refresh_every=50, seed=seed, start_time=START_TIME + seed
        )
    )
    expected_states = result.manifest["expected"]["final_states"]
    frames = len(result.frames)

    def check(report, alert_lines):
        problems = _common_problems(report, alert_lines, frames)
        if report.alerts:
            problems.append(f"{len(report.alerts)} alerts on clean traffic")
        got = report.final_states
        states = {
            "system": got["system"]["state"],
            "devices": {d["mac"]: d["state"] for d in got["devices"]},
            "connections": {c["key"]: c["state"] for c in got["connections"]},
        }
        if states != expected_states:
            problems.append("final states differ from the manifest's")
        return problems

    return Workload("cyclic-steady", ".pcap", result.pcap_bytes, frames, check)


def identify_flood(seed: int, stations: int = 1500, requests: int = 2000) -> Workload:
    """LLDP stations with spoofed chassis MACs, then DCP Identify for known and unknown names."""
    rng = random.Random(seed)
    taken = {ATTACKER_MAC}
    macs: list[str] = []
    while len(macs) < stations:
        mac = ":".join(f"{b:02x}" for b in (0x02, *rng.randbytes(5)))
        if mac not in taken:
            taken.add(mac)
            macs.append(mac)
    names = [f"st-{i:05d}-{rng.getrandbits(24):06x}" for i in range(stations)]
    unanswered = [f"ghost-{i:05d}-{rng.getrandbits(24):06x}" for i in range(requests)]
    known = [rng.randrange(stations) for _ in range(requests)]
    asks = [names[i] for i in known] + unanswered
    rng.shuffle(asks)

    datas = []
    for mac, name in zip(macs, names):
        chassis = bytes.fromhex(mac.replace(":", ""))
        port = bytes([0x06]) + chassis[1:]  # distinct, locally administered source MAC
        datas.append(encode_lldp(chassis, port, ttl=20, station_name=name))
    requester = bytes.fromhex(ATTACKER_MAC.replace(":", ""))
    for xid, name in enumerate(asks, start=1):
        datas.append(dcp_identify_request(requester, xid, name))
    start = START_TIME + seed
    # pcapng, so the benchmark also exercises the second capture reader.
    capture = write_pcapng_bytes(
        [((start + i // 1000, (i % 1000) * 1_000_000), data) for i, data in enumerate(datas)]
    )

    expected_requests = Counter(macs[i] for i in known)
    expected_expired = Counter(unanswered)
    frames = len(datas)

    def check(report, alert_lines):
        problems = _common_problems(report, alert_lines, frames)
        expired = Counter(
            a.cause.summary.removeprefix("dcp identify request for ").strip("'")
            for a in report.diagnostics
            if a.offending_event == "deferred_identify_expired"
        )
        if expired != expected_expired:
            problems.append(
                f"{sum(expired.values())} deferred_identify_expired diagnostics "
                f"for {len(expired)} names, expected one for each of {len(expected_expired)}"
            )
        got_requests = Counter()
        for mac, log in report.logs["devices"].items():
            for record in log:
                if record["event"] == "name_resolution_requested":
                    got_requests[mac] += 1
        if got_requests != expected_requests:
            problems.append(
                f"{sum(got_requests.values())} name_resolution_requested records on "
                f"{len(got_requests)} devices, expected {len(known)} on {len(expected_requests)}"
            )
        return problems

    return Workload("identify-flood", ".pcapng", capture, frames, check)


WORKLOADS = {"cyclic-steady": cyclic_steady, "identify-flood": identify_flood}


def check_run(workload: Workload, report, report_text: str, alert_text: str) -> list[str]:
    """All checks for one repetition; the report must also be byte-identical across repetitions."""
    alert_lines = [json.loads(line) for line in alert_text.splitlines()]
    problems = workload.check(report, alert_lines)
    workload.digests.add(hashlib.sha256(report_text.encode()).hexdigest())
    if len(workload.digests) > 1:
        problems.append("report differs from an earlier repetition's")
    return problems
