"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the PASS lines
on passing runs as well).
"""

from __future__ import annotations

import time
from dataclasses import replace

import pytest

from poet.capture import open_capture
from poet.dissect import (
    ArpPacket,
    CmFrame,
    DcpFrame,
    LldpFrame,
    MalformedFrame,
    ParsedFrame,
    PnioCyclicFrame,
    dissect,
    extract_io_specs,
)
from poet.capture import RawFrame
from poet.fsm import fold_log, reachable_states, validate_definition
from poet.models import (
    connection_fsm_table,
    device_fsm_table,
    system_fsm_table,
)
from poet.synth import (
    builtin_scenario,
    fuzz_corpus,
    normal_startup_spec,
    process_byte,
    synthesize,
    write_pcap_bytes,
)
from poet.tracker import Tracker, TrackerConfig


def _announce(criterion: str, detail: str = "") -> None:
    print(f"ACCEPTANCE {criterion}: PASS {detail}".rstrip())


def _run(result, tmp_path, name):
    path = tmp_path / f"{name}.pcap"
    path.write_bytes(result.pcap_bytes)
    tracker = Tracker(TrackerConfig(system_name=result.spec.system_name))
    report = tracker.process(open_capture(path))
    return tracker, report


def _anomaly_tuples(report):
    return [
        (a.cause.capture_index, a.instance_kind, a.instance_key, a.offending_event, a.state_at_event)
        for a in report.anomalies
    ]


def _manifest_tuples(manifest):
    return [
        (a["frame_index"], a["instance_kind"], a["instance_key"], a["offending_event"], a["state_at_event"])
        for a in manifest["expected"]["anomalies"]
    ]


def test_c1_rename_attack_reproduction(tmp_path):
    started = time.perf_counter()
    result = synthesize(builtin_scenario("rename-attack"))
    _, report = _run(result, tmp_path, "rename")
    elapsed = time.perf_counter() - started

    assert _anomaly_tuples(report) == _manifest_tuples(result.manifest)
    target_mac = next(d.mac for d in result.spec.devices if d.name == "turntable-motor")
    hits = [
        a
        for a in report.anomalies
        if a.instance_key == target_mac
        and a.offending_event == "name_set_requested"
        and a.state_at_event == "DataExchange"
    ]
    assert len(hits) >= 1
    injection_at = result.spec.injections[0].after_index
    assert all(a.cause.capture_index > injection_at for a in report.anomalies)
    assert elapsed < 5.0
    _announce("C1 rename-attack", f"({len(report.anomalies)} anomaly, {elapsed:.2f}s)")


def test_c2_rogue_connect_reproduction(tmp_path):
    started = time.perf_counter()
    result = synthesize(builtin_scenario("rogue-connect"))
    _, report = _run(result, tmp_path, "rogue")
    elapsed = time.perf_counter() - started

    assert _anomaly_tuples(report) == _manifest_tuples(result.manifest)
    target_mac = next(d.mac for d in result.spec.devices if d.name == "lift-motor")
    device_hits = [
        a
        for a in report.anomalies
        if a.instance_kind == "device"
        and a.instance_key == target_mac
        and a.offending_event == "connect_requested"
        and a.state_at_event == "DataExchange"
    ]
    assert len(device_hits) == 1
    connection_trail = [
        a
        for a in report.alerts
        if a.instance_kind == "connection"
        and a.offending_event == "connection_created_after_startup"
    ]
    assert len(connection_trail) == 1
    rogue_states = [
        c["state"] for c in report.final_states["connections"] if c["state"] == "ConnectionCreation"
    ]
    assert len(rogue_states) == 1
    assert elapsed < 5.0
    _announce("C2 rogue-connect", f"({len(report.anomalies)} anomalies, {elapsed:.2f}s)")


@pytest.mark.parametrize("devices", [1, 2, 5])
@pytest.mark.parametrize("refresh", [0, 2])
def test_c3_clean_run_completeness(tmp_path, devices, refresh):
    result = synthesize(normal_startup_spec(devices, lldp_refresh_every=refresh))
    tracker, report = _run(result, tmp_path, f"clean-{devices}-{refresh}")

    assert report.anomalies == []
    device_states = {d["mac"]: d["state"] for d in report.final_states["devices"]}
    for device in result.spec.devices:
        assert device_states[device.mac] == "DataExchange"
    assert report.final_states["system"]["state"] == "DataExchange"
    assert len(report.final_states["connections"]) == devices
    for conn in report.final_states["connections"]:
        assert conn["state"] in ("InputDataExchange", "OutputDataExchange")
    for node in (result.spec.controller, *result.spec.devices):
        record = tracker.inventory.get(node.mac)
        assert record is not None
        assert record.name_of_station == node.name
        assert record.ip_address == node.ip
    _announce(f"C3 clean-run N={devices} refresh={refresh}")


def test_c4_fsm_validity():
    device = device_fsm_table()
    connection = connection_fsm_table()
    system = system_fsm_table()
    assert validate_definition(device) == []
    assert validate_definition(connection) == []
    assert validate_definition(system) == []

    # graph search: every state that any event targets is reachable from
    # NeighbourhoodDetection (Active is the initial power-on state, nothing
    # transitions back into it)
    reached = reachable_states(device, "NeighbourhoodDetection")
    assert reached >= device.states - {"Active"}

    empirical = {(e.from_state, e.event, e.to_state) for e in device.edges if e.empirical}
    assert empirical == {
        ("IpAddressAssignment", "ip_assigned", "IpAddressAssigned"),
        ("IpAddressAssigned", "duplication_check", "IpDuplicationCheck"),
    }
    _announce("C4 fsm-validity")


def test_c5_determinism(tmp_path):
    result = synthesize(normal_startup_spec(2, lldp_refresh_every=2))
    path = tmp_path / "det.pcap"
    path.write_bytes(result.pcap_bytes)

    tracker_a = Tracker(TrackerConfig())
    report_a = tracker_a.process(open_capture(path))
    tracker_b = Tracker(TrackerConfig())
    report_b = tracker_b.process(open_capture(path))
    assert report_a.dumps() == report_b.dumps()

    assert fold_log(system_fsm_table(), tracker_a.fleet.system.records()) == tracker_a.fleet.system.current_state
    for inst in tracker_a.fleet.devices.values():
        assert fold_log(device_fsm_table(), inst.records()) == inst.current_state
    for inst in tracker_a.fleet.connections.values():
        assert fold_log(connection_fsm_table(), inst.records()) == inst.current_state
    _announce("C5 determinism")


def test_c6_dissector_totality_and_duality():
    corpus = fuzz_corpus(seed=2024, count=10_000)
    outcomes = {"parsed": 0, "malformed": 0}
    for data in corpus:
        try:
            parsed = dissect(RawFrame(0, 0, data, 0))
            assert isinstance(parsed, ParsedFrame)
            outcomes["parsed"] += 1
        except MalformedFrame:
            outcomes["malformed"] += 1
    assert sum(outcomes.values()) == 10_000

    # duality: every synthesized frame family dissects to its intended family
    result = synthesize(
        replace(normal_startup_spec(2), acyclic_exchange=True, cyclic_rounds=3)
    )
    family_of = {
        "lldp": LldpFrame,
        "dcp": DcpFrame,
        "arp": ArpPacket,
        "gratuitous": ArpPacket,
        "pn-cm": CmFrame,
        "pnio": PnioCyclicFrame,
    }
    families_seen = set()
    for plan in result.frames:
        parsed = dissect(RawFrame(*plan.ts, plan.data, plan.index))
        label = plan.label.split()[0]
        expected = family_of[label]
        assert isinstance(parsed.body, expected), plan.label
        families_seen.add(expected)
        if isinstance(parsed.body, CmFrame):
            assert parsed.body.operation.lower() in plan.label, plan.label
            assert parsed.body.direction in plan.label, plan.label
        elif isinstance(parsed.body, DcpFrame):
            assert parsed.body.service_id.lower() in plan.label, plan.label
        elif isinstance(parsed.body, PnioCyclicFrame):
            assert plan.label.split()[1] in ("input", "output"), plan.label
    assert families_seen == {LldpFrame, DcpFrame, ArpPacket, CmFrame, PnioCyclicFrame}
    _announce(
        "C6 totality+duality",
        f"(10000 fuzz: {outcomes['parsed']} parsed / {outcomes['malformed']} malformed)",
    )


def test_c7_process_data_extraction(tmp_path):
    spec = normal_startup_spec(1)  # device has a 2-submodule layout (in 2B, out 3B)
    result = synthesize(spec)
    device = spec.devices[0]
    assert len(device.submodules) == 2

    connects: list[CmFrame] = []
    cyclic: list[tuple[int, PnioCyclicFrame]] = []
    path = tmp_path / "extract.pcap"
    path.write_bytes(result.pcap_bytes)
    for item in open_capture(path):
        parsed = dissect(item)
        if isinstance(parsed.body, CmFrame) and parsed.body.operation == "Connect" \
                and parsed.body.direction == "request":
            connects.append(parsed.body)
        elif isinstance(parsed.body, PnioCyclicFrame):
            cyclic.append((item.capture_index, parsed.body))

    assert connects and cyclic
    specs_by_direction: dict[str, list] = {"input": [], "output": []}
    frame_id_direction: dict[int, str] = {}
    for connect in connects:
        specs = extract_io_specs(connect)
        for spec_entry in specs:
            specs_by_direction[spec_entry.direction].append(spec_entry)
        for iocr in connect.iocr_blocks:
            frame_id_direction[iocr.frame_id] = iocr.cr_type
            # layout conservation: declared length == laid-out data+IOPS+IOCS
            own = sum(
                s.data_description[1] + s.data_description[2]
                for s in connect.expected_submodules
                if s.data_description[0] == iocr.cr_type
            )
            opposite = sum(
                s.data_description[3]
                for s in connect.expected_submodules
                if s.data_description[0] != iocr.cr_type
            )
            assert iocr.data_length == own + opposite

    checked = 0
    round_of: dict[str, int] = {"input": 0, "output": 0}
    for index, frame in cyclic:
        direction = frame_id_direction[frame.frame_id]
        round_index = round_of[direction]
        round_of[direction] += 1
        for ordinal, spec_entry in enumerate(specs_by_direction[direction]):
            data = frame.data[spec_entry.offset : spec_entry.offset + spec_entry.length]
            expected = bytes(
                process_byte(0, round_index, direction, ordinal, i)
                for i in range(spec_entry.length)
            )
            assert data == expected, (index, direction, ordinal)
            checked += 1
    assert checked == len(cyclic)  # one populated submodule per direction
    _announce("C7 process-data", f"({checked} extractions over {len(cyclic)} cyclic frames)")


def test_c8_out_of_order_write(tmp_path):
    baseline_result = synthesize(normal_startup_spec(1))
    _, baseline = _run(baseline_result, tmp_path, "c8-base")

    frames = [(p.ts, p.data) for p in baseline_result.frames]
    write_plan = next(
        p for p in baseline_result.frames if p.label.startswith("pn-cm write request")
    )
    connect_at = next(
        i for i, p in enumerate(baseline_result.frames) if p.label.startswith("pn-cm connect")
    )
    tampered = frames[:connect_at] + [(write_plan.ts, write_plan.data)] + frames[connect_at:]
    path = tmp_path / "c8.pcap"
    path.write_bytes(write_pcap_bytes(tampered))
    report = Tracker().process(open_capture(path))

    orphans = [a for a in report.diagnostics if a.offending_event == "orphan_frame"]
    assert len(orphans) == 1
    assert report.anomalies == []
    assert report.final_states == baseline.final_states
    _announce("C8 out-of-order write")
