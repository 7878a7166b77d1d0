"""Tracker pipeline: lifecycles, alerts, snapshots, determinism."""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tracemalloc
from collections import Counter
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

import poet
from poet.capture import RawFrame, open_capture
from poet.dissect import (
    DCP_FRAME_ID_MIN,
    DCP_SERVICE_HELLO,
    DCP_TYPE_REQUEST,
    DcpFrame,
    MalformedFrame,
    ParsedFrame,
    dissect,
)
from poet.fsm import LOG_WINDOW, FrameRef, FsmInstance, SharedCause, TransitionRecord
from poet.inventory import AssetInventory, AssetRecord, InventoryChange, Provenance
from poet.models import (
    PN_TRAFFIC_DETECTED,
    DeferredEvent,
    DerivedEvents,
    ProtocolEvent,
    TrackDiagnostic,
    connection_fsm_table,
    connection_key,
    device_fsm_table,
    system_fsm_table,
)
from poet.synth import (
    ATTACKER_MAC,
    _dcp_block,
    BUILTIN_SCENARIOS,
    SynthResult,
    builtin_scenario,
    cr_data_length,
    dcp_identify_request,
    dcp_identify_response,
    dcp_set_name_request,
    encode_dcp,
    encode_lldp,
    ethernet,
    iocr_block_request,
    malformed_frame,
    normal_startup_spec,
    rename_attack_spec,
    rogue_connect_spec,
    str_to_mac,
    synthesize,
    write_pcap_bytes,
)
from poet.tracker import (
    DEFERRED_WINDOW,
    AnomalyAlert,
    Tracker,
    TrackerConfig,
    TrackerReport,
    dumps_inventory,
)

from corpus import fuzz_corpus
from fsm_replay import EagerLog, eager_logs, fold_log


def run(result: SynthResult, tmp_path, name="cap", config: TrackerConfig | None = None):
    path = tmp_path / f"{name}.pcap"
    path.write_bytes(result.pcap_bytes)
    tracker = Tracker(config or TrackerConfig())
    report = tracker.process(open_capture(path))
    return tracker, report


def test_empty_capture(tmp_path):
    path = tmp_path / "empty.pcap"
    path.write_bytes(write_pcap_bytes([]))
    report = Tracker().process(open_capture(path))
    assert report.final_states["system"]["state"] == "Inactive"
    assert report.final_states["devices"] == []
    assert report.alerts == []
    assert report.summary["frames"] == 0


def test_normal_startup_two_devices(tmp_path):
    result = synthesize(normal_startup_spec(2))
    tracker, report = run(result, tmp_path)
    assert report.anomalies == []
    assert report.final_states["system"]["state"] == "DataExchange"
    spec = result.spec
    device_entries = {d["mac"]: d for d in report.final_states["devices"]}
    for device in spec.devices:
        assert device_entries[device.mac]["state"] == "DataExchange"
        assert device_entries[device.mac]["operation"] == "Data Exchange"
    for conn in report.final_states["connections"]:
        assert conn["state"] in ("InputDataExchange", "OutputDataExchange")
        assert conn["operation"] == "Data Exchange"
    assert report.final_states["system"]["operation"] == "Data Exchange"


def test_rename_attack_detected(tmp_path):
    result = synthesize(rename_attack_spec())
    tracker, report = run(result, tmp_path)
    target_mac = next(d.mac for d in result.spec.devices if d.name == "turntable-motor")
    hits = [
        a
        for a in report.anomalies
        if a.offending_event == "name_set_requested" and a.instance_key == target_mac
    ]
    assert len(hits) == 1
    assert hits[0].state_at_event == "DataExchange"
    assert hits[0].explanation == "name_set_requested not permitted during Data Exchange operation"
    # the rename also surfaces as an inventory conflict diagnostic
    assert any(a.offending_event == "inventory_conflict" for a in report.diagnostics)
    # FSM state is unaffected by rejected events
    device_states = {d["mac"]: d["state"] for d in report.final_states["devices"]}
    assert device_states[target_mac] == "DataExchange"


def test_ip_set_during_data_exchange_detected():
    """A DCP Set of the IP parameter to a device in data exchange is rejected as the
    ip_assignment_requested it derives; no event of its own is needed to catch it."""
    from poet.synth import dcp_set_ip_request

    result = synthesize(normal_startup_spec(1, cyclic_rounds=3))
    ctrl, dev = (str_to_mac(node.mac) for node in (result.spec.controller, result.spec.devices[0]))
    datas = [plan.data for plan in result.frames]
    datas.append(dcp_set_ip_request(ctrl, dev, 99, "192.168.0.12", "255.255.255.0", "0.0.0.0"))
    report = Tracker().process([RawFrame(100, i, data, i) for i, data in enumerate(datas)])
    assert [(a.instance_kind, a.instance_key, a.state_at_event, a.explanation, a.cause.capture_index)
            for a in report.anomalies] == [
        ("device", "02:00:00:00:02:00", "DataExchange",
         "ip_assignment_requested not permitted during Data Exchange operation", len(datas) - 1),
    ]


def test_rename_with_identify_probe(tmp_path):
    """Identify + Set mid-exchange: every probe step violates the device model."""
    from poet.synth import dcp_identify_request, dcp_identify_response, dcp_set_name_request
    from poet.dissect import DcpFrame, MalformedFrame, dissect

    base = synthesize(normal_startup_spec(1))
    device = base.spec.devices[0]
    dev = str_to_mac(device.mac)
    attacker = str_to_mac("02:66:6e:00:00:99")
    last_ts = base.frames[-1].ts
    frames = [(p.ts, p.data) for p in base.frames]
    frames.append((last_ts, dcp_identify_request(attacker, 0xA0, device.name)))
    frames.append((last_ts, dcp_identify_response(dev, attacker, 0xA0, device.name)))
    frames.append((last_ts, dcp_set_name_request(attacker, dev, 0xA1, "ufo")))
    path = tmp_path / "probe.pcap"
    path.write_bytes(write_pcap_bytes(frames))
    report = Tracker().process(open_capture(path))
    hits = [a for a in report.anomalies if a.instance_key == device.mac]
    assert len(hits) >= 1
    assert any(
        a.offending_event == "name_set_requested" and a.state_at_event == "DataExchange"
        for a in hits
    )
    assert {a.offending_event for a in hits} == {
        "name_resolution_requested",
        "name_resolved",
        "name_set_requested",
    }


def test_rogue_connect_detected(tmp_path):
    result = synthesize(rogue_connect_spec())
    tracker, report = run(result, tmp_path)
    target_mac = next(d.mac for d in result.spec.devices if d.name == "lift-motor")
    device_hits = [
        a
        for a in report.anomalies
        if a.instance_kind == "device" and a.offending_event == "connect_requested"
    ]
    assert [a.instance_key for a in device_hits] == [target_mac]
    assert device_hits[0].state_at_event == "DataExchange"
    assert any(
        a.offending_event == "connection_created_after_startup" and a.instance_kind == "connection"
        for a in report.diagnostics
    )
    # the rogue connection instance exists and never left creation
    rogue = [c for c in report.final_states["connections"] if c["state"] == "ConnectionCreation"]
    assert len(rogue) == 1


def test_rogue_connect_cannot_take_over_live_frame_ids():
    """A Connect of another connection that reuses a live CR's frame ids binds none of them."""
    import uuid

    from poet.synth import ATTACKER_MAC, _connect_blocks, encode_cm

    result = synthesize(rogue_connect_spec())
    device = result.spec.devices[0]
    assert device.name == "lift-motor"  # its CRs run on frame ids 0x8001 and 0x8002
    blocks = _connect_blocks(
        uuid.uuid5(uuid.NAMESPACE_OID, "hijack-ar"), str_to_mac(ATTACKER_MAC), "intruder",
        device.submodules, (0x8001, 0x8002),
    )
    hijack = encode_cm(
        str_to_mac(ATTACKER_MAC), str_to_mac(device.mac), "192.168.0.250", device.ip, 0, 0,
        uuid.uuid5(uuid.NAMESPACE_OID, "hijack-activity"), 0x7FFE, blocks,
    )
    frames = [(plan.ts, plan.data) for plan in result.frames]
    frames.insert(51, (frames[50][0], hijack))  # just after the builtin rogue Connect
    report = Tracker().process(RawFrame(*ts, data, index) for index, (ts, data) in enumerate(frames))

    # Only the two rogue Connects are anomalies: the device's and the system's connect_requested.
    assert Counter((a.instance_kind, a.offending_event) for a in report.anomalies) == {
        ("device", "connect_requested"): 2,
        ("system", "connect_requested"): 2,
    }
    conflicts = [a for a in report.diagnostics if a.offending_event == "frame_id_conflict"]
    assert [(a.instance_kind, a.instance_key, a.cause.capture_index) for a in conflicts] == [
        ("device", device.mac, 51),
        ("device", device.mac, 51),
    ]
    # The real connection keeps getting its data events after the hijack attempt.
    legit = connection_key(result.spec.controller.mac, device.mac)
    data_at = [
        record["cause"]["capture_index"]
        for record in report.logs["connections"][legit]
        if record["event"].endswith("_process_data_sent")
    ]
    assert max(data_at) > 51


def test_rogue_connect_cannot_take_over_a_live_ar():
    """A Connect of another connection that reuses a live AR UUID registers nothing."""
    import uuid

    from poet.synth import ATTACKER_MAC, SubmoduleSpec, _ar_uuid, _connect_blocks, encode_cm

    spec = normal_startup_spec(1, cyclic_rounds=6, acyclic_exchange=True)
    result = synthesize(spec)
    device = spec.devices[0]
    live_ar = _ar_uuid(spec.seed, 0)
    blocks = _connect_blocks(
        live_ar, str_to_mac(ATTACKER_MAC), "intruder", (SubmoduleSpec(1, 1, "input", 1),), (0x9001, 0x9002)
    )
    takeover = encode_cm(
        str_to_mac(ATTACKER_MAC), str_to_mac(device.mac), "192.168.0.250", device.ip, 0, 0,
        uuid.uuid5(uuid.NAMESPACE_OID, "takeover-activity"), 0x7FFE, blocks,
    )
    frames = [(plan.ts, plan.data) for plan in result.frames]
    assert result.frames[20].label.startswith("pnio")  # the live AR is in data exchange
    frames.insert(21, (frames[20][0], takeover))
    report = Tracker().process(RawFrame(*ts, data, index) for index, (ts, data) in enumerate(frames))

    assert Counter((a.instance_kind, a.offending_event) for a in report.anomalies) == {
        ("device", "connect_requested"): 1,
        ("system", "connect_requested"): 1,
    }
    assert [
        (a.offending_event, a.instance_kind, a.instance_key, a.cause.capture_index)
        for a in report.diagnostics
    ] == [
        ("ar_uuid_conflict", "device", device.mac, 21),
        ("connection_created_after_startup", "connection", connection_key(ATTACKER_MAC, device.mac), 21),
    ]
    # The controller's later Read and Write stay on the real connection.
    legit = connection_key(spec.controller.mac, device.mac)
    assert {"acyclic_read", "acyclic_write"} <= _logged_events(report, "connections", legit)
    states = {c["key"]: c["state"] for c in report.final_states["connections"]}
    assert states[legit] == "InputDataExchange"


def test_release_of_the_live_ar_raises_nothing():
    """A Release request and its response, an IODReleaseRes block, of the live AR are each read as
    a Release of that AR and drive no tracked event: the run raises no alert and ends where the
    run without them ends."""
    import uuid

    from poet.dissect import BLOCK_RELEASE, BLOCK_RELEASE_RES, RPC_OPNUM_RELEASE, CmFrame
    from poet.synth import _ar_uuid, control_block, encode_cm

    spec = normal_startup_spec(1, cyclic_rounds=2)
    result = synthesize(spec)
    controller, device = spec.controller, spec.devices[0]
    ctrl, dev = str_to_mac(controller.mac), str_to_mac(device.mac)
    live_ar = _ar_uuid(spec.seed, 0)
    activity = uuid.uuid5(uuid.NAMESPACE_OID, "release-activity")
    release = [
        encode_cm(ctrl, dev, controller.ip, device.ip, 0, RPC_OPNUM_RELEASE, activity, 0x7FFE,
                  control_block(BLOCK_RELEASE, live_ar, 4)),
        encode_cm(dev, ctrl, device.ip, controller.ip, 2, RPC_OPNUM_RELEASE, activity, 0x7FFE,
                  control_block(BLOCK_RELEASE_RES, live_ar, 4)),
    ]
    for data, direction in zip(release, ("request", "response")):
        body = dissect(RawFrame(0, 0, data, 0))
        assert isinstance(body, CmFrame)
        assert (body.direction, body.operation, body.ar_uuid) == (direction, "Release", live_ar.bytes)

    frames = [(plan.ts, plan.data) for plan in result.frames]
    frames += [(frames[-1][0], data) for data in release]
    report = Tracker().process(RawFrame(*ts, data, index) for index, (ts, data) in enumerate(frames))
    assert report.anomalies == []
    assert report.diagnostics == []
    baseline = Tracker().process(RawFrame(*plan.ts, plan.data, index) for index, plan in enumerate(result.frames))
    assert report.final_states == baseline.final_states


def test_connect_responses_with_an_ar_server_block_are_the_same_startup(monkeypatch):
    """A device may follow its ARBlockRes with an ARServerBlock (0x8106), which names the
    responding station. poet skips that block: each such Connect response is read as a Connect
    response of its AR, and the run raises the alerts and ends in the states of the run without it."""
    import struct

    from poet import synth
    from poet.dissect import CmFrame

    spec = normal_startup_spec(2, cyclic_rounds=2)
    plain = synthesize(spec).frames
    name = b"io-device"
    server_block = synth._cm_block(0x8106, struct.pack(">H", len(name)) + name)
    ar_block_response = synth.ar_block_response
    monkeypatch.setattr(synth, "ar_block_response", lambda *args: ar_block_response(*args) + server_block)
    plans = synthesize(spec).frames
    responses = [plan for plan in plans if plan.label.startswith("pn-cm connect response")]
    assert len(responses) == 2
    for plan in responses:
        assert server_block in plan.data
        body = dissect(RawFrame(*plan.ts, plan.data, 0))
        assert isinstance(body, CmFrame)
        assert (body.direction, body.operation) == ("response", "Connect")
        assert body.ar_uuid is not None

    baseline = Tracker().process(RawFrame(*plan.ts, plan.data, index) for index, plan in enumerate(plain))
    report = Tracker().process(RawFrame(*plan.ts, plan.data, index) for index, plan in enumerate(plans))
    assert report.alerts == baseline.alerts
    assert report.final_states == baseline.final_states


@pytest.mark.parametrize(
    "request_label, state",
    [("pn-cm read request", "AcyclicReadingData"), ("pn-cm acyclic write request", "AcyclicParametrization")],
)
def test_cyclic_data_during_an_acyclic_request_is_no_anomaly(request_label, state):
    """RT cyclic data keeps flowing while a Read or Write record service is in flight:
    a cyclic round between the request and its response is accepted in the acyclic state."""
    result = synthesize(normal_startup_spec(1, cyclic_rounds=5, acyclic_exchange=True))
    plans = result.frames
    moved = [plan for plan in plans if plan.label.endswith("round 2")]
    assert [plan.label.split()[1] for plan in moved] == ["output", "input"]
    rest = [plan for plan in plans if plan not in moved]
    at = next(i for i, plan in enumerate(rest) if plan.label.startswith(request_label)) + 1
    order = rest[:at] + moved + rest[at:]
    tracker = Tracker()
    report = tracker.process(RawFrame(*plans[i].ts, plan.data, i) for i, plan in enumerate(order))

    assert report.alerts == []
    device = tracker.fleet.devices[result.spec.devices[0].mac]
    (connection,) = tracker.fleet.connections.values()
    for instance, events in (
        (device, ["cyclic_data_good", "cyclic_data_good"]),
        (connection, ["output_process_data_sent", "input_process_data_sent"]),
    ):
        in_flight = [r for r in instance.records() if r.cause.capture_index in (at, at + 1)]
        assert [(r.event, r.from_state, r.to_state, r.verdict) for r in in_flight] == [
            (event, state, state, "accepted") for event in events
        ]


def test_orphan_write_before_connect_no_state_corruption(tmp_path):
    baseline_result = synthesize(normal_startup_spec(1))
    _, baseline = run(baseline_result, tmp_path, "base")

    frames = [(p.ts, p.data) for p in baseline_result.frames]
    write_plan = next(p for p in baseline_result.frames if p.label.startswith("pn-cm write request"))
    connect_at = next(
        i for i, p in enumerate(baseline_result.frames) if p.label.startswith("pn-cm connect")
    )
    tampered = frames[:connect_at] + [(write_plan.ts, write_plan.data)] + frames[connect_at:]
    path = tmp_path / "orphan.pcap"
    path.write_bytes(write_pcap_bytes(tampered))
    report = Tracker().process(open_capture(path))

    orphans = [a for a in report.diagnostics if a.offending_event == "orphan_frame"]
    assert len(orphans) == 1
    assert report.anomalies == []
    assert report.final_states == baseline.final_states


def test_snapshot_mid_handshake(tmp_path):
    result = synthesize(normal_startup_spec(1))
    path = tmp_path / "mid.pcap"
    path.write_bytes(result.pcap_bytes)
    stop_at = next(i for i, p in enumerate(result.frames) if "ccontrol request" in p.label)
    tracker = Tracker(TrackerConfig())
    for item in open_capture(path):
        if item.capture_index == stop_at:
            break
        tracker.process_frame(item)
    snapshot = tracker.report().final_states
    device = result.spec.devices[0]
    states = {d["mac"]: d["state"] for d in snapshot["devices"]}
    assert states[device.mac] == "EndOfParametrization"
    assert snapshot["connections"][0]["state"] == "ConnectionConfiguration"
    assert snapshot["devices"][0]["operation"] in ("Connection Establishment", "Asset Discovery & Neighbourhood Detection")


def test_pre_traffic_snapshot_only_system():
    tracker = Tracker(TrackerConfig())
    snapshot = tracker.report().final_states
    assert snapshot["system"]["state"] == "Inactive"
    assert snapshot["devices"] == []
    assert snapshot["connections"] == []


def test_alert_stream_json_round_trip(tmp_path):
    result = synthesize(rename_attack_spec())
    path = tmp_path / "stream.pcap"
    path.write_bytes(result.pcap_bytes)
    sink = io.StringIO()
    tracker = Tracker(TrackerConfig(alert_sink=sink))
    report = tracker.process(open_capture(path))
    lines = [line for line in sink.getvalue().splitlines() if line]
    assert len(lines) == len(report.alerts)
    assert [json.loads(line) for line in lines] == [alert.to_json() for alert in report.alerts]


def test_alerts_stream_as_they_occur(tmp_path):
    result = synthesize(rename_attack_spec())
    path = tmp_path / "live.pcap"
    path.write_bytes(result.pcap_bytes)
    attack_at = next(i for i, p in enumerate(result.frames) if p.label.startswith("attack"))
    sink = io.StringIO()
    tracker = Tracker(TrackerConfig(alert_sink=sink))
    for item in open_capture(path):
        tracker.process_frame(item)
        if item.capture_index == attack_at:
            break
    assert sink.getvalue().strip()  # emitted mid-capture, not at the end


def test_no_anomaly_run_streams_nothing(tmp_path):
    result = synthesize(normal_startup_spec(1))
    path = tmp_path / "clean.pcap"
    path.write_bytes(result.pcap_bytes)
    sink = io.StringIO()
    Tracker(TrackerConfig(alert_sink=sink)).process(open_capture(path))
    assert sink.getvalue() == ""


def test_two_attacks_in_frame_order(tmp_path):
    from dataclasses import replace
    from poet.synth import Injection, _position_after_cyclic_round

    spec = normal_startup_spec(2)
    position = _position_after_cyclic_round(spec, 2)
    spec = replace(
        spec,
        injections=(
            Injection(position, "rename", target="turntable-motor", new_name="ufo"),
            Injection(position + 10, "rogue_connect", target="lift-motor"),
        ),
    )
    result = synthesize(spec)
    _, report = run(result, tmp_path, "two")
    indices = [a.cause.capture_index for a in report.anomalies]
    assert indices == sorted(indices)
    events = {a.offending_event for a in report.anomalies}
    assert {"name_set_requested", "connect_requested"} <= events


@settings(max_examples=25, deadline=None)
@given(
    inserts=st.lists(
        st.tuples(st.integers(0, 1000), st.integers(0, 2), st.integers(1, 2)),
        max_size=8,
    )
)
def test_arbitrary_benign_lldp_interleaving_stays_clean(inserts):
    """Periodic LLDP may land anywhere in a clean startup without alerts."""
    from poet.dissect import DcpFrame, MalformedFrame, dissect
    from poet.synth import encode_lldp, _port_macs

    result = synthesize(normal_startup_spec(2))
    frames = [(p.ts, p.data) for p in result.frames]
    nodes = [result.spec.controller, *result.spec.devices]
    for position, node_index, port in sorted(inserts, reverse=True):
        node = nodes[node_index]
        port_mac = _port_macs(node_index, node, 2)[port - 1]
        refresh = encode_lldp(str_to_mac(node.mac), port_mac, 20, node.name)
        at = min(position, len(frames))
        ts = frames[min(at, len(frames) - 1)][0]
        frames.insert(at, (ts, refresh))
    pcap = write_pcap_bytes(frames)
    import os
    import tempfile

    with tempfile.NamedTemporaryFile(suffix=".pcap", delete=False) as f:
        f.write(pcap)
        path = f.name
    try:
        report = Tracker().process(open_capture(path))
    finally:
        os.unlink(path)
    assert report.anomalies == []


def test_determinism_bit_identical_reports(tmp_path):
    result = synthesize(normal_startup_spec(2, lldp_refresh_every=2))
    path = tmp_path / "det.pcap"
    path.write_bytes(result.pcap_bytes)
    first = Tracker(TrackerConfig()).process(open_capture(path)).dumps()
    second = Tracker(TrackerConfig()).process(open_capture(path)).dumps()
    assert first == second


def test_log_folding_matches_final_states(tmp_path):
    result = synthesize(rename_attack_spec())
    tracker, report = run(result, tmp_path)
    assert fold_log(system_fsm_table(), tracker.fleet.system.records()) == tracker.fleet.system.current_state
    device_table = device_fsm_table()
    for inst in tracker.fleet.devices.values():
        assert fold_log(device_table, inst.records()) == inst.current_state
    connection_table = connection_fsm_table()
    for inst in tracker.fleet.connections.values():
        assert fold_log(connection_table, inst.records()) == inst.current_state


def test_connection_lifecycle_counts(tmp_path):
    result = synthesize(rogue_connect_spec())
    tracker, report = run(result, tmp_path)
    # distinct (initiator, responder) pairs: 2 legitimate + 1 rogue
    assert len(report.final_states["connections"]) == 3


def test_alert_soundness_against_exported_tables(tmp_path):
    result = synthesize(rename_attack_spec())
    _, report = run(result, tmp_path)
    tables = {
        "device": device_fsm_table().export(),
        "connection": connection_fsm_table().export(),
        "system": system_fsm_table().export(),
    }
    for alert in report.anomalies:
        table = tables[alert.instance_kind]
        edges = {(e["from"], e["event"]) for e in table["edges"]}
        assert (alert.state_at_event, alert.offending_event) not in edges


def test_rename_unbinds_old_name(tmp_path):
    """After the rename lands, identify requests for the old name go unanswered."""
    from poet.synth import dcp_identify_request
    from poet.dissect import DcpFrame, MalformedFrame, dissect

    result = synthesize(rename_attack_spec())
    ctrl = str_to_mac(result.spec.controller.mac)
    frames = [(p.ts, p.data) for p in result.frames]
    frames.append((frames[-1][0], dcp_identify_request(ctrl, 0xBB, "turntable-motor")))
    path = tmp_path / "unbind.pcap"
    path.write_bytes(write_pcap_bytes(frames))
    tracker = Tracker(TrackerConfig())
    report = tracker.process(open_capture(path))
    # the trailing identify cannot resolve: downgraded to a diagnostic at end of capture
    assert any(
        a.offending_event == "deferred_identify_expired" and "turntable-motor" in a.explanation
        for a in report.diagnostics
    )
    # while an identify for the new name resolves immediately
    assert tracker.inventory.find_mac_by_name("ufo") is not None
    assert tracker.inventory.find_mac_by_name("turntable-motor") is None


def test_capture_error_becomes_diagnostic(tmp_path):
    result = synthesize(normal_startup_spec(1))
    path = tmp_path / "trunc.pcap"
    path.write_bytes(result.pcap_bytes[:-3])
    report = Tracker().process(open_capture(path))
    [error] = [a for a in report.diagnostics if a.offending_event == "capture_error"]
    assert report.anomalies == []
    # Stamped with the last frame read before the break, not (0, 0).
    assert error.cause.capture_index == len(result.frames) - 1
    assert error.timestamp == result.frames[-2].ts != (0, 0)


def test_unanswered_identify_expires_as_diagnostic(tmp_path):
    from poet.synth import dcp_identify_request
    from poet.dissect import DcpFrame, MalformedFrame, dissect

    ctrl = str_to_mac("02:00:00:00:01:00")
    frames = [((100, 0), dcp_identify_request(ctrl, 1, "ghost-device"))]
    path = tmp_path / "ghost.pcap"
    path.write_bytes(write_pcap_bytes(frames))
    report = Tracker().process(open_capture(path))
    assert any(a.offending_event == "deferred_identify_expired" for a in report.diagnostics)
    assert report.anomalies == []


def _refused_ip_set() -> list[RawFrame]:
    from poet.synth import dcp_set_ip_request, dcp_set_response

    ctrl, dev = str_to_mac("02:00:00:00:01:00"), str_to_mac("02:00:00:00:02:00")
    datas = [
        dcp_identify_request(ctrl, 1, "lift-motor"),
        dcp_identify_response(dev, ctrl, 1, "lift-motor"),
        dcp_set_ip_request(ctrl, dev, 2, "192.168.0.11", "255.255.255.0", "0.0.0.0"),
        dcp_set_response(dev, ctrl, 2, 1, 2, error=6),  # BlockError 6: set not possible in operation
    ]
    return [RawFrame(100, i, data, i) for i, data in enumerate(datas)]


def test_refused_ip_set_leaves_device_awaiting_assignment():
    report = Tracker().process(_refused_ip_set())
    device_states = {d["mac"]: d["state"] for d in report.final_states["devices"]}
    assert device_states["02:00:00:00:02:00"] == "IpAddressAssignment"
    assert report.anomalies == []
    assert [(a.instance_key, a.offending_event, a.cause.capture_index, a.explanation)
            for a in report.diagnostics] == [
        ("02:00:00:00:02:00", "dcp_set_refused", 3, "ip parameter set refused with block error 6"),
    ]


def test_expired_identifies_report_in_creation_order():
    """Requests that outlive the window expire oldest first, stamped by the frame that ages them out."""
    ctrl, dev = str_to_mac("02:00:00:00:01:00"), str_to_mac("02:00:00:00:02:00")
    tracker = Tracker(TrackerConfig())

    def feed(index, ts, data):
        tracker.process_frame(RawFrame(ts[0], ts[1], data, index))

    def expired():
        return [
            (a.cause.capture_index, a.timestamp)
            for a in tracker.alerts
            if a.offending_event == "deferred_identify_expired"
        ]

    feed(0, (100, 0), dcp_identify_request(ctrl, 1, "ghost-a"))
    feed(1, (100, 1), dcp_identify_request(ctrl, 2, "io-device"))
    feed(2, (100, 2), dcp_identify_request(ctrl, 3, "ghost-b"))
    feed(3, (100, 3), dcp_identify_response(dev, ctrl, 2, "io-device"))
    assert expired() == []
    feed(10_003, (200, 5), dcp_identify_request(ctrl, 4, "ghost-c"))
    assert expired() == [(0, (200, 5)), (2, (200, 5))]
    feed(10_004, (200, 6), dcp_identify_request(ctrl, 5, "ghost-d"))
    tracker.finish()
    assert expired() == [(0, (200, 5)), (2, (200, 5)), (10_003, (200, 6)), (10_004, (200, 6))]
    assert not any("io-device" in a.explanation for a in tracker.alerts)
    # the answered request was released to the device that answered
    assert [r.event for r in tracker.fleet.devices["02:00:00:00:02:00"].records()] == [
        "name_resolution_requested",
        "name_resolved",
    ]


def _expired(tracker: Tracker) -> list[tuple[int, tuple[int, int]]]:
    """Each expired request's capture index and the time it was stamped with."""
    return [
        (a.cause.capture_index, a.timestamp)
        for a in tracker.alerts
        if a.offending_event == "deferred_identify_expired"
    ]


_REQUESTER = str_to_mac("02:00:00:00:01:00")
_STATION = str_to_mac("02:00:00:00:02:00")
_STATION_LLDP = encode_lldp(_STATION, str_to_mac("06:00:00:00:02:00"), 20, "io-device")


@pytest.mark.parametrize("malformed", [False, True], ids=["well-formed", "malformed"])
def test_identify_request_expires_at_the_first_frame_past_its_window(malformed):
    tracker = Tracker()
    tracker.process_frame(RawFrame(100, 0, dcp_identify_request(_REQUESTER, 1, "ghost"), 7))
    tracker.process_frame(RawFrame(200, 0, _STATION_LLDP, 7 + DEFERRED_WINDOW))
    assert _expired(tracker) == []
    assert [d.name for d in tracker.deferred] == ["ghost"]
    last = malformed_frame("pn-dcp") if malformed else _STATION_LLDP
    tracker.process_frame(RawFrame(300, 5, last, 8 + DEFERRED_WINDOW))
    assert _expired(tracker) == [(7, (300, 5))]
    assert not tracker.deferred
    tracker.finish()
    assert _expired(tracker) == [(7, (300, 5))]


def test_answering_the_oldest_request_leaves_the_next_its_own_horizon():
    tracker = Tracker()
    tracker.process_frame(RawFrame(100, 0, dcp_identify_request(_REQUESTER, 1, "io-device"), 0))
    tracker.process_frame(RawFrame(100, 1, dcp_identify_request(_REQUESTER, 2, "ghost"), 2))
    tracker.process_frame(RawFrame(100, 2, dcp_identify_response(_STATION, _REQUESTER, 1, "io-device"), 3))
    # The answered request's horizon passes, then the pending one's is reached, then passed.
    for index in (1 + DEFERRED_WINDOW, 2 + DEFERRED_WINDOW):
        tracker.process_frame(RawFrame(200, index, _STATION_LLDP, index))
        assert _expired(tracker) == []
    tracker.process_frame(RawFrame(300, 0, _STATION_LLDP, 3 + DEFERRED_WINDOW))
    assert _expired(tracker) == [(2, (300, 0))]
    assert not tracker.deferred


def _held_ghost_requests() -> Tracker:
    """A tracker holding Identify requests for `ghost` at capture indices 1 and 3, for `other` at 2."""
    tracker = Tracker()
    for index, name in ((1, "ghost"), (2, "other"), (3, "ghost")):
        tracker.process_frame(RawFrame(100, index, dcp_identify_request(_REQUESTER, index, name), index))
    return tracker


def test_an_answer_replays_every_request_held_for_its_name_in_capture_order():
    tracker = _held_ghost_requests()
    tracker.process_frame(RawFrame(100, 4, dcp_identify_response(_STATION, _REQUESTER, 1, "ghost"), 4))
    # Each replayed request keeps its own request's cause, and a retried request is accepted.
    assert [(r.event, r.cause, r.verdict) for r in tracker.fleet.devices["02:00:00:00:02:00"].records()] == [
        ("name_resolution_requested", FrameRef(1, "pn-dcp", "dcp identify request for 'ghost'"), "accepted"),
        ("name_resolution_requested", FrameRef(3, "pn-dcp", "dcp identify request for 'ghost'"), "accepted"),
        ("name_resolved", FrameRef(4, "pn-dcp", "dcp identify response from 'ghost'"), "accepted"),
    ]
    assert [d.name for d in tracker.deferred] == ["other"]


def test_a_retried_identify_request_for_a_known_station_is_no_anomaly():
    tracker = Tracker()
    datas = [
        _STATION_LLDP,
        dcp_identify_request(_REQUESTER, 1, "io-device"),
        dcp_identify_request(_REQUESTER, 2, "io-device"),
        dcp_identify_response(_STATION, _REQUESTER, 2, "io-device"),
    ]
    for index, data in enumerate(datas):
        tracker.process_frame(RawFrame(100, index, data, index))
    assert tracker.alerts == []
    assert [r.event for r in tracker.fleet.devices["02:00:00:00:02:00"].records()] == [
        "detect_neighbours",
        "name_resolution_requested",
        "name_resolution_requested",
        "name_resolved",
    ]
    assert tracker.fleet.devices["02:00:00:00:02:00"].current_state == "NameResolved"


def test_a_second_gratuitous_arp_announcement_is_no_anomaly():
    from poet.synth import dcp_set_ip_request, dcp_set_response, encode_arp

    announce = encode_arp(_STATION, b"\xff" * 6, 1, _STATION, "192.168.0.11", b"\x00" * 6, "192.168.0.11")
    datas = [
        _STATION_LLDP,
        dcp_set_ip_request(_REQUESTER, _STATION, 1, "192.168.0.11", "255.255.255.0", "0.0.0.0"),
        dcp_set_response(_STATION, _REQUESTER, 1, 1, 2),
        announce,
        announce,
    ]
    tracker = Tracker()
    for index, data in enumerate(datas):
        tracker.process_frame(RawFrame(100, index, data, index))
    assert tracker.alerts == []
    assert [r.event for r in tracker.fleet.devices["02:00:00:00:02:00"].records()] == [
        "detect_neighbours",
        "ip_assignment_requested",
        "ip_assigned",
        "duplication_check",
        "duplication_check",
    ]
    assert tracker.fleet.devices["02:00:00:00:02:00"].current_state == "IpDuplicationCheck"


def test_unanswered_requests_for_one_name_expire_each_at_its_own_horizon():
    tracker = _held_ghost_requests()
    tracker.process_frame(RawFrame(200, 1, _STATION_LLDP, 1 + DEFERRED_WINDOW))
    assert _expired(tracker) == []
    tracker.process_frame(RawFrame(200, 2, _STATION_LLDP, 2 + DEFERRED_WINDOW))
    assert _expired(tracker) == [(1, (200, 2))]
    tracker.process_frame(RawFrame(200, 3, _STATION_LLDP, 3 + DEFERRED_WINDOW))
    assert _expired(tracker) == [(1, (200, 2)), (2, (200, 3))]
    assert [d.name for d in tracker.deferred] == ["ghost"]
    tracker.process_frame(RawFrame(200, 4, _STATION_LLDP, 4 + DEFERRED_WINDOW))
    assert _expired(tracker) == [(1, (200, 2)), (2, (200, 3)), (3, (200, 4))]
    assert not tracker.deferred


def test_a_hello_from_a_new_station_creates_its_device_and_wakes_nothing():
    hello = encode_dcp(
        _STATION, str_to_mac("01:0e:cf:00:00:01"), DCP_FRAME_ID_MIN, DCP_SERVICE_HELLO, DCP_TYPE_REQUEST, 1,
        _dcp_block(2, 2, 0, b"io-device"),
    )
    tracker = Tracker()
    tracker.process_frame(RawFrame(100, 0, hello, 0))
    assert tracker.fleet.system.current_state == "Inactive"
    assert tracker.fleet.devices["02:00:00:00:02:00"].current_state == "Active"
    assert tracker.alerts == []


def test_a_capture_shorter_than_the_window_enters_expiry_once(monkeypatch):
    """Only finish() looks at the pending requests when none can expire before it."""
    calls = []
    expire = Tracker._expire_deferred

    def counted(self, current_index=None):
        calls.append(current_index)
        return expire(self, current_index)

    monkeypatch.setattr(Tracker, "_expire_deferred", counted)
    frames = [RawFrame(100 + i, 0, data, i) for i, data in enumerate(_identify_heavy())]
    report = Tracker().process(frames)
    assert calls == [None]
    assert sum(a.offending_event == "deferred_identify_expired" for a in report.diagnostics) == 30


def test_discovery_traffic_wakes_the_system_once():
    """40 LLDP stations and 60 Identify requests: one system transition, the wake-up."""
    tracker = Tracker()
    tracker.process([RawFrame(100 + i, 0, data, i) for i, data in enumerate(_identify_heavy(40, 60))])
    system = tracker.fleet.system
    assert system.transitions == 1
    assert [(r.from_state, r.event, r.to_state, r.cause.capture_index) for r in system.records()] == [
        ("Inactive", PN_TRAFFIC_DETECTED, "PoweredOn", 0)
    ]


def _identify_flood(n: int) -> list[RawFrame]:
    """n LLDP stations, then n Identify requests for their names and n for unknown names."""
    datas = []
    for i in range(n):
        chassis = bytes([0x02, 0, 0, 0]) + i.to_bytes(2, "big")
        port = bytes([0x06, 0, 0, 0]) + i.to_bytes(2, "big")
        datas.append(encode_lldp(chassis, port, 20, f"st-{i:05d}"))
    requester = str_to_mac("02:66:6e:00:00:99")
    for i in range(n):
        datas.append(dcp_identify_request(requester, 2 * i + 1, f"st-{i:05d}"))
        datas.append(dcp_identify_request(requester, 2 * i + 2, f"ghost-{i:05d}"))
    return [RawFrame(100 + i // 1000, i % 1000, data, i) for i, data in enumerate(datas)]


def _poet_line_events(frames: list[RawFrame]) -> int:
    """Line events executed in poet's own modules while one tracker processes frames."""
    package = os.path.dirname(poet.__file__)
    count = 0

    def in_poet(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return in_poet

    def on_call(frame, event, arg):
        return in_poet if frame.f_code.co_filename.startswith(package) else None

    tracker = Tracker(TrackerConfig())
    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        tracker.process(frames)
    finally:
        sys.settrace(previous)
    return count


def test_identify_flood_cost_grows_linearly():
    """Per-frame work must not grow with pending requests or inventory records."""
    small = _poet_line_events(_identify_flood(100))
    large = _poet_line_events(_identify_flood(400))
    # 4x the frames: linear work gives about 4x the line events, quadratic work about 16x.
    assert large < 5 * small, (small, large)


def _named_response_flood(n: int) -> list[RawFrame]:
    """n Identify requests nobody answers yet, then n named responses: every other one answers."""
    requester = str_to_mac("02:66:6e:00:00:99")
    datas = [dcp_identify_request(requester, i + 1, f"ghost-{i:05d}") for i in range(n)]
    for i in range(n):
        station = bytes([0x02, 0, 0, 0]) + i.to_bytes(2, "big")
        name = f"ghost-{i:05d}" if i % 2 else f"st-{i:05d}"
        datas.append(dcp_identify_response(station, requester, i + 1, name))
    return [RawFrame(100 + i // 1000, i % 1000, data, i) for i, data in enumerate(datas)]


def test_named_response_flood_cost_grows_linearly():
    """A named response must not scan the pending requests, whether or not it answers one."""
    small = _poet_line_events(_named_response_flood(100))
    large = _poet_line_events(_named_response_flood(400))
    assert large < 5 * small, (small, large)


@cache
def _builtin_frames(name: str) -> tuple[bytes, ...]:
    return tuple(plan.data for plan in synthesize(builtin_scenario(name)).frames)


@cache
def _fuzz_frames() -> tuple[bytes, ...]:
    return tuple(fuzz_corpus(seed=11, count=200))


@settings(max_examples=60, deadline=None)
@given(
    scenario=st.sampled_from(sorted(BUILTIN_SCENARIOS)),
    start=st.integers(0, 200),
    length=st.integers(0, 200),
    inserts=st.lists(st.tuples(st.integers(0, 300), st.integers(0, 199)), max_size=20),
    picks=st.lists(st.integers(0, 10_000), max_size=20),
)
def test_tracker_invariants_on_mixed_frame_sequences(scenario, start, length, inserts, picks):
    """Builtin-scenario slices with fuzz frames and out-of-order scenario frames mixed in."""
    pool = _builtin_frames(scenario)
    start %= len(pool)
    datas = list(pool[start : start + length])
    for position, fuzz_index in inserts:
        datas.insert(min(position, len(datas)), _fuzz_frames()[fuzz_index])
    for pick in picks:
        datas.insert(pick % (len(datas) + 1), pool[pick % len(pool)])
    frames = [RawFrame(100 + i, 0, data, i) for i, data in enumerate(datas)]

    tracker = Tracker(TrackerConfig())
    with eager_logs() as logs:
        report = tracker.process(frames)  # never raises

    fleet = tracker.fleet
    instances = [fleet.system, *fleet.devices.values(), *fleet.connections.values()]
    for instance in instances:
        _assert_log_consistent(instance, logs.get(instance, EagerLog()))
    rejected = Counter(
        (i.definition.name, i.instance_key, r.cause.capture_index, r.event, r.from_state)
        for i in instances
        for r in i.records()
        if r.verdict == "rejected"
    )
    alerted = Counter(
        (a.instance_kind, a.instance_key, a.cause.capture_index, a.offending_event, a.state_at_event)
        for a in report.anomalies
    )
    assert alerted == rejected
    assert report.dumps() == _oracle_dumps(report)


def _assert_log_consistent(instance: FsmInstance, reference: EagerLog) -> None:
    """The records read as `reference`, the log built eagerly from the same fires; the kept
    records chain to the current state, and the counters account for every event."""
    records = instance.records()
    tallies = instance.edge_tallies()
    assert reference.transitions == instance.transitions
    assert records == reference.records()
    assert [tally.to_json() for tally in tallies] == reference.edge_tallies()
    if instance.transitions <= LOG_WINDOW:
        assert fold_log(instance.definition, records) == instance.current_state
    window = list(reference.window)
    assert records[len(records) - len(window) :] == window
    state = window[0].from_state if window else instance.definition.initial_state
    for record in window:
        assert record.from_state == state
        if record.verdict == "accepted":
            state = record.to_state
    assert state == instance.current_state
    assert len(window) == min(instance.transitions, LOG_WINDOW)
    for (from_state, event), (_, first, last) in reference.edges.items():
        assert (first.from_state, first.event, first.to_state) == (from_state, event, last.to_state)
        assert (last.from_state, last.event) == (from_state, event)
    accepted = sum(count for count, _, _ in reference.edges.values())
    assert accepted + len(instance.rejected) == instance.transitions


def test_log_keeps_a_window_past_log_window_events(tmp_path):
    """Cyclic traffic past LOG_WINDOW events: the logs keep the last LOG_WINDOW, the edges count all."""
    with eager_logs() as logs:
        tracker, report = run(synthesize(normal_startup_spec(1, cyclic_rounds=200)), tmp_path)
    fleet = tracker.fleet
    instances = [fleet.system, *fleet.devices.values(), *fleet.connections.values()]
    for instance in instances:
        _assert_log_consistent(instance, logs.get(instance, EagerLog()))
    assert sum(i.transitions for i in instances) == report.summary["transitions"]

    [(key, connection)] = fleet.connections.items()
    assert connection.transitions > 2 * LOG_WINDOW
    log = report.logs["connections"][key]
    assert log == [record.to_json() for record in logs[connection].window]
    assert len(log) == LOG_WINDOW
    edges = report.edges["connections"][key]
    assert sum(edge["count"] for edge in edges) == connection.transitions
    assert edges[0]["first"]["from_state"] == connection.definition.initial_state
    assert log[-1] in [edge["last"] for edge in edges]


def test_tracker_memory_does_not_grow_with_cyclic_rounds():
    """The tracker's peak traced memory at 4,000 cyclic rounds is that of 1,000, plus a constant."""

    def peak(rounds: int) -> int:
        plans = synthesize(normal_startup_spec(1, cyclic_rounds=rounds)).frames
        frames = [RawFrame(p.ts[0], p.ts[1], p.data, p.index) for p in plans]
        tracemalloc.start()
        try:
            Tracker(TrackerConfig()).process(frames)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4000) <= peak(1000) + 64 * 1024


def _oracle_dumps(report: TrackerReport) -> str:
    """The report through the stdlib's indenting encoder, which dumps() must match byte for byte."""
    return json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n"


def test_dumps_matches_json_on_hostile_strings():
    hostile = 'caf\u00e9 "q" back\\slash \x00\x1f\x7f tab\t nl\n \ud800 % %s \u2603'
    cause = FrameRef(7, hostile, hostile)
    tracker = Tracker(TrackerConfig(system_name=hostile))
    fleet = tracker.fleet
    device = fleet.ensure("device", hostile)
    device.fire("name_set_requested", cause, (1, 2), 7)  # rejected in the initial state: to_state null
    # Past LOG_WINDOW events the edges are written too, so hostile strings reach them.
    for second in range(LOG_WINDOW):
        device.fire("detect_neighbours", cause, (3 + second, 4), 7)
    assert [r.verdict for r in device.records()[:2]] == ["rejected", "accepted"]
    assert len(device.edge_tallies()) == 2
    # A shared cause is written at its firing frame's index, accepted or rejected.
    shared = fleet.ensure("device", "\u00e9")
    shared.fire("detect_neighbours", SharedCause(hostile, hostile), (9, 9), 2**64)
    shared.fire("name_set_requested", SharedCause(hostile, hostile), (9, 10), 8)
    assert [r.cause.capture_index for r in shared.records()] == [2**64, 8]
    fleet.ensure("device", "").fire("detect_neighbours", cause, (5, 6), 7)
    fleet.ensure("connection", hostile).fire("application_ready", cause, (7, 8), 7)  # rejected
    alert = AnomalyAlert((5, 6), "device", hostile, hostile, hostile, cause, hostile, "anomaly")
    fleet.on_alert(alert)
    fleet.on_alert(alert)
    records = tracker.inventory.records
    records[hostile] = AssetRecord(
        hostile, hostile, {hostile, "\u00e9", ""}, hostile, hostile, hostile, 2**64, 0, hostile,
        (2**64, 1), (3, 2**64), {hostile: Provenance(hostile, 2**64, True), "role": Provenance("pn-dcp", 0)},
    )
    records["02:00:00:00:00:01"] = AssetRecord("02:00:00:00:00:01")  # every optional field null

    report = tracker.report()
    report.summary[hostile] = 1.5
    assert report.dumps() == _oracle_dumps(report)
    assert dumps_inventory(report.assets) == json.dumps(report.inventory, sort_keys=True, indent=2) + "\n"
    empty = Tracker().report()
    assert empty.dumps() == _oracle_dumps(empty)


_HOSTILE_TEXT = st.lists(
    st.one_of(
        st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", "%", "%s", "%r", "\u00e9", "\u2603"]),
        st.characters(categories=["Cs"]),  # lone surrogates
        st.characters(),
    ),
    max_size=8,
).map("".join)
_COUNT = st.integers(min_value=0, max_value=2**64)


@given(
    ts=st.tuples(_COUNT, _COUNT),
    index=_COUNT,
    texts=st.lists(_HOSTILE_TEXT, min_size=8, max_size=8),
)
def test_streamed_alert_line_is_json_dumps_exact(ts, index, texts):
    kind, key, state, event, protocol, summary, explanation, severity = texts
    alert = AnomalyAlert(ts, kind, key, state, event, FrameRef(index, protocol, summary), explanation, severity)
    sink = io.StringIO()
    Tracker(TrackerConfig(alert_sink=sink)).fleet.on_alert(alert)
    assert sink.getvalue() == json.dumps(alert.to_json(), sort_keys=True) + "\n"
    tracker = Tracker()
    report = TrackerReport(tracker.report().summary, [alert, alert], tracker.fleet, [])
    assert report.dumps() == _oracle_dumps(report)


_MAYBE_TEXT = st.none() | _HOSTILE_TEXT
_MAYBE_COUNT = st.none() | _COUNT
_ASSET = st.builds(
    AssetRecord,
    interface_mac=_HOSTILE_TEXT,
    name_of_station=_MAYBE_TEXT,
    port_macs=st.sets(_HOSTILE_TEXT, max_size=6),
    ip_address=_MAYBE_TEXT,
    subnet=_MAYBE_TEXT,
    gateway=_MAYBE_TEXT,
    vendor_id=_MAYBE_COUNT,
    device_id=_MAYBE_COUNT,
    role=_HOSTILE_TEXT,
    first_seen=st.tuples(_COUNT, _COUNT),
    last_seen=st.tuples(_COUNT, _COUNT),
    provenance=st.dictionaries(
        st.sampled_from(
            ["name_of_station", "port_macs", "ip_address", "subnet", "gateway", "vendor_id", "device_id", "role"]
        ),
        st.builds(Provenance, _HOSTILE_TEXT, _COUNT, st.booleans()),
    ),
)


@given(assets=st.lists(_ASSET, max_size=4, unique_by=lambda record: record.interface_mac))
def test_inventory_is_written_as_json_dumps_writes_it(assets):
    """The inventory writer, at `poet inventory` depth and at report depth, against the stdlib."""
    inventory = AssetInventory()
    for record in assets:
        inventory.records[record.interface_mac] = record
    records = [inventory.records[mac] for mac in sorted(inventory.records)]
    document = {"assets": [record.to_json() for record in records]}
    assert dumps_inventory(records) == json.dumps(document, sort_keys=True, indent=2) + "\n"
    tracker = Tracker()
    report = TrackerReport(tracker.report().summary, [], tracker.fleet, records)
    assert report.dumps() == _oracle_dumps(report)


def test_dumps_peak_memory_is_bounded_by_its_output(tmp_path):
    """Building the text holds about one copy of it besides the result, not millions of pieces."""
    _, report = run(synthesize(normal_startup_spec(2, cyclic_rounds=500)), tmp_path)
    tracemalloc.start()
    try:
        text = report.dumps()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * len(text)


def test_report_reads_the_trackers_own_records():
    """Taking the report copies no instance and no record, so it keeps far less than 1 KB per station."""
    tracker = Tracker()
    for index in range(1000):
        # Encoded as perfbench's identify-flood encodes its spoofed stations.
        chassis = bytes([0x02, 0x10, 0x00, 0x00, index >> 8, index & 0xFF])
        port = bytes([0x06]) + chassis[1:]
        data = encode_lldp(chassis, port, ttl=20, station_name=f"st-{index:05d}")
        tracker.process_frame(RawFrame(1_000 + index // 1000, index % 1000 * 1_000_000, data, index))
    tracker.finish()
    assert len(tracker.inventory) == len(tracker.fleet.devices) == 1000

    tracemalloc.start()
    try:
        report = tracker.report()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 64 * 1024
    records = tracker.inventory.records
    assert [asset.interface_mac for asset in report.assets] == sorted(records)
    assert all(asset is records[asset.interface_mac] for asset in report.assets)


def _logged_events(report, group: str, key: str) -> set[str]:
    return {record["event"] for record in report.logs[group][key]}


def test_inconsistent_connect_is_one_device_diagnostic(tmp_path):
    """A Connect whose IOCR data length contradicts its submodules binds its CRs without specs."""
    result = synthesize(normal_startup_spec(1))
    device = result.spec.devices[0]
    length = cr_data_length("input", device.submodules)
    declared = iocr_block_request(1, 1, length, 0x8001)
    (connect,) = [plan for plan in result.frames if plan.label.startswith("pn-cm connect request")]
    assert connect.data.count(declared) == 1
    contradicting = connect.data.replace(declared, iocr_block_request(1, 1, length + 1, 0x8001))
    frames = [
        RawFrame(*plan.ts, contradicting if plan is connect else plan.data, plan.index)
        for plan in result.frames
    ]
    key = next(iter(result.manifest["expected"]["final_states"]["connections"]))

    intact = Tracker().process(RawFrame(*p.ts, p.data, p.index) for p in result.frames)
    assert "cyclic_data_good" in _logged_events(intact, "devices", device.mac)
    report = Tracker().process(frames)
    (diag,) = report.diagnostics
    assert (diag.offending_event, diag.instance_kind, diag.instance_key) == (
        "inconsistent_connect",
        "device",
        device.mac,
    )
    assert diag.cause.capture_index == connect.index
    assert "cyclic_data_good" not in _logged_events(report, "devices", device.mac)
    connection_events = _logged_events(report, "connections", key)
    assert not connection_events & {"input_process_data_sent", "output_process_data_sent"}


def test_lldp_ttl_zero_is_one_system_diagnostic():
    frame = encode_lldp(str_to_mac("02:00:00:00:02:00"), str_to_mac("02:70:01:01:02:00"), 0, "lift-motor")
    report = Tracker().process([RawFrame(1, 0, frame, 0)])
    (diag,) = report.diagnostics
    assert (diag.offending_event, diag.instance_kind, diag.instance_key) == (
        "protocol_rule_violation",
        "system",
        "poet-system",
    )
    assert (diag.cause.protocol, diag.cause.summary) == ("lldp", "ttl-zero")
    assert report.anomalies == []


@pytest.mark.parametrize(
    "chassis_id",
    [
        pytest.param(bytes([7]) + b"plc-7", id="locally-assigned"),
        pytest.param(bytes([4]) + str_to_mac("02:00:00:00:02:00")[:5], id="mac-subtype-5-bytes"),
        pytest.param(bytes([4]) + str_to_mac("02:00:00:00:02:00") + b"\x00", id="mac-subtype-7-bytes"),
    ],
)
def test_lldp_subject_falls_back_to_source_mac(chassis_id):
    """Without a 6-byte MAC chassis id, an LLDP frame speaks for its Ethernet source."""
    from poet.synth import _lldp_tlv

    source = "02:70:01:01:02:00"
    tlvs = (
        _lldp_tlv(1, chassis_id)
        + _lldp_tlv(2, bytes([5]) + b"port-001")  # interface-name subtype: no port MAC
        + _lldp_tlv(3, b"\x00\x14")
        + _lldp_tlv(5, b"lift-motor")
        + _lldp_tlv(0, b"")
    )
    frame = ethernet(str_to_mac("01:80:c2:00:00:0e"), str_to_mac(source), 0x88CC, tlvs)
    tracker = Tracker()
    report = tracker.process([RawFrame(1, 0, frame, 0)])

    assert [record.interface_mac for record in tracker.inventory.records.values()] == [source]
    record = tracker.inventory.get(source)
    assert record.name_of_station == "lift-motor"
    assert record.port_macs == set()
    assert list(tracker.fleet.devices) == [source]
    assert _logged_events(report, "devices", source) == {"detect_neighbours"}
    assert report.alerts == []


def _reported_with_chassis_name_lldp(named_station: bool):
    """Reports of a one-device startup as synthesized and with each LLDP frame named by its chassis id.

    With `named_station` the port id is named too (port-001.<name>), and there is no System Name.
    """
    from poet.dissect import dissect

    plans = synthesize(normal_startup_spec(1)).frames
    mac_subtype, named = [], []
    for plan in plans:
        frame = RawFrame(plan.ts[0], plan.ts[1], plan.data, plan.index)
        mac_subtype.append(frame)
        if plan.label.startswith("lldp "):
            body = dissect(frame)
            data = encode_lldp(
                str_to_mac(body.subject_mac),
                str_to_mac(body.port_mac),
                20,
                None if named_station else body.station_name,
                management_ip=body.management_address,
                chassis_name=body.station_name,
                port_name=body.station_name if named_station else None,
            )
            assert data != plan.data
            frame = RawFrame(plan.ts[0], plan.ts[1], data, plan.index)
        named.append(frame)
    return Tracker().process(mac_subtype), Tracker().process(named)


def test_lldp_with_chassis_name_and_pno_chassis_mac_tracks_like_mac_subtype():
    """Stations that send LLDP from their port MACs with a name chassis id reach the DCP/PN-CM device."""
    baseline, report = _reported_with_chassis_name_lldp(named_station=False)
    assert report.final_states == baseline.final_states
    assert [a.to_json() for a in report.alerts] == [a.to_json() for a in baseline.alerts]


def test_lldp_named_station_without_system_name_tracks_like_mac_subtype():
    """A station's name comes from its chassis id and its port MAC from the frame's source."""
    baseline, report = _reported_with_chassis_name_lldp(named_station=True)
    assert report.inventory == baseline.inventory
    assert report.final_states == baseline.final_states
    assert [a.to_json() for a in report.alerts] == [a.to_json() for a in baseline.alerts]


def _identify_heavy(stations: int = 40, requests: int = 60) -> list[bytes]:
    """LLDP stations, then Identify requests for known and unknown names, as identify-flood sends them."""
    datas = []
    for i in range(stations):
        chassis = bytes([0x02, 0, 0, 0x10, 0, i])
        datas.append(encode_lldp(chassis, bytes([0x06]) + chassis[1:], 20, f"st-{i:03d}"))
    requester = str_to_mac(ATTACKER_MAC)
    for xid in range(requests):
        name = f"st-{xid * 7 % stations:03d}" if xid % 2 else f"ghost-{xid:03d}"
        datas.append(dcp_identify_request(requester, xid, name))
    return datas


def test_each_seam_runs_once_per_frame_or_event(tmp_path, monkeypatch):
    """dissect once per frame, update and derive once per well-formed frame, fire once per
    transition, and one name lookup per named Identify request.

    The counting wrappers go where perfbench's traced mode puts its own: on the
    names the tracker calls through, installed after the Tracker is built, so a
    call that bypasses them, or a seam method bound at construction, would show.
    The cyclic-heavy run takes the resolved path of bound CRs on most frames; the
    identify-heavy run looks up a name on most frames.
    """
    captures = {
        name: [plan.data for plan in synthesize(builtin_scenario(name)).frames]
        for name in ("rogue-connect", "malformed-dcp")
    }
    captures["cyclic"] = [plan.data for plan in synthesize(normal_startup_spec(2, cyclic_rounds=200)).frames]
    captures["identify"] = _identify_heavy()
    counts: Counter[str] = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name, datas in captures.items():
        path = tmp_path / f"{name}.pcap"
        path.write_bytes(write_pcap_bytes([((100 + i, 0), data) for i, data in enumerate(datas)]))
        named_requests = cyclic = 0
        for index, data in enumerate(datas):
            try:
                parsed = dissect(RawFrame(0, 0, data, index))
            except MalformedFrame:
                continue
            cyclic += parsed.protocol == "pnio"
            if isinstance(parsed, DcpFrame) and parsed.service_id == "Identify":
                named_requests += parsed.service_type == "Request" and bool(parsed.name_of_station)
        counts.clear()
        tracker = Tracker()
        with monkeypatch.context() as patched:
            patched.setattr(poet.tracker, "dissect", counted("dissect", poet.tracker.dissect))
            patched.setattr(poet.tracker, "derive_events", counted("derive", poet.tracker.derive_events))
            for seam, method in (("update", "update_from_frame"), ("lookup", "find_mac_by_name")):
                patched.setattr(AssetInventory, method, counted(seam, getattr(AssetInventory, method)))
            patched.setattr(FsmInstance, "fire", counted("fire", FsmInstance.fire))
            report = tracker.process(open_capture(path))
        frames = report.summary["frames"]
        malformed = sum(a.offending_event == "malformed_frame" for a in report.diagnostics)
        assert frames == len(datas)
        assert counts["dissect"] == frames
        assert counts["update"] == counts["derive"] == frames - malformed
        assert counts["fire"] == report.summary["transitions"]
        assert counts["lookup"] == named_requests
        if name == "malformed-dcp":
            assert malformed > 0
        elif name == "rogue-connect":
            assert report.anomalies
        elif name == "cyclic":
            # Each good cyclic frame fires its CR's device and connection once each.
            assert cyclic == 2 * 2 * 200
            assert not report.alerts
            assert counts["fire"] >= 2 * cyclic
        else:
            assert named_requests == 60
            expired = [a for a in report.diagnostics if a.offending_event == "deferred_identify_expired"]
            assert len(expired) == 30  # the ghosts; each known name resolves on lookup


def _subclasses(cls: type) -> list[type]:
    return [cls] + [sub for direct in cls.__subclasses__() for sub in _subclasses(direct)]


@pytest.mark.parametrize(
    "record",
    [
        RawFrame,
        *_subclasses(ParsedFrame),
        FrameRef,
        ProtocolEvent,
        DerivedEvents,
        TransitionRecord,
        InventoryChange,
        DeferredEvent,
        TrackDiagnostic,
        AnomalyAlert,
    ],
    ids=lambda record: record.__name__,
)
def test_per_frame_records_have_slots_and_are_not_frozen(record):
    """A frozen record's __init__ sets each field through object.__setattr__, several
    times the cost of a plain one, and these records are built for every frame."""
    assert "__slots__" in vars(record)
    assert record.__setattr__ is object.__setattr__


@cache
def _startup_plans() -> tuple:
    return tuple(synthesize(normal_startup_spec(1)).frames)


def _replayed(count: int, *extra: bytes) -> list[RawFrame]:
    """The first `count` frames of a one-device startup, then `extra` at the same spacing."""
    plans = _startup_plans()
    datas = [plan.data for plan in plans[:count]] + list(extra)
    return [RawFrame(*plans[index].ts, data, index) for index, data in enumerate(datas)]


def _connect_from(source: str, ar_uuid=None) -> bytes:
    """The startup's Connect request sent from `source`, optionally for another AR."""
    from poet.synth import _ar_uuid

    data = _startup_plans()[10].data
    assert _startup_plans()[10].label.startswith("pn-cm connect request")
    data = data[:6] + str_to_mac(source) + data[12:]
    if ar_uuid is not None:
        live_ar = _ar_uuid(normal_startup_spec(1).seed, 0)
        assert data.count(live_ar.bytes) == 1
        data = data.replace(live_ar.bytes, ar_uuid.bytes)
    return data


def _inconsistent_connect() -> list[RawFrame]:
    device = normal_startup_spec(1).devices[0]
    length = cr_data_length("input", device.submodules)
    declared = iocr_block_request(1, 1, length, 0x8001)
    connect = _startup_plans()[10].data
    return _replayed(10, connect.replace(declared, iocr_block_request(1, 1, length + 1, 0x8001)))


def _unanswered_identifies() -> list[RawFrame]:
    ctrl = str_to_mac("02:00:00:00:01:00")
    return [
        RawFrame(100, 0, dcp_identify_request(ctrl, 1, "ghost-a"), 0),
        RawFrame(200, 5, dcp_identify_request(ctrl, 2, "ghost-b"), 10_001),
    ]


def _diagnostic_cases():
    import uuid

    from poet.capture import CaptureError

    ttl_zero = encode_lldp(str_to_mac("02:00:00:00:02:00"), str_to_mac("02:70:01:01:02:00"), 0, "lift-motor")
    return {
        "protocol_rule_violation": lambda: [RawFrame(1, 0, ttl_zero, 0)],
        "ar_uuid_conflict": lambda: _replayed(11, _connect_from("02:66:6e:00:00:99")),
        "frame_id_conflict": lambda: _replayed(
            11, _connect_from("02:66:6e:00:00:99", uuid.uuid5(uuid.NAMESPACE_OID, "other-ar"))
        ),
        "deferred_identify_expired": _unanswered_identifies,
        "capture_error-before-any-frame": lambda: [CaptureError(24, 0, "truncated record header")],
        "capture_error": lambda: [RawFrame(1, 0, ttl_zero, 0), CaptureError(100, 1, "truncated record")],
        "dcp_set_refused": _refused_ip_set,
        "inconsistent_connect": _inconsistent_connect,
        "orphan_frame-pn-cm": lambda: _replayed(10, _startup_plans()[12].data),
        "orphan_frame-pnio": lambda: _replayed(10, _startup_plans()[20].data),
    }


def _diagnostic_lines(case: str) -> list[str]:
    """The streamed alert lines of one case's run that carry its diagnostic kind."""
    kind = case.split("-")[0]
    sink = io.StringIO()
    Tracker(TrackerConfig(alert_sink=sink)).process(_diagnostic_cases()[case]())
    return [line for line in sink.getvalue().splitlines() if f'"offending_event": "{kind}"' in line]


# One streamed line for every diagnostic the builtin goldens do not reach, at
# each place the tracker raises it.
_DIAGNOSTIC_LINES = {
    "protocol_rule_violation": [
        '{"cause": {"capture_index": 0, "protocol": "lldp", "summary": "ttl-zero"}, '
        '"explanation": "lldp rule violation: ttl-zero", "instance_key": "poet-system", '
        '"instance_kind": "system", "offending_event": "protocol_rule_violation", '
        '"severity": "diagnostic", "state_at_event": "Inactive", "timestamp": [1, 0]}',
    ],
    "ar_uuid_conflict": [
        '{"cause": {"capture_index": 11, "protocol": "pn-cm", "summary": "connect request"}, '
        '"explanation": "AR 527e9f59-79ea-5661-80cf-a16512d7a62e is held by connection 020000000100-020000000200", '
        '"instance_key": "02:00:00:00:02:00", "instance_kind": "device", '
        '"offending_event": "ar_uuid_conflict", "severity": "diagnostic", '
        '"state_at_event": "NewConnectionInitiated", "timestamp": [1700000000, 330000000]}',
    ],
    "frame_id_conflict": [
        '{"cause": {"capture_index": 11, "protocol": "pn-cm", "summary": "connect request"}, '
        '"explanation": "frame id 0x8001 is held by connection 020000000100-020000000200", '
        '"instance_key": "02:00:00:00:02:00", "instance_kind": "device", '
        '"offending_event": "frame_id_conflict", "severity": "diagnostic", '
        '"state_at_event": "NewConnectionInitiated", "timestamp": [1700000000, 330000000]}',
        '{"cause": {"capture_index": 11, "protocol": "pn-cm", "summary": "connect request"}, '
        '"explanation": "frame id 0x8002 is held by connection 020000000100-020000000200", '
        '"instance_key": "02:00:00:00:02:00", "instance_kind": "device", '
        '"offending_event": "frame_id_conflict", "severity": "diagnostic", '
        '"state_at_event": "NewConnectionInitiated", "timestamp": [1700000000, 330000000]}',
    ],
    "deferred_identify_expired": [
        '{"cause": {"capture_index": 0, "protocol": "pn-dcp", '
        '"summary": "dcp identify request for \'ghost-a\'"}, '
        '"explanation": "identify request for \'ghost-a\' never answered", '
        '"instance_key": "poet-system", "instance_kind": "system", '
        '"offending_event": "deferred_identify_expired", "severity": "diagnostic", '
        '"state_at_event": "PoweredOn", "timestamp": [200, 5]}',
        '{"cause": {"capture_index": 10001, "protocol": "pn-dcp", '
        '"summary": "dcp identify request for \'ghost-b\'"}, '
        '"explanation": "identify request for \'ghost-b\' never answered", '
        '"instance_key": "poet-system", "instance_kind": "system", '
        '"offending_event": "deferred_identify_expired", "severity": "diagnostic", '
        '"state_at_event": "PoweredOn", "timestamp": [200, 5]}',
    ],
    "capture_error-before-any-frame": [
        '{"cause": {"capture_index": 0, "protocol": "capture", '
        '"summary": "truncated record header"}, '
        '"explanation": "capture error at byte 24: truncated record header", '
        '"instance_key": "poet-system", "instance_kind": "system", '
        '"offending_event": "capture_error", "severity": "diagnostic", '
        '"state_at_event": "Inactive", "timestamp": [0, 0]}',
    ],
    "capture_error": [
        '{"cause": {"capture_index": 1, "protocol": "capture", "summary": "truncated record"}, '
        '"explanation": "capture error at byte 100: truncated record", '
        '"instance_key": "poet-system", "instance_kind": "system", '
        '"offending_event": "capture_error", "severity": "diagnostic", '
        '"state_at_event": "PoweredOn", "timestamp": [1, 0]}',
    ],
    "dcp_set_refused": [
        '{"cause": {"capture_index": 3, "protocol": "pn-dcp", '
        '"summary": "dcp set response (ip parameter)"}, '
        '"explanation": "ip parameter set refused with block error 6", '
        '"instance_key": "02:00:00:00:02:00", "instance_kind": "device", '
        '"offending_event": "dcp_set_refused", "severity": "diagnostic", '
        '"state_at_event": "IpAddressAssignment", "timestamp": [100, 3]}',
    ],
    "inconsistent_connect": [
        '{"cause": {"capture_index": 10, "protocol": "pn-cm", '
        '"summary": "pn-cm connect request to 02:00:00:00:02:00"}, '
        '"explanation": "input CR declares 5 bytes, layout needs 4", '
        '"instance_key": "02:00:00:00:02:00", "instance_kind": "device", '
        '"offending_event": "inconsistent_connect", "severity": "diagnostic", '
        '"state_at_event": "IpDuplicationCheck", "timestamp": [1700000000, 300000000]}',
    ],
    "orphan_frame-pn-cm": [
        '{"cause": {"capture_index": 10, "protocol": "pn-cm", '
        '"summary": "pn-cm write request"}, '
        '"explanation": "pn-cm write request for unknown AR 527e9f59-79ea-5661-80cf-a16512d7a62e", '
        '"instance_key": "poet-system", "instance_kind": "system", '
        '"offending_event": "orphan_frame", "severity": "diagnostic", '
        '"state_at_event": "PoweredOn", "timestamp": [1700000000, 300000000]}',
    ],
    "orphan_frame-pnio": [
        '{"cause": {"capture_index": 10, "protocol": "pnio", "summary": "pnio cyclic 0x8002"}, '
        '"explanation": "pnio cyclic frame id 0x8002 has no registered connection", '
        '"instance_key": "poet-system", "instance_kind": "system", '
        '"offending_event": "orphan_frame", "severity": "diagnostic", '
        '"state_at_event": "PoweredOn", "timestamp": [1700000000, 300000000]}',
    ],
}


@pytest.mark.parametrize("case", sorted(_DIAGNOSTIC_LINES))
def test_diagnostic_alert_lines_are_pinned(case):
    assert _diagnostic_lines(case) == _DIAGNOSTIC_LINES[case]


def _assert_bound_records_are_resolved(tracker: Tracker) -> None:
    """Each bound frame id's CR record holds the fleet's own instances and is reached through its AR."""
    fleet = tracker.fleet
    registered = [b for reg in tracker.ar_table.ars.values() for b in reg.frame_id_bindings]
    assert tracker.ar_table.frame_ids
    for frame_id, binding in tracker.ar_table.frame_ids.items():
        assert binding.frame_id == frame_id
        device, connection = binding.good.events
        assert device.instance is fleet.devices[binding.responder_mac]
        assert connection.instance is fleet.connections[binding.key]
        assert any(binding is held for held in registered)


def test_bound_cr_records_hold_the_fleets_own_instances():
    import uuid

    result = synthesize(normal_startup_spec(2, cyclic_rounds=5))
    tracker = Tracker()
    tracker.process(RawFrame(*plan.ts, plan.data, index) for index, plan in enumerate(result.frames))
    _assert_bound_records_are_resolved(tracker)
    assert len(tracker.ar_table.frame_ids) == 4

    # A Connect that spoofs the live controller has the live key, so its new AR
    # rebinds the live CR's frame ids. The new records are resolved to the same
    # instances, and the run raises what it raised before they were resolved.
    spec = normal_startup_spec(1)
    live = connection_key(spec.controller.mac, spec.devices[0].mac)
    spoofed_ar = uuid.uuid5(uuid.NAMESPACE_OID, "spoofed-controller-ar")
    assert _startup_plans()[22].label.startswith("pnio output")
    tracker = Tracker()
    report = tracker.process(
        _replayed(21, _connect_from(spec.controller.mac, spoofed_ar), _startup_plans()[22].data)
    )
    _assert_bound_records_are_resolved(tracker)
    rebound = tracker.ar_table.ars[spoofed_ar.bytes].frame_id_bindings
    assert {b.frame_id for b in rebound} == set(tracker.ar_table.frame_ids)
    assert all(tracker.ar_table.frame_ids[b.frame_id] is b for b in rebound)
    replaced = [reg for ar, reg in tracker.ar_table.ars.items() if ar != spoofed_ar.bytes]
    assert len(replaced) == 1 and replaced[0].key == live
    assert all(b.good is None for b in replaced[0].frame_id_bindings)
    assert [(a.instance_kind, a.offending_event) for a in report.anomalies] == [
        ("device", "connect_requested"),
        ("system", "connect_requested"),
    ]
    assert [r["cause"]["capture_index"] for r in report.logs["connections"][live]][-1] == 22

    # Frame ids refused as frame_id_conflict stay bound to their holder's record.
    other_ar = uuid.uuid5(uuid.NAMESPACE_OID, "other-ar")
    tracker = Tracker()
    tracker.process(_replayed(11, _connect_from("02:66:6e:00:00:99", other_ar)))
    _assert_bound_records_are_resolved(tracker)
    assert {b.key for b in tracker.ar_table.frame_ids.values()} == {live}
    refused = tracker.ar_table.ars[other_ar.bytes].frame_id_bindings
    assert refused and all(b.good is None for b in refused)


def test_each_good_cyclic_frame_fires_with_its_own_cause():
    """Two consecutive good frames of one CR: each frame's device and connection records
    show one cause, that frame's own index with the CR's summary."""
    plans = _startup_plans()
    tracker = Tracker()
    tracker.process(_replayed(len(plans)))
    binding = tracker.ar_table.frame_ids[0x8002]
    device = tracker.fleet.devices[binding.responder_mac]
    connection = tracker.fleet.connections[binding.key]
    causes = []
    for index in (22, 24):
        assert plans[index].label.startswith("pnio output")
        (on_device,) = [r for r in device.records() if r.cause.capture_index == index]
        (on_connection,) = [r for r in connection.records() if r.cause.capture_index == index]
        assert on_device.cause == on_connection.cause == FrameRef(index, "pnio", binding.summary)
        assert on_device.timestamp == on_connection.timestamp == plans[index].ts
        causes.append(on_device.cause)
    assert causes[0] != causes[1]


@contextlib.contextmanager
def _records_and_causes_built():
    """While open, counts the TransitionRecords and FrameRefs built, as "records" and "causes"."""
    inits = {TransitionRecord.__init__.__code__: "records", FrameRef.__init__.__code__: "causes"}
    built = Counter()

    def count_inits(frame, event, arg):
        if event == "call" and frame.f_code in inits:
            built[inits[frame.f_code]] += 1

    sys.setprofile(count_inits)
    try:
        yield built
    finally:
        sys.setprofile(None)


def test_good_cyclic_frames_build_no_transition_record_until_one_is_read():
    """500 good cyclic frames of a bound CR log entries, not records, and build no cause:
    no TransitionRecord or FrameRef is built until the log is read, and then each record
    is built from its entry as the eagerly kept reference log holds it."""
    plans = synthesize(normal_startup_spec(1, cyclic_rounds=250)).frames
    first_cyclic = next(i for i, plan in enumerate(plans) if plan.label.startswith("pnio"))
    frames = [RawFrame(*plan.ts, plan.data, plan.index) for plan in plans]
    assert len(frames) - first_cyclic == 500
    tracker = Tracker()
    for raw in frames[:first_cyclic]:
        tracker.process_frame(raw)
    binding = tracker.ar_table.frame_ids[0x8002]
    device = tracker.fleet.devices[binding.responder_mac]

    with _records_and_causes_built() as built:
        for raw in frames[first_cyclic:]:
            tracker.process_frame(raw)
        assert built == {}
        records = device.records()
    assert built == {"records": LOG_WINDOW, "causes": LOG_WINDOW}
    assert {(r.event, r.verdict) for r in records} == {("cyclic_data_good", "accepted")}
    last_summary = tracker.ar_table.frame_ids[0x8001].summary  # the last frame is an input one
    assert records[-1].cause == FrameRef(len(frames) - 1, "pnio", last_summary)

    # The same run with each fire's record built at once: every instance reads as it.
    with eager_logs() as logs:
        reference = Tracker()
        reference.process(frames)
    instances = [(f.system, *f.devices.values(), *f.connections.values()) for f in (tracker.fleet, reference.fleet)]
    assert [i.instance_key for i in instances[0]] == [i.instance_key for i in instances[1]]
    for instance, twin in zip(*instances):
        assert instance.records() == logs[twin].records()
        assert [tally.to_json() for tally in instance.edge_tallies()] == logs[twin].edge_tallies()


def test_rejections_with_a_shared_cause_build_no_transition_record_until_one_is_read():
    """Reject-only events fired with a shared cause log entries, as accepted fires do: no
    TransitionRecord or FrameRef is built until the log is read, and then each rejection's
    record shows its firing frame's index, as the eagerly kept reference log holds it."""
    cause = SharedCause("pn-dcp", "set name of station")
    indexes = range(1000, 1000 + 2 * LOG_WINDOW)
    device = FsmInstance(device_fsm_table(), "02:00:00:00:02:00")
    with _records_and_causes_built() as built:
        for index in indexes:
            device.fire("name_set_requested", cause, (index, 0), index)
        assert built == {}
        records = device.records()
    assert built == {"records": len(indexes), "causes": len(indexes)}
    assert [(r.verdict, r.cause.capture_index) for r in records] == [("rejected", index) for index in indexes]

    with eager_logs() as logs:
        twin = FsmInstance(device_fsm_table(), "02:00:00:00:02:00")
        for index in indexes:
            twin.fire("name_set_requested", cause, (index, 0), index)
    assert records == logs[twin].records()


def test_a_good_cyclic_frame_before_ccontrol_is_rejected_with_its_own_cause():
    """A good frame of a bound CR sent just before its device's CControl request: the device
    and connection states reject it, as two anomalies whose causes carry that frame's own
    capture index and the CR summary, and the streamed lines are the report's alerts."""
    plans = _startup_plans()
    assert plans[18].label.startswith("pn-cm ccontrol request")
    assert plans[20].label.startswith("pnio output")
    datas = [plan.data for plan in plans[:18]] + [plans[20].data] + [plan.data for plan in plans[18:]]
    sink = io.StringIO()
    tracker = Tracker(TrackerConfig(alert_sink=sink))
    report = tracker.process(RawFrame(100 + i, 0, data, i) for i, data in enumerate(datas))
    binding = tracker.ar_table.frame_ids[0x8002]
    cause = FrameRef(18, "pnio", binding.summary)
    assert [(a.instance_kind, a.offending_event, a.cause, a.timestamp) for a in report.anomalies] == [
        ("device", "cyclic_data_good", cause, (118, 0)),
        ("connection", "output_process_data_sent", cause, (118, 0)),
    ]
    device = tracker.fleet.devices[binding.responder_mac]
    connection = tracker.fleet.connections[binding.key]
    rejected = [r for r in (*device.records(), *connection.records()) if r.verdict == "rejected"]
    assert [r.cause for r in rejected] == [cause, cause]
    assert sink.getvalue().splitlines() == [json.dumps(a.to_json(), sort_keys=True) for a in report.alerts]


# The streamed lines of two good cyclic frames (output, then input) sent after
# the first `count` startup frames: just after the Connect's response, and just
# before the CControl response. The resolved instances reject them as the
# lookup by (scope, key) did.
_EARLY_CYCLIC_LINES = {
    12: [
        '{"cause": {"capture_index": 12, "protocol": "pnio", "summary": "pnio cyclic 0x8002 output iops good"}, '
        '"explanation": "cyclic_data_good not permitted during Connection Establishment operation", '
        '"instance_key": "02:00:00:00:02:00", "instance_kind": "device", "offending_event": "cyclic_data_good", '
        '"severity": "anomaly", "state_at_event": "NewConnectionInitiated", "timestamp": [1700000000, 360000000]}',
        '{"cause": {"capture_index": 12, "protocol": "pnio", "summary": "pnio cyclic 0x8002 output iops good"}, '
        '"explanation": "output_process_data_sent not permitted during Connection Establishment operation", '
        '"instance_key": "020000000100-020000000200", "instance_kind": "connection", '
        '"offending_event": "output_process_data_sent", "severity": "anomaly", '
        '"state_at_event": "ConnectionCreation", "timestamp": [1700000000, 360000000]}',
        '{"cause": {"capture_index": 13, "protocol": "pnio", "summary": "pnio cyclic 0x8001 input iops good"}, '
        '"explanation": "cyclic_data_good not permitted during Connection Establishment operation", '
        '"instance_key": "02:00:00:00:02:00", "instance_kind": "device", "offending_event": "cyclic_data_good", '
        '"severity": "anomaly", "state_at_event": "NewConnectionInitiated", "timestamp": [1700000000, 390000000]}',
        '{"cause": {"capture_index": 13, "protocol": "pnio", "summary": "pnio cyclic 0x8001 input iops good"}, '
        '"explanation": "input_process_data_sent not permitted during Connection Establishment operation", '
        '"instance_key": "020000000100-020000000200", "instance_kind": "connection", '
        '"offending_event": "input_process_data_sent", "severity": "anomaly", '
        '"state_at_event": "ConnectionCreation", "timestamp": [1700000000, 390000000]}',
    ],
    19: [
        '{"cause": {"capture_index": 19, "protocol": "pnio", "summary": "pnio cyclic 0x8002 output iops good"}, '
        '"explanation": "cyclic_data_good not permitted during Connection Establishment operation", '
        '"instance_key": "02:00:00:00:02:00", "instance_kind": "device", "offending_event": "cyclic_data_good", '
        '"severity": "anomaly", "state_at_event": "ApplicationReady", "timestamp": [1700000000, 570000000]}',
        '{"cause": {"capture_index": 20, "protocol": "pnio", "summary": "pnio cyclic 0x8001 input iops good"}, '
        '"explanation": "cyclic_data_good not permitted during Connection Establishment operation", '
        '"instance_key": "02:00:00:00:02:00", "instance_kind": "device", "offending_event": "cyclic_data_good", '
        '"severity": "anomaly", "state_at_event": "ApplicationReady", "timestamp": [1700000000, 600000000]}',
    ],
}


@pytest.mark.parametrize("count", sorted(_EARLY_CYCLIC_LINES))
def test_cyclic_frames_before_establishment_are_rejected_at_the_resolved_instances(count):
    plans = _startup_plans()
    assert plans[11].label.startswith("pn-cm connect response")
    assert plans[19].label.startswith("pn-cm ccontrol response")
    sink = io.StringIO()
    tracker = Tracker(TrackerConfig(alert_sink=sink))
    report = tracker.process(_replayed(count, plans[20].data, plans[21].data))
    _assert_bound_records_are_resolved(tracker)
    assert sink.getvalue().splitlines() == _EARLY_CYCLIC_LINES[count]
    assert len(report.anomalies) == len(_EARLY_CYCLIC_LINES[count])
