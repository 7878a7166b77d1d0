"""Scenario generation: validation, manifests, injections, fuzz corpus."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from poet.capture import RawFrame, open_capture
from poet.dissect import LldpFrame, MalformedFrame, dissect
from poet.synth import (
    BUILTIN_SCENARIOS,
    MAX_CYCLIC_ROUNDS,
    Injection,
    NodeSpec,
    ScenarioError,
    ScenarioSpec,
    SubmoduleSpec,
    builtin_scenario,
    encode_lldp,
    fuzz_corpus,
    malformed_spec,
    normal_startup_spec,
    rename_attack_spec,
    rogue_connect_spec,
    str_to_mac,
    synthesize,
)
from poet.tracker import Tracker, TrackerConfig


def test_duplicate_mac_rejected():
    spec = ScenarioSpec(
        controller=NodeSpec("02:00:00:00:01:00", "plc-1", "192.168.0.1"),
        devices=(NodeSpec("02:00:00:00:01:00", "lift-motor", "192.168.0.11"),),
    )
    with pytest.raises(ScenarioError):
        synthesize(spec)


def test_duplicate_name_and_ip_rejected():
    base = NodeSpec("02:00:00:00:01:00", "plc-1", "192.168.0.1")
    with pytest.raises(ScenarioError):
        ScenarioSpec(base, (NodeSpec("02:00:00:00:02:00", "plc-1", "192.168.0.2"),)).validate()
    with pytest.raises(ScenarioError):
        ScenarioSpec(base, (NodeSpec("02:00:00:00:02:00", "dev", "192.168.0.1"),)).validate()


def test_cyclic_rounds_bounded():
    base = normal_startup_spec(1)
    replace(base, cyclic_rounds=MAX_CYCLIC_ROUNDS).validate()
    for rounds in (-1, MAX_CYCLIC_ROUNDS + 1, 2.5, "8"):
        with pytest.raises(ScenarioError):
            replace(base, cyclic_rounds=rounds).validate()


def test_unknown_injection_target_rejected():
    spec = replace(
        normal_startup_spec(1), injections=(Injection(5, "rename", target="nobody"),)
    )
    with pytest.raises(ScenarioError):
        synthesize(spec)


def test_zero_devices_scenario():
    spec = ScenarioSpec(
        controller=NodeSpec("02:00:00:00:01:00", "plc-1", "192.168.0.1"), devices=()
    )
    result = synthesize(spec)
    assert all(p.label.startswith("lldp plc-1") for p in result.frames)
    assert result.manifest["expected"]["final_states"]["system"] == "PoweredOn"
    assert result.manifest["expected"]["anomalies"] == []


def test_one_device_manifest_expectations():
    result = synthesize(normal_startup_spec(1))
    manifest = result.manifest
    assert manifest["expected"]["anomalies"] == []
    device = result.spec.devices[0]
    assert manifest["expected"]["final_states"]["devices"][device.mac] == "DataExchange"
    assert manifest["expected"]["final_states"]["system"] == "DataExchange"
    assert len(manifest["frames"]) == len(result.frames)
    assert [f["index"] for f in manifest["frames"]] == list(range(len(result.frames)))


def test_rename_manifest_exactly_one_anomaly():
    result = synthesize(rename_attack_spec())
    anomalies = result.manifest["expected"]["anomalies"]
    assert len(anomalies) == 1
    assert anomalies[0]["offending_event"] == "name_set_requested"
    assert anomalies[0]["state_at_event"] == "DataExchange"
    target_mac = next(d.mac for d in result.spec.devices if d.name == "turntable-motor")
    assert anomalies[0]["instance_key"] == target_mac


def test_injection_position_honored():
    spec = normal_startup_spec(1)
    position = 10
    spec = replace(spec, injections=(Injection(position, "rename", target="lift-motor", new_name="x"),))
    result = synthesize(spec)
    assert result.frames[position + 1].label.startswith("attack rename set")


def test_injection_past_end_appends():
    spec = replace(
        normal_startup_spec(1),
        injections=(Injection(10_000, "rename", target="lift-motor", new_name="x"),),
    )
    result = synthesize(spec)
    assert result.frames[-2].label.startswith("attack rename set")


def test_manifest_anomalies_after_injection_point_only():
    result = synthesize(rename_attack_spec())
    injection_at = result.spec.injections[0].after_index
    for anomaly in result.manifest["expected"]["anomalies"]:
        assert anomaly["frame_index"] > injection_at


def test_pcap_output_round_trips(tmp_path):
    result = synthesize(normal_startup_spec(1))
    path = tmp_path / "out.pcap"
    path.write_bytes(result.pcap_bytes)
    items = list(open_capture(path))
    assert len(items) == len(result.frames)
    for item, plan in zip(items, result.frames):
        assert item.frame_bytes == plan.data
        assert (item.ts_sec, item.ts_nsec) == plan.ts


def test_timestamps_spaced_by_gap():
    result = synthesize(replace(normal_startup_spec(1), gap_seconds=0.03))
    t0 = result.frames[0].ts
    t1 = result.frames[1].ts
    delta_ns = (t1[0] - t0[0]) * 1_000_000_000 + (t1[1] - t0[1])
    assert delta_ns == 30_000_000


def test_write_outputs(tmp_path):
    result = synthesize(normal_startup_spec(1))
    pcap_path, manifest_path = result.write(str(tmp_path / "scenario"))
    assert open_capture(pcap_path) is not None
    with open(manifest_path) as f:
        manifest = json.load(f)
    assert manifest == result.manifest


def test_spec_json_round_trip():
    doc = {
        "controller": {"mac": "02:00:00:00:01:00", "name": "plc-1", "ip": "192.168.0.1"},
        "devices": [
            {
                "mac": "02:00:00:00:02:00",
                "name": "lift-motor",
                "ip": "192.168.0.11",
                "submodules": [[1, 1, "input", 2], [2, 1, "output", 3]],
            }
        ],
        "cyclic_rounds": 4,
        "injections": [{"after_index": 9, "attack": "rename", "target": "lift-motor", "new_name": "ufo"}],
    }
    spec = ScenarioSpec.from_json(doc)
    assert spec.cyclic_rounds == 4
    assert spec.devices[0].submodules[1] == SubmoduleSpec(2, 1, "output", 3)
    assert spec.injections[0].new_name == "ufo"
    synthesize(spec)  # valid and buildable


def test_builtin_catalogue():
    for name in ("normal-startup", "normal-startup-1", "normal-startup-5",
                 "rename-attack", "rogue-connect", "malformed-dcp"):
        spec = builtin_scenario(name)
        result = synthesize(spec)
        assert result.frames
    with pytest.raises(ScenarioError):
        builtin_scenario("no-such-scenario")


def test_no_lldp_scenario_clean(tmp_path):
    """Deferred identify-by-name path: no LLDP binding before the response."""
    result = synthesize(replace(normal_startup_spec(2), initial_lldp=False))
    assert result.manifest["expected"]["anomalies"] == []
    path = tmp_path / "nolldp.pcap"
    path.write_bytes(result.pcap_bytes)
    report = Tracker().process(open_capture(path))
    assert report.anomalies == []
    assert report.final_states["system"]["state"] == "DataExchange"
    states = {d["mac"]: d["state"] for d in report.final_states["devices"]}
    for device in result.spec.devices:
        assert states[device.mac] == "DataExchange"


def test_acyclic_exchange_scenario_clean(tmp_path):
    result = synthesize(replace(normal_startup_spec(1), acyclic_exchange=True, cyclic_rounds=4))
    assert result.manifest["expected"]["anomalies"] == []
    path = tmp_path / "acyclic.pcap"
    path.write_bytes(result.pcap_bytes)
    report = Tracker().process(open_capture(path))
    assert report.anomalies == []
    # acyclic states were actually visited
    log = report.logs["devices"][result.spec.devices[0].mac]
    visited = {record["to_state"] for record in log if record["verdict"] == "accepted"}
    assert {"AcyclicReadingData", "AcyclicParametrization"} <= visited


def test_malformed_scenario_diagnostic_not_anomaly(tmp_path):
    result = synthesize(malformed_spec("pn-dcp"))
    assert result.manifest["expected"]["anomalies"] == []
    path = tmp_path / "malformed.pcap"
    path.write_bytes(result.pcap_bytes)
    report = Tracker().process(open_capture(path))
    assert report.anomalies == []
    assert any(a.offending_event == "malformed_frame" for a in report.diagnostics)


def test_fuzz_corpus_deterministic():
    assert fuzz_corpus(42, 50) == fuzz_corpus(42, 50)
    assert fuzz_corpus(42, 50) != fuzz_corpus(43, 50)


def test_fuzz_corpus_count_positive():
    with pytest.raises(ValueError):
        fuzz_corpus(1, 0)


def test_lldp_tlv_too_long_raises():
    dev = str_to_mac("02:00:00:00:02:00")
    with pytest.raises(ValueError, match="exceeds 511"):
        encode_lldp(dev, dev, 20, "n" * 512)


def test_bitflipped_ttl_zero_lldp_not_silent():
    dev = str_to_mac("02:00:00:00:02:00")
    port = str_to_mac("02:70:01:01:02:00")
    frame = bytearray(encode_lldp(dev, port, 20, "lift-motor"))
    # TTL value sits after chassis(2+7) + port(2+7) TLVs + TLV header(2)
    ttl_at = 14 + 9 + 9 + 2
    frame[ttl_at : ttl_at + 2] = b"\x00\x00"
    try:
        parsed = dissect(RawFrame(0, 0, bytes(frame), 0))
        assert isinstance(parsed.body, LldpFrame)
        assert "ttl-zero" in parsed.body.violations
    except MalformedFrame:
        pass  # also acceptable: reported, not dropped


def test_unsorted_slot_layout_extracts_correctly(tmp_path):
    """Wire order (slots first-seen) governs offsets even for odd declarations."""
    from poet.dissect import CmFrame, PnioCyclicFrame, extract_io_specs
    from poet.capture import RawFrame
    from poet.synth import layout_order, process_byte

    device = NodeSpec(
        "02:00:00:00:02:00",
        "mixer",
        "192.168.0.21",
        (
            SubmoduleSpec(5, 1, "input", 2),
            SubmoduleSpec(1, 1, "output", 3),
            SubmoduleSpec(5, 2, "input", 1),
            SubmoduleSpec(2, 1, "input", 4),
        ),
    )
    spec = ScenarioSpec(
        controller=NodeSpec("02:00:00:00:01:00", "plc-1", "192.168.0.1"),
        devices=(device,),
        cyclic_rounds=3,
    )
    result = synthesize(spec)
    path = tmp_path / "mixed.pcap"
    path.write_bytes(result.pcap_bytes)
    report = Tracker().process(open_capture(path))
    assert report.anomalies == []

    specs_by_direction = {"input": [], "output": []}
    frame_direction = {}
    cyclic = []
    for item in open_capture(path):
        parsed = dissect(item)
        if isinstance(parsed.body, CmFrame) and parsed.body.operation == "Connect" \
                and parsed.body.direction == "request":
            for entry in extract_io_specs(parsed.body):
                specs_by_direction[entry.direction].append(entry)
            for iocr in parsed.body.iocr_blocks:
                frame_direction[iocr.frame_id] = iocr.cr_type
        elif isinstance(parsed.body, PnioCyclicFrame):
            cyclic.append(parsed.body)

    wire_inputs = [s for s in layout_order(device.submodules) if s.direction == "input"]
    assert [(s.slot, s.subslot) for s in specs_by_direction["input"]] == [
        (s.slot, s.subslot) for s in wire_inputs
    ]
    rounds = {"input": 0, "output": 0}
    for frame in cyclic:
        direction = frame_direction[frame.frame_id]
        round_index = rounds[direction]
        rounds[direction] += 1
        for ordinal, entry in enumerate(specs_by_direction[direction]):
            data = frame.data[entry.offset : entry.offset + entry.length]
            expected = bytes(
                process_byte(0, round_index, direction, ordinal, i) for i in range(entry.length)
            )
            assert data == expected, (direction, entry.slot, entry.subslot)


def _one_device_spec(*submodules: tuple) -> ScenarioSpec:
    device = NodeSpec(
        "02:00:00:00:02:00", "probe", "192.168.0.21", tuple(SubmoduleSpec(*s) for s in submodules)
    )
    return ScenarioSpec(
        controller=NodeSpec("02:00:00:00:01:00", "plc-1", "192.168.0.1"),
        devices=(device,),
        cyclic_rounds=3,
    )


def test_input_only_device_clean(tmp_path):
    spec = _one_device_spec((1, 1, "input", 2))
    device = spec.devices[0]
    result = synthesize(spec)
    path = tmp_path / "inonly.pcap"
    path.write_bytes(result.pcap_bytes)
    report = Tracker().process(open_capture(path))
    assert report.anomalies == []
    states = {d["mac"]: d["state"] for d in report.final_states["devices"]}
    assert states[device.mac] == "DataExchange"
    assert report.final_states["connections"][0]["state"] == "InputDataExchange"


def test_rogue_connect_manifest():
    result = synthesize(rogue_connect_spec())
    anomalies = result.manifest["expected"]["anomalies"]
    kinds = {(a["instance_kind"], a["offending_event"], a["state_at_event"]) for a in anomalies}
    assert ("device", "connect_requested", "DataExchange") in kinds
    finals = result.manifest["expected"]["final_states"]["connections"]
    assert sum(1 for state in finals.values() if state == "ConnectionCreation") == 1


def _tracker_expected(result, tmp_path) -> dict:
    """What the tracker reports on the synthesized capture, in the manifest's `expected` shape."""
    path = tmp_path / "scenario.pcap"
    path.write_bytes(result.pcap_bytes)
    report = Tracker(TrackerConfig(system_name=result.spec.system_name)).process(open_capture(path))
    states = report.final_states
    return {
        "anomalies": [
            {
                "frame_index": a.cause.capture_index,
                "instance_kind": a.instance_kind,
                "instance_key": a.instance_key,
                "offending_event": a.offending_event,
                "state_at_event": a.state_at_event,
            }
            for a in report.anomalies
        ],
        "final_states": {
            "system": states["system"]["state"],
            "devices": {d["mac"]: d["state"] for d in states["devices"]},
            "connections": {c["key"]: c["state"] for c in states["connections"]},
        },
    }


_DIFFERENTIAL_SPECS = {
    **BUILTIN_SCENARIOS,
    "no-initial-lldp": lambda: normal_startup_spec(2, initial_lldp=False),
    "acyclic-exchange": lambda: normal_startup_spec(1, acyclic_exchange=True),
    # CRs with no data-bearing submodule: the zero-length one still has its IOPS
    # byte, and a CR with no submodule of its own direction carries only IOCS.
    "zero-length-input": lambda: _one_device_spec((1, 1, "input", 0)),
    "output-only": lambda: _one_device_spec((1, 1, "output", 2)),
    "zero-length-output": lambda: _one_device_spec((1, 1, "input", 2), (2, 1, "output", 0)),
}


@pytest.mark.parametrize("name", sorted(_DIFFERENTIAL_SPECS))
def test_manifest_predicts_tracker(name, tmp_path):
    """Differential test with synth as the oracle: anomalies and every final state agree."""
    result = synthesize(_DIFFERENTIAL_SPECS[name]())
    assert _tracker_expected(result, tmp_path) == result.manifest["expected"]


# Numbers of every range, inside and outside what the encoders can write.
_INT = st.one_of(
    st.integers(-2, 300),
    st.integers(-(2**70), 2**70),
    st.sampled_from([0xFFFF, 0x10000, 0xFFFFFFFF, 2**32]),
)
_FLOAT = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from([-0.5, 4e9, 1e303]))
_WRONG_TYPE = st.one_of(st.none(), st.text(max_size=3), st.just([1]), _FLOAT)

# Optional top-level spec keys and values of their JSON type.
_SCALARS = {
    "gap_seconds": st.one_of(_INT, _FLOAT),
    "ports_per_device": _INT,
    "writes_per_device": _INT,
    "start_time": _INT,
    "lldp_refresh_every": _INT,
    "seed": _INT,
    "initial_lldp": st.booleans(),
    "acyclic_exchange": st.booleans(),
}


@st.composite
def _spec_documents(draw) -> dict:
    """Spec documents with hostile numbers and, in half of them, wrong JSON types."""
    wrong_types = draw(st.booleans())

    def value(right):
        return draw(st.one_of(right, _WRONG_TYPE) if wrong_types else right)

    def submodule():
        direction = st.sampled_from(["input", "output", "bogus"])
        return [value(_INT), value(_INT), value(direction), value(_INT)]

    device = {"mac": "02:00:00:00:02:00", "name": "io", "ip": "1.2.3.5"}
    device["submodules"] = [submodule() for _ in range(draw(st.integers(0, 3)))]
    doc = {
        "controller": {"mac": "02:00:00:00:01:00", "name": "plc-1", "ip": "1.2.3.4"},
        "devices": draw(st.sampled_from([[], [device]])),
        "cyclic_rounds": draw(st.integers(-1, 2)),  # cheap examples: few cyclic frames
    }
    for key, right in _SCALARS.items():
        if draw(st.booleans()):
            doc[key] = value(right)
    doc["injections"] = []
    for _ in range(draw(st.integers(0, 2))):
        injection = {
            "after_index": value(_INT),
            "attack": draw(st.sampled_from(["rename", "rogue_connect", "malformed", "bogus"])),
            "target": value(st.sampled_from(["io", "nobody"])),
        }
        new_names = st.sampled_from(["ufo", "n" * 70_000, "io\ud800", "UFO"])
        protocols = st.sampled_from(["lldp", "arp", "pnio", "pn-cm", "pn-dcp", "bogus"])
        for key, right in (("new_name", new_names), ("protocol", protocols)):
            if draw(st.booleans()):
                injection[key] = value(right)
        doc["injections"].append(injection)
    return doc


@settings(max_examples=150, deadline=None)
@given(doc=_spec_documents())
def test_hostile_spec_either_synthesizes_or_raises_scenario_error(doc):
    try:
        synthesize(ScenarioSpec.from_json(doc))
    except ScenarioError:
        pass
