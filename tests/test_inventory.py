"""Asset inventory: incremental updates, conflicts, deterministic export."""

from __future__ import annotations

import json
import timeit

import pytest

from poet import inventory
from poet.capture import RawFrame, open_capture
from poet.dissect import dissect
from poet.fsm import FrameRef
from poet.inventory import AssetInventory
from poet.synth import (
    dcp_identify_response,
    dcp_set_name_request,
    encode_arp,
    encode_lldp,
    ethernet,
    normal_startup_spec,
    str_to_mac,
    synthesize,
)
from poet.tracker import Tracker, TrackerConfig, dumps_inventory

CTRL = str_to_mac("02:00:00:00:01:00")
DEV = str_to_mac("02:00:00:00:02:00")
PORT1 = str_to_mac("02:70:01:01:02:00")
PORT2 = str_to_mac("02:70:01:02:02:00")
TS = (100, 0)


def parse(data: bytes, index: int = 0):
    return dissect(RawFrame(100, 0, data, index))


def test_lldp_burst_builds_lift_motor_record():
    inv = AssetInventory()
    for i, port in enumerate((PORT1, PORT2)):
        frame = encode_lldp(DEV, port, 20, "Lift-Motor", (f"port-{i + 1:03d}",))
        changes = inv.update_from_frame(parse(frame, i), TS)
        assert changes  # fresh fields populated
    record = inv.get("02:00:00:00:02:00")
    assert record is not None
    assert record.name_of_station == "Lift-Motor"
    assert record.port_count == 2
    assert record.provenance["name_of_station"].protocol == "lldp"


def test_other_frame_yields_empty_delta():
    inv = AssetInventory()
    frame = ethernet(DEV, CTRL, 0x86DD, b"\x00" * 40)
    assert inv.update_from_frame(parse(frame), TS) == ()  # a refresh-only frame builds no list
    assert len(inv) == 0


def test_other_frame_refreshes_last_seen_of_known_asset():
    inv = AssetInventory()
    inv.update_from_frame(parse(encode_lldp(CTRL, PORT1, 20, "plc-1")), TS)
    # LLDP records key on the chassis MAC; an Other frame from that MAC counts
    frame = ethernet(DEV, CTRL, 0x86DD, b"\x00" * 40)
    inv.update_from_frame(parse(frame), (200, 5))
    assert inv.get("02:00:00:00:01:00").last_seen == (200, 5)


# "unknown" is a valid NameOfStation: only role's default counts as unset.
@pytest.mark.parametrize("old_name", ["turntable-motor", "unknown"])
def test_rename_set_flags_conflict(old_name):
    inv = AssetInventory()
    inv.update_from_frame(parse(dcp_identify_response(DEV, CTRL, 1, old_name)), TS)
    assert inv.get("02:00:00:00:02:00").name_of_station == old_name
    changes = inv.update_from_frame(parse(dcp_set_name_request(CTRL, DEV, 2, "ufo"), index=1), TS)
    conflict = [c for c in changes if c.fieldname == "name_of_station"]
    assert len(conflict) == 1
    assert conflict[0].conflict
    assert (conflict[0].old, conflict[0].new) == (old_name, "ufo")
    record = inv.get("02:00:00:00:02:00")
    assert record.name_of_station == "ufo"
    assert record.provenance["name_of_station"].conflict


def test_arp_contributes_sender_ip():
    inv = AssetInventory()
    frame = encode_arp(CTRL, b"\xff" * 6, 1, CTRL, "192.168.0.1", b"\x00" * 6, "192.168.0.11")
    inv.update_from_frame(parse(frame), TS)
    assert inv.get("02:00:00:00:01:00").ip_address == "192.168.0.1"


def test_full_startup_populates_all_assets(tmp_path):
    result = synthesize(normal_startup_spec(2))
    path = tmp_path / "startup.pcap"
    path.write_bytes(result.pcap_bytes)
    tracker = Tracker(TrackerConfig())
    tracker.process(open_capture(path))
    inv = tracker.inventory
    spec = result.spec
    for node in (spec.controller, *spec.devices):
        record = inv.get(node.mac)
        assert record is not None, node.name
        assert record.name_of_station == node.name
        assert record.ip_address == node.ip
    assert inv.get(spec.controller.mac).role == "controller"
    for device in spec.devices:
        assert inv.get(device.mac).role == "device"


def test_export_sorted_and_deterministic():
    frames = [encode_lldp(DEV, PORT1, 20, "lift-motor"), encode_lldp(CTRL, PORT2, 20, "plc-1")]
    report = Tracker().process([RawFrame(100, 0, frame, index) for index, frame in enumerate(frames)])
    doc = report.inventory
    macs = [a["interface_mac"] for a in doc["assets"]]
    assert macs == sorted(macs) == ["02:00:00:00:01:00", "02:00:00:00:02:00"]
    assert dumps_inventory(report.assets) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_export_empty():
    report = Tracker().report()
    assert report.inventory == {"assets": []}
    assert dumps_inventory(report.assets) == '{\n  "assets": []\n}\n'


def test_export_one_record_with_full_provenance():
    inv = AssetInventory()
    inv.update_from_frame(
        parse(dcp_identify_response(DEV, CTRL, 1, "lift-motor", ip="192.168.0.11"), 3), TS
    )
    (record,) = inv.records.values()
    asset = record.to_json()
    for fieldname in ("name_of_station", "ip_address", "subnet", "gateway", "vendor_id", "device_id"):
        assert asset[fieldname] is not None
        assert asset["provenance"][fieldname]["protocol"] == "pn-dcp"
        assert asset["provenance"][fieldname]["capture_index"] == 3


def test_monotone_knowledge_same_value_is_silent(monkeypatch):
    """A frame's changes share one cause, and a repeat that changes nothing builds none."""
    built = []

    def counted(*args):
        built.append(FrameRef(*args))
        return built[-1]

    monkeypatch.setattr(inventory, "FrameRef", counted)
    inv = AssetInventory()
    frame = encode_lldp(DEV, PORT1, 20, "lift-motor", management_ip="192.168.0.11")
    arp = encode_arp(DEV, b"\xff" * 6, 1, DEV, "192.168.0.11", b"\x00" * 6, "192.168.0.1")
    first = inv.update_from_frame(parse(frame, 0), TS)
    assert [change.fieldname for change in first] == ["name_of_station", "ip_address", "port_macs"]
    assert built == [FrameRef(0, "lldp", "inventory update")]
    assert all(change.cause is built[0] for change in first)
    assert inv.update_from_frame(parse(frame, 1), (200, 0)) == []  # same values: no delta, no conflict
    assert inv.update_from_frame(parse(arp, 2), (200, 0)) == []
    assert len(built) == 1
    record = inv.get("02:00:00:00:02:00")
    assert record.provenance["name_of_station"].capture_index == 0  # first evidence stands
    assert record.last_seen == (200, 0)


def test_name_lookup_lowest_mac_wins_and_follows_renames():
    low, high = "02:00:00:00:03:00", "02:00:00:00:04:00"
    inv = AssetInventory()
    # The higher MAC claims the name first; the lower one still wins the tie.
    inv.update_from_frame(parse(encode_lldp(str_to_mac(high), PORT1, 20, "twin"), 0), TS)
    inv.update_from_frame(parse(encode_lldp(str_to_mac(low), PORT2, 20, "twin"), 1), TS)
    assert inv.find_mac_by_name("twin") == low
    inv.update_from_frame(parse(dcp_set_name_request(CTRL, str_to_mac(low), 2, "ufo"), 2), TS)
    assert inv.find_mac_by_name("twin") == high
    assert inv.find_mac_by_name("ufo") == low
    assert inv.find_mac_by_name("nobody") is None


def test_name_lookup_cost_does_not_grow_with_holders():
    """A station name shared by many MACs resolves without a pass over its holders."""

    def seconds_for_1000_lookups(holders: int) -> float:
        macs = [f"02:00:00:{i >> 16:02x}:{(i >> 8) & 0xFF:02x}:{i & 0xFF:02x}" for i in range(holders)]
        inv = AssetInventory()
        for index, mac in enumerate(macs):
            inv.update_from_frame(parse(encode_lldp(str_to_mac(mac), PORT1, 20, "twin"), index), TS)
        assert inv.find_mac_by_name("twin") == macs[0]
        return min(timeit.repeat(lambda: inv.find_mac_by_name("twin"), number=1000, repeat=9))

    small, large = seconds_for_1000_lookups(1_000), seconds_for_1000_lookups(16_000)
    # 16x the holders: a pass over them takes about 16x as long.
    assert large < 4 * small, (small, large)
