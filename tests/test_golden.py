"""Golden outputs: the exact bytes of the report and the alert stream per builtin scenario,
of the generator's capture and manifest, of each exported FSM definition and its compiled
table and alphabet, and of every dissect outcome over a fixed corpus of frames.

Determinism (C5) only compares two runs of the same code. These digests pin
the output format itself, so a change to any serialized field fails here.
A deliberate format change updates the digests and says so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
from dataclasses import replace

import pytest

from poet.capture import RawFrame, open_capture
from poet.cli import main
from poet.dissect import MalformedFrame, dissect
from poet.models import connection_fsm_table, device_fsm_table, system_fsm_table
from poet.synth import (
    ATTACKER_MAC,
    BUILTIN_SCENARIOS,
    dcp_identify_request,
    dcp_identify_response,
    dcp_set_ip_request,
    dcp_set_name_request,
    dcp_set_response,
    encode_lldp,
    normal_startup_spec,
    rename_attack_spec,
    rogue_connect_spec,
    synthesize,
)
from poet.tracker import Tracker, TrackerConfig

from corpus import fuzz_corpus

NO_ALERTS = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

# scenario -> (sha256 of report.dumps(), sha256 of the report without its "edges"
# section, sha256 of the streamed alert lines). Every builtin instance fires at
# most LOG_WINDOW events, so its "logs" are whole, its "edges" are empty, and the
# report without "edges" keeps the bytes it had before the log was bounded.
GOLDEN = {
    "malformed-dcp": (
        "83ec62d7a6c937a4c9513f94df37c062d8f44f85765e7363bf51c1045b80bbf2",
        "7f775c02677b613b5e410ffc8b0b176b7b9394972c17ec1721d8765785bde5d5",
        "670aa529c3fd095e887fa0152729835551dc76ca5a946a13669207f069ec0073",
    ),
    "normal-startup": (
        "7344c6dd8dc5e28ab4a3b2f3d03573f27895a11c1dce86926d392959a35e2eef",
        "e0d45a2e2f29c39d9b1ad08f438634a0ccb7027ccfc2d96ac211abdedfd1bc83",
        NO_ALERTS,
    ),
    "normal-startup-1": (
        "bff3af50c730013afbf2a7765b6ddb462202ff201270308ca6d91dcde1827e3c",
        "ffc58a206c8923f2d0030311528bcb0dbde5c88175d6ec3fed9ab5ed1ab9f00b",
        NO_ALERTS,
    ),
    "normal-startup-5": (
        "6f7b65093acb09bd399b9ca62a30fde40fc3bec05784d42ec81db664473463a1",
        "b0c1ff0d9209ec08e14a7ed3c058518132f4b2fbbe467dcbe9673f203b2ab76c",
        NO_ALERTS,
    ),
    "normal-startup-lldp": (
        "b7a9f79c48e208756d7dbd2b08853b78525d47638be852dcc7ce655accced7a2",
        "8352cad9d752f3909699e1bc1c9e922cf8429f710d6859c741a26d011145b771",
        NO_ALERTS,
    ),
    "rename-attack": (
        "dfa5cc3db73c2be02a0bf9ab0c3ed06b6fde477194be8900e813118624f96396",
        "516dc7ce19111c43f1f7feb5187fb853aa04c1ca62cee2e726766219588c3b45",
        "53daff80012e2280fe083859b983ca7623f9db883e4f14cc8a9f3854bee470d0",
    ),
    "rogue-connect": (
        "3f0e2384bf7628854ab2056daafa00977d6e7363874d11b02e6a4a629804cdd5",
        "9b12f515edbf6928162e4b386a999d0f18753caa999377f27598340a44a18e5d",
        "032714f66778a119fa201819b4127024f9a65327ae6c3a054c65fa11d73d266e",
    ),
}

# The rename attack over 120 cyclic rounds, as GOLDEN pins a builtin. Its device instances
# fire about 250 events each, so the rename's rejected record has left the window, its
# "logs" keep it with the last LOG_WINDOW records, and its "edges" are filled.
GOLDEN_WRAPPED_LOG = (
    "d759ef7f3146b3b49f167a1c95210cbe112f2f35af96db685b7addb66cdec449",
    "80be23eab017df045da46f0b96040feff441b3b5c08349f1306c17c47c7b8c61",
    "53daff80012e2280fe083859b983ca7623f9db883e4f14cc8a9f3854bee470d0",
)

# scenario -> (sha256 of the synthesized pcap bytes, sha256 of the sorted-key manifest JSON)
GOLDEN_SYNTH = {
    "malformed-dcp": (
        "67afa8454bb6a76082479d83f40f6642c2365af948cbfedc4cfdb062ba103edc",
        "2673c88c462094db087c4bb12657b0d268338e9de243144f1945f403bf9ab30b",
    ),
    "normal-startup": (
        "917286e21f70508c5c217c13e18efd1f5b43461c61842e2910e9bd6417b2042b",
        "6eb65305133d702493c6659624d5980c76e88846580c52cfa266fc07264687d0",
    ),
    "normal-startup-1": (
        "b30984c24ba7cf7bd2c0d071d2366df7697e43eb359a6ec59dcc86b7372598ac",
        "da2c5bc8c8485a0626d71a04aa13a2ea89cc25c758a56d12ea28e5351e3011be",
    ),
    "normal-startup-5": (
        "d3894042c2367cbe115e87db4bae2bd926d888b2a37234953db6c82e4e05d307",
        "abdaface736dbad21007b2c38d0f1ca861ed8de048dbf59b37e5ecaf638c7240",
    ),
    "normal-startup-lldp": (
        "714a58a632f2cf9112f031279a9a230725e45a962e52a7bcfd20fe51f822d319",
        "c91fb8f1b345c0913f6902c1cd274b9d91b02336dd5053984c2974d870f9f8f0",
    ),
    "rename-attack": (
        "7784d76e4acb990b2b0a9cf391c883129a4f234d2da04072b40f39074b384137",
        "79904adebcbef4f7a46990a895757018636d54573463fbe27899cdddc689648a",
    ),
    "rogue-connect": (
        "0bdc9c720b852a7e8a754fcde6341a3aa6c328b5d985a4215de785dd79cb3def",
        "6715cd6e5299fe2ce6c4b4bd507d58843900867821288f8bf1b64c4b04dbbf05",
    ),
}

# FSM kind -> sha256 of `poet fsm-export KIND` on stdout
GOLDEN_FSM_EXPORT = {
    "device": "de164aa005d73596c16b42940ead2befa4840f5f992daaabae8d17b2b8a6e8f8",
    "connection": "754b062e364b9dab3e7ea3e7b9a354b4af20bf243760c830711228c4b3820dba",
    "system": "ff868be5d395cab54065638a10da7ca29a5e59dc02e7ef509bff8ec11517e4eb",
}

# sha256 of every dissect outcome over _dissect_corpus(), one line each: the record's
# repr, or the (protocol, offset, reason) of a refusal. It holds each parser's output
# and refusal precedence byte for byte. A PN-CM record's ar_uuid shows as the repr of
# its 16 wire bytes.
GOLDEN_DISSECT = "3818e3444838a6c7b5e5cad9068ec0c0a27a7e24418823777539a557187e7221"

# The same over test_golden_vlan_tagged_dissect_outcomes' 802.1Q-tagged frames, whose
# payload and refusal offsets start 4 bytes later.
GOLDEN_DISSECT_VLAN = "dce34d4979204ceb49a7df18f49f6c9cb87f61131447753cb99a4c54271bf2c3"

# The same over test_golden_cm_dissect_outcomes' ARP and IPv4 frames: every PN-CM, UDP,
# IPv4 and ARP refusal offset, at every cut, untagged and tagged.
GOLDEN_DISSECT_CM = "fb127aa69b172a5cb963869f578bbdb5371699fc1f40d004d76e1100c6a8e6ca"

# FSM kind -> (sha256 of its compiled table as json.dumps with sorted keys, sha256 of its
# sorted alphabet as json.dumps). It holds what every machine accepts and rejects, whatever
# order its edges are listed in.
GOLDEN_FSM_TABLES = {
    "device": (
        "696e5ba62fb4bff9257c2a97b1056e5b71ea128551f4d6432580b74cf18907db",
        "54fe0b29dd246ac9e6c88a17e34774b7ed5e64cd5b452838619a5e96d83b731b",
    ),
    "connection": (
        "7008bf0ffb1a3db655010da4dd74c75fdacd53b8f48e9e245afb15ed1c7d9cd2",
        "c9b59d46c38533bdcf1cdabd33400325b570730c9412d831702a9551baf8986a",
    ),
    "system": (
        "a26e1aceb9533ddef7cb7c6c9572dc988f3874e9b741ef02d8d62ddf7a720473",
        "5f532b431eb5234905106ac35024dda445b3c4feaa8965dc0583f4ff4eeaaeec",
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_covers_every_builtin():
    assert set(GOLDEN) == set(GOLDEN_SYNTH) == set(BUILTIN_SCENARIOS)


def _report_digests(spec, path) -> tuple[str, str, str]:
    """The digests of the report, of the report without "edges" and of the alert stream
    of `spec`'s capture, read back from `path`; the report's bytes are checked against
    the stdlib's indenting encoder on the way."""
    path.write_bytes(synthesize(spec).pcap_bytes)
    sink = io.StringIO()
    report = Tracker(TrackerConfig(alert_sink=sink)).process(open_capture(path))
    text = report.dumps()
    doc = report.to_json()
    assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    del doc["edges"]
    without_edges = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    return _sha256(text), _sha256(without_edges), _sha256(sink.getvalue())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_report_and_alerts(name, tmp_path):
    assert _report_digests(BUILTIN_SCENARIOS[name](), tmp_path / f"{name}.pcap") == GOLDEN[name]


def test_golden_wrapped_log_report_and_alerts(tmp_path):
    spec = replace(rename_attack_spec(), cyclic_rounds=120)
    assert _report_digests(spec, tmp_path / "wrapped.pcap") == GOLDEN_WRAPPED_LOG


@pytest.mark.parametrize("name", sorted(GOLDEN_SYNTH))
def test_golden_synth_pcap_and_manifest(name):
    result = synthesize(BUILTIN_SCENARIOS[name]())
    pcap_digest = hashlib.sha256(result.pcap_bytes).hexdigest()
    manifest_digest = _sha256(json.dumps(result.manifest, sort_keys=True))
    assert (pcap_digest, manifest_digest) == GOLDEN_SYNTH[name]


@pytest.mark.parametrize("kind", sorted(GOLDEN_FSM_EXPORT))
def test_golden_fsm_export(kind):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["fsm-export", kind]) == 0
    assert _sha256(out.getvalue()) == GOLDEN_FSM_EXPORT[kind]


@pytest.mark.parametrize("table_of", [device_fsm_table, connection_fsm_table, system_fsm_table])
def test_golden_fsm_table_and_alphabet(table_of):
    definition = table_of()
    table = _sha256(json.dumps(definition.table, sort_keys=True))
    alphabet = _sha256(json.dumps(sorted(definition.alphabet)))
    assert (table, alphabet) == GOLDEN_FSM_TABLES[definition.name]


def _dissect_seeds() -> list[bytes]:
    """LLDP and DCP frames of every kind poet reads."""
    ctrl = bytes.fromhex("020000000100")
    dev = bytes.fromhex("020000000200")
    port = bytes.fromhex("020000000201")
    return [
        encode_lldp(dev, port, 20, "lift-motor", ("port-001",), "192.168.0.11"),
        encode_lldp(dev, port, 20, None, chassis_name="lift-motor", port_name="lift-motor"),
        encode_lldp(dev, port, 0, None),
        dcp_identify_response(dev, ctrl, 1, "lift-motor", ip="192.168.0.11"),
        dcp_set_name_request(ctrl, dev, 2, "ufo"),
        dcp_set_ip_request(ctrl, dev, 3, "192.168.0.11", "255.255.255.0", "0.0.0.0"),
        dcp_set_response(dev, ctrl, 4, 1, 2, error=3),
        *(dcp_identify_request(ctrl, 5, name) for name in ("", "Lift_Motor", "-a..b-", "c" * 64, "d" * 241)),
    ]


def _dissect_corpus() -> list[bytes]:
    """The fuzz corpus; LLDP stations and named DCP Identify requests as identify-flood builds
    them; and each of _dissect_seeds() cut at every length and with each byte after the
    Ethernet header set to 0x00, 0x01 and 0xff in turn."""
    frames = fuzz_corpus(seed=7, count=5000)
    requester = bytes.fromhex(ATTACKER_MAC.replace(":", ""))
    for i in range(200):
        chassis = bytes([0x02, 0, 0, 0, i >> 8, i & 0xFF])
        port = bytes([0x06]) + chassis[1:]
        frames.append(encode_lldp(chassis, port, ttl=20, station_name=f"st-{i:05d}-{i * 7919:06x}"))
        frames.append(dcp_identify_request(requester, i + 1, f"ghost-{i:05d}-{i * 104729:06x}"))
    for data in _dissect_seeds():
        frames += (data[:cut] for cut in range(14, len(data)))
        frames += (
            data[:at] + bytes([value]) + data[at + 1 :] for at in range(14, len(data)) for value in (0, 1, 0xFF)
        )
    return frames


def _dissect_lines(frames: list[bytes]) -> list[str]:
    """Each frame's dissect outcome: the record's repr, or the (protocol, offset, reason) of a refusal."""
    lines = []
    for index, data in enumerate(frames):
        try:
            lines.append(repr(dissect(RawFrame(0, 0, data, index))))
        except MalformedFrame as exc:
            lines.append(repr((exc.protocol, exc.offset, exc.reason)))
    return lines


def test_golden_dissect_outcomes():
    assert _sha256("\n".join(_dissect_lines(_dissect_corpus()))) == GOLDEN_DISSECT


def test_golden_dissect_outcomes_hold_when_lldp_records_come_from_the_table(monkeypatch):
    """The corpus dissected three times in one process gives its golden outcomes each time,
    at the LLDP table's own bound and at one above the corpus's size. A PDU's facts are kept
    from its second sighting, so at the latter the third pass reads every LLDP record from
    the table: it parses only the LLDP frames it refuses."""
    dissect_module = importlib.import_module("poet.dissect")
    parse_lldp = dissect_module._parse_lldp
    frames = _dissect_corpus()
    for bound in (dissect_module.LLDP_FACTS_BOUND, len(frames)):
        monkeypatch.setattr(dissect_module, "LLDP_FACTS_BOUND", bound)
        dissect_module._LLDP_FACTS.clear()
        for _ in range(2):
            assert _sha256("\n".join(_dissect_lines(frames))) == GOLDEN_DISSECT
        parsed = []

        def counted(*args):
            parsed.append(args)
            return parse_lldp(*args)

        monkeypatch.setattr(dissect_module, "_parse_lldp", counted)
        lines = _dissect_lines(frames)
        monkeypatch.setattr(dissect_module, "_parse_lldp", parse_lldp)
        assert _sha256("\n".join(lines)) == GOLDEN_DISSECT
    assert len(parsed) == sum(line.startswith("('lldp',") for line in lines) > 0


def test_golden_vlan_tagged_dissect_outcomes():
    """An 802.1Q-tagged copy of each seed and of a good cyclic frame, cut at every length
    from 14 bytes up, keeps each record, refusal reason and offset."""
    cyclic = next(plan.data for plan in synthesize(normal_startup_spec(1)).frames if plan.label.startswith("pnio"))
    frames = []
    for data in (*_dissect_seeds(), cyclic):
        tagged = data[:12] + b"\x81\x00\x20\x05" + data[12:]  # priority 1, VLAN 5
        frames += (tagged[:cut] for cut in range(14, len(tagged) + 1))
    assert _sha256("\n".join(_dissect_lines(frames))) == GOLDEN_DISSECT_VLAN


def test_golden_cm_dissect_outcomes():
    """Every ARP and IPv4 frame of a two-device startup with acyclic exchange and of the rogue
    connect, cut at every length from 14 bytes up, with each byte after the Ethernet header
    set to 0x00, 0x01 and 0xff in turn, and as an 802.1Q-tagged copy cut at every length."""
    seeds = [
        plan.data
        for spec in (normal_startup_spec(2, cyclic_rounds=1, acyclic_exchange=True), rogue_connect_spec())
        for plan in synthesize(spec).frames
        if plan.data[12:14] in (b"\x08\x00", b"\x08\x06")  # IPv4, ARP
    ]
    frames = []
    for data in seeds:
        frames += (data[:cut] for cut in range(14, len(data) + 1))
        frames += (
            data[:at] + bytes([value]) + data[at + 1 :] for at in range(14, len(data)) for value in (0, 1, 0xFF)
        )
        tagged = data[:12] + b"\x81\x00\x20\x05" + data[12:]  # priority 1, VLAN 5
        frames += (tagged[:cut] for cut in range(14, len(tagged) + 1))
    assert (len(seeds), len(frames)) == (49, 38979)
    assert _sha256("\n".join(_dissect_lines(frames))) == GOLDEN_DISSECT_CM
