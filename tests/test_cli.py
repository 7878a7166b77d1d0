"""Command-line contract: exit codes, file outputs, streamed alerts."""

from __future__ import annotations

import contextlib
import json
import os
import threading

import pytest

import poet.cli
from poet.capture import open_capture
from poet.cli import main
from poet.synth import BUILTIN_SCENARIOS, builtin_scenario, synthesize, write_pcapng_bytes
from poet.tracker import Tracker


def _write_builtin(tmp_path, name: str) -> str:
    result = synthesize(builtin_scenario(name))
    prefix = str(tmp_path / name)
    result.write(prefix)
    return prefix


def test_analyze_clean_exit_zero(tmp_path, capsys):
    prefix = _write_builtin(tmp_path, "normal-startup")
    assert main(["analyze", prefix + ".pcap"]) == 0
    assert capsys.readouterr().out == ""


def test_analyze_rename_attack_exit_two_one_line(tmp_path, capsys):
    prefix = _write_builtin(tmp_path, "rename-attack")
    code = main(["analyze", prefix + ".pcap"])
    out = capsys.readouterr().out
    assert code == 2
    lines = [line for line in out.splitlines() if line]
    anomaly_lines = [
        line for line in lines if json.loads(line)["severity"] == "anomaly"
    ]
    assert len(anomaly_lines) == 1
    assert json.loads(anomaly_lines[0])["offending_event"] == "name_set_requested"


def test_analyze_missing_file_exit_one(tmp_path, capsys):
    code = main(["analyze", str(tmp_path / "missing.pcap")])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("content", [None, b"not a capture file"], ids=["missing", "unknown-magic"])
def test_analyze_unreadable_capture_writes_no_alerts_file(tmp_path, capsys, content):
    capture = tmp_path / "nope.pcap"
    if content is not None:
        capture.write_bytes(content)
    code = main(["analyze", str(capture), "--alerts", str(tmp_path / "a.jsonl")])
    assert code == 1
    assert "poet: error:" in capsys.readouterr().err
    assert not (tmp_path / "a.jsonl").exists()


def test_analyze_report_and_alert_files(tmp_path):
    for name, expected_code, anomalies in [("rename-attack", 2, 1), ("normal-startup", 0, 0)]:
        prefix = _write_builtin(tmp_path, name)
        report_path = tmp_path / f"{name}.report.json"
        alerts_path = tmp_path / f"{name}.alerts.jsonl"
        code = main(
            ["analyze", prefix + ".pcap", "--report", str(report_path), "--alerts", str(alerts_path)]
        )
        assert code == expected_code
        report = json.loads(report_path.read_text())
        assert report["summary"]["anomalies"] == anomalies
        lines = [json.loads(line) for line in alerts_path.read_text().splitlines() if line]
        assert len(lines) == len(report["alerts"])
        # `poet report` writes the same bytes as `poet analyze --report`.
        out_path = tmp_path / f"{name}.out.json"
        assert main(["report", prefix + ".pcap", "--out", str(out_path)]) == 0
        assert out_path.read_bytes() == report_path.read_bytes()


def test_synth_builtin_writes_pair(tmp_path):
    out = tmp_path / "scn"
    assert main(["synth", "--builtin", "rename-attack", "--out", str(out)]) == 0
    assert (tmp_path / "scn.pcap").exists()
    manifest = json.loads((tmp_path / "scn.manifest.json").read_text())
    assert manifest["expected"]["anomalies"]


def test_synth_unknown_builtin_exit_one_lists_the_builtins(tmp_path, capsys):
    """argparse refuses the name: the usage line and the error both list every builtin."""
    code = main(["synth", "--builtin", "nope", "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    usage, _, error = err.partition("poet synth: error: ")
    assert usage.startswith("usage: poet synth")
    names = sorted(BUILTIN_SCENARIOS)
    assert "--builtin {" + ",".join(names) + "}" in " ".join(usage.split())
    assert error.startswith("argument --builtin: invalid choice:")
    assert "nope" in error
    assert all(name in error for name in names)
    assert list(tmp_path.iterdir()) == []


_PLC = {"mac": "02:00:00:00:01:00", "name": "plc-1", "ip": "1.2.3.4"}
_IO = {"mac": "02:00:00:00:02:00", "name": "io", "ip": "1.2.3.5"}


@pytest.mark.parametrize(
    "spec, names",
    [
        pytest.param(
            {"controller": _PLC, "devices": [{**_IO, "mac": _PLC["mac"]}]}, None, id="duplicate-mac"
        ),
        pytest.param(
            {"controller": _PLC, "devices": [{**_IO, "mac": _PLC["mac"].replace(":", "-")}]},
            None,
            id="duplicate-mac-other-spelling",
        ),
        pytest.param({"controller": "plc"}, None, id="controller-not-object"),
        pytest.param(
            {"controller": _PLC, "devices": [{**_IO, "submodules": [{"slot": 1}]}]},
            None,
            id="submodule-missing-keys",
        ),
        pytest.param({"controller": {**_PLC, "mac": "zz"}}, None, id="bad-controller-mac"),
        pytest.param(
            {"controller": _PLC, "devices": [_IO], "ports_per_device": 300},
            "port number 300 exceeds 255",
            id="ports-per-device-300",
        ),
        pytest.param(
            {"controller": _PLC, "devices": [_IO], "writes_per_device": 300},
            None,
            id="writes-per-device-300",
        ),
        pytest.param(
            {"controller": _PLC, "devices": [_IO], "start_time": -5}, None, id="start-time-negative"
        ),
        pytest.param(
            {"controller": _PLC, "devices": [{**_IO, "submodules": [[1, 1, "input", 70000]]}]},
            "IOCR data length 70001 is outside 0..65535",
            id="submodule-length-70000",
        ),
        pytest.param(
            {"controller": _PLC, "devices": [{**_IO, "submodules": [[70000, 1, "input", 1]]}]},
            "submodule slot 70000 is outside 0..65535",
            id="slot-70000",
        ),
        pytest.param(
            {
                "controller": _PLC,
                "devices": [_IO],
                "injections": [{"after_index": -3, "attack": "malformed"}],
            },
            None,
            id="after-index-negative",
        ),
        pytest.param(
            {"controller": _PLC, "devices": [{**_IO, "name": "n" * 600}]},
            None,
            id="station-name-600",
        ),
        pytest.param(
            {"controller": _PLC, "devices": [{**_IO, "name": "io\ud800"}]},
            None,
            id="station-name-lone-surrogate",
        ),
        pytest.param(
            {
                "controller": _PLC,
                "devices": [{**_IO, "submodules": [[1, i, "input", 1] for i in range(7000)]}],
            },
            None,
            id="submodules-7000",
        ),
        pytest.param(
            {"controller": {**_PLC, "name": "Lift_Motor"}, "devices": [_IO]},
            None,
            id="station-name-Lift_Motor",
        ),
        pytest.param(
            {"controller": _PLC, "devices": [{**_IO, "name": "a" * 241}]},
            None,
            id="station-name-241",
        ),
        pytest.param(
            {"controller": _PLC, "devices": [{**_IO, "name": "-lift"}]},
            None,
            id="station-name--lift",
        ),
        pytest.param(
            {
                "controller": _PLC,
                "devices": [_IO],
                "injections": [
                    {"after_index": 0, "attack": "rename", "target": "io", "new_name": "n" * 70000}
                ],
            },
            None,
            id="rename-new-name-70000",
        ),
        pytest.param(
            {"controller": _PLC, "devices": [_IO], "gap_seconds": float("inf")},
            None,
            id="gap-seconds-infinity",
        ),
        pytest.param(
            {"controller": _PLC, "devices": [_IO], "gap_seconds": float("nan")},
            None,
            id="gap-seconds-nan",
        ),
        pytest.param(
            {"controller": _PLC, "devices": [_IO], "gap_seconds": -0.5},
            None,
            id="gap-seconds-negative",
        ),
        pytest.param(
            {"controller": _PLC, "devices": [_IO], "acyclic_exchange": True, "writes_per_device": 0},
            None,
            id="acyclic-exchange-without-writes",
        ),
        pytest.param(
            {
                "controller": _PLC,
                "devices": [_IO],
                "injections": [{"after_index": 0, "attack": "malformed", "protocol": "bogus"}],
            },
            None,
            id="malformed-protocol-bogus",
        ),
        pytest.param(
            {"controller": _PLC, "devices": [_IO], "cyclic_rounds": -1},
            None,
            id="cyclic-rounds-negative",
        ),
        pytest.param(
            {"controller": _PLC, "devices": [], "cyclic_rounds": 1_000_000_000_000},
            None,
            id="cyclic-rounds-10e12-no-devices",
        ),
        pytest.param(
            {"controller": _PLC, "devices": [_IO], "cyclic_rounds": 100_001},
            None,
            id="cyclic-rounds-100001",
        ),
        pytest.param(
            {"controller": _PLC, "devices": [_IO], "cyclic_rounds": 2.5},
            None,
            id="cyclic-rounds-2.5",
        ),
        # A JSON boolean is not a number, though Python's bool is an int.
        pytest.param(
            {"controller": _PLC, "devices": [_IO], "cyclic_rounds": True},
            "cyclic_rounds",
            id="cyclic-rounds-true",
        ),
        pytest.param(
            {"controller": _PLC, "devices": [_IO], "gap_seconds": True},
            "gap_seconds",
            id="gap-seconds-true",
        ),
        pytest.param(
            {"controller": _PLC, "devices": [_IO], "ports_per_device": True},
            "ports_per_device",
            id="ports-per-device-true",
        ),
        pytest.param(
            {"controller": _PLC, "devices": [_IO], "writes_per_device": False},
            "writes_per_device",
            id="writes-per-device-false",
        ),
        pytest.param(
            {"controller": _PLC, "devices": [_IO], "lldp_refresh_every": -2},
            "lldp_refresh_every",
            id="lldp-refresh-every-negative",
        ),
    ],
)
def test_synth_invalid_spec_exit_one(tmp_path, capsys, spec, names):
    """Each invalid spec is refused with exit 1; an encoder's refusal names the field."""
    spec_path = tmp_path / "bad.json"
    spec_path.write_text(json.dumps(spec))
    code = main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert "poet: error:" in err
    if names is not None:
        assert names in err


def test_synth_spec_missing_key_exit_one_names_key(tmp_path, capsys):
    spec_path = tmp_path / "empty.json"
    spec_path.write_text("{}")
    code = main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "x")])
    assert code == 1
    assert "missing key 'controller'" in capsys.readouterr().err


def test_synth_spec_not_utf8_exit_one_writes_nothing(tmp_path, capsys):
    spec_path = tmp_path / "latin1.json"
    spec_path.write_bytes(b'{"controller": "\xff"}')
    code = main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "x")])
    assert code == 1
    assert "poet: error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [spec_path]


def test_key_error_in_handler_propagates(tmp_path, monkeypatch):
    # A KeyError inside a command is a bug, not an operational error.
    def broken(args):
        raise KeyError("bug")

    monkeypatch.setattr(poet.cli, "cmd_fsm_export", broken)
    with pytest.raises(KeyError, match="bug"):
        main(["fsm-export", "device", "--out", str(tmp_path / "device.json")])


def test_interrupt_during_analyze_exits_130_with_one_line(tmp_path, capsys, monkeypatch):
    # Ctrl-C while frames are read: one line on stderr and the shell's status for SIGINT, no traceback.
    def interrupted(self, stream):
        raise KeyboardInterrupt

    monkeypatch.setattr(Tracker, "process", interrupted)
    prefix = _write_builtin(tmp_path, "rename-attack")
    try:
        code = main(["analyze", prefix + ".pcap"])
    except KeyboardInterrupt:  # escaping, it would stop the whole test session
        pytest.fail("KeyboardInterrupt escaped main")
    assert code == 130
    assert capsys.readouterr().err == "poet: interrupted\n"


def test_synth_then_analyze_matches_manifest(tmp_path, capsys):
    for name, expected_code in (("normal-startup", 0), ("rogue-connect", 2)):
        out = tmp_path / name
        assert main(["synth", "--builtin", name, "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / (name + ".manifest.json")).read_text())
        code = main(["analyze", str(tmp_path / (name + ".pcap"))])
        capsys.readouterr()
        assert code == expected_code
        assert (code == 2) == bool(manifest["expected"]["anomalies"])


def test_fsm_export_device_fifteen_states(tmp_path):
    out = tmp_path / "device.json"
    assert main(["fsm-export", "device", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["states"]) == 15
    empirical = [e for e in doc["edges"] if e["empirical"]]
    assert len(empirical) == 2


def test_fsm_export_connection_seven_states(tmp_path):
    out = tmp_path / "connection.json"
    assert main(["fsm-export", "connection", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["states"]) == 7
    assert doc["initial_state"] == "ConnectionCreation"
    assert set(doc["state_operations"]) == set(doc["states"])


def _analyze_outputs(tmp_path, capture: str) -> tuple[int, bytes, bytes]:
    """`poet analyze` of `capture`: its exit code, alert stream and report bytes."""
    alerts, report = tmp_path / "alerts.jsonl", tmp_path / "report.json"
    alerts.unlink(missing_ok=True)
    report.unlink(missing_ok=True)
    code = main(["analyze", capture, "--alerts", str(alerts), "--report", str(report)])
    return code, alerts.read_bytes(), report.read_bytes()


@contextlib.contextmanager
def _feeding_pipe(data: bytes, chunk: int = 1000):
    """The read end of a pipe that a thread fills with `data`, in `chunk`-byte writes that cut records."""
    read_end, write_end = os.pipe()

    def writer():
        try:
            for at in range(0, len(data), chunk):
                os.write(write_end, data[at : at + chunk])
        except BrokenPipeError:
            pass  # the reader stopped early; its outputs say so
        finally:
            os.close(write_end)

    thread = threading.Thread(target=writer, daemon=True)
    thread.start()
    try:
        yield read_end
    finally:
        os.close(read_end)  # a writer still blocked on a full pipe then stops
        thread.join(timeout=60)
    assert not thread.is_alive()


def _analyze_piped(tmp_path, data: bytes, chunk: int) -> tuple[int, bytes, bytes]:
    """`_analyze_outputs` of `data` written into a pipe in `chunk`-byte writes, opened as /dev/fd/N."""
    with _feeding_pipe(data, chunk) as read_end:
        return _analyze_outputs(tmp_path, f"/dev/fd/{read_end}")


@contextlib.contextmanager
def _stdin_of(data: bytes):
    """File descriptor 0 reads `data` from a pipe; it is restored on exit."""
    with _feeding_pipe(data) as read_end:
        saved = os.dup(0)
        os.dup2(read_end, 0)
        try:
            yield
        finally:
            os.dup2(saved, 0)
            os.close(saved)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd to open a pipe by path")
@pytest.mark.parametrize("fmt", ["pcap", "pcapng"])
@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_capture_read_from_a_pipe_gives_the_files_outputs(tmp_path, capsys, name, fmt):
    result = synthesize(builtin_scenario(name))
    if fmt == "pcap":
        data = result.pcap_bytes
    else:
        data = write_pcapng_bytes([(plan.ts, plan.data) for plan in result.frames])
    capture = tmp_path / f"{name}.{fmt}"
    capture.write_bytes(data)
    from_file = _analyze_outputs(tmp_path, str(capture))
    # A reader that gets one byte at a time, or records cut at odd offsets, reads the same capture.
    for chunk in (1, 7, 1000):
        assert _analyze_piped(tmp_path, data, chunk) == from_file, chunk
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("fmt", ["pcap", "pcapng"])
@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_capture_read_from_stdin_as_dash_gives_the_files_outputs(tmp_path, capsys, name, fmt):
    result = synthesize(builtin_scenario(name))
    if fmt == "pcap":
        data = result.pcap_bytes
    else:
        data = write_pcapng_bytes([(plan.ts, plan.data) for plan in result.frames])
    capture = tmp_path / f"{name}.{fmt}"
    capture.write_bytes(data)
    from_file = _analyze_outputs(tmp_path, str(capture))
    with _stdin_of(data):
        assert _analyze_outputs(tmp_path, "-") == from_file
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["report", "inventory"])
def test_report_and_inventory_read_stdin_as_dash(tmp_path, command):
    prefix = _write_builtin(tmp_path, "rename-attack")
    from_file, from_stdin = tmp_path / "file.json", tmp_path / "stdin.json"
    assert main([command, prefix + ".pcap", "--out", str(from_file)]) == 0
    with open(prefix + ".pcap", "rb") as f, _stdin_of(f.read()):
        assert main([command, "-", "--out", str(from_stdin)]) == 0
    assert from_stdin.read_bytes() == from_file.read_bytes()


def test_fsm_export_system_four_states(tmp_path):
    out = tmp_path / "system.json"
    assert main(["fsm-export", "system", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["states"]) == 4
    assert doc["initial_state"] == "Inactive"


def test_fsm_export_unknown_kind_exit_one(capsys):
    assert main(["fsm-export", "widget"]) == 1
    capsys.readouterr()


def test_inventory_command(tmp_path, capsys):
    prefix = _write_builtin(tmp_path, "normal-startup")
    out = tmp_path / "inv.json"
    assert main(["inventory", prefix + ".pcap", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["assets"]) >= 3
    names = {asset["name_of_station"] for asset in doc["assets"]}
    assert {"plc-1", "lift-motor", "turntable-motor"} <= names


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_inventory_command_writes_json_dumps_bytes(tmp_path, name):
    """`poet inventory --out` writes the stdlib's sorted, two-space indented text of the inventory."""
    prefix = _write_builtin(tmp_path, name)
    out = tmp_path / "inv.json"
    assert main(["inventory", prefix + ".pcap", "--out", str(out)]) == 0
    report = Tracker().process(open_capture(prefix + ".pcap"))
    expected = json.dumps(report.inventory, sort_keys=True, indent=2) + "\n"
    assert out.read_text(encoding="utf-8") == expected


def test_report_command_stdout(tmp_path, capsys):
    prefix = _write_builtin(tmp_path, "normal-startup-1")
    assert main(["report", prefix + ".pcap"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["final_states"]["system"]["state"] == "DataExchange"


def test_usage_error_exit_one(capsys):
    assert main(["analyze"]) == 1  # missing argument
    assert main([]) == 1
    capsys.readouterr()


def test_poet_log_env_controls_verbosity(tmp_path, capsys, monkeypatch):
    prefix = _write_builtin(tmp_path, "normal-startup-1")
    monkeypatch.setenv("POET_LOG", "debug")
    assert main(["analyze", prefix + ".pcap"]) == 0
    capsys.readouterr()


def test_custom_system_name(tmp_path, capsys):
    prefix = _write_builtin(tmp_path, "normal-startup-1")
    report_path = tmp_path / "named.json"
    main(["analyze", prefix + ".pcap", "--system-name", "paint-line", "--report", str(report_path)])
    doc = json.loads(report_path.read_text())
    assert doc["summary"]["system_name"] == "paint-line"
    assert doc["final_states"]["system"]["key"] == "paint-line"
