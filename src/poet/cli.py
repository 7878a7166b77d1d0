"""Command-line surface: analyze captures, synthesize scenarios, export data.

Exit codes: 0 success (analyze: no anomalies), 2 anomalies found (analyze
only), 1 operational error of any kind.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from .capture import CaptureFormatError, open_capture
from .models import connection_fsm_table, device_fsm_table, system_fsm_table
from .synth import BUILTIN_SCENARIOS, ScenarioError, ScenarioSpec, builtin_scenario, synthesize
from .tracker import DEFAULT_SYSTEM_NAME, Tracker, TrackerConfig, TrackerReport

log = logging.getLogger("poet")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_ANOMALIES = 2


class _Parser(argparse.ArgumentParser):
    # Usage problems are operational errors; exit 2 is reserved for detections.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="poet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    analyze = sub.add_parser("analyze", help="analyze a capture, stream anomaly alerts")
    analyze.add_argument("capture")
    analyze.add_argument("--report", help="write the full report JSON here")
    analyze.add_argument("--alerts", help="write alert JSON-lines here instead of stdout")
    analyze.add_argument("--system-name", default=DEFAULT_SYSTEM_NAME)

    report = sub.add_parser("report", help="analyze a capture and emit the report JSON")
    report.add_argument("capture")
    report.add_argument("--out", help="write the report here instead of stdout")
    report.add_argument("--system-name", default=DEFAULT_SYSTEM_NAME)

    synth = sub.add_parser("synth", help="synthesize a scenario capture + manifest")
    source = synth.add_mutually_exclusive_group(required=True)
    source.add_argument("--spec", help="scenario spec JSON file")
    source.add_argument("--builtin", choices=sorted(BUILTIN_SCENARIOS))
    synth.add_argument("--out", required=True, help="output prefix (PREFIX.pcap, PREFIX.manifest.json)")

    inventory = sub.add_parser("inventory", help="extract the asset inventory from a capture")
    inventory.add_argument("capture")
    inventory.add_argument("--out", help="write inventory JSON here instead of stdout")

    export = sub.add_parser("fsm-export", help="export a state machine definition")
    export.add_argument("kind", choices=["device", "connection", "system"])
    export.add_argument("--out", help="write definition JSON here instead of stdout")

    return parser


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)


def _run_tracker(capture_path: str, system_name: str, alert_sink=None) -> TrackerReport:
    stream = open_capture(capture_path)
    tracker = Tracker(TrackerConfig(system_name=system_name, alert_sink=alert_sink))
    return tracker.process(stream)


def cmd_analyze(args) -> int:
    sink_file = None
    try:
        sink = sys.stdout
        if args.alerts:
            sink_file = open(args.alerts, "w", encoding="utf-8")
            sink = sink_file
        report = _run_tracker(args.capture, args.system_name, alert_sink=sink)
    finally:
        if sink_file is not None:
            sink_file.close()
    if args.report:
        _write_text(args.report, report.dumps())
    anomalies = report.anomalies
    log.info("analyzed %s frames, %d anomalies", report.summary["frames"], len(anomalies))
    return EXIT_ANOMALIES if anomalies else EXIT_OK


def cmd_report(args) -> int:
    report = _run_tracker(args.capture, args.system_name)
    _write_text(args.out, report.dumps())
    return EXIT_OK


def cmd_synth(args) -> int:
    if args.builtin:
        spec = builtin_scenario(args.builtin)
    else:
        with open(args.spec, "r", encoding="utf-8") as f:
            spec = ScenarioSpec.from_json(json.load(f))
    result = synthesize(spec)
    pcap_path, manifest_path = result.write(args.out)
    log.info("wrote %s and %s", pcap_path, manifest_path)
    return EXIT_OK


def cmd_inventory(args) -> int:
    stream = open_capture(args.capture)
    tracker = Tracker()
    tracker.process(stream)
    _write_text(args.out, tracker.inventory.export_json())
    return EXIT_OK


def cmd_fsm_export(args) -> int:
    table = {
        "device": device_fsm_table,
        "connection": connection_fsm_table,
        "system": system_fsm_table,
    }[args.kind]()
    _write_text(args.out, json.dumps(table.export(), sort_keys=True, indent=2) + "\n")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=getattr(logging, os.environ.get("POET_LOG", "WARNING").upper(), logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "analyze": cmd_analyze,
        "report": cmd_report,
        "synth": cmd_synth,
        "inventory": cmd_inventory,
        "fsm-export": cmd_fsm_export,
    }
    try:
        return handlers[args.command](args)
    except (OSError, CaptureFormatError, ScenarioError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"poet: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
