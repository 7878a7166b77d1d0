"""Command-line surface: analyze captures, synthesize scenarios, export data.

Exit codes: 0 success (analyze: no anomalies), 2 anomalies found (analyze
only), 1 operational error of any kind, 130 interrupted by Ctrl-C (SIGINT).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from .capture import CaptureFormatError, open_capture
from .models import connection_fsm_table, device_fsm_table, system_fsm_table
from .tracker import DEFAULT_SYSTEM_NAME, Tracker, TrackerConfig, TrackerReport, dumps_inventory

log = logging.getLogger("poet")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_ANOMALIES = 2
EXIT_INTERRUPTED = 130  # 128 + SIGINT, the status a shell shows for a process that Ctrl-C ends


class _BuiltinNames:
    """`--builtin`'s choices, the builtin scenarios' names: read from synth only when a synth
    argument needs them, so that no other command imports the generator."""

    def __iter__(self):
        from .synth import BUILTIN_SCENARIOS

        return iter(sorted(BUILTIN_SCENARIOS))


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
    # Set after add_argument, which reads the choices to check the usage it would print.
    source.add_argument("--builtin").choices = _BuiltinNames()
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


def _run_tracker(stream, system_name: str, alert_sink=None) -> TrackerReport:
    tracker = Tracker(TrackerConfig(system_name=system_name, alert_sink=alert_sink))
    return tracker.process(stream)


def cmd_analyze(args) -> int:
    # The capture is opened first, so one that cannot be read leaves no alerts file.
    stream = open_capture(args.capture)
    if args.alerts:
        with open(args.alerts, "w", encoding="utf-8") as sink:
            report = _run_tracker(stream, args.system_name, alert_sink=sink)
    else:
        report = _run_tracker(stream, args.system_name, alert_sink=sys.stdout)
    if args.report:
        _write_text(args.report, report.dumps())
    anomalies = report.anomalies
    log.info("analyzed %s frames, %d anomalies", report.summary["frames"], len(anomalies))
    return EXIT_ANOMALIES if anomalies else EXIT_OK


def cmd_report(args) -> int:
    report = _run_tracker(open_capture(args.capture), args.system_name)
    _write_text(args.out, report.dumps())
    return EXIT_OK


def _error(exc: Exception) -> int:
    print(f"poet: error: {exc}", file=sys.stderr)
    return EXIT_ERROR


def cmd_synth(args) -> int:
    from .synth import ScenarioError, ScenarioSpec, builtin_scenario, synthesize

    try:
        if args.builtin:
            spec = builtin_scenario(args.builtin)
        else:
            with open(args.spec, "r", encoding="utf-8") as f:
                spec = ScenarioSpec.from_json(json.load(f))
        result = synthesize(spec)
    except ScenarioError as exc:
        return _error(exc)
    pcap_path, manifest_path = result.write(args.out)
    log.info("wrote %s and %s", pcap_path, manifest_path)
    return EXIT_OK


def cmd_inventory(args) -> int:
    report = _run_tracker(open_capture(args.capture), DEFAULT_SYSTEM_NAME)
    _write_text(args.out, dumps_inventory(report.assets))
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
    except (OSError, CaptureFormatError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        return _error(exc)
    except KeyboardInterrupt:
        print("poet: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
