"""poet benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload cyclic-steady --seed 1 --seconds 45 --trace 0

The workload's capture is synthesized from the seed outside every timed
section, written to a scratch directory in the checkout and read back through
`open_capture`, exactly as `poet analyze` and `poet report` read a file.
Repetitions run one after another in this process, and every one is checked
against the workload's ground truth.

--trace 0 times untraced repetitions for the end-to-end metrics. Set-up time
and peak memory come from fresh interpreters (probe.py). Before each
repetition a set-up probe and a pass of calibrate.py's kernel run, and every
end-to-end time is divided by the host's slowness the kernel measured over
the run, so that other tenants' load on a shared host does not move it.
Peak memory is not divided. --trace 1 alternates untraced and traced
repetitions. The traced ones give the per-layer metrics,
and the two together give the tracing overhead. The spans of the last traced
repetition are written to .perfbench-out/spans-<workload>.csv.

A summary goes to stdout. The last line is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 1 if any repetition
fails its checks.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from calibrate import REFERENCE_S, Kernel

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBE = Path(__file__).resolve().parent / "probe.py"
SETUP_PROBES = 9
MIN_REPETITIONS = 3


def _load_program():
    """Import poet from this checkout's sources, never from anywhere else."""
    if not (SRC / "poet" / "__init__.py").is_file():
        sys.exit(f"perfbench: no poet sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import poet

    if Path(poet.__file__).resolve().parent != SRC / "poet":
        sys.exit(f"perfbench: imported poet from {poet.__file__}, not from {SRC}")


def _stamped(stream, stamps: list[int]):
    """The capture stream, stamping the clock each time the tracker pulls a frame."""
    clock = time.perf_counter_ns
    stamps.append(clock())
    for item in stream:
        stamps.append(clock())
        yield item
    stamps.append(clock())


def _untraced(workload, path: Path) -> dict:
    from poet import Tracker, TrackerConfig, open_capture
    from workloads import check_run

    sink = io.StringIO()
    tracker = Tracker(TrackerConfig(alert_sink=sink))
    stamps: list[int] = []
    gc.collect()
    start = time.perf_counter()
    report = tracker.process(_stamped(open_capture(path), stamps))
    analyzed = time.perf_counter()
    text = report.dumps()
    done = time.perf_counter()
    return {
        "analyze_s": analyzed - start,
        "report_s": done - start,
        # Per-frame service time percentiles of this repetition, in µs.
        "frame_us": statistics.quantiles(
            [(b - a) / 1e3 for a, b in zip(stamps, stamps[1:])], n=100, method="inclusive"
        ),
        "problems": check_run(workload, report, text, sink.getvalue()),
    }


def _traced(workload, path: Path, spans_out: Path) -> dict:
    from poet import Tracker, TrackerConfig, open_capture
    from spans import Tracer
    from workloads import check_run

    tracer = Tracer()
    sink, buffer = tracer.sink()
    tracker = Tracker(TrackerConfig(alert_sink=sink))
    gc.collect()
    with tracer.installed():
        start = time.perf_counter()
        report = tracker.process(tracer.stream(open_capture(path), tracker))
        analyzed = time.perf_counter()
        text = report.dumps()
    self_s, calls = tracer.summary()
    counts = tracer.counts
    fleet = tracker.fleet
    layers = {
        "capture.read_s": self_s.get("capture.read", 0.0),
        "capture.frames": counts["capture.frames"],
        "capture.errors": counts["capture.errors"],
        "dissect.s": self_s.get("dissect", 0.0),
        "dissect.calls": calls["dissect"],
        "dissect.malformed": counts["dissect.malformed"],
        **{
            f"dissect.frames_{tag}": counts[f"dissect.frames_{tag}"]
            for tag in ("pnio", "lldp", "dcp", "cm", "arp", "other")
        },
        "inventory.update_s": self_s.get("inventory.update", 0.0),
        "inventory.update_calls": calls["inventory.update"],
        "inventory.changes": counts["inventory.changes"],
        "inventory.conflicts": counts["inventory.conflicts"],
        "inventory.records": len(tracker.inventory),
        "inventory.lookup_s": self_s.get("inventory.lookup", 0.0),
        "inventory.lookup_calls": calls["inventory.lookup"],
        "models.derive_s": self_s.get("models.derive", 0.0),
        "models.derive_calls": calls["models.derive"],
        "models.events": counts["models.events"],
        "models.deferrals": counts["models.deferrals"],
        "fsm.fire_s": self_s.get("fsm.fire", 0.0),
        "fsm.fire_calls": calls["fsm.fire"],
        "fsm.rejected": counts["fsm.rejected"],
        "fsm.instances": 1 + len(fleet.devices) + len(fleet.connections),
        "fsm.log_records": report.summary["transitions"],
        "tracker.self_s": self_s["tracker.process"],
        "tracker.deferred_hwm": tracer.deferred_hwm,
        "tracker.sink_s": self_s.get("tracker.sink", 0.0),
        "tracker.alerts": len(report.alerts),
        "tracker.report_s": self_s["tracker.report"],
        "tracker.dumps_s": self_s["tracker.dumps"],
        "tracker.report_bytes": len(text.encode()),
        "gc.pause_s": self_s.get("gc.pause", 0.0),
        "gc.collections": counts["gc.collections"],
    }
    tracer.write(spans_out)
    return {
        "analyze_s": analyzed - start,
        "layers": layers,
        "problems": check_run(workload, report, text, buffer.getvalue()),
    }


def _probe(mode: str, capture: Path) -> tuple[float, str]:
    """Start a fresh interpreter; return its seconds until ready and its last output line."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(PROBE), mode, str(capture)], stdout=subprocess.PIPE, text=True
    ) as child:
        ready = child.stdout.readline()
        elapsed = time.perf_counter() - start
        rest = child.stdout.read()
        if child.wait(timeout=120) != 0 or ready != "ready\n":
            sys.exit(f"perfbench: {mode} probe failed")
    return elapsed, rest.strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    _load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    start = time.perf_counter()
    workload = WORKLOADS[args.workload](args.seed)
    synth_s = time.perf_counter() - start

    outcomes: list[dict] = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as scratch:
        capture = Path(scratch) / f"{workload.name}{workload.suffix}"
        capture.write_bytes(workload.capture)
        if args.trace:
            out_dir = ROOT / ".perfbench-out"
            out_dir.mkdir(exist_ok=True)
            spans_out = out_dir / f"spans-{workload.name}.csv"
            deadline = time.perf_counter() + args.seconds
            while len(outcomes) < 2 or time.perf_counter() < deadline:
                outcomes.append(_untraced(workload, capture))
                outcomes.append(_traced(workload, capture, spans_out))
        else:
            kernel = Kernel()
            peak_kib = int(_probe("rss", capture)[1])
            setups: list[float] = []
            kernel_s: list[float] = []
            # Probes and kernel passes are spread over the whole run, so that
            # they see the same host speeds as the repetitions.
            deadline = time.perf_counter() + args.seconds
            while len(outcomes) < MIN_REPETITIONS or time.perf_counter() < deadline:
                setups.append(_probe("setup", capture)[0])
                kernel_s.append(kernel.time())
                outcomes.append(_untraced(workload, capture))
            while len(setups) < SETUP_PROBES:
                setups.append(_probe("setup", capture)[0])

    failed = 0
    for number, outcome in enumerate(outcomes, start=1):
        if outcome["problems"]:
            failed += 1
            for problem in outcome["problems"]:
                print(f"perfbench: repetition {number}: {problem}", file=sys.stderr)

    def median(key: str, of: list[dict]) -> float:
        return statistics.median(o[key] for o in of)

    untraced = [o for o in outcomes if "layers" not in o]
    # A percentile of each repetition, then the median over repetitions, so a
    # few repetitions on a slow host do not make up the whole tail.
    frame_p50_us = statistics.median(o["frame_us"][49] for o in untraced)
    frame_p99_us = statistics.median(o["frame_us"][98] for o in untraced)
    frames = workload.frames
    if args.trace:
        traced = [o for o in outcomes if "layers" in o]
        metrics = {
            name: statistics.median_low(o["layers"][name] for o in traced) for name in traced[0]["layers"]
        }
        metrics["synth.s"] = synth_s
        metrics["synth.pcap_bytes"] = len(workload.capture)
        metrics["trace.overhead_frac"] = median("analyze_s", traced) / median("analyze_s", untraced) - 1
        specs = bench["per_layer"]
        counted = [name for name, value in traced[0]["layers"].items() if isinstance(value, int)]
        varying = [name for name in counted if len({o["layers"][name] for o in traced}) > 1]
        if varying:
            print(f"perfbench: counts differ between traced repetitions: {varying}", file=sys.stderr)
    else:
        # Times are divided by the host's slowness during this run; see calibrate.py.
        slowness = statistics.median(kernel_s) / REFERENCE_S
        measured = {
            "analyze_fps": frames / median("analyze_s", untraced),
            "report_fps": frames / median("report_s", untraced),
            "frame_p99_us": frame_p99_us,
            "setup_s": statistics.median(setups),
        }
        metrics = {
            "analyze_fps": measured["analyze_fps"] * slowness,
            "report_fps": measured["report_fps"] * slowness,
            "frame_p99_us": measured["frame_p99_us"] / slowness,
            "peak_rss_mb": peak_kib / 1024,
            "setup_s": measured["setup_s"] / slowness,
        }
        specs = bench["end_to_end"]
        print(
            f"host slowness {slowness:.4f} (median of {len(kernel_s)} kernel passes over {REFERENCE_S} s); "
            "as measured, before dividing: "
            + ", ".join(f"{name} {value:.6g}" for name, value in measured.items())
        )

    units = {spec["name"]: spec["unit"] for spec in specs}
    if set(units) != set(metrics):
        sys.exit(f"perfbench: metrics {sorted(set(units) ^ set(metrics))} are not both declared and measured")
    print(
        f"workload {workload.name} seed {args.seed}: {frames} frames, "
        f"{len(outcomes)} repetitions ({len(untraced)} untraced), "
        f"{frames + 1} per-frame samples each, frame_p50_us {frame_p50_us:.6g} us as measured, "
        f"wrong_output_frac {failed / len(outcomes):.4f}"
    )
    for name, value in metrics.items():
        print(f"  {name:24} {value:>16.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(outcomes),
                "failed": failed,
                "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
            }
        )
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
