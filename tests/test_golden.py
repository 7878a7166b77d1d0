"""Golden outputs: the exact bytes of the report and the alert stream per builtin scenario.

Determinism (C5) only compares two runs of the same code. These digests pin
the output format itself, so a change to any serialized field fails here.
A deliberate format change updates the digests and says so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import io

import pytest

from poet.capture import open_capture
from poet.synth import BUILTIN_SCENARIOS, synthesize
from poet.tracker import Tracker, TrackerConfig

NO_ALERTS = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

# scenario -> (sha256 of report.dumps(), sha256 of the streamed alert lines)
GOLDEN = {
    "malformed-dcp": (
        "cea7a0aafa43e52e8294c567d88c121178b219b918e03c25e78d3e7ee674c7a6",
        "670aa529c3fd095e887fa0152729835551dc76ca5a946a13669207f069ec0073",
    ),
    "normal-startup": (
        "44e07050e94b1f6573b8d2fbb738a0d2b808ad4e2c4a2900efc3fc5ed58b4a2c",
        NO_ALERTS,
    ),
    "normal-startup-1": (
        "9d9f7875397776e97bfaf04d8d94e27716252fdd8cbadc37f3643d212312a84c",
        NO_ALERTS,
    ),
    "normal-startup-5": (
        "582394a8194d403e89250dcd971586fef9c46d3579c49b03c3ac75a0597e7b06",
        NO_ALERTS,
    ),
    "normal-startup-lldp": (
        "3d3863235aa16d2584c1d1a5b322d55c0c38c1df419045dd19ff23dc855b587d",
        NO_ALERTS,
    ),
    "rename-attack": (
        "6fbede313e331933e35d0025346582456e29aa2d25754ca47273ef915073db74",
        "53daff80012e2280fe083859b983ca7623f9db883e4f14cc8a9f3854bee470d0",
    ),
    "rogue-connect": (
        "f62c6e8c9db5827a327c1dff9d42dc577aa063518c91973370412a17451c070c",
        "032714f66778a119fa201819b4127024f9a65327ae6c3a054c65fa11d73d266e",
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_covers_every_builtin():
    assert set(GOLDEN) == set(BUILTIN_SCENARIOS)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_report_and_alerts(name, tmp_path):
    path = tmp_path / f"{name}.pcap"
    path.write_bytes(synthesize(BUILTIN_SCENARIOS[name]()).pcap_bytes)
    sink = io.StringIO()
    report = Tracker(TrackerConfig(alert_sink=sink)).process(open_capture(path))
    assert (_sha256(report.dumps()), _sha256(sink.getvalue())) == GOLDEN[name]
