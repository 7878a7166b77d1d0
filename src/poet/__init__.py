"""poet: passive PROFINET traffic analysis.

Reconstructs the operation lifecycle of a PROFINET system from captured
frames: asset inventory, per-device / per-connection / system state machines,
and anomaly alerts for protocol events that violate valid operation
transitions.
"""

from .capture import CaptureError, RawFrame, open_capture
from .dissect import MalformedFrame, ParsedFrame, dissect
from .fsm import FsmDefinition, FsmInstance, TransitionRecord
from .inventory import AssetInventory, AssetRecord
from .models import (
    ProtocolEvent,
    connection_fsm_table,
    derive_events,
    device_fsm_table,
    system_fsm_table,
)
from .tracker import AnomalyAlert, Tracker, TrackerConfig, TrackerReport

__version__ = "0.1.0"

__all__ = [
    "AnomalyAlert",
    "AssetInventory",
    "AssetRecord",
    "CaptureError",
    "FsmDefinition",
    "FsmInstance",
    "MalformedFrame",
    "ParsedFrame",
    "ProtocolEvent",
    "RawFrame",
    "Tracker",
    "TrackerConfig",
    "TrackerReport",
    "TransitionRecord",
    "connection_fsm_table",
    "derive_events",
    "device_fsm_table",
    "dissect",
    "open_capture",
    "system_fsm_table",
]
