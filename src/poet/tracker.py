"""Tracking pipeline: frames in, transition logs, inventory and alerts out.

The tracker consumes one capture stream sequentially, updates the asset
inventory, manages FSM instance lifecycles (one System per run, Devices
lazily per MAC, Connections per Connect request), routes derived events and
turns every rejected transition into an anomaly alert. Malformed frames,
orphan frames and inventory conflicts surface as diagnostic-severity alerts
instead of being dropped: in an intrusion-detection setting they are signal.
"""

from __future__ import annotations

import json
import uuid
from collections import OrderedDict, deque
from dataclasses import dataclass
from itertools import islice
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Any, Callable, Iterable, TextIO

from .capture import CaptureError, RawFrame, StreamItem
from .dissect import MalformedFrame, ParsedFrame, dissect
from .fsm import FrameRef, FsmDefinition, FsmInstance, TransitionRecord
from .inventory import AssetInventory
from .models import (
    ALL_CONNECTIONS_ESTABLISHED,
    CONNECTION_ESTABLISHED_STATES,
    ConnectionRegistration,
    CyclicBinding,
    DeferredEvent,
    ProtocolEvent,
    TrackContext,
    connection_fsm_table,
    derive_events,
    device_fsm_table,
    system_fsm_table,
)

Timestamp = tuple[int, int]

SEVERITY_ANOMALY = "anomaly"
SEVERITY_DIAGNOSTIC = "diagnostic"

DEFERRED_WINDOW = 10000  # frames an identify-by-name may stay unresolved
DEFAULT_SYSTEM_NAME = "poet-system"


@dataclass(frozen=True, slots=True)
class AnomalyAlert:
    timestamp: Timestamp
    instance_kind: str  # "device" | "connection" | "system"
    instance_key: str
    state_at_event: str
    offending_event: str
    cause: FrameRef
    explanation: str
    severity: str  # "anomaly" | "diagnostic"

    def to_json(self) -> dict:
        return {
            "timestamp": list(self.timestamp),
            "instance_kind": self.instance_kind,
            "instance_key": self.instance_key,
            "state_at_event": self.state_at_event,
            "offending_event": self.offending_event,
            "cause": self.cause.to_json(),
            "explanation": self.explanation,
            "severity": self.severity,
        }


@dataclass
class TrackerConfig:
    system_name: str = DEFAULT_SYSTEM_NAME
    alert_sink: TextIO | None = None


@dataclass
class ConnectionInfo:
    key: str
    responder_mac: str
    instance: FsmInstance

    @property
    def is_established(self) -> bool:
        return self.instance.current_state in CONNECTION_ESTABLISHED_STATES


class FsmFleet:
    """All live FSM instances of one run plus the composite-event evaluation.

    Shared between the live tracker and scenario manifest replay so that both
    sides agree on transition semantics by construction.
    """

    def __init__(self, system_name: str, on_alert: Callable[[AnomalyAlert], None]):
        self.on_alert = on_alert
        self.system = FsmInstance(system_fsm_table(), system_name)
        self.devices: dict[str, FsmInstance] = {}
        self.connections: dict[str, FsmInstance] = {}
        # Each keyed scope's live instances and the machine they run.
        self._scopes: dict[str, tuple[dict[str, FsmInstance], FsmDefinition]] = {
            "device": (self.devices, device_fsm_table()),
            "connection": (self.connections, connection_fsm_table()),
        }
        self._all_established_fired = False

    def ensure(self, scope: str, key: str | None) -> FsmInstance:
        """The instance at (scope, key), created on first use; the system ignores its key."""
        if scope == "system":
            return self.system
        instances, definition = self._scopes[scope]
        instance = instances.get(key)
        if instance is None:
            instance = instances[key] = FsmInstance(definition, key)
        return instance

    def state_of(self, scope: str, key: str) -> str:
        """An instance's current state; its machine's initial state if it does not exist yet."""
        if scope == "system":
            return self.system.current_state
        instances, definition = self._scopes[scope]
        instance = instances.get(key)
        return instance.current_state if instance else definition.initial_state

    def _fire(self, instance: FsmInstance, event: str, cause: FrameRef, ts: Timestamp) -> TransitionRecord:
        """Fire one event; a rejection becomes an anomaly alert."""
        record = instance.fire(event, cause, ts)
        if record.verdict == "rejected":
            definition = instance.definition
            operation = definition.operation_for(record.from_state) or record.from_state
            self.on_alert(
                AnomalyAlert(
                    timestamp=record.timestamp,
                    instance_kind=definition.name,
                    instance_key=instance.instance_key,
                    state_at_event=record.from_state,
                    offending_event=record.event,
                    cause=record.cause,
                    explanation=f"{record.event} not permitted during {operation} operation",
                    severity=SEVERITY_ANOMALY,
                )
            )
        return record

    def fire(self, event: ProtocolEvent, ts: Timestamp) -> TransitionRecord:
        record = self._fire(self.ensure(event.scope, event.key), event.event_name, event.cause, ts)
        if event.scope == "connection" and record.verdict == "accepted":
            self._evaluate_all_established(event.cause, ts)
        return record

    def _evaluate_all_established(self, cause: FrameRef, ts: Timestamp) -> None:
        # Fires at most once per run, when every live connection has reached
        # ConnectionEstablished or a data-exchange state.
        if self._all_established_fired or not self.connections:
            return
        for instance in self.connections.values():
            if instance.current_state not in CONNECTION_ESTABLISHED_STATES:
                return
        self._all_established_fired = True
        self._fire(self.system, ALL_CONNECTIONS_ESTABLISHED, cause, ts)

    def transition_count(self) -> int:
        count = self.system.transitions
        count += sum(i.transitions for i in self.devices.values())
        count += sum(i.transitions for i in self.connections.values())
        return count

    def per_instance(self, export: Callable[[FsmInstance], list]) -> dict:
        """`export` of every instance, nested as system, devices by MAC and connections by key."""
        return {
            "system": export(self.system),
            "devices": {mac: export(inst) for mac, inst in sorted(self.devices.items())},
            "connections": {key: export(inst) for key, inst in sorted(self.connections.items())},
        }


@dataclass
class TrackerReport:
    summary: dict
    final_states: dict
    inventory: dict
    alerts: list[AnomalyAlert]
    logs: dict  # per instance: every rejected record plus the last LOG_WINDOW, in fire order
    edges: dict  # per instance: each followed edge's count, first and last record

    def to_json(self) -> dict:
        return {
            "summary": self.summary,
            "final_states": self.final_states,
            "inventory": self.inventory,
            "alerts": [a.to_json() for a in self.alerts],
            "logs": self.logs,
            "edges": self.edges,
        }

    def dumps(self) -> str:
        """The report as JSON with sorted keys and a two-space indent, plus a newline.

        The bytes are those of `json.dumps(self.to_json(), sort_keys=True, indent=2)`,
        but each alert, log record and edge is one %-template fill into a flat
        chunk list joined once, since the indenting encoder is pure Python.
        """
        templates: dict = {}
        out = ['{\n  "alerts": ']
        _write_records(out, templates, [a.to_json() for a in self.alerts], "  ", _alert_leaves)
        out.append(',\n  "edges": ')
        _write_nested(out, templates, self.edges, "  ", _edge_leaves)
        for name in ("final_states", "inventory"):
            out.append(f',\n  "{name}": ' + _dumps_small(getattr(self, name), "  "))
        out.append(',\n  "logs": ')
        _write_nested(out, templates, self.logs, "  ", _transition_leaves)
        out.append(',\n  "summary": ' + _dumps_small(self.summary, "  ") + "\n}\n")
        return "".join(out)

    @property
    def anomalies(self) -> list[AnomalyAlert]:
        return [a for a in self.alerts if a.severity == SEVERITY_ANOMALY]

    @property
    def diagnostics(self) -> list[AnomalyAlert]:
        return [a for a in self.alerts if a.severity == SEVERITY_DIAGNOSTIC]


class Tracker(TrackContext):
    """Single-pipeline tracker; owns all mutable state for one capture run."""

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config or TrackerConfig()
        self.alerts: list[AnomalyAlert] = []
        self.fleet = FsmFleet(self.config.system_name, self._on_alert)
        self.inventory = AssetInventory()
        self._ar_registry: dict[uuid.UUID, ConnectionInfo] = {}
        self._frame_id_registry: dict[int, CyclicBinding] = {}
        # Pending identify requests in capture order (expiry takes them from the
        # front), and the same requests by name (an answer releases them all).
        self.deferred: OrderedDict[DeferredEvent, None] = OrderedDict()
        self._deferred_by_name: dict[str, deque[DeferredEvent]] = {}
        self._frames = 0
        self._bytes = 0
        self._first_ts: Timestamp | None = None
        self._last_ts: Timestamp | None = None

    # TrackContext -----------------------------------------------------------

    def lookup_name(self, name: str) -> str | None:
        return self.inventory.find_mac_by_name(name)

    def connection_for_ar(self, ar_uuid: uuid.UUID) -> ConnectionInfo | None:
        return self._ar_registry.get(ar_uuid)

    def binding_for_frame_id(self, frame_id: int) -> CyclicBinding | None:
        return self._frame_id_registry.get(frame_id)

    def deferred_for_name(self, name: str) -> list[DeferredEvent]:
        return list(self._deferred_by_name.get(name, ()))

    @property
    def system_state(self) -> str:
        return self.fleet.system.current_state

    # Pipeline ----------------------------------------------------------------

    def _on_alert(self, alert: AnomalyAlert) -> None:
        self.alerts.append(alert)
        sink = self.config.alert_sink
        if sink is not None:
            sink.write(json.dumps(alert.to_json(), sort_keys=True) + "\n")
            sink.flush()

    def _diagnostic(
        self,
        ts: Timestamp,
        kind: str,
        key: str,
        offending_event: str,
        cause: FrameRef,
        explanation: str,
    ) -> None:
        self._on_alert(
            AnomalyAlert(
                timestamp=ts,
                instance_kind=kind,
                instance_key=key,
                state_at_event=self.fleet.state_of(kind, key),
                offending_event=offending_event,
                cause=cause,
                explanation=explanation,
                severity=SEVERITY_DIAGNOSTIC,
            )
        )

    def _register_connection(self, reg: ConnectionRegistration, ts: Timestamp, cause: FrameRef) -> None:
        created = reg.key not in self.fleet.connections
        instance = self.fleet.ensure("connection", reg.key)
        info = ConnectionInfo(reg.key, reg.responder_mac, instance)
        self._ar_registry[reg.ar_uuid] = info
        for binding in reg.frame_id_bindings:
            self._frame_id_registry[binding.frame_id] = binding
        if created and self.fleet.system.current_state == "DataExchange":
            self._diagnostic(
                ts,
                "connection",
                reg.key,
                "connection_created_after_startup",
                cause,
                "new connection initiated after system startup completed",
            )

    def process_frame(self, raw: RawFrame) -> None:
        ts = (raw.ts_sec, raw.ts_nsec)
        self._frames += 1
        self._bytes += len(raw.frame_bytes)
        if self._first_ts is None:
            self._first_ts = ts
        self._last_ts = ts

        try:
            parsed = dissect(raw)
        except MalformedFrame as exc:
            self._diagnostic(
                ts,
                "system",
                self.config.system_name,
                "malformed_frame",
                FrameRef(raw.capture_index, exc.protocol, exc.reason),
                f"malformed {exc.protocol} frame at byte {exc.offset}: {exc.reason}",
            )
            self._expire_deferred(ts, raw.capture_index)
            return

        for change in self.inventory.update_from_frame(parsed, ts):
            if change.conflict:
                self._diagnostic(
                    ts,
                    "device",
                    change.mac,
                    "inventory_conflict",
                    change.cause,
                    f"{change.fieldname} changed from {change.old!r} to {change.new!r}",
                )
        for violation in getattr(parsed.body, "violations", ()):
            self._diagnostic(
                ts,
                "system",
                self.config.system_name,
                "protocol_rule_violation",
                FrameRef(raw.capture_index, parsed.protocol, violation),
                f"{parsed.protocol} rule violation: {violation}",
            )

        self._ensure_source_instance(parsed)
        derived = derive_events(parsed, self)

        if derived.registration is not None:
            cause = FrameRef(raw.capture_index, parsed.protocol, "connect request")
            self._register_connection(derived.registration, ts, cause)
        for diag in derived.diagnostics:
            key = diag.subject_mac or self.config.system_name
            kind = "device" if diag.subject_mac else "system"
            self._diagnostic(ts, kind, key, diag.kind, diag.cause, diag.detail)
        for held in derived.consumed_deferrals:
            del self.deferred[held]
            self._deferred_by_name.pop(held.name, None)
        held = derived.new_deferral
        if held is not None:
            self.deferred[held] = None
            self._deferred_by_name.setdefault(held.name, deque()).append(held)

        for event in derived.events:
            self.fleet.fire(event, ts)

        self._expire_deferred(ts, raw.capture_index)

    def _ensure_source_instance(self, parsed: ParsedFrame) -> None:
        # A device machine exists for every MAC speaking a PROFINET-family protocol, even if
        # no event ever targets it (e.g. a quiet attacker). LLDP needs no case here: its
        # detect_neighbours event always targets the frame's subject.
        if parsed.protocol in ("pn-dcp", "pn-cm", "pnio"):
            self.fleet.ensure("device", parsed.envelope.src_mac)

    def _expire_deferred(self, ts: Timestamp, current_index: int | None = None) -> None:
        """Report deferrals older than DEFERRED_WINDOW frames; all of them without an index."""
        horizon = float("inf") if current_index is None else current_index - DEFERRED_WINDOW
        while self.deferred and next(iter(self.deferred)).cause.capture_index < horizon:
            deferred, _ = self.deferred.popitem(last=False)
            same_name = self._deferred_by_name[deferred.name]
            same_name.popleft()  # the oldest request for its name
            if not same_name:
                del self._deferred_by_name[deferred.name]
            self._diagnostic(
                ts,
                "system",
                self.config.system_name,
                "deferred_identify_expired",
                deferred.cause,
                f"identify request for {deferred.name!r} never answered",
            )

    def finish(self) -> None:
        """Flush unresolved deferrals as diagnostics at end of capture."""
        self._expire_deferred(self._last_ts or (0, 0))

    def process(self, stream: Iterable[StreamItem]) -> TrackerReport:
        for item in stream:
            if isinstance(item, CaptureError):
                self._diagnostic(
                    self._last_ts or (0, 0),
                    "system",
                    self.config.system_name,
                    "capture_error",
                    FrameRef(item.capture_index, "capture", item.reason),
                    f"capture error at byte {item.byte_offset}: {item.reason}",
                )
                continue
            self.process_frame(item)
        self.finish()
        return self.report()

    # Outputs ------------------------------------------------------------------

    def snapshot_states(self) -> dict:
        """Every instance's current state with its operation label."""
        fleet = self.fleet
        return {
            "system": _state_entry("key", fleet.system),
            "devices": [_state_entry("mac", fleet.devices[mac]) for mac in sorted(fleet.devices)],
            "connections": [
                _state_entry("key", fleet.connections[key]) for key in sorted(fleet.connections)
            ],
        }

    def report(self) -> TrackerReport:
        summary = {
            "system_name": self.config.system_name,
            "frames": self._frames,
            "bytes": self._bytes,
            "span_seconds": span_seconds(self._first_ts, self._last_ts, self._frames),
            "transitions": self.fleet.transition_count(),
            "anomalies": sum(1 for a in self.alerts if a.severity == SEVERITY_ANOMALY),
            "diagnostics": sum(1 for a in self.alerts if a.severity == SEVERITY_DIAGNOSTIC),
        }
        return TrackerReport(
            summary=summary,
            final_states=self.snapshot_states(),
            inventory=self.inventory.export(),
            alerts=list(self.alerts),
            logs=self.fleet.per_instance(FsmInstance.export_log),
            edges=self.fleet.per_instance(FsmInstance.export_edges),
        )


def _dumps_small(doc: Any, pad: str) -> str:
    """`doc` as sorted-key, two-space indented JSON starting at indent `pad`.

    A JSON string never holds a raw newline, so every newline starts a line.
    """
    return json.dumps(doc, sort_keys=True, indent=2).replace("\n", "\n" + pad)


def _layout(doc: Any, pad: str) -> str:
    """`doc` laid out as `json.dumps(sort_keys=True, indent=2)` lays it out at indent `pad`.

    Every leaf is a %s slot, in sorted-key order.
    """
    if isinstance(doc, (dict, list)) and doc:
        inner = pad + "  "
        if isinstance(doc, dict):
            items = [
                _encode_str(key).replace("%", "%%") + ": " + _layout(value, inner)
                for key, value in sorted(doc.items())
            ]
            opening, closing = "{", "}"
        else:
            items = [_layout(value, inner) for value in doc]
            opening, closing = "[", "]"
        return opening + "\n" + inner + (",\n" + inner).join(items) + "\n" + pad + closing
    return "%s"


def _write_records(
    out: list[str], templates: dict, records: list[dict], pad: str, leaves: Callable[[dict], tuple]
) -> None:
    """Append a JSON list of same-layout records at indent `pad`.

    `leaves` gives a record's encoded leaves in sorted-key order, the order of
    the %s slots in the template laid out from the first record. The template
    is built once per layout and depth.
    """
    if not records:
        out.append("[]")
        return
    template = templates.get((leaves, pad))
    if template is None:
        inner = pad + "  "
        template = templates[(leaves, pad)] = ",\n" + inner + _layout(records[0], inner)
    out.append("[" + template[1:] % leaves(records[0]))  # the first record has no comma
    out += map(template.__mod__, map(leaves, islice(records, 1, None)))
    out.append("\n" + pad + "]")


def _write_nested(
    out: list[str], templates: dict, doc: dict, pad: str, leaves: Callable[[dict], tuple]
) -> None:
    """Append `doc`, a dict of same-layout record lists or of such dicts, at indent `pad`."""
    if not doc:
        out.append("{}")
        return
    inner = pad + "  "
    separator = "{\n" + inner
    for key, value in sorted(doc.items()):
        out.append(separator + _encode_str(key) + ": ")
        if isinstance(value, dict):
            _write_nested(out, templates, value, inner, leaves)
        else:
            _write_records(out, templates, value, inner, leaves)
        separator = ",\n" + inner
    out.append("\n" + pad + "}")


def _transition_leaves(record: dict) -> tuple:
    # A transition record's leaves in sorted-key order; see TransitionRecord.to_json.
    cause = record["cause"]
    timestamp = record["timestamp"]
    to_state = record["to_state"]
    return (
        cause["capture_index"],
        _encode_str(cause["protocol"]),
        _encode_str(cause["summary"]),
        _encode_str(record["event"]),
        _encode_str(record["from_state"]),
        timestamp[0],
        timestamp[1],
        "null" if to_state is None else _encode_str(to_state),
        _encode_str(record["verdict"]),
    )


def _edge_leaves(edge: dict) -> tuple:
    # An edge entry's leaves in sorted-key order; see FsmInstance.export_edges.
    return (edge["count"], *_transition_leaves(edge["first"]), *_transition_leaves(edge["last"]))


def _alert_leaves(alert: dict) -> tuple:
    # An alert's leaves in sorted-key order; see AnomalyAlert.to_json.
    cause = alert["cause"]
    timestamp = alert["timestamp"]
    return (
        cause["capture_index"],
        _encode_str(cause["protocol"]),
        _encode_str(cause["summary"]),
        _encode_str(alert["explanation"]),
        _encode_str(alert["instance_key"]),
        _encode_str(alert["instance_kind"]),
        _encode_str(alert["offending_event"]),
        _encode_str(alert["severity"]),
        _encode_str(alert["state_at_event"]),
        timestamp[0],
        timestamp[1],
    )


def _state_entry(key_field: str, instance: FsmInstance) -> dict:
    state = instance.current_state
    return {
        key_field: instance.instance_key,
        "state": state,
        "operation": instance.definition.operation_for(state),
    }


def span_seconds(first: Timestamp | None, last: Timestamp | None, frames: int) -> float:
    """Seconds from the first to the last frame; 0.0 with fewer than two frames."""
    if frames <= 1 or first is None or last is None:
        return 0.0
    return (last[0] - first[0]) + (last[1] - first[1]) / 1_000_000_000

