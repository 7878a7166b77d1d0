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
import sys
from collections import OrderedDict
from itertools import islice
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Any, Callable, Iterable

from .capture import CaptureError, RawFrame, StreamItem
from .dissect import MalformedFrame, dissect
from .fsm import EdgeTally, Entry, FrameRef, FsmInstance, TransitionRecord, frame_ref
from .inventory import AssetInventory, AssetRecord, Provenance
from .models import (
    ALL_CONNECTIONS_ESTABLISHED,
    CONNECTION_ESTABLISHED_STATES,
    OP_DATA_EXCHANGE,
    ArTable,
    DeferredEvent,
    ProtocolEvent,
    TrackContext,
    connection_fsm_table,
    derive_events,
    device_fsm_table,
    system_fsm_table,
)
from .record import Record

Timestamp = tuple[int, int]

SEVERITY_ANOMALY = "anomaly"
SEVERITY_DIAGNOSTIC = "diagnostic"

DEFERRED_WINDOW = 10000  # frames an identify-by-name may stay unresolved
_NEVER = sys.maxsize  # past every capture index: the expiry index while no request is pending
DEFAULT_SYSTEM_NAME = "poet-system"
# Protocols whose source MAC gets a device machine on sight.
_SOURCE_PROTOCOLS = frozenset({"pn-dcp", "pn-cm", "pnio"})


class AnomalyAlert(Record):
    __slots__ = (
        "timestamp",
        "instance_kind",  # "device" | "connection" | "system"
        "instance_key",
        "state_at_event",
        "offending_event",
        "cause",
        "explanation",
        "severity",  # "anomaly" | "diagnostic"
    )


class TrackerConfig(Record):
    __slots__ = ("system_name", "alert_sink")
    _defaults = {"system_name": DEFAULT_SYSTEM_NAME, "alert_sink": None}


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
        # Each scope's live instances by key, so that routing an event is one lookup,
        # and the machine each keyed scope runs.
        self._live: dict[str, dict] = {
            "system": {None: self.system},
            "device": self.devices,
            "connection": self.connections,
        }
        self._machines = {"device": device_fsm_table(), "connection": connection_fsm_table()}
        self._all_established_fired = False

    def ensure(self, scope: str, key: str | None) -> FsmInstance:
        """The instance at (scope, key), created on first use; the system's key is None.

        This is the only place that creates an instance.
        """
        instances = self._live[scope]
        instance = instances.get(key)
        if instance is None:
            instance = instances[key] = FsmInstance(self._machines[scope], key)
        return instance

    def state_of(self, scope: str, key: str | None) -> str:
        """An instance's current state; its machine's initial state if it does not exist yet."""
        instance = self._live[scope].get(key)
        return instance.current_state if instance else self._machines[scope].initial_state

    def fire(self, events: Iterable[ProtocolEvent], ts: Timestamp, index: int) -> None:
        """Fire the events of the frame at capture `index` in order, each at the instance it
        carries, else at its (scope, key).

        Each event fires with its cause, which a bound CR's prebuilt events share
        with every good frame of that CR. Each rejection becomes an anomaly alert.
        The tracker and synth's manifest replay both fire here.
        """
        for event in events:
            instance = event.instance
            if instance is None:
                instance = self._live[event.scope].get(event.key)
                if instance is None:
                    instance = self.ensure(event.scope, event.key)
            step = instance.fire(event.event_name, event.cause, ts, index)
            if step.to_state is None:
                definition = instance.definition
                operation = definition.operation_for(step.from_state) or step.from_state
                self.on_alert(
                    AnomalyAlert(
                        timestamp=ts,
                        instance_kind=definition.name,
                        instance_key=instance.instance_key,
                        state_at_event=step.from_state,
                        offending_event=step.event,
                        cause=frame_ref(event.cause, index),
                        explanation=f"{step.event} not permitted during {operation} operation",
                        severity=SEVERITY_ANOMALY,
                    )
                )
            elif not self._all_established_fired and event.scope == "connection":
                self._evaluate_all_established(frame_ref(event.cause, index), ts, index)

    def _evaluate_all_established(self, cause: FrameRef, ts: Timestamp, index: int) -> None:
        # Fires at most once per run, when every live connection has reached
        # ConnectionEstablished or a data-exchange state.
        if not self.connections:
            return
        for instance in self.connections.values():
            if instance.current_state not in CONNECTION_ESTABLISHED_STATES:
                return
        self._all_established_fired = True
        self.fire((ProtocolEvent(ALL_CONNECTIONS_ESTABLISHED, "system", None, cause, self.system),), ts, index)

    def transition_count(self) -> int:
        count = self.system.transitions
        count += sum(i.transitions for i in self.devices.values())
        count += sum(i.transitions for i in self.connections.values())
        return count

    def per_instance(self, export: Callable[[FsmInstance], Any]) -> dict:
        """`export` of every instance, nested as system, devices by MAC and connections by key."""
        return {
            "system": export(self.system),
            "devices": {mac: export(inst) for mac, inst in sorted(self.devices.items())},
            "connections": {key: export(inst) for key, inst in sorted(self.connections.items())},
        }


class TrackerReport(Record):
    """A run's report, read from the tracker's own objects when it is written.

    It holds the tracker's alerts, its FSM fleet and its asset records sorted by
    interface MAC, so it is taken after the last frame, as `Tracker.process` takes
    it. `dumps()` writes from these objects; the dict sections that `to_json()`
    returns are built from them each time they are read.
    """

    __slots__ = ("summary", "alerts", "fleet", "assets")  # assets: sorted by interface MAC

    @property
    def final_states(self) -> dict:
        return self._final_states(_state_entry)

    def _final_states(self, export: Callable[[FsmInstance], Any]) -> dict:
        """`export` of every instance: the system's, and the devices' and connections' as lists."""
        states = self.fleet.per_instance(export)
        return {
            "system": states["system"],
            "devices": list(states["devices"].values()),
            "connections": list(states["connections"].values()),
        }

    @property
    def inventory(self) -> dict:
        return {"assets": [asset.to_json() for asset in self.assets]}

    @property
    def logs(self) -> dict:
        """Per instance: every rejected record plus the last LOG_WINDOW, in fire order."""
        return self.fleet.per_instance(lambda instance: [r.to_json() for r in instance.records()])

    @property
    def edges(self) -> dict:
        """Per instance: each followed edge's count, first and last record."""
        return self.fleet.per_instance(lambda instance: [t.to_json() for t in instance.edge_tallies()])

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
        but the document holds the tracker's own objects, and `_write` writes each
        of them as one %-template fill, since the indenting encoder is pure Python.
        The document is a temporary, so its containers are gone before the join.
        """
        per_instance = self.fleet.per_instance
        out: list[str] = []
        _write(
            out,
            {
                "summary": self.summary,
                "final_states": self._final_states(lambda instance: instance),
                "inventory": {"assets": self.assets},
                "alerts": self.alerts,
                "logs": per_instance(FsmInstance.entries),
                "edges": per_instance(FsmInstance.edge_tallies),
            },
            "",
        )
        out.append("\n")
        return "".join(out)

    @property
    def anomalies(self) -> list[AnomalyAlert]:
        return [a for a in self.alerts if a.severity == SEVERITY_ANOMALY]

    @property
    def diagnostics(self) -> list[AnomalyAlert]:
        return [a for a in self.alerts if a.severity == SEVERITY_DIAGNOSTIC]


def dumps_inventory(assets: list[AssetRecord]) -> str:
    """`{"assets": [...]}` of `assets` as `TrackerReport.dumps()` writes it, at the top level."""
    out: list[str] = []
    _write(out, {"assets": assets}, "")
    out.append("\n")
    return "".join(out)


class Tracker(TrackContext):
    """Single-pipeline tracker; owns all mutable state for one capture run."""

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config or TrackerConfig()
        self.alerts: list[AnomalyAlert] = []
        self.fleet = FsmFleet(self.config.system_name, self._on_alert)
        # TrackContext's state_of is the fleet's own, so derive_events reads a state with no forwarding call.
        self.state_of = self.fleet.state_of
        self.inventory = AssetInventory()
        self.ar_table = ArTable()
        # Pending identify requests in capture order (expiry takes them from the
        # front), and the same requests by name (an answer releases them all).
        self.deferred: OrderedDict[DeferredEvent, None] = OrderedDict()
        self._deferred_by_name: dict[str, list[DeferredEvent]] = {}
        # The capture index at which the oldest pending request expires; never while none is pending.
        # An answered oldest request leaves it early, and _expire_deferred then sets it again.
        self._expires_at = _NEVER
        self._frames = 0
        self._bytes = 0
        self._first_ts: Timestamp | None = None
        self._last_ts: Timestamp | None = None

    # TrackContext -----------------------------------------------------------

    def lookup_name(self, name: str) -> str | None:
        return self.inventory.find_mac_by_name(name)

    def deferred_for_name(self, name: str) -> list[DeferredEvent]:
        return list(self._deferred_by_name.get(name, ()))

    # Pipeline ----------------------------------------------------------------

    def _on_alert(self, alert: AnomalyAlert) -> None:
        self.alerts.append(alert)
        sink = self.config.alert_sink
        if sink is not None:
            sink.write(_ALERT_LINE % _alert_leaves(alert))
            sink.flush()

    def _diagnostic(
        self, kind: str, detail: str, cause: FrameRef, scope: str = "system", key: str | None = None
    ) -> None:
        """Raise a finding of `kind` at the instance (scope, key), stamped with the last frame's time."""
        self._on_alert(
            AnomalyAlert(
                timestamp=self._last_ts or (0, 0),
                instance_kind=scope,
                instance_key=key or self.config.system_name,
                state_at_event=self.fleet.state_of(scope, key),
                offending_event=kind,
                cause=cause,
                explanation=detail,
                severity=SEVERITY_DIAGNOSTIC,
            )
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
            detail = f"malformed {exc.protocol} frame at byte {exc.offset}: {exc.reason}"
            cause = FrameRef(raw.capture_index, exc.protocol, exc.reason)
            self._diagnostic("malformed_frame", detail, cause)
            if raw.capture_index >= self._expires_at:
                self._expire_deferred(raw.capture_index)
            return

        for change in self.inventory.update_from_frame(parsed, ts):
            if change.conflict:
                detail = f"{change.fieldname} changed from {change.old!r} to {change.new!r}"
                self._diagnostic("inventory_conflict", detail, change.cause, "device", change.mac)
        violations = getattr(parsed, "violations", ())
        if violations:
            for violation in violations:
                detail = f"{parsed.protocol} rule violation: {violation}"
                cause = FrameRef(raw.capture_index, parsed.protocol, violation)
                self._diagnostic("protocol_rule_violation", detail, cause)

        # A device machine exists for every MAC speaking a PROFINET-family protocol, even if
        # no event ever targets it (e.g. a quiet attacker). LLDP needs no case here: its
        # detect_neighbours event always targets the frame's subject.
        if parsed.protocol in _SOURCE_PROTOCOLS and parsed.src_mac not in self.fleet.devices:
            self.fleet.ensure("device", parsed.src_mac)
        derived = derive_events(parsed, self)

        reg = derived.registration
        if reg is not None:
            cause = FrameRef(raw.capture_index, parsed.protocol, "connect request")
            created = reg.key not in self.fleet.connections
            connection = self.fleet.ensure("connection", reg.key)
            device = self.fleet.ensure("device", reg.responder_mac)
            for diag in self.ar_table.register(reg, device, connection, cause):
                self._diagnostic(diag.kind, diag.detail, diag.cause, diag.scope, diag.key)
            system = self.fleet.system
            if created and system.definition.operation_for(system.current_state) == OP_DATA_EXCHANGE:
                detail = "new connection initiated after system startup completed"
                self._diagnostic("connection_created_after_startup", detail, cause, "connection", reg.key)
        # Most frames carry no bookkeeping, so each part is tested before it is looped over.
        if derived.diagnostics:
            for diag in derived.diagnostics:
                self._diagnostic(diag.kind, diag.detail, diag.cause, diag.scope, diag.key)
        if derived.consumed_deferrals:
            for held in derived.consumed_deferrals:
                del self.deferred[held]
                self._deferred_by_name.pop(held.name, None)
        held = derived.new_deferral
        if held is not None:
            if not self.deferred:
                self._expires_at = held.cause.capture_index + DEFERRED_WINDOW + 1
            self.deferred[held] = None
            same_name = self._deferred_by_name.get(held.name)
            if same_name is None:
                self._deferred_by_name[held.name] = [held]
            else:
                same_name.append(held)

        if derived.events:
            self.fleet.fire(derived.events, ts, raw.capture_index)

        if raw.capture_index >= self._expires_at:
            self._expire_deferred(raw.capture_index)

    def _expire_deferred(self, current_index: int | None = None) -> None:
        """Report deferrals older than DEFERRED_WINDOW frames; all of them without an index.

        A request at capture index i expires at the first frame past i + DEFERRED_WINDOW.
        Capture indices rise, so the oldest pending request is the first to expire.
        """
        horizon = _NEVER if current_index is None else current_index - DEFERRED_WINDOW
        deferred = self.deferred
        while deferred:
            oldest = next(iter(deferred))
            index = oldest.cause.capture_index
            if index >= horizon:
                self._expires_at = index + DEFERRED_WINDOW + 1
                return
            del deferred[oldest]
            same_name = self._deferred_by_name[oldest.name]
            del same_name[0]  # the oldest request for its name
            if not same_name:
                del self._deferred_by_name[oldest.name]
            detail = f"identify request for {oldest.name!r} never answered"
            self._diagnostic("deferred_identify_expired", detail, oldest.cause)
        self._expires_at = _NEVER

    def finish(self) -> None:
        """Flush unresolved deferrals as diagnostics at end of capture."""
        self._expire_deferred()

    def process(self, stream: Iterable[StreamItem]) -> TrackerReport:
        for item in stream:
            if isinstance(item, CaptureError):
                detail = f"capture error at byte {item.byte_offset}: {item.reason}"
                cause = FrameRef(item.capture_index, "capture", item.reason)
                self._diagnostic("capture_error", detail, cause)
                continue
            self.process_frame(item)
        self.finish()
        return self.report()

    # Outputs ------------------------------------------------------------------

    def report(self) -> TrackerReport:
        """The report of the run, to be taken after its last frame."""
        records = self.inventory.records
        summary = {
            "system_name": self.config.system_name,
            "frames": self._frames,
            "bytes": self._bytes,
            "span_seconds": span_seconds(self._first_ts, self._last_ts),
            "transitions": self.fleet.transition_count(),
            "anomalies": sum(1 for a in self.alerts if a.severity == SEVERITY_ANOMALY),
            "diagnostics": sum(1 for a in self.alerts if a.severity == SEVERITY_DIAGNOSTIC),
        }
        return TrackerReport(
            summary=summary,
            alerts=self.alerts,
            fleet=self.fleet,
            assets=[records[mac] for mac in sorted(records)],
        )


def _layout(doc: Any, pad: str | None) -> str:
    """`doc` laid out as `json.dumps(sort_keys=True, indent=2)` lays it out at indent `pad`.

    With `pad` None it is laid out on one line, as `json.dumps(sort_keys=True)`
    lays it out. Every leaf is a %s slot, in sorted-key order. An object with
    `to_json` is laid out as its document.
    """
    if hasattr(doc, "to_json"):
        doc = doc.to_json()
    if isinstance(doc, (dict, list)) and doc:
        inner = None if pad is None else pad + "  "
        if isinstance(doc, dict):
            items = [
                _encode_str(key).replace("%", "%%") + ": " + _layout(value, inner)
                for key, value in sorted(doc.items())
            ]
            opening, closing = "{", "}"
        else:
            items = [_layout(value, inner) for value in doc]
            opening, closing = "[", "]"
        if pad is None:
            return opening + ", ".join(items) + closing
        return opening + "\n" + inner + (",\n" + inner).join(items) + "\n" + pad + closing
    return "%s"


def _write(out: list[str], value: Any, pad: str) -> None:
    """Append `value` at indent `pad` as `json.dumps(sort_keys=True, indent=2)` lays it out.

    A record, an object of a kind in `_RECORD_KINDS`, is one %-template fill, and
    a list of records of one kind one fill per record. A dict is written key by
    key in sorted order, and any other value by `json.dumps`.
    """
    if type(value) in _RECORD_KINDS:
        template, leaves = _template(value, pad)
        out.append(template[len(pad) + 2 :] % leaves(value))  # no comma, and the key opens the line
    elif not isinstance(value, (dict, list)):
        out.append(json.dumps(value))
    elif not value:
        out.append("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, dict):
        inner = pad + "  "
        separator = "{\n" + inner
        for key, item in sorted(value.items()):
            out.append(separator + _encode_str(key) + ": ")
            _write(out, item, inner)
            separator = ",\n" + inner
        out.append("\n" + pad + "}")
    else:
        template, leaves = _template(value[0], pad + "  ")
        out.append("[" + template[1:] % leaves(value[0]))  # the first record has no comma
        out += map(template.__mod__, map(leaves, islice(value, 1, None)))
        out.append("\n" + pad + "]")


# Per (record kind, indent, layout): the template of one record in a list, and the kind's leaves function.
# Each depends on its key alone, so one process-wide cache serves every report.
_TEMPLATES: dict[tuple, tuple[str, Callable[[Any], tuple]]] = {}


def _template(record: Any, pad: str) -> tuple[str, Callable[[Any], tuple]]:
    """The template and leaves function of records like `record` opening at indent `pad`.

    A kind's records share one layout, but a final-state entry is keyed "mac" for a device.
    """
    kind = type(record)
    layout = record.definition.name if kind is FsmInstance else None
    cached = _TEMPLATES.get((kind, pad, layout))
    if cached is None:
        sample, leaves = _RECORD_KINDS[kind]
        cached = _TEMPLATES[(kind, pad, layout)] = (",\n" + pad + _layout(sample(record), pad), leaves(pad))
    return cached


def _asset_leaves(pad: str) -> Callable[[AssetRecord], tuple]:
    """The leaves function of asset records whose `port_macs` and `provenance` open at `pad`.

    The record template is laid out from a blank record, where each of those two
    is empty and so one slot. Each is filled with a sub-chunk: the sorted port
    MACs, and one Provenance template fill per field.
    """
    item = ",\n" + pad + "  "
    close = "\n" + pad
    source = item + "%s: " + _layout(Provenance("", 0), pad + "  ")

    def leaves(record: AssetRecord) -> tuple:
        # In sorted-key order; see AssetRecord.to_json.
        ports = record.port_macs
        port_chunk = "[]"
        if ports:
            port_chunk = "[" + "".join([item + _encode_str(mac) for mac in sorted(ports)])[1:] + close + "]"
        provenance = record.provenance
        provenance_chunk = "{}"
        if provenance:
            fills = [
                source
                % (_encode_str(field), p.capture_index, "true" if p.conflict else "false", _encode_str(p.protocol))
                for field, p in sorted(provenance.items())
            ]
            provenance_chunk = "{" + "".join(fills)[1:] + close + "}"
        first = record.first_seen
        last = record.last_seen
        return (
            "null" if record.device_id is None else record.device_id,
            first[0],
            first[1],
            "null" if record.gateway is None else _encode_str(record.gateway),
            _encode_str(record.interface_mac),
            "null" if record.ip_address is None else _encode_str(record.ip_address),
            last[0],
            last[1],
            "null" if record.name_of_station is None else _encode_str(record.name_of_station),
            len(ports),
            port_chunk,
            provenance_chunk,
            _encode_str(record.role),
            "null" if record.subnet is None else _encode_str(record.subnet),
            "null" if record.vendor_id is None else record.vendor_id,
        )

    return leaves


def _state_entry(instance: FsmInstance) -> dict:
    """The instance's final-states entry; a device is keyed by its MAC."""
    definition = instance.definition
    state = instance.current_state
    key_field = "mac" if definition.name == "device" else "key"
    return {key_field: instance.instance_key, "state": state, "operation": definition.operation_for(state)}


def _state_leaves(instance: FsmInstance) -> tuple:
    # A final-states entry's leaves in sorted-key order; see _state_entry.
    state = instance.current_state
    operation = instance.definition.operation_for(state)
    return (
        _encode_str(instance.instance_key),
        "null" if operation is None else _encode_str(operation),
        _encode_str(state),
    )


def _entry_leaves(entry: Entry) -> tuple:
    # A log entry's leaves, those of its record in sorted-key order, read from its
    # (timestamp, index, cause, step) without building the record; see TransitionRecord.to_json.
    # A shared cause shows the entry's index; see fsm.frame_ref.
    timestamp, index, cause, step = entry
    if type(cause) is FrameRef:
        index = cause.capture_index
    to_state = step.to_state
    return (
        index,
        _encode_str(cause.protocol),
        _encode_str(cause.summary),
        _encode_str(step.event),
        _encode_str(step.from_state),
        timestamp[0],
        timestamp[1],
        "null" if to_state is None else _encode_str(to_state),
        _encode_str(step.verdict),
    )


def _edge_leaves(tally: EdgeTally) -> tuple:
    # An edge tally's leaves in sorted-key order; see EdgeTally.to_json.
    return (tally.count, *_entry_leaves(tally.first), *_entry_leaves(tally.last))


def _alert_leaves(alert: AnomalyAlert) -> tuple:
    # An alert's leaves in sorted-key order; see AnomalyAlert.to_json.
    cause = alert.cause
    timestamp = alert.timestamp
    return (
        cause.capture_index,
        _encode_str(cause.protocol),
        _encode_str(cause.summary),
        _encode_str(alert.explanation),
        _encode_str(alert.instance_key),
        _encode_str(alert.instance_kind),
        _encode_str(alert.offending_event),
        _encode_str(alert.severity),
        _encode_str(alert.state_at_event),
        timestamp[0],
        timestamp[1],
    )


# One streamed alert: its line as `json.dumps(alert.to_json(), sort_keys=True)` writes it.
_ALERT_LINE = _layout(AnomalyAlert((0, 0), "", "", "", "", FrameRef(0, "", ""), "", ""), None) + "\n"

# Each record kind: the document its template is laid out from, given a record, and its leaves
# function, given the indent the record opens at. An asset's template is laid out from a blank
# record, whose port MACs and provenance are then one slot each; see _asset_leaves. A log entry,
# a fire's (timestamp, index, cause, step), is written as its record, from a blank record's
# template; the report holds no other tuple.
_RECORD_KINDS: dict[type, tuple[Callable[[Any], Any], Callable[[str], Callable[[Any], tuple]]]] = {
    AnomalyAlert: (lambda alert: alert, lambda pad: _alert_leaves),
    tuple: (lambda entry: TransitionRecord((0, 0), "", "", "", "", FrameRef(0, "", "")), lambda pad: _entry_leaves),
    EdgeTally: (lambda tally: tally, lambda pad: _edge_leaves),
    FsmInstance: (_state_entry, lambda pad: _state_leaves),
    AssetRecord: (lambda record: AssetRecord(""), lambda pad: _asset_leaves(pad + "  ")),
}


def span_seconds(first: Timestamp | None, last: Timestamp | None) -> float:
    """Seconds from the first to the last frame; 0.0 with none, and with one as first == last."""
    if first is None or last is None:
        return 0.0
    return (last[0] - first[0]) + (last[1] - first[1]) / 1_000_000_000

