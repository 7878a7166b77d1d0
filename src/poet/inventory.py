"""Automated asset inventory built incrementally from dissected traffic.

Records are keyed by interface MAC: station names are attacker-controlled at
runtime (a DCP Set can rename a device mid-operation), MACs are the stable
observable. Every populated field carries provenance, and a field changing
value is flagged as a conflict instead of being silently rewritten.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Sequence

from .dissect import DcpFrame, ParsedFrame
from .fsm import FrameRef
from .record import Record

Timestamp = tuple[int, int]

# The protocols whose frames can name, address or cast an asset; only these record changes.
_DESCRIBING_PROTOCOLS = frozenset({"lldp", "arp", "pn-dcp", "pn-cm"})


class Provenance(Record):
    __slots__ = ("protocol", "capture_index", "conflict")

    def __init__(self, protocol: str, capture_index: int, conflict: bool = False) -> None:
        self.protocol = protocol
        self.capture_index = capture_index
        self.conflict = conflict

    def to_json(self) -> dict:
        return {
            "protocol": self.protocol,
            "capture_index": self.capture_index,
            "conflict": self.conflict,
        }


class AssetRecord(Record):
    __slots__ = (
        "interface_mac",
        "name_of_station",
        "port_macs",
        "ip_address",
        "subnet",
        "gateway",
        "vendor_id",
        "device_id",
        "role",
        "first_seen",
        "last_seen",
        "provenance",
    )

    def __init__(
        self,
        interface_mac: str,
        name_of_station: str | None = None,
        port_macs: set[str] | None = None,  # a new empty set by default
        ip_address: str | None = None,
        subnet: str | None = None,
        gateway: str | None = None,
        vendor_id: int | None = None,
        device_id: int | None = None,
        role: str = "unknown",  # controller | device | supervisor | unknown
        first_seen: Timestamp = (0, 0),
        last_seen: Timestamp = (0, 0),
        provenance: dict[str, Provenance] | None = None,  # a new empty dict by default
    ) -> None:
        self.interface_mac = interface_mac
        self.name_of_station = name_of_station
        self.port_macs = set() if port_macs is None else port_macs
        self.ip_address = ip_address
        self.subnet = subnet
        self.gateway = gateway
        self.vendor_id = vendor_id
        self.device_id = device_id
        self.role = role
        self.first_seen = first_seen
        self.last_seen = last_seen
        self.provenance = {} if provenance is None else provenance

    @property
    def port_count(self) -> int:
        return len(self.port_macs)

    def to_json(self) -> dict:
        return {
            "interface_mac": self.interface_mac,
            "name_of_station": self.name_of_station,
            "port_macs": sorted(self.port_macs),
            "port_count": self.port_count,
            "ip_address": self.ip_address,
            "subnet": self.subnet,
            "gateway": self.gateway,
            "vendor_id": self.vendor_id,
            "device_id": self.device_id,
            "role": self.role,
            "first_seen": list(self.first_seen),
            "last_seen": list(self.last_seen),
            "provenance": {name: p.to_json() for name, p in sorted(self.provenance.items())},
        }


# Each field's default, read from a blank record: a field is set once it holds another value,
# and a set field that changes is a conflict.
_UNSET = dict(zip(AssetRecord._fields, AssetRecord("")._values()))


class InventoryChange(Record):
    __slots__ = ("mac", "fieldname", "old", "new", "conflict", "cause")

    def __init__(
        self, mac: str, fieldname: str, old: object, new: object, conflict: bool, cause: FrameRef
    ) -> None:
        self.mac = mac
        self.fieldname = fieldname
        self.old = old
        self.new = new
        self.conflict = conflict
        self.cause = cause


class AssetInventory:
    """Single-writer store of AssetRecords; updates are deterministic."""

    def __init__(self) -> None:
        self.records: dict[str, AssetRecord] = {}
        # name_of_station -> the interface MACs holding it, sorted
        self.holders: dict[str, list[str]] = {}

    def __len__(self) -> int:
        return len(self.records)

    def get(self, mac: str) -> AssetRecord | None:
        return self.records.get(mac)

    def find_mac_by_name(self, name: str) -> str | None:
        """The lowest interface MAC holding the station name, if any."""
        holders = self.holders.get(name)
        return holders[0] if holders else None

    def _record(self, mac: str, ts: Timestamp) -> AssetRecord:
        """The record of `mac`, created on first sight, with `last_seen` set to `ts`."""
        record = self.records.get(mac)
        if record is None:
            record = AssetRecord(interface_mac=mac, first_seen=ts, last_seen=ts)
            self.records[mac] = record
        else:
            record.last_seen = ts
        return record

    def _set(
        self,
        record: AssetRecord,
        fieldname: str,
        value: object,
        parsed: ParsedFrame,
        changes: list[InventoryChange],
    ) -> None:
        old = getattr(record, fieldname)
        if value is None or value == old:
            return
        cause = _cause(parsed, changes)
        conflict = old != _UNSET[fieldname]
        setattr(record, fieldname, value)
        if fieldname == "name_of_station":
            if old is not None:
                holders = self.holders[old]
                del holders[bisect_left(holders, record.interface_mac)]
                if not holders:
                    del self.holders[old]
            insort(self.holders.setdefault(value, []), record.interface_mac)
        prior = record.provenance.get(fieldname)
        flagged = conflict or (prior.conflict if prior else False)
        record.provenance[fieldname] = Provenance(cause.protocol, cause.capture_index, flagged)
        changes.append(InventoryChange(record.interface_mac, fieldname, old, value, conflict, cause))

    def update_from_frame(self, parsed: ParsedFrame, ts: Timestamp) -> Sequence[InventoryChange]:
        """Fold one frame into the inventory; returns its delta, `()` if it only refreshes `last_seen`."""
        protocol = parsed.protocol
        src = parsed.src_mac
        if protocol not in _DESCRIBING_PROTOCOLS:
            # Other traffic refreshes known assets only; a PNIO sender becomes one.
            record = self.records.get(src)
            if record is not None:
                record.last_seen = ts
            elif protocol == "pnio":
                self._record(src, ts)
            return ()

        if protocol == "pn-dcp":
            return self._update_from_dcp(parsed, ts)

        changes: list[InventoryChange] = []
        if protocol == "lldp":
            mac = parsed.subject_mac
            record = self._record(mac, ts)
            self._set(record, "name_of_station", parsed.station_name, parsed, changes)
            self._set(record, "ip_address", parsed.management_address, parsed, changes)
            port = parsed.port_mac
            if port is not None and port not in record.port_macs:
                cause = _cause(parsed, changes)
                record.port_macs.add(port)
                record.provenance.setdefault(
                    "port_macs", Provenance(cause.protocol, cause.capture_index)
                )
                changes.append(InventoryChange(mac, "port_macs", None, port, False, cause))
        elif protocol == "arp":
            record = self._record(parsed.sender_mac, ts)
            if parsed.sender_ip != "0.0.0.0":
                self._set(record, "ip_address", parsed.sender_ip, parsed, changes)
        else:  # pn-cm
            record = self._record(src, ts)
            if parsed.operation == "Connect" and parsed.direction == "request":
                target = self._record(parsed.dst_mac, ts)
                self._set(record, "role", "controller", parsed, changes)
                self._set(target, "role", "device", parsed, changes)
        return changes

    def _update_from_dcp(self, frame: DcpFrame, ts: Timestamp) -> Sequence[InventoryChange]:
        """A DCP frame's delta. An Identify answer states facts of its source and a Set
        request of its target; any other DCP frame only refreshes its source."""
        record = self._record(frame.src_mac, ts)
        service = frame.service_id
        if frame.service_type == "ResponseSuccess" and service == "Identify":
            target = record
        elif frame.service_type == "Request" and service == "Set":
            target = self._record(frame.dst_mac, ts)
        else:
            return ()
        changes: list[InventoryChange] = []
        for kind, value in frame.facts:
            if kind == "name":
                self._set(target, "name_of_station", value, frame, changes)
            elif kind == "ip":
                ip, subnet, gateway = value
                if ip != "0.0.0.0":
                    self._set(target, "ip_address", ip, frame, changes)
                    self._set(target, "subnet", subnet, frame, changes)
                    self._set(target, "gateway", gateway, frame, changes)
            elif kind == "device_id":
                vendor, device = value
                self._set(target, "vendor_id", vendor, frame, changes)
                self._set(target, "device_id", device, frame, changes)
        if service == "Set":
            self._set(record, "role", "controller", frame, changes)
            self._set(target, "role", "device", frame, changes)
        return changes


def _cause(parsed: ParsedFrame, changes: list[InventoryChange]) -> FrameRef:
    """The cause of `parsed`'s changes: built at its first change and shared by the rest, so a
    frame that changes nothing builds none."""
    if changes:
        return changes[0].cause
    return FrameRef(parsed.capture_index, parsed.protocol, "inventory update")
