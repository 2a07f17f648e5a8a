"""Parsers for the three ADB dumpsys text outputs: usagestats, netstats, network_stack.

The dumps are consumed in the line-oriented grammar documented in
docs/fixture-grammar.md, which mirrors the real dumpsys field vocabulary
(time=/type=/package=, networkId, st/rb/rp/tb/tp, DHCP lease lines). Unknown
lines never abort a parse; they are collected as warnings. A JSON-lines
pre-tokenized form of each dump is accepted as well: each dump has one
tokenizer per format, and both feed the same semantic pass (24h window,
boot marker, sort), so a record means the same in either form.

Precision semantics preserved from the source services:
  - usagestats events carry second precision and only cover the 24 hours
    before the dump was captured; weekly/monthly/yearly aggregates never
    claim second precision.
  - netstats `st` bucket starts are stored verbatim, with no alignment or
    rounding applied; each bucket's duration is the one the dump states
    (`bucketDuration=`), DEFAULT_BUCKET_SECONDS when it states none.
  - network_stack is volatile across reboot: lease events predating a boot
    marker are rejected.
"""

from __future__ import annotations

import ipaddress
import json
import re
from collections import defaultdict
from enum import Enum
from functools import partial
from operator import attrgetter
from typing import NamedTuple, Optional

from .evidence import Timestamp, json_field, line_pattern, text_lines

USAGE_WINDOW_SECONDS = 24 * 3600
DEFAULT_BUCKET_SECONDS = 3600


class AggregateWindow(Enum):
    WEEK = "week"
    MONTH = "month"
    YEAR = "year"


class LeaseKind(Enum):
    DHCP_ACK = "dhcp_ack"
    LEASE_RENEW = "lease_renew"
    INTERFACE_UP = "interface_up"
    INTERFACE_DOWN = "interface_down"
    OTHER = "other"


# The one lease-kind mapping, shared by both formats: the text tokens and the
# LeaseKind values both name a kind; any other value is OTHER.
_LEASE_KINDS = {
    "DHCP_ACK": LeaseKind.DHCP_ACK,
    "LEASE_RENEW": LeaseKind.LEASE_RENEW,
    "IF_UP": LeaseKind.INTERFACE_UP,
    "IF_DOWN": LeaseKind.INTERFACE_DOWN,
    **{kind.value: kind for kind in LeaseKind},
}


class UsageEvent(NamedTuple):
    """Second-precision app lifecycle event from the 24h detail window."""

    at: Timestamp
    package: str
    event_type: str  # raw dumpsys token, open vocabulary


class _UsageAggregateFields(NamedTuple):
    window: AggregateWindow
    package: str
    last_used: Timestamp
    use_count: int


class UsageAggregate(_UsageAggregateFields):
    """Coarse per-window usage summary; never second-precise."""

    __slots__ = ()

    def __new__(cls, window: AggregateWindow, package: str, last_used: Timestamp, use_count: int):
        if use_count < 0:
            raise ValueError("use_count must be >= 0")
        return tuple.__new__(cls, (window, package, last_used, use_count))


class UsageReport(NamedTuple):
    capture_time: Timestamp
    events_24h: tuple[UsageEvent, ...]
    aggregates: tuple[UsageAggregate, ...]


class _NetUsageRecordFields(NamedTuple):
    network_id: str
    st: Timestamp
    rb: int
    rp: int
    tb: int
    tp: int
    bucket_duration: int


class NetUsageRecord(_NetUsageRecordFields):
    """Per-network traffic bucket [st, st + bucket_duration); `st` is stored
    exactly as reported."""

    __slots__ = ()

    def __new__(
        cls,
        network_id: str,
        st: Timestamp,
        rb: int,
        rp: int,
        tb: int,
        tp: int,
        bucket_duration: int = DEFAULT_BUCKET_SECONDS,
    ):
        if min(rb, rp, tb, tp) < 0:
            name = next(name for name, value in zip(("rb", "rp", "tb", "tp"), (rb, rp, tb, tp)) if value < 0)
            raise ValueError(f"{name} must be >= 0")
        return tuple.__new__(cls, (network_id, st, rb, rp, tb, tp, bucket_duration))

    def has_traffic(self) -> bool:
        return (self.rb + self.rp + self.tb + self.tp) > 0


class _LeaseEventFields(NamedTuple):
    at: Timestamp
    interface: str
    private_ip: str
    event_kind: LeaseKind
    network_id: Optional[str]


class LeaseEvent(_LeaseEventFields):
    __slots__ = ()

    def __new__(
        cls, at: Timestamp, interface: str, private_ip: str, event_kind: LeaseKind, network_id: Optional[str] = None
    ):
        ipaddress.IPv4Address(private_ip)  # raises on non-dotted-quad
        return tuple.__new__(cls, (at, interface, private_ip, event_kind, network_id))


class NetworkStackLog(NamedTuple):
    """Volatile DHCP/interface log; empty right after a reboot."""

    leases: tuple[LeaseEvent, ...]
    boot_epoch_marker: Optional[Timestamp] = None


def _tokenize(text: str, text_form, jsonl_form) -> dict[type, list]:
    """Run the dump's tokenizer on `text` (JSON-lines when the first
    non-blank character is `{`, text otherwise) and group its tokens by
    type, in dump order; warnings are the `str` tokens."""
    if not text or not text.strip():
        raise ValueError("dump text is empty")
    tokenizer = jsonl_form if text.lstrip().startswith("{") else text_form
    tokens: dict[type, list] = defaultdict(list)
    for token in tokenizer(text):
        tokens[type(token)].append(token)
    return tokens


# The stdlib's C scanner, which `json.loads` itself runs. A stripped line has
# no JSON whitespace at either end, so `json.loads` accepts it exactly when
# the scanner reads one value that ends where the line ends, and returns
# that value.
_scan_value = json.JSONDecoder().scan_once


def _jsonl(text: str, record):
    """Tokenize a JSON-lines dump: `record(obj)` turns one object into a
    domain record, or None to skip it; any failure warns for that line.
    Each line is read as `json.loads` reads it, and a line it refuses
    warns with `json`'s own error, a line nested deeper than the recursion
    limit included."""
    for lineno, line in text_lines(text):
        try:
            try:
                obj, end = _scan_value(line, 0)
            except StopIteration:
                end = None
            if end != len(line):
                obj = json.loads(line)  # refused: raises json's own error for the line
            if not isinstance(obj, dict):
                raise TypeError(f"expected a JSON object, got {type(obj).__name__}")
            token = record(obj)
        except (KeyError, RecursionError, TypeError, ValueError) as exc:
            token = f"line {lineno}: {exc}"
        if token is not None:
            yield token


def _mistyped(obj: dict, **kinds) -> None:
    """Raise json_field's TypeError for the first field of `obj` whose JSON
    type is not the one `kinds` names; tokenizers check inline, then call this."""
    for key, kind in kinds.items():
        if key in obj:
            json_field(obj, key, kind)


def positive_seconds(value) -> int:
    """A bucket duration, as a dump or `generate` states it: a positive whole
    number of seconds in ASCII digits; ValueError otherwise."""
    text = str(value)
    if not (text.isascii() and text.isdecimal()) or int(text) == 0:
        raise ValueError(f"bucketDuration must be a positive whole number of seconds, got {value!r}")
    return int(text)


def _lease(at: Timestamp, interface: str, ip: str, kind: str, network_id: Optional[str]) -> LeaseEvent:
    return LeaseEvent(at, interface, ip, _LEASE_KINDS.get(kind, LeaseKind.OTHER), network_id)


def _quoted(line: str, key: str) -> Optional[str]:
    """The text from the first `key="` in `line` to the next quote; None
    when `line` has no `key="` or no quote after it. It is the group that
    `re.search(key + _QUOTED, line)` finds."""
    start = line.find(key + '"')
    if start < 0:
        return None
    start += len(key) + 1
    end = line.find('"', start)
    return line[start:end] if end >= 0 else None


_QUOTED = r'"([^"]*)"'
_EVENT_RE = re.compile(r'time=' + _QUOTED + r'\s+type=(\S+)\s+package=(\S+)')
_AGGREGATE_RE = re.compile(r'package=(\S+)\s+lastTimeUsed=' + _QUOTED + r'\s+totalCount=([0-9]+)(?!\S)')
_DURATION_RE = re.compile(r'bucketDuration=(\S*)')
_ST_LINE_RE = re.compile(r'st=([0-9]+)\s+rb=(-?[0-9]+)\s+rp=(-?[0-9]+)\s+tb=(-?[0-9]+)\s+tp=(-?[0-9]+)(?!\S)')
_LEASE_RE = re.compile(
    r'time=' + _QUOTED + r'\s+iface=(\S+)\s+event=(\S+)\s+ip=(\S+)(?:\s+ssid=' + _QUOTED + r')?'
)

# The common line of each text dump, which its tokenizer reads from the
# pattern's groups; every other line goes through the per-line rules above.
# A common line is one those rules read the same way: its tokens are
# printable ASCII without space or quote (or, in a lease, "="), so no skip,
# header or boot rule and no earlier field can take it. A lease's SSID comes
# with its quotes, so that an empty one is told from none. The wall time
# comes split as `Timestamp.parse_parts` takes it, and as `parse` splits it:
# `\d` takes any decimal digit, and both read only ASCII ones as a time.
_WALL_PARTS = r'time="(\d{4}-\d\d-\d\d \d\d):(\d\d):(\d\d)"'
_EVENT_LINES = line_pattern(_WALL_PARTS + r' type=([!#-~]+) package=([!#-~]+)')
_COUNTER_LINES = line_pattern(r'st=([0-9]+) rb=([0-9]+) rp=([0-9]+) tb=([0-9]+) tp=([0-9]+)')
_LEASE_LINES = line_pattern(
    _WALL_PARTS + r' iface=([!#-<>-~]+) event=([!#-<>-~]+) ip=([0-9.]+)(?: ssid=("[^"\n]*"))?'
)

_SECTION_HEADERS = {
    "last 24 hour events:": "events",
    "weekly stats:": AggregateWindow.WEEK,
    "monthly stats:": AggregateWindow.MONTH,
    "yearly stats:": AggregateWindow.YEAR,
}


# --- Tokenizers: one per dump and format. Each yields domain records, boot
# markers as Timestamps, and per-line warnings as strings. Wall-clock text is
# read in `zone`. A usagestats dump's own capture record is informational and
# skipped unparsed: the capture instant comes from the bundle.


def _usagestats_text(text: str, zone: str):
    section = None
    for lineno, (hour, minute, second, event_type, package, line) in text_lines(text, _EVENT_LINES):
        if not hour:
            if line.startswith("DUMP OF SERVICE") or (
                "capture-time=" in line and _quoted(line, "capture-time=") is not None
            ):
                continue
            m = _EVENT_RE.search(line)
            if m is None:
                key = line.lower()
                header = _SECTION_HEADERS.get(key)
                if header is not None:
                    section = header
                    continue
                if key.endswith("stats:"):  # an unknown section: no aggregate window
                    section = None
                else:
                    m = _AGGREGATE_RE.search(line)
                    if m and isinstance(section, AggregateWindow):
                        try:
                            last_used = Timestamp.parse(m.group(2) + ":00", zone)
                        except ValueError as exc:
                            yield f"line {lineno}: bad aggregate time ({exc})"
                            continue
                        yield UsageAggregate(section, m.group(1), last_used, int(m.group(3)))
                        continue
                yield f"line {lineno}: unrecognized: {line[:80]}"
                continue
            wall, event_type, package = m.groups()
        try:
            at = Timestamp.parse_parts(hour, minute, second, zone) if hour else Timestamp.parse(wall, zone)
        except ValueError as exc:
            yield f"line {lineno}: bad event time ({exc})"
            continue
        yield UsageEvent(at, package, event_type)


def _usagestats_jsonl(text: str):
    def record(obj):
        kind = obj.get("record")
        if kind == "event":
            at, package, event_type = obj["at"], obj["package"], obj["event_type"]
            if not (type(at) is int and type(package) is type(event_type) is str):
                _mistyped(obj, at=int, package=str, event_type=str)
            return UsageEvent(Timestamp(at), package, event_type)
        if kind == "aggregate":
            window, package = obj["window"], obj["package"]
            last_used, count = obj["last_used"], obj["use_count"]
            if not (type(window) is type(package) is str and type(last_used) is type(count) is int):
                _mistyped(obj, window=str, package=str, last_used=int, use_count=int)
            return UsageAggregate(AggregateWindow(window), package, Timestamp(last_used), count)
        if kind == "capture":
            return None
        raise ValueError(f"unknown record kind {kind!r}")

    return _jsonl(text, record)


def _netstats_text(text: str):
    current_network: Optional[str] = None
    duration: Optional[int] = DEFAULT_BUCKET_SECONDS  # None: the stated one was invalid
    for lineno, (st, rb, rp, tb, tp, line) in text_lines(text, _COUNTER_LINES):
        if not st:
            if line.startswith("DUMP OF SERVICE") or line.endswith("stats:"):
                continue
            if line.startswith("NetworkStatsHistory"):
                m = _DURATION_RE.search(line)
                if m:
                    try:
                        duration = positive_seconds(m.group(1))
                    except ValueError as exc:
                        duration = None
                        yield f"line {lineno}: {exc}"
                continue
            network = _quoted(line, "networkId=")
            if network is not None:
                current_network = network
                continue
            m = _ST_LINE_RE.search(line)
            if m is None:
                yield f"line {lineno}: unrecognized: {line[:80]}"
                continue
            st, rb, rp, tb, tp = m.groups()
        if current_network is None:
            yield f"line {lineno}: counter line before any networkId"
            continue
        if duration is None:
            yield f"line {lineno}: counter line under an invalid bucketDuration; dropped"
            continue
        rb, rp, tb, tp = int(rb), int(rp), int(tb), int(tp)
        if min(rb, rp, tb, tp) < 0:
            yield f"line {lineno}: negative counter; dropped"
            continue
        try:
            record = NetUsageRecord(current_network, Timestamp(int(st)), rb, rp, tb, tp, duration)
        except ValueError as exc:  # an st that no zone can render
            yield f"line {lineno}: {exc}; dropped"
            continue
        yield record


def _netstats_jsonl(text: str):
    def record(obj):
        network_id, st = obj["network_id"], obj["st"]
        rb, rp, tb, tp = obj["rb"], obj["rp"], obj["tb"], obj["tp"]
        duration = obj.get("bucket_duration", DEFAULT_BUCKET_SECONDS)
        if not (type(network_id) is str
                and type(st) is type(rb) is type(rp) is type(tb) is type(tp) is type(duration) is int):
            _mistyped(obj, network_id=str, st=int, rb=int, rp=int, tb=int, tp=int, bucket_duration=int)
        return NetUsageRecord(network_id, Timestamp(st), rb, rp, tb, tp, positive_seconds(duration))

    return _jsonl(text, record)


def _network_stack_text(text: str, zone: str):
    for lineno, (hour, minute, second, interface, kind, ip, ssid, line) in text_lines(text, _LEASE_LINES):
        if hour:
            network_id = ssid[1:-1] if ssid else None
        else:
            if line.startswith("DUMP OF SERVICE"):
                continue
            boot = _quoted(line, "bootTime=")
            if boot is not None:
                try:
                    yield Timestamp.parse(boot, zone)
                except ValueError as exc:
                    yield f"line {lineno}: bad boot time ({exc})"
                continue
            m = _LEASE_RE.search(line)
            if m is None:
                yield f"line {lineno}: unrecognized: {line[:80]}"
                continue
            wall, interface, kind, ip, network_id = m.groups()
            if network_id is None and "ssid=" in line:
                yield f"line {lineno}: lease ssid= is not a quoted string after ip=; dropped"
                continue
        try:
            at = Timestamp.parse_parts(hour, minute, second, zone) if hour else Timestamp.parse(wall, zone)
            lease = _lease(at, interface, ip, kind, network_id)
        except ValueError as exc:
            yield f"line {lineno}: bad lease line ({exc})"
            continue
        yield lease


def _network_stack_jsonl(text: str):
    def record(obj):
        kind = obj.get("record")
        if kind == "lease":
            at, ip, network_id = obj["at"], obj["private_ip"], obj.get("network_id")
            interface, event_kind = obj.get("interface", "wlan0"), obj.get("event_kind", "dhcp_ack")
            if not (type(at) is int and type(ip) is type(interface) is type(event_kind) is str
                    and (network_id is None or type(network_id) is str)):
                _mistyped(obj, at=int, private_ip=str, interface=str, event_kind=str)
                raise TypeError(f"network_id must be a JSON string or null, got {network_id!r}")
            return _lease(Timestamp(at), interface, ip, event_kind, network_id)
        if kind == "boot":
            return Timestamp(json_field(obj, "at", int))
        raise ValueError(f"unknown record kind {kind!r}")

    return _jsonl(text, record)


# --- Semantic passes: one per dump, shared by both formats.

_AT_EPOCH = attrgetter("at.epoch")


def parse_usagestats(text: str, capture_time: Timestamp, zone: str) -> tuple[UsageReport, list[str]]:
    """Parse a usagestats dump into a report plus per-line warnings.

    Wall-clock times are read in `zone`. `capture_time` is the instant the
    dump was collected (the bundle item's `collected_at`); events outside the
    24-hour detail window ending at it are dropped with a warning.
    """
    tokens = _tokenize(text, partial(_usagestats_text, zone=zone), _usagestats_jsonl)
    warnings = tokens[str]

    kept = []
    window_end = capture_time.epoch
    window_start = window_end - USAGE_WINDOW_SECONDS
    for ev in tokens[UsageEvent]:
        if not window_start <= ev.at.epoch <= window_end:
            warnings.append(
                f"event for {ev.package} at {ev.at.render(zone)} lies outside the 24h detail window; dropped"
            )
        else:
            kept.append(ev)
    kept.sort(key=_AT_EPOCH)  # stable: ties keep input order
    return UsageReport(capture_time, tuple(kept), tuple(tokens[UsageAggregate])), warnings


def parse_netstats(text: str) -> tuple[list[NetUsageRecord], list[str]]:
    """Parse a netstats dump into traffic bucket records, order preserved.

    Each record carries the bucket duration the dump states for it: the
    nearest `bucketDuration=` above its counter line, or the JSON-lines
    `bucket_duration` key; DEFAULT_BUCKET_SECONDS where none is stated.
    Counter lines under an invalid duration are dropped with a warning.
    """
    tokens = _tokenize(text, _netstats_text, _netstats_jsonl)
    return tokens[NetUsageRecord], tokens[str]


def parse_network_stack(text: str, zone: str) -> tuple[NetworkStackLog, list[str]]:
    """Parse a network_stack dump into DHCP lease events plus boot marker.

    Wall-clock times are read in `zone`. Lease lines predating the boot
    marker (the last one in the dump) are rejected with a warning: the
    service log does not survive a reboot, so such lines cannot be genuine.
    """
    tokens = _tokenize(text, partial(_network_stack_text, zone=zone), _network_stack_jsonl)
    warnings, leases = tokens[str], tokens[LeaseEvent]
    boot = tokens[Timestamp][-1] if tokens[Timestamp] else None
    if boot is not None:
        kept = []
        for lease in leases:
            if lease.at.epoch < boot.epoch:
                warnings.append(
                    f"lease at {lease.at.render(zone)} predates boot marker {boot.render(zone)}; dropped "
                    "(log is volatile across reboot)"
                )
            else:
                kept.append(lease)
        leases = kept
    leases.sort(key=_AT_EPOCH)
    return NetworkStackLog(tuple(leases), boot), warnings
