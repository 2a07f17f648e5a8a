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
from enum import Enum
from operator import attrgetter
from typing import NamedTuple, Optional

from .evidence import (
    MAX_DIGITS, MAX_EPOCH, TWO_DIGIT_VALUES, Timestamp, WallHours, bounded_int, json_field, line_pattern, text_lines,
)

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


def _is_jsonl(text: str) -> bool:
    """Whether a dump is in the JSON-lines form: its first non-blank
    character is `{`; ValueError for a dump with none."""
    text = text.lstrip()
    if not text:
        raise ValueError("dump text is empty")
    return text[0] == "{"


# The stdlib's C scanner, which `json.loads` itself runs, with integers read
# by `bounded_int`. A stripped line has no JSON whitespace at either end, so
# `json.loads` accepts it exactly when the scanner reads one value that ends
# where the line ends, and returns that value.
_scan_value = json.JSONDecoder(parse_int=bounded_int).scan_once


def _jsonl_line(lineno: int, line: str, record, warnings: list[str]) -> None:
    """Read one stripped line of a JSON-lines dump into the dump's lists
    with `record(obj)`; any failure warns for the line. A usagestats event
    or aggregate row or a netstats counter row as `json.dumps` writes it
    never comes here, but for an aggregate row past MAX_EPOCH: its
    tokenizer reads it from its pattern's groups, which are the values
    `json.loads` returns (see `_COUNTER_ROWS`). Every other line is read as
    `json.loads` reads it, its integers through `bounded_int`, and a line it
    refuses warns with `json`'s own error, a line nested deeper than the
    recursion limit included; a record that lacks a field warns naming it."""
    try:
        try:
            obj, end = _scan_value(line, 0)
        except StopIteration:
            end = None
        if end != len(line):
            obj = json.loads(line, parse_int=bounded_int)  # refused: raises json's own error for the line
        if not isinstance(obj, dict):
            raise TypeError(f"expected a JSON object, got {type(obj).__name__}")
        record(obj)
    except KeyError as exc:
        warnings.append(f"line {lineno}: missing field {exc}")
    except (RecursionError, TypeError, ValueError) as exc:
        warnings.append(f"line {lineno}: {exc}")


def _mistyped(obj: dict, **kinds) -> None:
    """Raise json_field's TypeError for the first field of `obj` whose JSON
    type is not the one `kinds` names; tokenizers check inline, then call this."""
    for key, kind in kinds.items():
        if key in obj:
            json_field(obj, key, kind)


def positive_seconds(value) -> int:
    """A bucket duration, as a dump or `generate` states it: a positive whole
    number of seconds in at most MAX_DIGITS ASCII digits; ValueError otherwise."""
    text = str(value)
    if not (text.isascii() and text.isdecimal()) or len(text) > MAX_DIGITS or int(text) == 0:
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
# A count or counter takes at most MAX_DIGITS digits; a line with a longer
# run is no rule's line, and warns.
_DIGITS = f"[0-9]{{1,{MAX_DIGITS}}}"
_AGGREGATE_RE = re.compile(rf'package=(\S+)\s+lastTimeUsed={_QUOTED}\s+totalCount=({_DIGITS})(?!\S)')
_DURATION_RE = re.compile(r'bucketDuration=(\S*)')
_ST_LINE_RE = re.compile(
    rf'st=({_DIGITS})\s+rb=(-?{_DIGITS})\s+rp=(-?{_DIGITS})\s+tb=(-?{_DIGITS})\s+tp=(-?{_DIGITS})(?!\S)'
)
_LEASE_RE = re.compile(
    r'time=' + _QUOTED + r'\s+iface=(\S+)\s+event=(\S+)\s+ip=(\S+)(?:\s+ssid=' + _QUOTED + r')?'
)

# An aggregate line as the generators write it, tried first among the lines
# that are not a usagestats dump's common line; its groups are the ones
# `_AGGREGATE_RE` finds in it. No rule before that one can take such a line:
# it starts with `package=` and ends in a digit, so it is no service line or
# header, and the capture-time and event rules each need a `key="`, while its
# package token holds no quote and its one opening quote follows `lastTimeUsed=`.
_AGGREGATE_LINE = re.compile(rf'package=([!#-~]+) lastTimeUsed="(\d{{4}}-\d\d-\d\d \d\d:\d\d)" totalCount=({_DIGITS})')

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
_COUNTER_LINES = line_pattern(f'st=([0-9]{{1,12}}) rb=({_DIGITS}) rp=({_DIGITS}) tb=({_DIGITS}) tp=({_DIGITS})')
_LEASE_LINES = line_pattern(
    _WALL_PARTS + r' iface=([!#-<>-~]+) event=([!#-<>-~]+) ip=([0-9.]+)(?: ssid=("[^"\n]*"))?'
)

# The common rows of each JSON-lines dump, as `json.dumps` writes them, which
# its tokenizer reads from the pattern's groups; every other line goes to
# `_jsonl_line`. The groups are the values `json.loads` returns for the row:
# printable ASCII without a quote or backslash (so no control character)
# decodes to itself; `0|[1-9][0-9]{0,18}` is the one integer form that both
# JSON and `bounded_int` accept (a bucket duration's is the positive one that
# `positive_seconds` accepts too); and each key appears once, in a fixed
# order, so no key repeats. Leading spaces are what `strip` drops before
# `json.loads`. A usagestats aggregate row is read as a text dump's
# aggregate line is: by a `fullmatch` of `_AGGREGATE_ROW` on each stripped
# line that the event pattern leaves, the line `_jsonl_line` would read.
_JSON_INT = f"(0|[1-9][0-9]{{0,{MAX_DIGITS - 1}}})"
_PLAIN = r'[ !#-\[\]-~]'  # printable ASCII but the quote and the backslash
_EVENT_ROWS = line_pattern(
    rf'\{{"record": "event", "at": {_JSON_INT}, "package": "({_PLAIN}*)", "event_type": "({_PLAIN}*)"\}}'
)
_AGGREGATE_ROW = re.compile(
    rf'\{{"record": "aggregate", "window": "(week|month|year)", "package": "({_PLAIN}*)", '
    rf'"last_used": {_JSON_INT}, "use_count": {_JSON_INT}\}}'
)
_COUNTER_ROWS = line_pattern(
    rf'\{{"network_id": "({_PLAIN}+)", "st": {_JSON_INT}, "rb": {_JSON_INT}, "rp": {_JSON_INT}, '
    rf'"tb": {_JSON_INT}, "tp": {_JSON_INT}(?:, "bucket_duration": ([1-9][0-9]{{0,{MAX_DIGITS - 1}}}))?\}}'
)

_SECTION_HEADERS = {
    "last 24 hour events:": "events",
    "weekly stats:": AggregateWindow.WEEK,
    "monthly stats:": AggregateWindow.MONTH,
    "yearly stats:": AggregateWindow.YEAR,
}


# --- Tokenizers: one per dump and format. Each returns its dump's records
# as lists by kind, in dump order, then its per-line warnings. Wall-clock text
# is read in `zone`, a common line's wall hour through the dump's WallHours.
# A usagestats dump's own capture record is informational and skipped
# unparsed: the capture instant comes from the bundle.


def _usagestats_text(text: str, zone: str) -> tuple[list[UsageEvent], list[UsageAggregate], list[str]]:
    events, aggregates, warnings = [], [], []
    starts, two_digits, new = WallHours(zone), TWO_DIGIT_VALUES.get, tuple.__new__
    section = None
    for lineno, (hour, minute, second, event_type, package, line) in text_lines(text, _EVENT_LINES):
        if hour:
            start, minutes, seconds = starts[hour], two_digits(minute), two_digits(second)
            if start is not None and minutes is not None and seconds is not None:
                at = new(Timestamp, (start + 60 * minutes + seconds,))  # in range: see WallHours
                events.append(new(UsageEvent, (at, package, event_type)))  # UsageEvent checks nothing
                continue
        else:
            aggregate = _AGGREGATE_LINE.fullmatch(line)
            if aggregate is None:
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
                        aggregate = _AGGREGATE_RE.search(line)
            if aggregate is not None and isinstance(section, AggregateWindow):
                package, wall, count = aggregate.groups()
                try:
                    last_used = Timestamp.parse(wall + ":00", zone)
                except ValueError as exc:
                    warnings.append(f"line {lineno}: bad aggregate time ({exc})")
                    continue
                # Both aggregate forms take totalCount as at most MAX_DIGITS ASCII digits.
                aggregates.append(new(UsageAggregate, (section, package, last_used, int(count))))
                continue
            if aggregate is not None or m is None:  # an aggregate outside a window, or no rule's line
                warnings.append(f"line {lineno}: unrecognized: {line[:80]}")
                continue
            wall, event_type, package = m.groups()
        try:
            at = Timestamp.parse_parts(hour, minute, second, zone) if hour else Timestamp.parse(wall, zone)
        except ValueError as exc:
            warnings.append(f"line {lineno}: bad event time ({exc})")
            continue
        events.append(new(UsageEvent, (at, package, event_type)))
    return events, aggregates, warnings


def _usagestats_jsonl(text: str) -> tuple[list[UsageEvent], list[UsageAggregate], list[str]]:
    events, aggregates, warnings = [], [], []
    new = tuple.__new__

    def record(obj):
        kind = obj.get("record")
        if kind == "event":
            at, package, event_type = obj["at"], obj["package"], obj["event_type"]
            if not (type(at) is int and type(package) is type(event_type) is str):
                _mistyped(obj, at=int, package=str, event_type=str)
            events.append(UsageEvent(Timestamp(at), package, event_type))
        elif kind == "aggregate":
            window, package = obj["window"], obj["package"]
            last_used, count = obj["last_used"], obj["use_count"]
            if not (type(window) is type(package) is str and type(last_used) is type(count) is int):
                _mistyped(obj, window=str, package=str, last_used=int, use_count=int)
            aggregates.append(UsageAggregate(AggregateWindow(window), package, Timestamp(last_used), count))
        elif kind != "capture":
            raise ValueError(f"unknown record kind {kind!r}")

    windows = {window.value: window for window in AggregateWindow}
    for lineno, (at, package, event_type, line) in text_lines(text, _EVENT_ROWS):
        if not at:
            row = _AGGREGATE_ROW.fullmatch(line)
            if row and (epoch := int(row[3])) <= MAX_EPOCH:  # the pattern's count is never negative
                aggregates.append(new(UsageAggregate, (windows[row[1]], row[2], new(Timestamp, (epoch,)), int(row[4]))))
            else:  # any other line, or an aggregate row past MAX_EPOCH, which `record` refuses
                _jsonl_line(lineno, line, record, warnings)
        elif (epoch := int(at)) <= MAX_EPOCH:
            events.append(new(UsageEvent, (new(Timestamp, (epoch,)), package, event_type)))  # UsageEvent checks nothing
        else:
            try:
                Timestamp(epoch)  # refuses it, as on the per-line path
            except ValueError as exc:
                warnings.append(f"line {lineno}: {exc}")
    return events, aggregates, warnings


def _netstats_text(text: str) -> tuple[list[NetUsageRecord], list[str]]:
    records, warnings = [], []
    new = tuple.__new__
    current_network: Optional[str] = None
    duration: Optional[int] = DEFAULT_BUCKET_SECONDS  # None: the stated one was invalid
    for lineno, (st, rb, rp, tb, tp, line) in text_lines(text, _COUNTER_LINES):
        if st:
            # The pattern takes ASCII digits alone, at most 12 for `st` as for
            # MAX_EPOCH: `int` reads each, no counter is negative, and an `st`
            # up to MAX_EPOCH is an epoch Timestamp accepts.
            if (epoch := int(st)) <= MAX_EPOCH and current_network is not None and duration is not None:
                at = new(Timestamp, (epoch,))
                records.append(new(NetUsageRecord, (current_network, at, int(rb), int(rp), int(tb), int(tp), duration)))
                continue
        else:
            if line.startswith("DUMP OF SERVICE") or line.endswith("stats:"):
                continue
            if line.startswith("NetworkStatsHistory"):
                m = _DURATION_RE.search(line)
                if m:
                    try:
                        duration = positive_seconds(m.group(1))
                    except ValueError as exc:
                        duration = None
                        warnings.append(f"line {lineno}: {exc}")
                continue
            network = _quoted(line, "networkId=")
            if network is not None:
                current_network = network
                continue
            m = _ST_LINE_RE.search(line)
            if m is None:
                warnings.append(f"line {lineno}: unrecognized: {line[:80]}")
                continue
            st, rb, rp, tb, tp = m.groups()
        if current_network is None:
            warnings.append(f"line {lineno}: counter line before any networkId")
            continue
        if duration is None:
            warnings.append(f"line {lineno}: counter line under an invalid bucketDuration; dropped")
            continue
        rb, rp, tb, tp = int(rb), int(rp), int(tb), int(tp)
        if min(rb, rp, tb, tp) < 0:
            warnings.append(f"line {lineno}: negative counter; dropped")
            continue
        try:
            record = NetUsageRecord(current_network, Timestamp(int(st)), rb, rp, tb, tp, duration)
        except ValueError as exc:  # an st that no zone can render
            warnings.append(f"line {lineno}: {exc}; dropped")
            continue
        records.append(record)
    return records, warnings


def _netstats_jsonl(text: str) -> tuple[list[NetUsageRecord], list[str]]:
    records, warnings = [], []
    new = tuple.__new__

    def record(obj):
        network_id, st = obj["network_id"], obj["st"]
        rb, rp, tb, tp = obj["rb"], obj["rp"], obj["tb"], obj["tp"]
        duration = obj.get("bucket_duration", DEFAULT_BUCKET_SECONDS)
        if not (type(network_id) is str
                and type(st) is type(rb) is type(rp) is type(tb) is type(tp) is type(duration) is int):
            _mistyped(obj, network_id=str, st=int, rb=int, rp=int, tb=int, tp=int, bucket_duration=int)
        records.append(NetUsageRecord(network_id, Timestamp(st), rb, rp, tb, tp, positive_seconds(duration)))

    for lineno, (network_id, st, rb, rp, tb, tp, duration, line) in text_lines(text, _COUNTER_ROWS):
        if not network_id:
            _jsonl_line(lineno, line, record, warnings)
        elif (epoch := int(st)) <= MAX_EPOCH:  # the pattern's counters are never negative
            at = new(Timestamp, (epoch,))
            records.append(new(NetUsageRecord, (network_id, at, int(rb), int(rp), int(tb), int(tp),
                                                int(duration) if duration else DEFAULT_BUCKET_SECONDS)))
        else:
            try:
                Timestamp(epoch)  # refuses it, as on the per-line path
            except ValueError as exc:
                warnings.append(f"line {lineno}: {exc}")
    return records, warnings


def _network_stack_text(text: str, zone: str) -> tuple[list[LeaseEvent], list[Timestamp], list[str]]:
    leases, boots, warnings = [], [], []
    starts, two_digits = WallHours(zone), TWO_DIGIT_VALUES.get
    for lineno, (hour, minute, second, interface, kind, ip, ssid, line) in text_lines(text, _LEASE_LINES):
        if hour:
            network_id = ssid[1:-1] if ssid else None
            start, minutes, seconds = starts[hour], two_digits(minute), two_digits(second)
        else:
            if line.startswith("DUMP OF SERVICE"):
                continue
            boot = _quoted(line, "bootTime=")
            if boot is not None:
                try:
                    boots.append(Timestamp.parse(boot, zone))
                except ValueError as exc:
                    warnings.append(f"line {lineno}: bad boot time ({exc})")
                continue
            m = _LEASE_RE.search(line)
            if m is None:
                warnings.append(f"line {lineno}: unrecognized: {line[:80]}")
                continue
            wall, interface, kind, ip, network_id = m.groups()
            if network_id is None and "ssid=" in line:
                warnings.append(f"line {lineno}: lease ssid= is not a quoted string after ip=; dropped")
                continue
        try:
            if hour and start is not None and minutes is not None and seconds is not None:
                at = tuple.__new__(Timestamp, (start + 60 * minutes + seconds,))  # in range: see WallHours
            else:
                at = Timestamp.parse_parts(hour, minute, second, zone) if hour else Timestamp.parse(wall, zone)
            lease = _lease(at, interface, ip, kind, network_id)
        except ValueError as exc:
            warnings.append(f"line {lineno}: bad lease line ({exc})")
            continue
        leases.append(lease)
    return leases, boots, warnings


def _network_stack_jsonl(text: str) -> tuple[list[LeaseEvent], list[Timestamp], list[str]]:
    leases, boots = [], []

    def record(obj):
        kind = obj.get("record")
        if kind == "lease":
            at, ip, network_id = obj["at"], obj["private_ip"], obj.get("network_id")
            interface, event_kind = obj.get("interface", "wlan0"), obj.get("event_kind", "dhcp_ack")
            if not (type(at) is int and type(ip) is type(interface) is type(event_kind) is str
                    and (network_id is None or type(network_id) is str)):
                _mistyped(obj, at=int, private_ip=str, interface=str, event_kind=str)
                raise TypeError(f"network_id must be a JSON string or null, got {network_id!r}")
            leases.append(_lease(Timestamp(at), interface, ip, event_kind, network_id))
        elif kind == "boot":
            boots.append(Timestamp(json_field(obj, "at", int)))
        else:
            raise ValueError(f"unknown record kind {kind!r}")

    warnings = []
    for lineno, line in text_lines(text):
        _jsonl_line(lineno, line, record, warnings)
    return leases, boots, warnings


# --- Semantic passes: one per dump, shared by both formats.

_AT_EPOCH = attrgetter("at.epoch")


def parse_usagestats(text: str, capture_time: Timestamp, zone: str) -> tuple[UsageReport, list[str]]:
    """Parse a usagestats dump into a report plus per-line warnings.

    Wall-clock times are read in `zone`. `capture_time` is the instant the
    dump was collected (the bundle item's `collected_at`); events outside the
    24-hour detail window ending at it are dropped with a warning.
    """
    events, aggregates, warnings = _usagestats_jsonl(text) if _is_jsonl(text) else _usagestats_text(text, zone)
    kept = sorted(events, key=_AT_EPOCH)  # stable: ties keep dump order
    window_end = capture_time.epoch
    window_start = window_end - USAGE_WINDOW_SECONDS
    if kept and not window_start <= kept[0].at.epoch <= kept[-1].at.epoch <= window_end:
        for ev in events:  # in dump order, as the warnings are
            if not window_start <= ev.at.epoch <= window_end:
                warnings.append(
                    f"event for {ev.package} at {ev.at.render(zone)} lies outside the 24h detail window; dropped"
                )
        kept = [ev for ev in kept if window_start <= ev.at.epoch <= window_end]
    return UsageReport(capture_time, tuple(kept), tuple(aggregates)), warnings


def parse_netstats(text: str) -> tuple[list[NetUsageRecord], list[str]]:
    """Parse a netstats dump into traffic bucket records, order preserved.

    Each record carries the bucket duration the dump states for it: the
    nearest `bucketDuration=` above its counter line, or the JSON-lines
    `bucket_duration` key; DEFAULT_BUCKET_SECONDS where none is stated.
    Counter lines under an invalid duration are dropped with a warning.
    """
    return _netstats_jsonl(text) if _is_jsonl(text) else _netstats_text(text)


def parse_network_stack(text: str, zone: str) -> tuple[NetworkStackLog, list[str]]:
    """Parse a network_stack dump into DHCP lease events plus boot marker.

    Wall-clock times are read in `zone`. Lease lines predating the boot
    marker (the last one in the dump) are rejected with a warning: the
    service log does not survive a reboot, so such lines cannot be genuine.
    """
    leases, boots, warnings = _network_stack_jsonl(text) if _is_jsonl(text) else _network_stack_text(text, zone)
    boot = boots[-1] if boots else None
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
