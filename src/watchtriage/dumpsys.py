"""Parsers for the three ADB dumpsys text outputs: usagestats, netstats, network_stack.

The dumps are consumed in the line-oriented grammar documented in
docs/fixture-grammar.md, which mirrors the real dumpsys field vocabulary
(time=/type=/package=, networkId, st/rb/rp/tb/tp, DHCP lease lines). Unknown
lines never abort a parse; they are collected as warnings. A JSON-lines
pre-tokenized form of each dump is accepted as well. Each record kind is
declared once, in a row table that builds every row pattern of both forms
and the per-line JSON read. Each dump has one tokenizer per form, and both
feed the same semantic pass (24h window, boot marker, sort), so a record
means the same in either form.

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
from operator import attrgetter, itemgetter
from typing import NamedTuple, Optional

from .evidence import MAX_DIGITS, Timestamp, bounded_int, json_field, line_pattern, text_lines
from .timetable import TWO_DIGIT_VALUES, TimeTable

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
    """Read one stripped line of a JSON-lines dump that its row patterns leave
    into the dump's lists with `record(obj)`, as `json.loads` reads it, its
    integers through `bounded_int`; any failure warns for the line: with
    `json`'s own error for a line it refuses (one nested deeper than the
    recursion limit included), naming the field for a record that lacks one."""
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


# --- The row table: one `_Row` per record kind, each field of one `_Kind`.
# A kind's forms hold its groups: `text` where the per-line rules search a
# line, `line` in a text dump's common line, `row` in a JSON-lines common
# row; `json` names the JSON type the per-line read requires. A common form
# takes only what the per-line path reads the same way. A common line's
# tokens are printable ASCII without space or quote (nor, in a lease, "="),
# so no skip, header or boot rule and no earlier field takes the line; its
# wall time comes as the "YYYY-MM-DD HH" hour the dump's TimeTable settles
# (else its `parse` reads it) and a minute and second of TWO_DIGIT_VALUES. A
# common row's groups are what `json.loads` returns: printable ASCII without
# quote or backslash decodes to itself; `0|[1-9][0-9]{0,18}` is the one
# integer form JSON and `bounded_int` both accept (a duration's the positive
# one); an epoch of at most 11 digits is one Timestamp accepts; each key
# appears once, in a fixed order; leading spaces are what `strip` drops. An
# SSID and a string-or-null keep their quotes, so "" is told from none.
class _Kind:
    __slots__ = ("text", "line", "row", "json", "optional")  # optional: the field may be absent

    def __init__(self, text: Optional[str], line: Optional[str], row: Optional[str], json: Optional[str],
                 optional: bool = False):
        self.text, self.line, self.row, self.json, self.optional = text, line, row, json, optional


_QUOTED = r'"([^"]*)"'
_DIGITS = f"[0-9]{{1,{MAX_DIGITS}}}"  # a longer run of digits is no rule's line, and warns
_JSON_INT = f"(0|[1-9][0-9]{{0,{MAX_DIGITS - 1}}})"
_PLAIN = r'[ !#-\[\]-~]'  # printable ASCII but the quote and the backslash
_HOUR = "[0-9]{4}-[0-9]{2}-[0-9]{2} [0-9]{2}"
_WALL = _Kind(_QUOTED, rf'"({_HOUR}):([0-5][0-9]):([0-5][0-9])"', None, None)
_MINUTE = _Kind(_QUOTED, rf'"({_HOUR}:[0-9]{{2}})"', None, None)
_EPOCH = _Kind(rf"({_DIGITS})(?!\S)", "([0-9]{1,11})", "(0|[1-9][0-9]{0,10})", "integer")
_COUNT = _Kind(rf"({_DIGITS})(?!\S)", f"({_DIGITS})", _JSON_INT, "integer")
_SIGNED_COUNT = _Kind(rf"(-?{_DIGITS})(?!\S)", f"({_DIGITS})", _JSON_INT, "integer")
_TOKEN = _Kind(r"(\S+)", "([!#-~]+)", None, None)
_LEASE_TOKEN = _Kind(r"(\S+)", "([!#-<>-~]+)", None, None)
_IPV4 = _Kind(r"(\S+)", "([0-9.]+)", None, None)
_SSID = _Kind(_QUOTED, r'("[^"\n]*")', None, None, optional=True)
_STRING = _Kind(None, None, f'"({_PLAIN}*)"', "string")
_NONEMPTY = _Kind(None, None, f'"({_PLAIN}+)"', "string")
_NULLABLE = _Kind(None, None, f'("{_PLAIN}*"|null)', "string or null")
_WINDOW = _Kind(None, None, f'"({"|".join(window.value for window in AggregateWindow)})"', "string")
_DURATION = _Kind(None, None, f"([1-9][0-9]{{0,{MAX_DIGITS - 1}}})", "integer", optional=True)
_JSON_TYPES = {"integer": (int,), "string": (str,), "string or null": (str, type(None))}
_RECORD = "record"  # the key that names a JSON-lines record's kind


def _join(fields, form: str, sep: str, pair: str) -> str:
    """The pattern of `fields` in their kinds' `form`, each after its key as
    `pair` writes the two, joined by `sep`; an optional field may be absent."""
    pattern = ""
    for key, kind, *_ in fields:
        field = (sep if pattern else "") + pair.format(key, getattr(kind, form))
        pattern += f"(?:{field})?" if kind.optional else field
    return pattern


class _Row:
    """One record kind: its JSON-lines `record` value (None for a netstats
    counter row) and its fields, each (key, kind), in text order and in
    JSON-lines order, where a field may add the default that `read` gives a
    row without it. `rule`, `line` and `row` are the texts of its per-line,
    common-line and common-row patterns; a tokenizer compiles those it uses
    when it runs (`re` keeps them compiled), so importing the module compiles
    no row pattern. The dump structure around rows is the tokenizers'."""

    def __init__(self, record: Optional[str], text: tuple, jsonl: tuple):
        self.record, self.text, self.jsonl = record, text, jsonl
        self.rule = _join(text, "text", r"\s+", "{}={}")
        self.line = _join(text, "line", " ", "{}={}")
        named = f'"{_RECORD}": "{record}", ' if record else ""
        self.row = r"\{" + named + _join(jsonl, "row", ", ", '"{}": {}') + r"\}"
        self._keys = itemgetter(*(key for key, *_ in jsonl))
        self._defaults = {key: default[0] for key, _, *default in jsonl if default}
        self._checks = sorted((len(field) > 2, index, field[0], field[1].json, _JSON_TYPES[field[1].json])
                              for index, field in enumerate(jsonl))

    def read(self, obj: dict) -> tuple:
        """The values of `obj` under the JSON keys in row order, defaults filled
        in: KeyError for the first key it lacks that has none, then TypeError
        for the first mistyped value, those without a default checked first."""
        values = self._keys({**self._defaults, **obj})
        for _, index, key, name, types in self._checks:
            if type(values[index]) not in types:
                raise TypeError(f"{key} must be a JSON {name}, got {values[index]!r}")
        return values


_EVENT = _Row("event", (("time", _WALL), ("type", _TOKEN), ("package", _TOKEN)),
              (("at", _EPOCH), ("package", _STRING), ("event_type", _STRING)))
_AGGREGATE = _Row("aggregate", (("package", _TOKEN), ("lastTimeUsed", _MINUTE), ("totalCount", _COUNT)),
                  (("window", _WINDOW), ("package", _STRING), ("last_used", _EPOCH), ("use_count", _COUNT)))
_COUNTER = _Row(None, (("st", _EPOCH), ("rb", _SIGNED_COUNT), ("rp", _SIGNED_COUNT), ("tb", _SIGNED_COUNT),
                       ("tp", _SIGNED_COUNT)),
                (("network_id", _NONEMPTY), ("st", _EPOCH), ("rb", _COUNT), ("rp", _COUNT), ("tb", _COUNT),
                 ("tp", _COUNT), ("bucket_duration", _DURATION, DEFAULT_BUCKET_SECONDS)))
_LEASE = _Row("lease", (("time", _WALL), ("iface", _LEASE_TOKEN), ("event", _LEASE_TOKEN), ("ip", _IPV4),
                        ("ssid", _SSID)),
              (("at", _EPOCH), ("interface", _STRING, "wlan0"), ("event_kind", _STRING, "dhcp_ack"),
               ("private_ip", _STRING), ("network_id", _NULLABLE, None)))

# Each dump's common lines or rows are read in its `findall` (`line_pattern`).
# A usagestats aggregate line or row is tried by a `fullmatch` of a stripped
# line the `findall` leaves, before any other rule, none of which can take
# it: it starts with `package=` and ends in a digit, and the capture-time
# and event rules each need a `key="`; its one quote follows `lastTimeUsed=`.
_DURATION_RE = re.compile(r'bucketDuration=(\S*)')

_SECTION_HEADERS = {
    "last 24 hour events:": "events",
    "weekly stats:": AggregateWindow.WEEK,
    "monthly stats:": AggregateWindow.MONTH,
    "yearly stats:": AggregateWindow.YEAR,
}


# --- Tokenizers: one per dump and format. Each returns its dump's records
# as lists by kind, in dump order, then its per-line warnings. Wall-clock text
# is read through the dump's TimeTable: a common line's wall hour through
# its `hours` (else `hour_start`), any other wall time by its `parse`.
# A usagestats dump's own capture record is informational and skipped
# unparsed: the capture instant comes from the bundle.


def _usagestats_text(text: str, table: TimeTable) -> tuple[list[UsageEvent], list[UsageAggregate], list[str]]:
    events, aggregates, warnings = [], [], []
    hours, hour_start, two_digits, new = table.hours, table.hour_start, TWO_DIGIT_VALUES, tuple.__new__
    event_rule, aggregate_rule, aggregate_line = map(re.compile, (_EVENT.rule, _AGGREGATE.rule, _AGGREGATE.line))
    section = None
    for lineno, (hour, minute, second, event_type, package, line) in text_lines(text, line_pattern(_EVENT.line)):
        if hour:
            start = hours[hour] if hour in hours else hour_start(hour)
            if start is not None:  # in range: see TimeTable.hour_start
                at = new(Timestamp, (start + 60 * two_digits[minute] + two_digits[second],))
                events.append(new(UsageEvent, (at, package, event_type)))  # UsageEvent checks nothing
                continue
            wall = f"{hour}:{minute}:{second}"
        else:
            aggregate = aggregate_line.fullmatch(line)
            if aggregate is None:
                if line.startswith("DUMP OF SERVICE") or (
                    "capture-time=" in line and _quoted(line, "capture-time=") is not None
                ):
                    continue
                m = event_rule.search(line)
                if m is None:
                    key = line.lower()
                    header = _SECTION_HEADERS.get(key)
                    if header is not None:
                        section = header
                        continue
                    if key.endswith("stats:"):  # an unknown section: no aggregate window
                        section = None
                    else:
                        aggregate = aggregate_rule.search(line)
            if aggregate is not None and isinstance(section, AggregateWindow):
                package, wall, count = aggregate.groups()
                try:
                    last_used = table.parse(wall + ":00")
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
            at = table.parse(wall)
        except ValueError as exc:
            warnings.append(f"line {lineno}: bad event time ({exc})")
            continue
        events.append(new(UsageEvent, (at, package, event_type)))
    return events, aggregates, warnings


def _usagestats_jsonl(text: str) -> tuple[list[UsageEvent], list[UsageAggregate], list[str]]:
    events, aggregates, warnings = [], [], []
    new = tuple.__new__

    def record(obj):
        kind = obj.get(_RECORD)
        if kind == _EVENT.record:
            at, package, event_type = _EVENT.read(obj)
            events.append(UsageEvent(Timestamp(at), package, event_type))
        elif kind == _AGGREGATE.record:
            window, package, last_used, count = _AGGREGATE.read(obj)
            aggregates.append(UsageAggregate(AggregateWindow(window), package, Timestamp(last_used), count))
        elif kind != "capture":
            raise ValueError(f"unknown record kind {kind!r}")

    windows, aggregate_row = {window.value: window for window in AggregateWindow}, re.compile(_AGGREGATE.row)
    for lineno, (at, package, event_type, line) in text_lines(text, line_pattern(_EVENT.row)):
        if at:  # UsageEvent checks nothing
            events.append(new(UsageEvent, (new(Timestamp, (int(at),)), package, event_type)))
        elif row := aggregate_row.fullmatch(line):  # the pattern's count is never negative
            last_used = new(Timestamp, (int(row[3]),))
            aggregates.append(new(UsageAggregate, (windows[row[1]], row[2], last_used, int(row[4]))))
        else:
            _jsonl_line(lineno, line, record, warnings)
    return events, aggregates, warnings


def _netstats_text(text: str) -> tuple[list[NetUsageRecord], list[str]]:
    records, warnings = [], []
    new = tuple.__new__
    current_network: Optional[str] = None
    duration: Optional[int] = DEFAULT_BUCKET_SECONDS  # None: the stated one was invalid
    counter_rule = re.compile(_COUNTER.rule)
    for lineno, (st, rb, rp, tb, tp, line) in text_lines(text, line_pattern(_COUNTER.line)):
        if st:
            # The pattern takes ASCII digits alone, at most 11 for `st`: `int`
            # reads each, no counter is negative, and `st` is an epoch
            # Timestamp accepts.
            if current_network is not None and duration is not None:
                at = new(Timestamp, (int(st),))
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
            m = counter_rule.search(line)
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
        network_id, st, rb, rp, tb, tp, duration = _COUNTER.read(obj)
        records.append(NetUsageRecord(network_id, Timestamp(st), rb, rp, tb, tp, positive_seconds(duration)))

    for lineno, (network_id, st, rb, rp, tb, tp, duration, line) in text_lines(text, line_pattern(_COUNTER.row)):
        if network_id:  # the pattern's counters are never negative
            at = new(Timestamp, (int(st),))
            records.append(new(NetUsageRecord, (network_id, at, int(rb), int(rp), int(tb), int(tp),
                                                int(duration) if duration else DEFAULT_BUCKET_SECONDS)))
        else:
            _jsonl_line(lineno, line, record, warnings)
    return records, warnings


def _network_stack_text(text: str, table: TimeTable) -> tuple[list[LeaseEvent], list[Timestamp], list[str]]:
    leases, boots, warnings = [], [], []
    hours, hour_start, two_digits, lease_rule = table.hours, table.hour_start, TWO_DIGIT_VALUES, re.compile(_LEASE.rule)
    for lineno, (hour, minute, second, interface, kind, ip, ssid, line) in text_lines(text, line_pattern(_LEASE.line)):
        if hour:
            network_id = ssid[1:-1] if ssid else None
            start = hours[hour] if hour in hours else hour_start(hour)
            wall = None if start is not None else f"{hour}:{minute}:{second}"
        else:
            if line.startswith("DUMP OF SERVICE"):
                continue
            boot = _quoted(line, "bootTime=")
            if boot is not None:
                try:
                    boots.append(table.parse(boot))
                except ValueError as exc:
                    warnings.append(f"line {lineno}: bad boot time ({exc})")
                continue
            m = lease_rule.search(line)
            if m is None:
                warnings.append(f"line {lineno}: unrecognized: {line[:80]}")
                continue
            wall, interface, kind, ip, network_id = m.groups()
            if network_id is None and "ssid=" in line:
                warnings.append(f"line {lineno}: lease ssid= is not a quoted string after ip=; dropped")
                continue
        try:
            if wall is None:
                at = tuple.__new__(Timestamp, (start + 60 * two_digits[minute] + two_digits[second],))  # see hour_start
            else:
                at = table.parse(wall)
            lease = _lease(at, interface, ip, kind, network_id)
        except ValueError as exc:
            warnings.append(f"line {lineno}: bad lease line ({exc})")
            continue
        leases.append(lease)
    return leases, boots, warnings


def _network_stack_jsonl(text: str) -> tuple[list[LeaseEvent], list[Timestamp], list[str]]:
    leases, boots, warnings = [], [], []

    def record(obj):
        kind = obj.get(_RECORD)
        if kind == _LEASE.record:
            at, interface, event_kind, ip, network_id = _LEASE.read(obj)
            leases.append(_lease(Timestamp(at), interface, ip, event_kind, network_id))
        elif kind == "boot":
            boots.append(Timestamp(json_field(obj, "at", int)))
        else:
            raise ValueError(f"unknown record kind {kind!r}")

    for lineno, (at, interface, event_kind, ip, network_id, line) in text_lines(text, line_pattern(_LEASE.row)):
        if at:
            try:  # the pattern's epoch is one Timestamp accepts; LeaseEvent checks the address
                leases.append(_lease(tuple.__new__(Timestamp, (int(at),)), interface, ip, event_kind,
                                     None if network_id == "null" else network_id[1:-1]))
            except ValueError as exc:
                warnings.append(f"line {lineno}: {exc}")
        else:
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
    table = TimeTable(zone)
    events, aggregates, warnings = _usagestats_jsonl(text) if _is_jsonl(text) else _usagestats_text(text, table)
    kept = sorted(events, key=_AT_EPOCH)  # stable: ties keep dump order
    window_end = capture_time.epoch
    window_start = window_end - USAGE_WINDOW_SECONDS
    if kept and not window_start <= kept[0].at.epoch <= kept[-1].at.epoch <= window_end:
        for ev in events:  # in dump order, as the warnings are
            if not window_start <= ev.at.epoch <= window_end:
                warnings.append(
                    f"event for {ev.package} at {table[ev.at.epoch]} lies outside the 24h detail window; dropped"
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
    table = TimeTable(zone)
    leases, boots, warnings = _network_stack_jsonl(text) if _is_jsonl(text) else _network_stack_text(text, table)
    boot = boots[-1] if boots else None
    if boot is not None:
        kept = []
        for lease in leases:
            if lease.at.epoch < boot.epoch:
                warnings.append(
                    f"lease at {table[lease.at.epoch]} predates boot marker {table[boot.epoch]}; dropped "
                    "(log is volatile across reboot)"
                )
            else:
                kept.append(lease)
        leases = kept
    leases.sort(key=_AT_EPOCH)
    return NetworkStackLog(tuple(leases), boot), warnings
