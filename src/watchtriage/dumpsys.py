"""Parsers for the three ADB dumpsys text outputs: usagestats, netstats, network_stack.

The dumps are consumed in the line-oriented grammar documented in
docs/fixture-grammar.md, which mirrors the real dumpsys field vocabulary
(time=/type=/package=, networkId, st/rb/rp/tb/tp, DHCP lease lines). Unknown
lines never abort a parse; they are collected as warnings. A JSON-lines
pre-tokenized form of each dump is accepted as well: each dump has one
tokenizer per format, and both feed the same semantic pass (capture time,
24h window, boot marker, sort), so a record means the same in either form.

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
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Optional

from .evidence import Timestamp

USAGE_WINDOW_SECONDS = 24 * 3600
DEFAULT_BUCKET_SECONDS = 3600


class ParseError(ValueError):
    """Fatal parse failure (empty input, missing capture time)."""


class EmptyDumpError(ParseError):
    """Input text is empty or whitespace-only."""


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
# LeaseKind values both name a kind; any other value is OTHER, and the event
# keeps the raw value.
_LEASE_KINDS = {
    "DHCP_ACK": LeaseKind.DHCP_ACK,
    "LEASE_RENEW": LeaseKind.LEASE_RENEW,
    "IF_UP": LeaseKind.INTERFACE_UP,
    "IF_DOWN": LeaseKind.INTERFACE_DOWN,
    **{kind.value: kind for kind in LeaseKind},
}


@dataclass(frozen=True)
class UsageEvent:
    """Second-precision app lifecycle event from the 24h detail window."""

    at: Timestamp
    package: str
    event_type: str  # raw dumpsys token, open vocabulary


@dataclass(frozen=True)
class UsageAggregate:
    """Coarse per-window usage summary; never second-precise."""

    window: AggregateWindow
    package: str
    last_used: Timestamp
    use_count: int
    last_used_precision: str = "minute"

    def __post_init__(self):
        if self.use_count < 0:
            raise ValueError("use_count must be >= 0")
        if self.last_used_precision == "second":
            raise ValueError("aggregates never carry second precision")


@dataclass(frozen=True)
class UsageReport:
    capture_time: Timestamp
    events_24h: tuple[UsageEvent, ...]
    aggregates: tuple[UsageAggregate, ...]


@dataclass(frozen=True)
class NetUsageRecord:
    """Per-network traffic bucket [st, st + bucket_duration); `st` is stored
    exactly as reported."""

    network_id: str
    st: Timestamp
    rb: int
    rp: int
    tb: int
    tp: int
    bucket_duration: int = DEFAULT_BUCKET_SECONDS

    def __post_init__(self):
        for name in ("rb", "rp", "tb", "tp"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    def has_traffic(self) -> bool:
        return (self.rb + self.rp + self.tb + self.tp) > 0


@dataclass(frozen=True)
class LeaseEvent:
    at: Timestamp
    interface: str
    private_ip: str
    event_kind: LeaseKind
    raw_kind: str = ""
    network_id: Optional[str] = None

    def __post_init__(self):
        ipaddress.IPv4Address(self.private_ip)  # raises on non-dotted-quad


@dataclass(frozen=True)
class NetworkStackLog:
    """Volatile DHCP/interface log; empty right after a reboot."""

    leases: tuple[LeaseEvent, ...]
    boot_epoch_marker: Optional[Timestamp] = None


def _tokenize(text: str, text_form, jsonl_form) -> dict[type, list]:
    """Run the dump's tokenizer on `text` (JSON-lines when the first
    non-blank character is `{`, text otherwise) and group its tokens by
    type, in dump order; warnings are the `str` tokens."""
    if not text or not text.strip():
        raise EmptyDumpError("dump text is empty")
    tokenizer = jsonl_form if text.lstrip().startswith("{") else text_form
    tokens: dict[type, list] = defaultdict(list)
    for token in tokenizer(text):
        tokens[type(token)].append(token)
    return tokens


def _lines(text: str):
    """(line number, stripped line) for every non-blank line."""
    for lineno, raw_line in enumerate(text.splitlines(), 1):
        line = raw_line.strip()
        if line:
            yield lineno, line


def _jsonl(text: str, record):
    """Tokenize a JSON-lines dump: `record(obj)` turns one object into a
    domain record, or None to skip it; any failure warns for that line."""
    for lineno, line in _lines(text):
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise TypeError(f"expected a JSON object, got {type(obj).__name__}")
            token = record(obj)
        except (KeyError, ValueError, TypeError) as exc:
            token = f"line {lineno}: {exc}"
        if token is not None:
            yield token


def positive_seconds(value) -> int:
    """A bucket duration, as a dump or `generate` states it: a positive whole
    number of seconds; ValueError otherwise."""
    if not str(value).isdecimal() or int(value) == 0:
        raise ValueError(f"bucketDuration must be a positive whole number of seconds, got {value!r}")
    return int(value)


def _lease(at: Timestamp, interface: str, ip: str, raw_kind: str, network_id: Optional[str]) -> LeaseEvent:
    return LeaseEvent(at, interface, ip, _LEASE_KINDS.get(raw_kind, LeaseKind.OTHER), raw_kind, network_id)


_QUOTED = r'"([^"]*)"'
_EVENT_RE = re.compile(r'time=' + _QUOTED + r'\s+type=(\S+)\s+package=(\S+)')
_AGGREGATE_RE = re.compile(r'package=(\S+)\s+lastTimeUsed=' + _QUOTED + r'\s+totalCount=(\d+)')
_CAPTURE_RE = re.compile(r'capture-time=' + _QUOTED)
_NETWORK_ID_RE = re.compile(r'networkId=' + _QUOTED)
_DURATION_RE = re.compile(r'bucketDuration=(\S*)')
_ST_LINE_RE = re.compile(r'st=(\d+)\s+rb=(-?\d+)\s+rp=(-?\d+)\s+tb=(-?\d+)\s+tp=(-?\d+)')
_BOOT_RE = re.compile(r'bootTime=' + _QUOTED)
_LEASE_RE = re.compile(
    r'time=' + _QUOTED + r'\s+iface=(\S+)\s+event=(\S+)\s+ip=(\S+)(?:\s+ssid=' + _QUOTED + r')?'
)

_SECTION_HEADERS = {
    "last 24 hour events:": "events",
    "weekly stats:": AggregateWindow.WEEK,
    "monthly stats:": AggregateWindow.MONTH,
    "yearly stats:": AggregateWindow.YEAR,
}


# --- Tokenizers: one per dump and format. Each yields domain records, the
# dump's own capture time or boot markers as Timestamps, and per-line
# warnings as strings. Wall-clock text is read in `zone`. Capture records
# are skipped unparsed unless `want_capture`, and only the first one is
# yielded.


def _usagestats_text(text: str, zone: str, want_capture: bool):
    section = None
    for lineno, line in _lines(text):
        if line.startswith("DUMP OF SERVICE"):
            continue
        header = _SECTION_HEADERS.get(line.lower())
        if header is not None:
            section = header
            continue
        m = _CAPTURE_RE.search(line)
        if m:
            if want_capture:
                want_capture = False
                yield Timestamp.parse(m.group(1), zone)
            continue
        m = _EVENT_RE.search(line)
        if m:
            try:
                at = Timestamp.parse(m.group(1), zone)
            except ValueError as exc:
                yield f"line {lineno}: bad event time ({exc})"
                continue
            yield UsageEvent(at, m.group(3), m.group(2))
            continue
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


def _usagestats_jsonl(text: str, want_capture: bool):
    def record(obj):
        nonlocal want_capture
        kind = obj.get("record")
        if kind == "event":
            return UsageEvent(Timestamp(int(obj["at"])), obj["package"], obj["event_type"])
        if kind == "aggregate":
            return UsageAggregate(
                AggregateWindow(obj["window"]),
                obj["package"],
                Timestamp(int(obj["last_used"])),
                int(obj["use_count"]),
            )
        if kind == "capture":
            if not want_capture:
                return None
            capture = Timestamp(int(obj["at"]))
            want_capture = False
            return capture
        raise ValueError(f"unknown record kind {kind!r}")

    return _jsonl(text, record)


def _netstats_text(text: str):
    current_network: Optional[str] = None
    duration: Optional[int] = DEFAULT_BUCKET_SECONDS  # None: the stated one was invalid
    for lineno, line in _lines(text):
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
        m = _NETWORK_ID_RE.search(line)
        if m:
            current_network = m.group(1)
            continue
        m = _ST_LINE_RE.search(line)
        if m:
            if current_network is None:
                yield f"line {lineno}: counter line before any networkId"
                continue
            if duration is None:
                yield f"line {lineno}: counter line under an invalid bucketDuration; dropped"
                continue
            counters = [int(g) for g in m.groups()[1:]]
            if any(c < 0 for c in counters):
                yield f"line {lineno}: negative counter; dropped"
                continue
            yield NetUsageRecord(current_network, Timestamp(int(m.group(1))), *counters, duration)
            continue
        yield f"line {lineno}: unrecognized: {line[:80]}"


def _netstats_jsonl(text: str):
    def record(obj):
        return NetUsageRecord(
            obj["network_id"],
            Timestamp(int(obj["st"])),
            int(obj["rb"]),
            int(obj["rp"]),
            int(obj["tb"]),
            int(obj["tp"]),
            positive_seconds(obj.get("bucket_duration", DEFAULT_BUCKET_SECONDS)),
        )

    return _jsonl(text, record)


def _network_stack_text(text: str, zone: str):
    for lineno, line in _lines(text):
        if line.startswith("DUMP OF SERVICE"):
            continue
        m = _BOOT_RE.search(line)
        if m:
            try:
                yield Timestamp.parse(m.group(1), zone)
            except ValueError as exc:
                yield f"line {lineno}: bad boot time ({exc})"
            continue
        m = _LEASE_RE.search(line)
        if m:
            try:
                yield _lease(Timestamp.parse(m.group(1), zone), m.group(2), m.group(4), m.group(3), m.group(5))
            except ValueError as exc:
                yield f"line {lineno}: bad lease line ({exc})"
            continue
        yield f"line {lineno}: unrecognized: {line[:80]}"


def _network_stack_jsonl(text: str):
    def record(obj):
        kind = obj.get("record")
        if kind == "lease":
            return _lease(
                Timestamp(int(obj["at"])),
                obj.get("interface", "wlan0"),
                obj["private_ip"],
                obj.get("event_kind", "dhcp_ack"),
                obj.get("network_id"),
            )
        if kind == "boot":
            return Timestamp(int(obj["at"]))
        raise ValueError(f"unknown record kind {kind!r}")

    return _jsonl(text, record)


# --- Semantic passes: one per dump, shared by both formats.


def parse_usagestats(
    text: str, capture_time: Optional[Timestamp], zone: str
) -> tuple[UsageReport, list[str]]:
    """Parse a usagestats dump into a report plus per-line warnings.

    Wall-clock times are read in `zone`. `capture_time` normally comes from
    acquisition metadata; when it is None, the dump's first capture-time=
    header (capture record) is used. Events outside the 24-hour detail
    window ending at the capture time are dropped with a warning.
    """
    want_capture = capture_time is None
    tokens = _tokenize(
        text,
        partial(_usagestats_text, zone=zone, want_capture=want_capture),
        partial(_usagestats_jsonl, want_capture=want_capture),
    )
    warnings = tokens[str]
    if capture_time is None:
        if not tokens[Timestamp]:
            raise ParseError("capture time required: pass capture_time or include a capture-time= header")
        capture_time = tokens[Timestamp][0]

    kept = []
    window_start = capture_time.epoch - USAGE_WINDOW_SECONDS
    for ev in tokens[UsageEvent]:
        if ev.at.epoch < window_start or ev.at.epoch > capture_time.epoch:
            warnings.append(
                f"event for {ev.package} at {ev.at.render(zone)} lies outside the 24h detail window; dropped"
            )
        else:
            kept.append(ev)
    kept.sort(key=lambda e: e.at.epoch)  # stable: ties keep input order
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
    leases.sort(key=lambda l: l.at.epoch)
    return NetworkStackLog(tuple(leases), boot), warnings
