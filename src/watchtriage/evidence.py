"""Core domain types and the tamper-evident evidence bundle.

Timestamps are stored as UTC epoch seconds everywhere; the IANA zone a
wall-clock string is read or rendered in is always passed in by the caller.
Evidence payloads are hashed once, when `seal_bundle` builds the one
bundle type, `EvidenceBundle`: the manifest (items, device profile) and its
digest together with the raw payloads, step labels, failures and zone that
`acquisition` writes to a bundle directory and reads back. The manifest is
a canonical JSON document so its digest is reproducible byte-for-byte.
"""

from __future__ import annotations

import hashlib
import json
import re
from datetime import date, datetime
from enum import Enum
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Optional, Sequence
from zoneinfo import ZoneInfo, ZoneInfoNotFoundError

DEFAULT_DISPLAY_ZONE = "Asia/Seoul"
DEFAULT_HASH = "sha256"


def compute_digest(data: bytes) -> str:
    """Hex SHA-256 digest of raw bytes, the one hash a bundle is sealed with."""
    return hashlib.sha256(data).hexdigest()


def canonical_json_bytes(obj) -> bytes:
    """Byte-stable JSON: sorted keys, no insignificant whitespace, UTF-8."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


_encode_str = json.encoder.encode_basestring_ascii


class Records:
    """A list of like records in an output document, held by column:
    `columns[i]` holds each record's value under `keys[i]`. Iterating it
    gives its dict form, which a JSON document shows; `document_text`
    writes that form without building it."""

    __slots__ = ("keys", "columns")

    def __init__(self, keys: tuple[str, ...], columns: Sequence[Sequence]):
        self.keys, self.columns = keys, columns

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self):
        keys = self.keys
        return (dict(zip(keys, row)) for row in zip(*self.columns))


def document_text(obj) -> str:
    """The text of a JSON output document: exactly
    `json.dumps(obj, indent=2, sort_keys=True) + "\\n"`, with each `Records`
    in its dict form, except that a dict key that is not a `str` raises
    TypeError and a document that contains itself RecursionError.

    A dict's shape is its depth and its keys in insertion order. The
    shape table, which lives for this one call, keeps for each shape the
    keys in sorted order, each with its encoded `,\\n<indent>"key": `
    prefix (the first one opening the dict), and the closing brace, so a
    document of many like records sorts and encodes its keys once per
    shape; a `Records` list's records are written through one template
    per shape and column kinds. A `str`, `int`, `bool` or `None` inside a
    dict or list is written inline; anything else that is no dict, list,
    tuple or `Records` goes to `json.dumps` itself. On a document of many
    records this is faster than that call even where the stdlib's C
    encoder indents (Python 3.13), and about four times as fast on 3.11.
    """
    if not isinstance(obj, _CONTAINERS):
        return json.dumps(obj) + "\n"
    out: list[str] = []
    _write_container(obj, out, 0, {})
    out.append("\n")
    return "".join(out)


_CONTAINERS = (dict, list, tuple, Records)


def _dict_shape(keys: tuple, depth: int) -> tuple[list[tuple[str, str]], str]:
    """(prefix, key) for each of `keys` in sorted order, and the closing
    brace, for a dict nested `depth` levels deep."""
    for key in keys:
        if not isinstance(key, str):
            raise TypeError(f"document keys must be str, got {key!r}")
    indent = ",\n" + "  " * (depth + 1)
    members = [(f"{indent}{_encode_str(key)}: ", key) for key in sorted(keys)]
    prefix, key = members[0]
    members[0] = ("{" + prefix[1:], key)
    return members, f"\n{'  ' * depth}}}"


def _write_container(value, out: list, depth: int, shapes: dict) -> None:
    """Append the text of a dict, list, tuple or `Records` nested `depth`
    levels deep to `out`, with `shapes` the call's shape table.

    The dict and the list loop each test their members' types inline:
    one helper call per member would cost what the shape table saves.
    `str` of an exact int is its repr, and the quicker call.
    """
    append = out.append
    if not value:
        append("{}" if isinstance(value, dict) else "[]")
        return
    inner = depth + 1
    if isinstance(value, dict):
        keys = tuple(value)
        shape = shapes.get((depth, keys))
        if shape is None:
            shape = shapes[depth, keys] = _dict_shape(keys, depth)
        members, close = shape
        for prefix, key in members:
            append(prefix)
            item = value[key]
            kind = type(item)
            if kind is str:
                append(_encode_str(item))
            elif kind is int:
                append(str(item))
            elif kind is dict:
                _write_container(item, out, inner, shapes)
            elif kind is bool:
                append("true" if item else "false")
            elif item is None:
                append("null")
            elif isinstance(item, _CONTAINERS):
                _write_container(item, out, inner, shapes)
            else:
                append(json.dumps(item))
        append(close)
    elif type(value) is Records:
        _write_records(value, out, depth, shapes)
    else:
        separator = ",\n" + "  " * inner
        first = len(out)
        for item in value:
            append(separator)
            kind = type(item)
            if kind is str:
                append(_encode_str(item))
            elif kind is int:
                append(str(item))
            elif kind is dict:
                _write_container(item, out, inner, shapes)
            elif kind is bool:
                append("true" if item else "false")
            elif item is None:
                append("null")
            elif isinstance(item, _CONTAINERS):
                _write_container(item, out, inner, shapes)
            else:
                append(json.dumps(item))
        out[first] = "[" + separator[1:]
        append(f"\n{'  ' * depth}]")


def _write_records(records: Records, out: list, depth: int, shapes: dict) -> None:
    """Append the text of a non-empty `Records` list nested `depth` levels
    deep to `out`: each record through the template of its shape and column
    kinds, each sorted key's prefix then `%s` for a column of only `str`
    values, encoded by one `map`, or `%d` for one of only exact `int`s,
    which `%` writes as `str` does. Any other column writes the dict form."""
    keys, values = records.keys, records.columns
    kinds = tuple(_COLUMN_FORMATS.get(frozenset(map(type, column))) for column in values)
    if None in kinds:  # a column of another kind, or of several
        return _write_container(list(records), out, depth, shapes)
    shape = shapes.get((depth, keys, kinds))
    if shape is None:
        members, close = _dict_shape(keys, depth + 1)
        order = [keys.index(key) for _, key in members]
        template = "".join(prefix.replace("%", "%%") + kinds[i] for (prefix, _), i in zip(members, order)) + close
        shape = shapes[depth, keys, kinds] = template, order
    template, order = shape
    columns = [map(_encode_str, values[i]) if kinds[i] == "%s" else values[i] for i in order]
    separator = ",\n" + "  " * (depth + 1)
    out.extend(("[" + separator[1:], separator.join(map(template.__mod__, zip(*columns))), f"\n{'  ' * depth}]"))


_COLUMN_FORMATS = {frozenset([str]): "%s", frozenset([int]): "%d"}


def one_line(text: str) -> str:
    """`text` with each carriage return and line feed written as "\\r" and
    "\\n", so evidence quoted into a line of text output (an SSID, a package
    name, a warning quoting a dump line, a manifest digest) cannot break it
    or forge the next one; the JSON outputs keep the raw text."""
    return text.replace("\r", "\\r").replace("\n", "\\n")


def zone_name(name: str) -> str:
    """`name` if it is an IANA zone this system knows; ValueError naming it
    as the display_zone otherwise (every zone read is a display zone)."""
    try:
        ZoneInfo(name)
    except (ValueError, TypeError, ZoneInfoNotFoundError):
        raise ValueError(f"display_zone: unknown time zone {name!r}") from None
    return name


def text_lines(text: str, common: Optional[re.Pattern] = None):
    """(line number, stripped line) for every non-blank line of an evidence
    text. Only "\\n" ends a line, so a "\\x1c" or "\\u2028" inside one never
    shifts a later line number; `strip` drops a trailing "\\r".

    With `common`, a `line_pattern`, the text is read in one `findall` and
    each line comes with its fields: the groups of the common line, for a
    line that is one, and otherwise empty groups then the stripped line."""
    if common is None:
        for lineno, raw_line in enumerate(text.split("\n"), 1):
            line = raw_line.strip()
            if line:
                yield lineno, line
        return
    blank = ("",) * (common.groups - 1)
    for lineno, fields in enumerate(common.findall(text), 1):
        if fields[0]:
            yield lineno, fields
        else:
            line = fields[-1].strip()
            if line:
                yield lineno, blank + (line,)


def line_pattern(common: str) -> re.Pattern:
    """The `text_lines` pattern of a text whose common line, after leading
    spaces, is `common` whole; its first group never matches empty. It
    takes every line, in text order: `$` and `.` stop at "\\n" alone, and
    any line that is not a common one goes, after its leading spaces, to
    the last group, `(.*)`."""
    return re.compile(f"^ *(?:(?:{common})$|(.*))", re.M)


# --- JSON input files --------------------------------------------------------
#
# Plans, rules, inventories, scenarios and bundle manifests are read by
# load_json alone, so a malformed one is always one ValueError naming the
# file. The builders it calls check each value's JSON type with json_field
# and json_list; `true` is never an integer and a string never a list.

_JSON_NAMES = {bool: "boolean", dict: "object", int: "integer", list: "list", str: "string"}

# A number in any input holds at most 19 digits, as a signed 64-bit value
# does: far below the interpreter's digit limit, so what an input yields
# never depends on that limit (PYTHONINTMAXSTRDIGITS).
MAX_DIGITS = 19


def bounded_int(text: str) -> int:
    """The JSON integer `text`; ValueError when it has more than MAX_DIGITS digits."""
    if (digits := len(text.lstrip("-"))) > MAX_DIGITS:
        raise ValueError(f"an integer of {digits} digits; numbers hold at most {MAX_DIGITS}")
    return int(text)


def json_field(obj: dict, key: str, kind: type, *default):
    """`obj[key]`, or the one `default` given when `key` is absent;
    TypeError naming `key` unless the value's JSON type is `kind`."""
    value = obj.get(key, *default) if default else obj[key]
    if type(value) is not kind:
        raise TypeError(f"{key} must be a JSON {_JSON_NAMES[kind]}, got {value!r}")
    return value


def json_list(obj: dict, key: str, kind: type) -> tuple:
    """`obj[key]` as a tuple of values of JSON type `kind`, empty when
    absent; TypeError naming `key` for anything else. A tuple passes as a
    list, so a record's `_asdict()` reads back."""
    value = obj.get(key, [])
    if type(value) not in (list, tuple) or any(type(v) is not kind for v in value):
        raise TypeError(f"{key} must be a list of {_JSON_NAMES[kind]}s, got {value!r}")
    return tuple(value)


def load_json(
    path: Path,
    what: str,
    build: Callable[[Any], Any],
    entry: str = "",
    key: str = "",
    collect: Callable[[tuple], Any] = tuple,
):
    """What `build` makes from the JSON input file at `path`, read as UTF-8.

    Without `entry`, `build` takes the whole document. With it, the file
    holds a JSON list of `what` (at `key` of the document, when given) and
    `build` takes each item, which an error names `{entry} #N`; the result
    is then what `collect` makes of the tuple of built items (the tuple
    itself by default). Any AttributeError, KeyError, RecursionError (JSON
    nested deeper than the interpreter's recursion limit), TypeError or
    ValueError raised while reading or building becomes one ValueError
    naming the file.
    """
    where = f"malformed {what}"
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"), parse_int=bounded_int)
        if not entry:
            return build(doc)
        items = doc[key] if key else doc
        if type(items) is not list:
            where = f"expected a JSON list of {what}"
            raise TypeError(f"got {type(items).__name__}")
        records = []
        for i, item in enumerate(items, 1):
            where = f"{entry} #{i}: malformed {entry}"
            records.append(build(item))
        where = f"malformed {what}"
        return collect(tuple(records))
    except (AttributeError, KeyError, RecursionError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {where} ({type(exc).__name__}: {exc})") from None


MAX_EPOCH = 253370764799  # the end of 9998 UTC: every zone renders it, well before any reaches year 10000

# The one wall-clock text form: zero-padded ASCII "YYYY-MM-DD HH:MM:SS".
_WALL_RE = re.compile(r"([0-9]{4})-([0-9]{2})-([0-9]{2}) ([0-9]{2}):([0-9]{2}):([0-9]{2})")


# Records are named tuples. NamedTuple forbids `__new__` in its own body, so a
# record that checks its values declares its fields, without defaults, in a
# NamedTuple, and a subclass's `__new__` takes them as named parameters (each
# default stated there), checks them and builds itself with `tuple.__new__`.
# Pickling and `copy` call that `__new__` too; `_replace` and `_make` skip it.
class _TimestampFields(NamedTuple):
    epoch: int


class Timestamp(_TimestampFields):
    """Point in time as UTC epoch seconds. Its methods and a TimeTable, which
    reads a dump's wall times and renders a document's instants, are the
    only code that turns wall-clock text into an epoch or an epoch into
    text."""

    __slots__ = ()

    def __new__(cls, epoch: int):
        _check_epoch(epoch)
        return tuple.__new__(cls, (epoch,))

    @classmethod
    def parse(cls, text: str, zone: str) -> "Timestamp":
        """The instant the wall time `text` denotes in `zone`; ValueError for
        any text but the fixed-width form. A wall time that a DST change
        repeats or skips reads as its fold=0 instant."""
        return TimeTable(zone).parse(text)

    def render(self, zone: str) -> str:
        """Wall-clock string in `zone` with explicit UTC offset."""
        return TimeTable(zone)[self.epoch]

    def wall(self, zone: str) -> str:
        """Bare wall-clock string in `zone` (no offset suffix)."""
        return self.render(zone)[:19]


def _check_epoch(epoch: int) -> None:
    """Timestamp's ValueError for an epoch out of its range."""
    if not 0 <= epoch <= MAX_EPOCH:
        raise ValueError(f"epoch must be between 0 and {MAX_EPOCH}, got {epoch}")


def _datetime_epoch(text: str, zone: str) -> int:
    """The epoch `datetime` gives for the wall time `text` in `zone`."""
    m = _WALL_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"wall time {text!r} is not YYYY-MM-DD HH:MM:SS")
    local = datetime(*map(int, m.groups()), tzinfo=ZoneInfo(zone))
    return int(local.timestamp())


_EPOCH = attrgetter("epoch")
_DAY = 86400
_LAST_DAY = MAX_EPOCH // _DAY  # the range is whole UTC days, 0 to this one
_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()
_TWO_DIGITS = tuple(f"{n:02d}" for n in range(60))
TWO_DIGIT_VALUES = {text: n for n, text in enumerate(_TWO_DIGITS)}


class TimeTable(dict):
    """How `zone` reads and writes the wall times of one dump or one output
    document. As a dict it maps epoch -> what `Timestamp(epoch).render(zone)`
    gives, so an instant shown twice is rendered once: the `instants` given,
    and the epochs given to `add`, are rendered up front, and any other
    epoch at its first lookup. Either way, an epoch out of Timestamp's range
    raises Timestamp's ValueError, the first such one in the order given.
    `hours` maps each "YYYY-MM-DD HH" wall hour `hour_start` has settled to
    its start, or None, and `dates` each local day rendered to its
    "YYYY-MM-DD " text.

    Both rest on the zone's offset segments, each (UTC start, end, offset in
    seconds, " +HH:MM[:SS]" suffix), filled one UTC day at a time as
    instants and wall times reach it. A day is probed at its first and last
    second and bisected to the second its offset changes only where the two
    differ: at and after epoch 0, no installed zone changes its offset
    twice within 86,400 s (the closest two, America/Cambridge_Bay's in
    2000, lie 597,600 s apart; tests/test_evidence.py checks every zone).
    Every result is the one the plain `datetime` expressions give."""

    __slots__ = ("zone", "_segments", "dates", "hours")

    def __init__(self, zone: str, instants: Iterable[Timestamp] = ()):
        self.zone = zone
        self._segments: dict[int, tuple[tuple[int, int, int, str], ...]] = {}  # UTC day -> its segments
        self.dates: dict[int, str] = {}  # local day (days after 1970-01-01) -> "YYYY-MM-DD "
        self.hours: dict[str, Optional[int]] = {}  # "YYYY-MM-DD HH" -> hour_start's result
        self.add(map(_EPOCH, instants))

    def segment(self, epoch: int) -> tuple[int, int, int, str]:
        """The segment that holds `epoch`; it lies within one UTC day."""
        segments = self._day(epoch // _DAY)
        return segments[-1] if epoch >= segments[-1][0] else segments[0]

    def _day(self, day: int) -> tuple[tuple[int, int, int, str], ...]:
        """The segments of UTC day `day`, in time order: one, or two around a change."""
        segments = self._segments.get(day)
        if segments is not None:
            return segments
        tz = ZoneInfo(self.zone)
        start, end = day * _DAY, (day + 1) * _DAY
        first = datetime.fromtimestamp(start, tz)
        before = first.utcoffset()
        if datetime.fromtimestamp(end - 1, tz).utcoffset() == before:
            segments = (_segment(start, end, first),)
        else:
            lo, hi = start, end - 1  # the change is the first second with the later offset
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if datetime.fromtimestamp(mid, tz).utcoffset() == before else (lo, mid)
            segments = (_segment(start, hi, first), _segment(hi, end, datetime.fromtimestamp(hi, tz)))
        self._segments[day] = segments
        return segments

    def epoch(self, local: int) -> Optional[int]:
        """The fold=0 instant of the wall time `local` seconds after
        1970-01-01 00:00: the first that lands in its own segment when the
        segment's offset is subtracted, the earlier in a repeated hour; in
        a skipped hour, the one the pre-change offset gives. None more than a
        day outside the range's days, where no instant in range has it."""
        day = local // _DAY
        if not -1 <= day <= _LAST_DAY + 1:
            return None
        # An offset is less than a day, so each instant the wall time
        # denotes lies in a segment of these days, in time order.
        for near in (day - 1, day, day + 1):
            for start, end, offset, _ in self._day(near):
                if start <= local - offset < end:
                    return local - offset
        segments = self._day(day - 1) + self._day(day) + self._day(day + 1)
        return next(local - before for (_, change, before, _), (_, _, after, _) in zip(segments, segments[1:])
                    if local - after < change <= local - before)

    def hour_start(self, hour: str) -> Optional[int]:
        """The fold=0 epoch of the 13-character wall time `hour` ("YYYY-MM-DD
        HH") at :00:00, when its :59:59 lies exactly 3,599 s later, so that
        every second of the wall hour reads with one offset, and no second
        of it lies outside `0..MAX_EPOCH`; None otherwise, for a date or hour
        that does not exist, and for text that is not that form in ASCII
        digits. Either is kept in `hours`. A start plus `60 * minute +
        second`, each a TWO_DIGIT_VALUES value, is the epoch `parse` gives,
        and always one Timestamp takes."""
        local = _local_seconds(hour + ":00:00")
        start = None if local is None else self.epoch(local)
        if start is None or not 0 <= start <= MAX_EPOCH - 3599 or self.epoch(local + 3599) != start + 3599:
            start = None
        self.hours[hour] = start
        return start

    def parse(self, text: str) -> Timestamp:
        """The Timestamp `Timestamp.parse(text, zone)` gives, and its
        ValueError: through the start of the text's hour where it has one,
        and through the segments otherwise."""
        if len(text) == 19 and text[13] == text[16] == ":":
            minutes, seconds = TWO_DIGIT_VALUES.get(text[14:16]), TWO_DIGIT_VALUES.get(text[17:])
            if minutes is not None and seconds is not None:
                hour, hours = text[:13], self.hours
                start = hours[hour] if hour in hours else self.hour_start(hour)
                if start is not None:  # every second of the hour is in range
                    return tuple.__new__(Timestamp, (start + 60 * minutes + seconds,))
        local = _local_seconds(text)
        epoch = None if local is None else self.epoch(local)
        if epoch is not None and 0 <= epoch <= MAX_EPOCH:
            return tuple.__new__(Timestamp, (epoch,))
        # Text outside the form, a date or time no calendar has, or an
        # instant out of range: the error `datetime` and Timestamp give.
        return Timestamp(_datetime_epoch(text, self.zone))

    def add(self, epochs: Iterable[int]) -> None:
        """Render `epochs` in one pass, which adds the offset and finds the
        local day's "YYYY-MM-DD " text once per run of epochs inside one
        local day of one segment, and writes each epoch's time of day with
        integer arithmetic."""
        segment, dates, two_digits = self.segment, self.dates, _TWO_DIGITS
        start = end = first = last = 0  # the current run, inside the current segment
        for epoch in epochs:
            if not start <= epoch < end:
                if not first <= epoch < last:
                    _check_epoch(epoch)  # a segment lies within one day of the range, so one epoch checks it
                    first, last, offset, suffix = segment(epoch)
                day = (epoch + offset) // _DAY
                date_text = dates.get(day)
                if date_text is None:
                    date_text = dates[day] = date.fromordinal(_EPOCH_ORDINAL + day).isoformat() + " "
                base = day * _DAY - offset  # the instant the local day starts
                start, end = max(base, first), min(base + _DAY, last)
            minute, second = divmod(epoch - base, 60)
            hour, minute = divmod(minute, 60)
            self[epoch] = f"{date_text}{two_digits[hour]}:{two_digits[minute]}:{two_digits[second]}{suffix}"

    def __missing__(self, epoch: int) -> str:
        self.add((epoch,))
        return self[epoch]


def _segment(start: int, end: int, local: datetime) -> tuple[int, int, int, str]:
    """The segment from `start` to `end` with the offset of `local`, the first instant's wall time."""
    return start, end, int(local.utcoffset().total_seconds()), " " + local.isoformat(" ")[19:]


def _local_seconds(text: str) -> Optional[int]:
    """Seconds after 1970-01-01 00:00 of the wall time `text`; None for text
    outside the fixed-width form and for a date or time no calendar has."""
    m = _WALL_RE.fullmatch(text)
    if m is None:
        return None
    year, month, day, hour, minute, second = map(int, m.groups())
    try:
        days = date(year, month, day).toordinal() - _EPOCH_ORDINAL
    except ValueError:
        return None
    return days * _DAY + 3600 * hour + 60 * minute + second if hour < 24 and minute < 60 and second < 60 else None


class DeviceProfile(NamedTuple):
    model_number: str = ""
    android_version: str = ""
    wear_os_version: str = ""
    cpu_abi: str = ""
    adb_host_name: str = ""


class SourceKind(str, Enum):
    USAGESTATS = "usagestats"
    NETSTATS = "netstats"
    NETWORK_STACK = "network_stack"
    GETPROP = "getprop"
    FILEZILLA_XML = "filezilla_xml"
    RECENTSERVERS_XML = "recentservers_xml"
    KNOWN_HOSTS = "known_hosts"
    MANIFEST_XML = "manifest_xml"
    APP_INVENTORY = "app_inventory"


class EvidenceItem(NamedTuple):
    """One raw acquired payload, identified by the digest of its exact bytes."""

    source_kind: SourceKind
    collected_at: Timestamp
    raw_bytes_digest: str
    origin_label: str = ""

    @classmethod
    def from_bytes(
        cls,
        source_kind: SourceKind,
        raw: bytes,
        collected_at: Timestamp,
        origin_label: str = "",
    ) -> "EvidenceItem":
        return cls(source_kind, collected_at, compute_digest(raw), origin_label)

    def key(self) -> str:
        """Stable identifier, unique per bundle (enforced at seal time)."""
        return f"{self.source_kind.value}:{self.origin_label}:{self.collected_at.epoch}"

    def to_dict(self) -> dict:
        return {
            "source_kind": self.source_kind.value,
            "collected_at": self.collected_at.epoch,
            "raw_bytes_digest": self.raw_bytes_digest,
            "origin_label": self.origin_label,
        }


class StepFailure(NamedTuple):
    label: str
    detail: str


class EvidenceBundle(NamedTuple):
    """A sealed bundle with its raw payloads: built by seal_bundle, written
    by `acquisition.write_bundle_dir` and read back by `read_bundle_dir`."""

    items: tuple[EvidenceItem, ...]
    device: Optional[DeviceProfile]
    bundle_manifest_digest: str
    payloads: dict[str, bytes]  # item key -> raw bytes
    labels: dict[str, str]  # item key -> step label
    failures: tuple[StepFailure, ...]
    display_zone: str

    def manifest_document(self) -> dict:
        return {
            "hash_algorithm": DEFAULT_HASH,
            "items": [it.to_dict() for it in self.items],
            "device": self.device._asdict() if self.device else None,
        }

    def manifest_digest(self) -> str:
        """Digest of the canonical manifest: recorded at seal time, compared at verify time."""
        return compute_digest(canonical_json_bytes(self.manifest_document()))


def seal_bundle(
    captured: Sequence[tuple[str, SourceKind, bytes, int]],
    origin_label: str,
    display_zone: str,
    failures: Sequence[StepFailure] = (),
) -> EvidenceBundle:
    """Hash labelled payloads into a sealed bundle; the one way bundles are built.

    `captured` holds one (step label, source kind, raw bytes, collection
    epoch) per payload, in manifest order, and each payload is hashed once
    here. Sealing is order-sensitive: permuting payloads changes the
    manifest digest. The device profile is taken from the getprop payloads.
    A repeated item key is refused, and so is a repeated step label, since
    each payload is written to its own `raw/<label>.txt`.
    """
    if not captured:
        raise ValueError("every acquisition step failed; nothing to seal")
    items: list[EvidenceItem] = []
    payloads: dict[str, bytes] = {}
    labels: dict[str, str] = {}
    prop_values: dict[str, str] = {}
    for label, source_kind, raw, at in captured:
        item = EvidenceItem.from_bytes(source_kind, raw, Timestamp(at), origin_label)
        key = item.key()
        if key in payloads:
            raise ValueError(
                f"duplicate evidence item {key}: source_kind must be unique "
                "per origin_label at a given collected_at"
            )
        if label in labels.values():
            raise ValueError(f"duplicate step label {label!r}: each payload needs its own raw/<label>.txt")
        items.append(item)
        payloads[key] = raw
        labels[key] = label
        if source_kind == SourceKind.GETPROP:
            prop_values[label] = raw.decode(errors="replace").strip()

    # A live-acquisition profile must carry the CPU ABI; without it the
    # policy audit cannot trust the profile, so none is recorded.
    device = None
    if prop_values.get("cpu_abi"):
        device = DeviceProfile(
            model_number=prop_values.get("model", ""),
            android_version=prop_values.get("android_version", ""),
            cpu_abi=prop_values["cpu_abi"],
            adb_host_name=prop_values.get("host_name", ""),
        )
    bundle = EvidenceBundle(tuple(items), device, "", payloads, labels, tuple(failures), display_zone)
    return bundle._replace(bundle_manifest_digest=bundle.manifest_digest())


class ItemVerification(NamedTuple):
    item_key: str
    status: str  # "pass" | "fail" | "missing"
    detail: str = ""


class VerificationReport(NamedTuple):
    results: tuple[ItemVerification, ...]
    manifest_ok: bool

    @property
    def overall_pass(self) -> bool:
        return self.manifest_ok and all(r.status == "pass" for r in self.results)


def verify_bundle(bundle: EvidenceBundle, stored_bytes: Mapping[str, bytes]) -> VerificationReport:
    """Re-hash stored bytes against the bundle; one result per item.

    `stored_bytes` maps item keys (EvidenceItem.key()) to raw payloads.
    Items with no stored payload report status "missing".
    """
    results = []
    for item in bundle.items:
        raw = stored_bytes.get(item.key())
        if raw is None:
            results.append(ItemVerification(item.key(), "missing", "no stored bytes for item"))
            continue
        actual = compute_digest(raw)
        if actual == item.raw_bytes_digest:
            results.append(ItemVerification(item.key(), "pass"))
        else:
            results.append(
                ItemVerification(item.key(), "fail", f"recorded {item.raw_bytes_digest}, got {actual}")
            )
    manifest_ok = bundle.manifest_digest() == bundle.bundle_manifest_digest
    return VerificationReport(tuple(results), manifest_ok)
