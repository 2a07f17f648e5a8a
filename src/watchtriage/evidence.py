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
from functools import lru_cache
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
    """Point in time as UTC epoch seconds. Its methods, WallHours, which
    holds the hour starts `parse` reads through, and RenderedTimes, which
    renders as `render` does, are the only code that turns wall-clock text
    into an epoch or an epoch into text."""

    __slots__ = ()

    def __new__(cls, epoch: int):
        _check_epoch(epoch)
        return tuple.__new__(cls, (epoch,))

    @classmethod
    def parse(cls, text: str, zone: str) -> "Timestamp":
        """The instant the wall time `text` denotes in `zone`; ValueError for
        any text but the fixed-width form. A wall time that a DST change
        repeats or skips reads as its fold=0 instant."""
        if len(text) == 19 and text[13] == text[16] == ":":
            minutes, seconds = TWO_DIGIT_VALUES.get(text[14:16]), TWO_DIGIT_VALUES.get(text[17:])
            if minutes is not None and seconds is not None:
                start = _wall_hour_start(zone, text[:13])
                if start is not None:  # every second of the hour is in range
                    return tuple.__new__(cls, (start + 60 * minutes + seconds,))
        return cls(_datetime_epoch(text, zone))

    def render(self, zone: str) -> str:
        """Wall-clock string in `zone` with explicit UTC offset."""
        return _render(self.epoch, zone)

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


class RenderedTimes(dict):
    """The rendered times of one output document: epoch -> what
    `Timestamp(epoch).render(zone)` gives, so an instant the document shows
    twice is rendered once. The `instants` given are rendered up front, in
    one pass that looks up how the zone writes a UTC hour once per run of
    instants in that hour, and any other epoch at its first lookup. Either
    way, an epoch out of Timestamp's range raises Timestamp's ValueError,
    the first such one of `instants` in their order."""

    __slots__ = ("zone",)

    def __init__(self, zone: str, instants: Iterable[Timestamp] = ()):
        self.zone = zone
        run = None  # the UTC hour of the instants since the last change of hour
        for epoch in map(_EPOCH, instants):
            if epoch // 3600 != run:
                _check_epoch(epoch)  # the range starts and ends with an hour, so one epoch checks it
                run = epoch // 3600
                hour = _render_hour(zone, run)
                if hour is not None:
                    offset, first, texts, suffix = hour
            if hour is None:
                self[epoch] = _render(epoch, zone)
            else:
                local = epoch + offset
                text = texts[local // 3600 - first]
                self[epoch] = f"{text}{_TWO_DIGITS[local % 3600 // 60]}:{_TWO_DIGITS[local % 60]}{suffix}"

    def __missing__(self, epoch: int) -> str:
        _check_epoch(epoch)
        text = self[epoch] = _render(epoch, self.zone)
        return text


class WallHours(dict):
    """One dump's wall hours in `zone`: "YYYY-MM-DD HH" -> the start that
    `Timestamp.parse` reads the hour through, or None where it has none. A
    start plus `60 * minute + second`, each a TWO_DIGIT_VALUES value, is the
    epoch `parse` gives, and always one Timestamp takes."""

    __slots__ = ("zone",)

    def __init__(self, zone: str):
        self.zone = zone

    def __missing__(self, hour: str) -> Optional[int]:
        start = self[hour] = _wall_hour_start(self.zone, hour)
        return start


def _render(epoch: int, zone: str) -> str:
    """The text `Timestamp(epoch).render(zone)` gives."""
    hour = _render_hour(zone, epoch // 3600)
    if hour is None:
        local = datetime.fromtimestamp(epoch, ZoneInfo(zone)).isoformat(" ")
        return f"{local[:19]} {local[19:]}"
    offset, first, texts, suffix = hour
    local = epoch + offset
    second = local % 3600
    return f"{texts[local // 3600 - first]}{_TWO_DIGITS[second // 60]}:{_TWO_DIGITS[second % 60]}{suffix}"


# Timestamp.parse reads each wall hour through one cached start, and render
# writes each UTC hour through one cached offset and local hour text; both
# read and write minutes and seconds through the two 60-entry tables. In an
# hour that holds an offset change, or that no calendar has, and for text
# that is not the fixed-width form, each call runs the plain `datetime`
# expression instead, so every result and error is the one `datetime`
# gives. Each cache holds 4,096 entries: about 170 days of hours.
_HOURS_CACHED = 4096
_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()
_TWO_DIGITS = tuple(f"{n:02d}" for n in range(60))
TWO_DIGIT_VALUES = {text: n for n, text in enumerate(_TWO_DIGITS)}


@lru_cache(maxsize=_HOURS_CACHED)
def _wall_hour_start(zone: str, hour: str) -> Optional[int]:
    """The fold=0 epoch of the 13-character wall time `hour` ("YYYY-MM-DD
    HH") at :00:00 in `zone`, when its :59:59 lies exactly 3,599 s later, so
    that every second of the wall hour reads with one offset, and no second
    of it lies outside `0..MAX_EPOCH`; None otherwise, for a date or hour
    that does not exist, and for text that is not that form in ASCII digits
    (checked before `zone` is looked up)."""
    digits = hour[:4] + hour[5:7] + hour[8:10] + hour[11:]
    if not (hour[4] == hour[7] == "-" and hour[10] == " " and digits.isascii() and digits.isdigit()):
        return None
    tz = ZoneInfo(zone)
    try:
        first = datetime(int(hour[:4]), int(hour[5:7]), int(hour[8:10]), int(hour[11:]), tzinfo=tz)
    except ValueError:
        return None
    start = int(first.timestamp())
    if int(first.replace(minute=59, second=59).timestamp()) - start != 3599 or not 0 <= start <= MAX_EPOCH - 3599:
        return None
    return start


@lru_cache(maxsize=_HOURS_CACHED)
def _render_hour(zone: str, hour: int) -> Optional[tuple[int, int, tuple[str, ...], str]]:
    """How `zone` writes UTC hour `hour` (epoch // 3600), when its first and
    last seconds have the same offset; None otherwise. The tuple holds the
    offset in seconds, the first local hour (hours after 1970-01-01 00:00)
    the UTC hour reaches, the "YYYY-MM-DD HH:" text of that local hour and,
    for an offset that is not a whole number of hours, of the next one, and
    the " +HH:MM[:SS]" suffix."""
    tz = ZoneInfo(zone)
    first = datetime.fromtimestamp(hour * 3600, tz)
    offset = first.utcoffset()
    if datetime.fromtimestamp(hour * 3600 + 3599, tz).utcoffset() != offset:
        return None
    seconds = int(offset.total_seconds())
    start, end = (hour * 3600 + seconds) // 3600, (hour * 3600 + 3599 + seconds) // 3600
    texts = []
    for local_hour in range(start, end + 1):
        day, hour_of_day = divmod(local_hour, 24)
        texts.append(f"{date.fromordinal(_EPOCH_ORDINAL + day).isoformat()} {_TWO_DIGITS[hour_of_day]}:")
    return seconds, start, tuple(texts), " " + first.isoformat(" ")[19:]


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
