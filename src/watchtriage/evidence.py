"""Core domain types and the tamper-evident evidence bundle.

Timestamps are stored as UTC epoch seconds everywhere; the IANA zone a
wall-clock string is read or rendered in is always passed in by the caller,
and `timetable.TimeTable` does the reading and rendering. JSON output
documents are written by `document.document_text`. Evidence payloads are hashed once, when `seal_bundle` builds the one
bundle type, `EvidenceBundle`: the manifest (items, device profile) and its
digest together with the raw payloads, step labels, failures and zone that
`acquisition` writes to a bundle directory and reads back. The manifest is
a canonical JSON document so its digest is reproducible byte-for-byte.
"""

from __future__ import annotations

import hashlib
import json
import re
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Mapping, NamedTuple, Optional, Sequence
from zoneinfo import ZoneInfo, ZoneInfoNotFoundError

DEFAULT_DISPLAY_ZONE = "Asia/Seoul"
DEFAULT_HASH = "sha256"


def compute_digest(data: bytes) -> str:
    """Hex SHA-256 digest of raw bytes, the one hash a bundle is sealed with."""
    return hashlib.sha256(data).hexdigest()


def canonical_json_bytes(obj) -> bytes:
    """Byte-stable JSON: sorted keys, no insignificant whitespace, UTF-8."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


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

# Records are named tuples. NamedTuple forbids `__new__` in its own body, so a
# record that checks its values declares its fields, without defaults, in a
# NamedTuple, and a subclass's `__new__` takes them as named parameters (each
# default stated there), checks them and builds itself with `tuple.__new__`.
# Pickling and `copy` call that `__new__` too; `_replace` and `_make` skip it.
class _TimestampFields(NamedTuple):
    epoch: int


class Timestamp(_TimestampFields):
    """Point in time as UTC epoch seconds. Its methods and a
    `timetable.TimeTable`, which reads a dump's wall times and renders a
    document's instants, are the only code that turns wall-clock text into
    an epoch or an epoch into text."""

    __slots__ = ()

    def __new__(cls, epoch: int):
        _check_epoch(epoch)
        return tuple.__new__(cls, (epoch,))

    @classmethod
    def parse(cls, text: str, zone: str) -> "Timestamp":
        """The instant the wall time `text` denotes in `zone`; ValueError for
        any text but the fixed-width form. A wall time that a DST change
        repeats or skips reads as its fold=0 instant."""
        from .timetable import TimeTable  # here, so commands that read no wall time never load it

        return TimeTable(zone).parse(text)

    def render(self, zone: str) -> str:
        """Wall-clock string in `zone` with explicit UTC offset."""
        from .timetable import TimeTable

        return TimeTable(zone)[self.epoch]

    def wall(self, zone: str) -> str:
        """Bare wall-clock string in `zone` (no offset suffix)."""
        return self.render(zone)[:19]


def _check_epoch(epoch: int) -> None:
    """Timestamp's ValueError for an epoch out of its range."""
    if not 0 <= epoch <= MAX_EPOCH:
        raise ValueError(f"epoch must be between 0 and {MAX_EPOCH}, got {epoch}")


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
