"""Core domain types and the tamper-evident evidence bundle.

Timestamps are stored as UTC epoch seconds everywhere; the IANA zone a
wall-clock string is read or rendered in is always passed in by the caller.
Evidence payloads are hashed at collection time and the bundle manifest is
a canonical JSON document so its digest is reproducible byte-for-byte.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import asdict, dataclass, replace
from datetime import datetime
from enum import Enum
from typing import Mapping, Optional, Sequence
from zoneinfo import ZoneInfo, ZoneInfoNotFoundError

DEFAULT_DISPLAY_ZONE = "Asia/Seoul"
DEFAULT_HASH = "sha256"


class EvidenceError(Exception):
    """Base error for evidence handling."""


class DigestMismatchError(EvidenceError):
    """Stored bytes no longer match an item's recorded digest."""


class InvalidBundleError(EvidenceError):
    """Bundle violates a structural invariant."""


def compute_digest(data: bytes, algorithm: str = DEFAULT_HASH) -> str:
    """Hex digest of raw bytes under the configured hash algorithm."""
    return hashlib.new(algorithm, data).hexdigest()


def canonical_json_bytes(obj) -> bytes:
    """Byte-stable JSON: sorted keys, no insignificant whitespace, UTF-8."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


def zone_name(name: str) -> str:
    """`name` if it is an IANA zone this system knows; ValueError naming it otherwise."""
    try:
        ZoneInfo(name)
    except (ValueError, TypeError, ZoneInfoNotFoundError):
        raise ValueError(f"unknown time zone {name!r}") from None
    return name


def string_list(obj: dict, key: str) -> tuple[str, ...]:
    """`obj[key]` from a JSON config entry as a tuple of strings, empty when
    absent; TypeError for anything but a list of strings, so a lone string
    is never read as its characters."""
    value = obj.get(key, [])
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise TypeError(f"{key} must be a list of strings, got {value!r}")
    return tuple(value)


# The one wall-clock text form: zero-padded ASCII "YYYY-MM-DD HH:MM:SS".
_WALL_RE = re.compile(r"([0-9]{4})-([0-9]{2})-([0-9]{2}) ([0-9]{2}):([0-9]{2}):([0-9]{2})")


@dataclass(frozen=True, order=True)
class Timestamp:
    """Point in time as UTC epoch seconds; the only code that turns wall-clock
    text into an epoch or an epoch into text."""

    epoch: int

    def __post_init__(self):
        if self.epoch < 0:
            raise ValueError(f"epoch must be >= 0, got {self.epoch}")

    @classmethod
    def parse(cls, text: str, zone: str) -> "Timestamp":
        """The instant the wall time `text` denotes in `zone`; ValueError for
        any text but the fixed-width form. A wall time that a DST change
        repeats or skips reads as its fold=0 instant."""
        m = _WALL_RE.fullmatch(text)
        if m is None:
            raise ValueError(f"wall time {text!r} is not YYYY-MM-DD HH:MM:SS")
        local = datetime(*map(int, m.groups()), tzinfo=ZoneInfo(zone))
        return cls(int(local.timestamp()))

    def render(self, zone: str) -> str:
        """Wall-clock string in `zone` with explicit UTC offset."""
        local = datetime.fromtimestamp(self.epoch, ZoneInfo(zone)).isoformat(" ")
        return f"{local[:19]} {local[19:]}"

    def wall(self, zone: str) -> str:
        """Bare wall-clock string in `zone` (no offset suffix)."""
        return self.render(zone)[:19]


@dataclass(frozen=True)
class DeviceProfile:
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


@dataclass(frozen=True)
class EvidenceItem:
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


@dataclass(frozen=True)
class EvidenceBundle:
    items: tuple[EvidenceItem, ...]
    device: Optional[DeviceProfile]
    bundle_manifest_digest: str
    hash_algorithm: str = DEFAULT_HASH

    def manifest_document(self) -> dict:
        return {
            "hash_algorithm": self.hash_algorithm,
            "items": [it.to_dict() for it in self.items],
            "device": asdict(self.device) if self.device else None,
        }

    def manifest_digest(self) -> str:
        """Digest of the canonical manifest: recorded at seal time, compared at verify time."""
        return compute_digest(canonical_json_bytes(self.manifest_document()), self.hash_algorithm)


def seal_bundle(
    items: Sequence[EvidenceItem],
    device: Optional[DeviceProfile] = None,
    *,
    payloads: Optional[Mapping[str, bytes]] = None,
) -> EvidenceBundle:
    """Seal items into a bundle with a deterministic manifest digest.

    When `payloads` (item key -> raw bytes) is supplied, every item's digest
    is recomputed from the stored bytes first; a mismatch aborts the seal.
    Sealing is order-sensitive: permuting items changes the manifest digest.
    """
    if not items:
        raise InvalidBundleError("cannot seal an empty bundle")
    seen = set()
    for item in items:
        if item.key() in seen:
            raise InvalidBundleError(
                f"duplicate evidence item {item.key()}: source_kind must be unique "
                "per origin_label at a given collected_at"
            )
        seen.add(item.key())
    bundle = EvidenceBundle(tuple(items), device, "")
    if payloads is not None:
        for result in verify_bundle(bundle, payloads).results:
            if result.status != "pass":
                raise DigestMismatchError(
                    f"digest check {result.status} for item {result.item_key}: {result.detail}"
                )
    return replace(bundle, bundle_manifest_digest=bundle.manifest_digest())


@dataclass(frozen=True)
class ItemVerification:
    item_key: str
    status: str  # "pass" | "fail" | "missing"
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
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
        actual = compute_digest(raw, bundle.hash_algorithm)
        if actual == item.raw_bytes_digest:
            results.append(ItemVerification(item.key(), "pass"))
        else:
            results.append(
                ItemVerification(item.key(), "fail", f"recorded {item.raw_bytes_digest}, got {actual}")
            )
    manifest_ok = bundle.manifest_digest() == bundle.bundle_manifest_digest
    return VerificationReport(tuple(results), manifest_ok)
