"""Watch-only app policy checks.

Two heuristics, usable alone or combined over an inventory:

  - Apps built for smartwatches declare the watch hardware feature
    (android.hardware.type.watch) in their manifest; its absence suggests a
    smartphone app was sideloaded onto the watch. This is a heuristic, not
    proof, and the verdict label says only that.
  - The studied watches execute 32-bit ARM only, so an APK shipping
    exclusively 64-bit native code cannot even install; inventory entries
    claiming such an APK are flagged as ABI-incompatible.

Manifests are accepted as decoded XML or aapt-style dump text; binary AXML
decoding is out of scope (callers decode first).
"""

from __future__ import annotations

import os
import re
import xml.etree.ElementTree as ET
from enum import Enum
from pathlib import Path, PurePath
from typing import NamedTuple, Optional, Sequence

from .evidence import DeviceProfile, json_list, load_json, one_line, text_lines

WATCH_FEATURE = "android.hardware.type.watch"

ANDROID_NS = "http://schemas.android.com/apk/res/android"

# Execution compatibility within the ARM family; other families are treated
# as unknown and report incompatible with a warning.
_ABI_EXECUTES = {
    "armeabi": {"armeabi"},
    "armeabi-v7a": {"armeabi-v7a", "armeabi"},
    "arm64-v8a": {"arm64-v8a", "armeabi-v7a", "armeabi"},
}


class VerdictKind(Enum):
    COMPLIANT = "compliant"
    SIDELOADED_PHONE_APP = "sideloaded_phone_app"
    ABI_INCOMPATIBLE = "abi_incompatible"
    UNKNOWN = "unknown"


# Most actionable first; used to sort audit reports.
_SEVERITY = {
    VerdictKind.ABI_INCOMPATIBLE: 0,
    VerdictKind.SIDELOADED_PHONE_APP: 1,
    VerdictKind.UNKNOWN: 2,
    VerdictKind.COMPLIANT: 3,
}


class _ManifestInfoFields(NamedTuple):
    package: str
    uses_features: tuple[str, ...]
    declared_abis: tuple[str, ...]  # empty means universal


class ManifestInfo(_ManifestInfoFields):
    __slots__ = ()

    def __new__(cls, package: str, uses_features: tuple[str, ...] = (), declared_abis: tuple[str, ...] = ()):
        if not isinstance(package, str) or not package:
            raise ValueError("package must be a non-empty string")
        return tuple.__new__(cls, (package, uses_features, declared_abis))


class PolicyVerdict(NamedTuple):
    package: str
    watch_feature_present: bool
    abi_compatible: Optional[bool]
    verdict: VerdictKind
    rationale: str

    @property
    def severity(self) -> int:
        return _SEVERITY[self.verdict]


class AbiCheck(NamedTuple):
    compatible: bool
    warnings: tuple[str, ...] = ()


def parse_manifest(text: str) -> ManifestInfo:
    """Parse a decoded AndroidManifest.xml or aapt badging dump.

    XML input needs a package attribute on the manifest element (fatal when
    missing); uses-feature names are collected verbatim. aapt dumps may also
    carry native-code lines, which populate the declared ABIs.
    """
    stripped = text.lstrip()
    if stripped.startswith("<"):
        return _parse_manifest_xml(text)
    return _parse_aapt_dump(text)


def _parse_manifest_xml(text: str) -> ManifestInfo:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        line, col = exc.position
        raise ValueError(f"XML syntax error at line {line}, column {col}: {exc}") from exc
    package = root.get("package")
    if not package:
        raise ValueError("manifest element has no package attribute")
    features = []
    for el in root.iter("uses-feature"):
        name = el.get(f"{{{ANDROID_NS}}}name") or el.get("android:name") or el.get("name")
        if name:
            features.append(name)
    return ManifestInfo(package, tuple(features))


def _parse_aapt_dump(text: str) -> ManifestInfo:
    package = None
    features = []
    abis = []
    for _, line in text_lines(text):
        if line.startswith("package:"):
            m = re.search(r"name='([^']+)'", line)
            if m:
                package = m.group(1)
        elif line.startswith("uses-feature"):
            m = re.search(r"name='([^']+)'", line)
            if m:
                features.append(m.group(1))
        elif line.startswith("native-code:"):
            abis.extend(re.findall(r"'([^']+)'", line))
    if not package:
        raise ValueError("aapt dump has no package: name='...' line")
    return ManifestInfo(package, tuple(features), tuple(abis))


def check_abi(apk_abis: Sequence[str], device_abi: str) -> AbiCheck:
    """Can the device execute any of the APK's native ABIs?

    An empty ABI list means no native code (universal: compatible anywhere).
    Unrecognized ABI strings warn and never count as compatible.
    """
    if not apk_abis:
        return AbiCheck(True)
    warnings = []
    executable = _ABI_EXECUTES.get(device_abi)
    if executable is None:
        warnings.append(f"unknown device ABI {device_abi!r}; treating all native APKs as incompatible")
        executable = set()
    compatible = False
    for abi in apk_abis:
        if abi not in _ABI_EXECUTES:
            warnings.append(f"unknown APK ABI {abi!r}; not counted as compatible")
            continue
        if abi in executable:
            compatible = True
    return AbiCheck(compatible, tuple(warnings))


def combine_verdict(info: ManifestInfo, device_abi: Optional[str]) -> PolicyVerdict:
    """Combine feature and ABI checks; ABI incompatibility dominates."""
    feature_present = WATCH_FEATURE in info.uses_features
    abi_compatible: Optional[bool] = None
    abi_notes = ""
    if device_abi and info.declared_abis:
        check = check_abi(info.declared_abis, device_abi)
        abi_compatible = check.compatible
        if check.warnings:
            abi_notes = " (" + "; ".join(check.warnings) + ")"
    elif device_abi:
        abi_compatible = True  # no native code: universal

    if abi_compatible is False:
        return PolicyVerdict(
            info.package, feature_present, False, VerdictKind.ABI_INCOMPATIBLE,
            f"APK ABIs {list(info.declared_abis)} cannot execute on {device_abi}{abi_notes}",
        )
    if not feature_present:
        return PolicyVerdict(
            info.package, False, abi_compatible, VerdictKind.SIDELOADED_PHONE_APP,
            f"manifest does not declare {WATCH_FEATURE}; likely built for a phone",
        )
    return PolicyVerdict(
        info.package, True, abi_compatible, VerdictKind.COMPLIANT,
        f"declares {WATCH_FEATURE}" + ("; ABI compatible" if abi_compatible else ""),
    )


def audit_inventory(manifests: Sequence[ManifestInfo], device: DeviceProfile) -> list[PolicyVerdict]:
    """One verdict per manifest, sorted most severe first then by package."""
    verdicts = [combine_verdict(info, device.cpu_abi or None) for info in manifests]
    verdicts.sort(key=lambda v: (v.severity, v.package))
    return verdicts


def _manifest_info(obj: dict) -> ManifestInfo:
    return ManifestInfo(obj["package"], json_list(obj, "uses_features", str), json_list(obj, "declared_abis", str))


def load_inventory(path: Path) -> tuple[list[ManifestInfo], list[PolicyVerdict]]:
    """Load manifests from a JSON inventory file or a directory of manifests.

    Directory mode parses every *.xml and *.txt file, decoded as UTF-8
    without newline translation, so a lone "\\r" stays inside its line;
    files that fail to decode or parse become verdicts of kind `unknown`
    so the audit report stays one-row-per-input. A JSON inventory must be
    a list of entry objects; anything else is a ValueError naming the
    file and the entry.
    """
    path = Path(path)
    if not path.is_dir():
        return list(load_json(path, "inventory entries", _manifest_info, entry="inventory entry")), []
    manifests: list[ManifestInfo] = []
    failures: list[PolicyVerdict] = []
    # Names sort as the paths did at a tenth of the cost, and open with no
    # Path built per file. PurePath takes the suffix: os.path.splitext reads
    # a name like "..xml" differently.
    for name in sorted(os.listdir(path)):
        if PurePath(name).suffix.lower() not in (".xml", ".txt"):
            continue
        try:
            with open(os.path.join(path, name), "rb", buffering=0) as file:
                manifests.append(parse_manifest(file.read().decode("utf-8")))
        except ValueError as exc:
            failures.append(
                PolicyVerdict(name, False, None, VerdictKind.UNKNOWN, f"unparseable manifest: {exc}")
            )
    return manifests, failures


def verdicts_table(verdicts: Sequence[PolicyVerdict]) -> str:
    """Plain-text audit table, severity-sorted input expected."""
    lines = [f"{'PACKAGE':40} {'VERDICT':22} {'WATCH':5} {'ABI':5} RATIONALE"]
    for v in verdicts:
        abi = "-" if v.abi_compatible is None else ("ok" if v.abi_compatible else "bad")
        watch = "yes" if v.watch_feature_present else "no"
        lines.append(f"{one_line(v.package):40} {v.verdict.value:22} {watch:5} {abi:5} {one_line(v.rationale)}")
    return "\n".join(lines) + "\n"


def verdict_to_dict(v: PolicyVerdict) -> dict:
    return {
        "package": v.package,
        "watch_feature_present": v.watch_feature_present,
        "abi_compatible": v.abi_compatible,
        "verdict": v.verdict.value,
        "rationale": v.rationale,
    }
