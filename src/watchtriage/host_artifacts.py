"""Parsers for PC-side corroborating artifacts.

Covers FileZilla server lists (recentservers.xml / sitemanager.xml /
filezilla.xml) and OpenSSH known_hosts. These are the files a PC keeps after
connecting to an FTP/SFTP server running on a watch, so an exact IP match
against a watch-side DHCP lease corroborates a transfer session.

Each entry's host is read once, at parse time. A hashed known_hosts line
names no plaintext host, so it could never match an IP: it is skipped with
a warning, like any other line that cannot corroborate.
"""

from __future__ import annotations

import base64
import re
from enum import Enum
from pathlib import Path
from typing import Iterable, NamedTuple

from .evidence import EvidenceItem, SourceKind, Timestamp, text_lines

HASHED_SENTINEL = "|1|"


class TransferProtocol(Enum):
    FTP = "ftp"
    SFTP = "sftp"
    FTPS = "ftps"
    OTHER = "other"


# FileZilla <Protocol> codes seen across schema versions.
_PROTOCOL_CODES = {"0": TransferProtocol.FTP, "1": TransferProtocol.SFTP,
                   "3": TransferProtocol.FTPS, "4": TransferProtocol.FTPS}
_PROTOCOL_NAMES = {p.value: p for p in TransferProtocol if p is not TransferProtocol.OTHER}


class _FtpServerEntryFields(NamedTuple):
    host: str
    port: int
    protocol: TransferProtocol
    source_file: str


class FtpServerEntry(_FtpServerEntryFields):
    __slots__ = ()

    def __new__(cls, host: str, port: int, protocol: TransferProtocol, source_file: str = "recentservers_xml"):
        if not 1 <= port <= 65535:
            raise ValueError(f"port out of range: {port}")
        return tuple.__new__(cls, (host, port, protocol, source_file))


class KnownHostEntry(NamedTuple):
    host: str
    port: int
    key_type: str


# A known_hosts "[host]:port" pattern: the host, then the port. A port, there
# and in FileZilla XML, takes at most 5 digits, as 65535 does.
PORT_DIGITS = 5
_BRACKETED = re.compile(rf"\[([^\]]+)\]:([0-9]{{1,{PORT_DIGITS}}})$")
# OpenSSH splits a known_hosts line at spaces and tabs only.
_FIELD_GAP = re.compile(r"[ \t]+")


def parse_filezilla(xml_text: str, source_file: str = "recentservers_xml") -> tuple[list[FtpServerEntry], list[str]]:
    """Extract server entries from a FileZilla XML document, in file order.

    Reads only the schema-stable elements (Host, Port, Protocol) so the
    same code handles recentservers.xml, sitemanager.xml and filezilla.xml
    across versions. A missing Host skips that entry with a warning; malformed
    XML is fatal with the reported line number.
    """
    import xml.etree.ElementTree as ET  # here, so commands that read no XML never load it

    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        line, col = exc.position
        raise ValueError(f"XML syntax error at line {line}, column {col}: {exc}") from exc

    entries: list[FtpServerEntry] = []
    warnings: list[str] = []
    for i, server in enumerate(root.iter("Server")):
        host = (server.findtext("Host") or "").strip()
        if not host:
            warnings.append(f"server element #{i + 1} has no Host; skipped")
            continue
        port_text = (server.findtext("Port") or "21").strip()
        if not (port_text.isascii() and port_text.isdecimal()) or len(port_text) > PORT_DIGITS:
            warnings.append(f"server element #{i + 1} has bad port {port_text!r}; skipped")
            continue
        port = int(port_text)
        code = (server.findtext("Protocol") or "0").strip()
        protocol = _PROTOCOL_CODES.get(code) or _PROTOCOL_NAMES.get(code.lower(), TransferProtocol.OTHER)
        try:
            entries.append(FtpServerEntry(host, port, protocol, source_file))
        except ValueError as exc:
            warnings.append(f"server element #{i + 1}: {exc}; skipped")
    return entries, warnings


def parse_known_hosts(text: str) -> tuple[list[KnownHostEntry], list[str]]:
    """Parse OpenSSH known_hosts text, one entry per host pattern.

    Plain patterns default to port 22; "[host]:port" patterns yield the
    embedded host and port. Comma-separated patterns on one line become
    separate entries sharing the key. A hashed ("|1|...") line names no host
    to match, and a @revoked or @cert-authority marker line is set by hand,
    never by a connection, so each warns and skips, as does a malformed line.
    """
    entries: list[KnownHostEntry] = []
    warnings: list[str] = []
    for lineno, line in text_lines(text):
        if line.startswith("#"):
            continue
        fields = _FIELD_GAP.split(line)
        if line.startswith("@"):
            warnings.append(f"line {lineno}: {fields[0]} marker line records no connection; skipped")
            continue
        if len(fields) < 3:
            warnings.append(f"line {lineno}: fewer than 3 fields; skipped")
            continue
        patterns, key_type, key_blob = fields[0], fields[1], fields[2]
        try:
            base64.b64decode(key_blob, validate=True)
        except (base64.binascii.Error, ValueError):
            warnings.append(f"line {lineno}: key blob is not valid base64; skipped")
            continue
        if patterns.startswith(HASHED_SENTINEL):
            warnings.append(f"line {lineno}: hashed host pattern names no host to match; skipped")
            continue
        for pattern in patterns.split(","):
            m = _BRACKETED.match(pattern)
            if pattern.startswith("[") and not m:
                warnings.append(f"line {lineno}: bad [host]:port pattern {pattern!r}; skipped")
                continue
            port = int(m.group(2)) if m else 22
            if not 1 <= port <= 65535:
                warnings.append(f"line {lineno}: port {port} out of range; skipped")
                continue
            entries.append(KnownHostEntry(m.group(1) if m else pattern, port, key_type))
    return entries, warnings


class HostArtifacts(NamedTuple):
    """Parsed PC-side artifacts plus the digests of the files they came from;
    each is built from four fresh lists."""

    ftp_entries: list[FtpServerEntry]
    known_host_entries: list[KnownHostEntry]
    items: list[EvidenceItem]
    warnings: list[str]


# Recognized file name -> the kind its evidence item is recorded as.
_ARTIFACT_KINDS = {"recentservers.xml": SourceKind.RECENTSERVERS_XML,
                   "filezilla.xml": SourceKind.FILEZILLA_XML,
                   "sitemanager.xml": SourceKind.FILEZILLA_XML,
                   "known_hosts": SourceKind.KNOWN_HOSTS}


def locate_host_artifacts(root: Path) -> list[Path]:
    """Find candidate artifact files under a directory or mounted profile.

    Matches the canonical Windows locations (AppData\\Roaming\\FileZilla\\*.xml,
    .ssh\\known_hosts) as well as the same file names placed directly in the
    directory. FileNotFoundError unless `root` is a directory.
    """
    if not root.is_dir():
        raise FileNotFoundError(f"host artifacts directory not found: {root}")
    return [path for path in sorted(root.rglob("*")) if path.name.lower() in _ARTIFACT_KINDS and path.is_file()]


def load_host_artifacts(paths: Iterable[Path]) -> HostArtifacts:
    """Parse a set of artifact files, hashing each for evidence citation."""
    out = HostArtifacts([], [], [], [])
    for path in paths:
        raw = path.read_bytes()
        kind = _ARTIFACT_KINDS.get(path.name.lower())
        if kind is None:
            out.warnings.append(f"{path}: not a recognized host artifact; skipped")
            continue
        text = raw.decode("utf-8", errors="replace")
        if kind is SourceKind.KNOWN_HOSTS:
            entries, warnings = parse_known_hosts(text)
            out.known_host_entries.extend(entries)
        else:
            try:
                entries, warnings = parse_filezilla(text, kind.value)
            except ValueError as exc:
                out.warnings.append(f"{path}: {exc}")
                continue
            out.ftp_entries.extend(entries)
        out.warnings.extend(f"{path}: {w}" for w in warnings)
        out.items.append(EvidenceItem.from_bytes(kind, raw, Timestamp(0), str(path)))
    return out
