"""Correlation of usage, traffic and lease evidence into graded findings.

The pipeline reads a bundle's three dump sources into one timeline under one
bucket duration, groups traffic buckets into app-network sessions, and
grades each session:

  corroborated  an assigned private IP from the lease log exactly matches a
                PC-side artifact host (FTP client history or known_hosts)
  consistent    a pattern matched and nothing undermines the attribution
  ambiguous     the session carries an ambiguity flag (several networks share
                one bucket start, or app usage detail already expired)

Grading never claims payload content; only byte volumes and endpoints.

Session grouping rules: traffic buckets join one session when they carry the
same set of event-matched packages and are either contiguous on one network
or share an identical bucket start. The second clause makes the several-
networks-in-one-hour case a single multi-network session instead of
attributing the same app event to two networks at once.
"""

from __future__ import annotations

import fnmatch
from bisect import bisect_left
from enum import Enum
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

from . import dumpsys
from .dumpsys import (
    DEFAULT_BUCKET_SECONDS,
    LeaseEvent,
    NetUsageRecord,
    NetworkStackLog,
    UsageEvent,
    UsageReport,
)
from .evidence import SourceKind, Timestamp, json_field, json_list, load_json
from .host_artifacts import FtpServerEntry, KnownHostEntry

DEFAULT_UNCLASSIFIED_MIN_BYTES = 10_000_000
CLOCK_SKEW_BOUND = 7 * 86400


class AmbiguityFlag(Enum):
    MULTI_NETWORK_SAME_BUCKET = "multi_network_same_bucket"
    USAGE_EVIDENCE_EXPIRED = "usage_evidence_expired"
    LEASE_LOG_REBOOTED = "lease_log_rebooted"


class FindingPattern(Enum):
    FTP_SERVER_EXFIL = "ftp_server_exfil"
    SFTP_SERVER_EXFIL = "sftp_server_exfil"
    HIDDEN_CAMERA_CONTROL = "hidden_camera_control"
    UNCLASSIFIED_TRANSFER = "unclassified_transfer"


class Confidence(Enum):
    CORROBORATED = "corroborated"
    CONSISTENT = "consistent"
    AMBIGUOUS = "ambiguous"


class DirectionBias(Enum):
    INBOUND_HEAVY = "inbound_heavy"
    OUTBOUND_HEAVY = "outbound_heavy"
    ANY = "any"


class _PatternRuleFields(NamedTuple):
    pattern: FindingPattern
    package_markers: tuple[str, ...]
    direction_bias: DirectionBias
    min_bytes: int


class PatternRule(_PatternRuleFields):
    __slots__ = ()

    def __new__(
        cls,
        pattern: FindingPattern,
        package_markers: tuple[str, ...] = (),
        direction_bias: DirectionBias = DirectionBias.ANY,
        min_bytes: int = 0,
    ):
        if min_bytes < 0:
            raise ValueError("min_bytes must be >= 0")
        return tuple.__new__(cls, (pattern, package_markers, direction_bias, min_bytes))


# The three packages observed in the field plus a volume-based fallback for
# unknown transfer apps. Rules are configuration; these are only defaults.
DEFAULT_RULES: tuple[PatternRule, ...] = (
    PatternRule(FindingPattern.FTP_SERVER_EXFIL, ("com.corproxy.files",)),
    PatternRule(FindingPattern.SFTP_SERVER_EXFIL, ("net.xnano.android.sshserver",)),
    PatternRule(FindingPattern.HIDDEN_CAMERA_CONTROL, ("com.view.ppcs",)),
    PatternRule(FindingPattern.UNCLASSIFIED_TRANSFER, (), DirectionBias.ANY, DEFAULT_UNCLASSIFIED_MIN_BYTES),
)


def _rule(obj: dict) -> PatternRule:
    return PatternRule(
        FindingPattern(obj["pattern"]),
        json_list(obj, "package_markers", str),
        DirectionBias(obj.get("direction_bias", "any")),
        json_field(obj, "min_bytes", int, 0),
    )


def load_rules(path: Path) -> tuple[PatternRule, ...]:
    """Load pattern rules from a JSON file (list of rule objects); ValueError
    naming the file and the rule for anything else."""
    return load_json(path, "rules", _rule, entry="rule")


class DirectionSummary(NamedTuple):
    bytes_in: int
    bytes_out: int

    @property
    def total(self) -> int:
        return self.bytes_in + self.bytes_out


class Timeline(NamedTuple):
    """The three parsed sources with the one bucket duration they state."""

    report: UsageReport
    records: tuple[NetUsageRecord, ...]
    lease_log: NetworkStackLog
    bucket_duration: int
    warnings: tuple[str, ...] = ()


def build_timeline(
    report: UsageReport, net: Sequence[NetUsageRecord], leases: NetworkStackLog
) -> Timeline:
    """Bring the three sources together under one bucket duration.

    The bucket duration is the one the records state; records that disagree
    raise ValueError, and no records mean DEFAULT_BUCKET_SECONDS. A lease
    log that ends long before the usage evidence starts warns of clock skew.
    """
    durations = sorted({rec.bucket_duration for rec in net})
    if len(durations) > 1:
        raise ValueError(
            "netstats states more than one bucket duration: "
            + " and ".join(f"{d} s" for d in durations)
        )
    bucket_duration = durations[0] if durations else DEFAULT_BUCKET_SECONDS

    warnings = []
    if leases.leases and report.events_24h:
        last_lease = max(l.at.epoch for l in leases.leases)
        first_usage = min(e.at.epoch for e in report.events_24h)
        if last_lease < first_usage - CLOCK_SKEW_BOUND:
            warnings.append(
                f"possible clock skew: newest lease ({last_lease}) precedes all usage "
                f"events (earliest {first_usage}) by more than {CLOCK_SKEW_BOUND}s"
            )
    return Timeline(report, tuple(net), leases, bucket_duration, tuple(warnings))


def _dump(loaded, kind: SourceKind):
    """The loaded bundle's first `kind` item and its dump text, decoded as
    UTF-8 with bad bytes replaced; FileNotFoundError when there is none."""
    for item in loaded.items:
        if item.source_kind == kind and item.key() in loaded.payloads:
            return item, loaded.payloads[item.key()].decode("utf-8", errors="replace")
    raise FileNotFoundError(f"bundle has no {kind.value} item")


def read_timeline(loaded) -> tuple[Timeline, list[str]]:
    """The timeline of a bundle read by `acquisition.read_bundle_dir`, and
    every warning raised on the way, each dump's prefixed with its source.

    Wall times are read in the bundle's zone, and the usagestats item's
    `collected_at` closes the 24 h usage window. The parsers are looked up
    on `dumpsys` at call time, so a wrapper set there sees every call. A
    parser's ValueError (an empty dump) is raised again prefixed with its
    source.
    """
    zone = loaded.display_zone
    item, text = _dump(loaded, SourceKind.USAGESTATS)
    report, usage_warnings = _parsed("usagestats", dumpsys.parse_usagestats, text, item.collected_at, zone)
    records, net_warnings = _parsed("netstats", dumpsys.parse_netstats, _dump(loaded, SourceKind.NETSTATS)[1])
    lease_log, lease_warnings = _parsed(
        "network_stack", dumpsys.parse_network_stack, _dump(loaded, SourceKind.NETWORK_STACK)[1], zone
    )
    timeline = build_timeline(report, records, lease_log)
    sources = {"usagestats": usage_warnings, "netstats": net_warnings, "network_stack": lease_warnings}
    warnings = [f"{source}: {w}" for source, ws in sources.items() for w in ws]
    return timeline, warnings + list(timeline.warnings)


def _parsed(source: str, parse, *args):
    """`parse(*args)`, with a ValueError raised again prefixed with `source`."""
    try:
        return parse(*args)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


class _AppNetworkSessionFields(NamedTuple):
    packages: tuple[str, ...]
    app_events: tuple[UsageEvent, ...]
    buckets: tuple[NetUsageRecord, ...]
    resolved_leases: tuple[LeaseEvent, ...]
    ambiguity_flags: frozenset[AmbiguityFlag]


class AppNetworkSession(_AppNetworkSessionFields):
    """A run of traffic buckets attributed to the same app evidence.

    Usually single-network; spans several networks only when distinct SSIDs
    share an identical bucket start covering the same app events (the
    one-hour ambiguity case).
    """

    __slots__ = ()

    def __new__(
        cls,
        packages: tuple[str, ...],
        app_events: tuple[UsageEvent, ...],
        buckets: tuple[NetUsageRecord, ...],
        resolved_leases: tuple[LeaseEvent, ...],
        ambiguity_flags: frozenset[AmbiguityFlag],
    ):
        if not buckets:
            raise ValueError("session must reference at least one traffic bucket")
        return tuple.__new__(cls, (packages, app_events, buckets, resolved_leases, ambiguity_flags))

    @property
    def network_ids(self) -> tuple[str, ...]:
        return tuple(sorted({b.network_id for b in self.buckets}))

    @property
    def start_epoch(self) -> int:
        return min(b.st.epoch for b in self.buckets)

    @property
    def app_start(self) -> Optional[Timestamp]:
        resumed = [e.at for e in self.app_events if e.event_type == "ACTIVITY_RESUMED"]
        if resumed:
            return min(resumed)
        if self.app_events:
            return min(e.at for e in self.app_events)
        return None


def grade_volume(session: AppNetworkSession) -> DirectionSummary:
    """Byte totals over the session's buckets: in = sum(rb), out = sum(tb)."""
    return DirectionSummary(sum(b.rb for b in session.buckets), sum(b.tb for b in session.buckets))


def _in_bucket(epochs: Sequence[int], st: int, duration: int) -> range:
    """Indices of the ascending `epochs` inside the bucket [st, st+duration)."""
    return range(bisect_left(epochs, st), bisect_left(epochs, st + duration))


def match_sessions(timeline: Timeline) -> list[AppNetworkSession]:
    """Partition traffic buckets into app-network sessions.

    An app event joins a bucket when its time falls within [st, st+duration).
    Every input bucket lands in exactly one session, so byte totals over all
    sessions equal the input totals. Assigned IPs attach via lease SSID
    equality, falling back to time containment only when the session is not
    flagged with the several-networks ambiguity.
    """
    duration = timeline.bucket_duration
    records = timeline.records
    if not records:
        return []
    events = sorted(timeline.report.events_24h, key=lambda e: e.at.epoch)
    event_epochs = [e.at.epoch for e in events]
    aggregate_epochs = sorted(a.last_used.epoch for a in timeline.report.aggregates)
    lease_log = timeline.lease_log
    leases = sorted(lease_log.leases, key=lambda l: l.at.epoch)
    lease_epochs = [l.at.epoch for l in leases]
    leases_by_network: dict[str, list[int]] = {}
    for k, lease in enumerate(leases):
        if lease.network_id is not None:
            leases_by_network.setdefault(lease.network_id, []).append(k)

    event_ranges = [_in_bucket(event_epochs, rec.st.epoch, duration) for rec in records]
    matched = [frozenset(events[k].package for k in ks) for ks in event_ranges]

    n = len(records)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    # Contiguous same-network runs with an identical matched-package set.
    by_track: dict[tuple, dict[int, list[int]]] = {}
    for i, rec in enumerate(records):
        columns = by_track.setdefault((matched[i], rec.network_id), {})
        columns.setdefault(rec.st.epoch, []).append(i)
    for columns in by_track.values():
        starts = sorted(columns)
        for prev, curr in zip(starts, starts[1:]):
            if curr - prev == duration:
                anchor = columns[prev][0]
                for idx in columns[prev] + columns[curr]:
                    union(anchor, idx)

    # Networks sharing one bucket start merge when app evidence covers it,
    # instead of attributing the same events to several networks at once.
    by_shared_start: dict[tuple, list[int]] = {}
    for i, rec in enumerate(records):
        if matched[i]:
            by_shared_start.setdefault((matched[i], rec.st.epoch), []).append(i)
    for indices in by_shared_start.values():
        for idx in indices[1:]:
            union(indices[0], idx)

    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)

    # Bucket starts where at least two distinct networks carried traffic.
    traffic_networks: dict[int, set[str]] = {}
    for rec in records:
        if rec.has_traffic():
            traffic_networks.setdefault(rec.st.epoch, set()).add(rec.network_id)
    ambiguous_starts = {st for st, nets in traffic_networks.items() if len(nets) >= 2}

    sessions: list[AppNetworkSession] = []
    for indices in groups.values():
        indices.sort(key=lambda i: (records[i].st.epoch, records[i].network_id, i))
        buckets = tuple(records[i] for i in indices)
        # Every record of a group matched the same packages, so every event
        # in its buckets belongs to the session.
        pkgs = tuple(sorted(matched[indices[0]]))
        app_events = tuple(events[k] for k in sorted({k for i in indices for k in event_ranges[i]}))
        span_start = min(b.st.epoch for b in buckets)
        span_end = max(b.st.epoch for b in buckets) + duration

        flags = set()
        if any(b.st.epoch in ambiguous_starts for b in buckets):
            flags.add(AmbiguityFlag.MULTI_NETWORK_SAME_BUCKET)
        if not app_events:
            has_traffic = any(b.has_traffic() for b in buckets)
            agg_in_span = bool(_in_bucket(aggregate_epochs, span_start, span_end - span_start))
            if has_traffic or agg_in_span:
                flags.add(AmbiguityFlag.USAGE_EVIDENCE_EXPIRED)
        boot = lease_log.boot_epoch_marker
        if boot is not None and span_start < boot.epoch:
            flags.add(AmbiguityFlag.LEASE_LOG_REBOOTED)

        chosen = {k for net in {b.network_id for b in buckets} for k in leases_by_network.get(net, ())}
        if AmbiguityFlag.MULTI_NETWORK_SAME_BUCKET not in flags:
            # Time containment is unsound when several networks share the hour.
            chosen.update(
                k
                for b in buckets
                for k in _in_bucket(lease_epochs, b.st.epoch, duration)
                if leases[k].network_id is None
            )
        resolved = tuple(leases[k] for k in sorted(chosen))

        sessions.append(AppNetworkSession(pkgs, app_events, buckets, resolved, frozenset(flags)))

    sessions.sort(key=lambda s: (s.start_epoch, s.network_ids, s.packages))
    return sessions


class Finding(NamedTuple):
    pattern: FindingPattern
    session: AppNetworkSession
    host_corroboration: tuple[object, ...]  # FtpServerEntry | KnownHostEntry
    direction_summary: DirectionSummary
    confidence: Confidence
    evidence_digests: tuple[str, ...] = ()


def _bias_satisfied(bias: DirectionBias, summary: DirectionSummary) -> bool:
    if bias == DirectionBias.INBOUND_HEAVY:
        return summary.bytes_in >= summary.bytes_out
    if bias == DirectionBias.OUTBOUND_HEAVY:
        return summary.bytes_out >= summary.bytes_in
    return True


def match_pattern(
    packages: Sequence[str], summary: DirectionSummary, rules: Sequence[PatternRule]
) -> Optional[FindingPattern]:
    """First rule that applies, or None. Marker-less rules are volume fallbacks."""
    for rule in rules:
        if summary.total < rule.min_bytes or not _bias_satisfied(rule.direction_bias, summary):
            continue
        if rule.package_markers:
            if any(fnmatch.fnmatchcase(p, g) for p in packages for g in rule.package_markers):
                return rule.pattern
        else:
            return rule.pattern
    return None


# Flags that undermine attribution; a rebooted lease log only removes
# corroboration and is reported as a limitation, not a downgrade.
_DOWNGRADING_FLAGS = {AmbiguityFlag.MULTI_NETWORK_SAME_BUCKET, AmbiguityFlag.USAGE_EVIDENCE_EXPIRED}


def corroborate(
    sessions: Sequence[AppNetworkSession],
    ftp_entries: Sequence[FtpServerEntry] = (),
    known_hosts: Sequence[KnownHostEntry] = (),
    rules: Sequence[PatternRule] = DEFAULT_RULES,
) -> list[Finding]:
    """Assign patterns and grade each session against PC-side evidence.

    Corroboration requires an exact string-equal match between a resolved
    lease IP and a host artifact's host; a hashed known_hosts line yields
    no entry, so it never corroborates.
    """
    findings: list[Finding] = []
    entries = (*ftp_entries, *known_hosts)  # FileZilla first: the order findings cite them in
    for session in sessions:
        summary = grade_volume(session)
        pattern = match_pattern(session.packages, summary, rules)
        if pattern is None:
            continue
        ips = {lease.private_ip for lease in session.resolved_leases}
        matches = [e for e in entries if e.host in ips]
        if matches:
            confidence = Confidence.CORROBORATED
        elif session.ambiguity_flags & _DOWNGRADING_FLAGS:
            confidence = Confidence.AMBIGUOUS
        else:
            confidence = Confidence.CONSISTENT
        findings.append(Finding(pattern, session, tuple(matches), summary, confidence))
    return findings


def event_to_dict(e: UsageEvent, zone: str) -> dict:
    return {"at": e.at.epoch, "rendered": e.at.render(zone), "package": e.package, "event_type": e.event_type}


def bucket_to_dict(b: NetUsageRecord) -> dict:
    return {"network_id": b.network_id, "st": b.st.epoch, "rb": b.rb, "rp": b.rp, "tb": b.tb, "tp": b.tp}


def session_to_dict(session: AppNetworkSession, zone: str) -> dict:
    """JSON form of a session; rendered times are in `zone`."""
    start = session.app_start
    return {
        "packages": list(session.packages),
        "network_ids": list(session.network_ids),
        "app_start": start.epoch if start else None,
        "app_start_rendered": start.render(zone) if start else None,
        "app_events": [event_to_dict(e, zone) for e in session.app_events],
        "buckets": [bucket_to_dict(b) for b in session.buckets],
        "resolved_ips": sorted({lease.private_ip for lease in session.resolved_leases}),
        "ambiguity_flags": sorted(f.value for f in session.ambiguity_flags),
    }


def _corroboration_to_dict(entry) -> dict:
    if isinstance(entry, FtpServerEntry):
        return {
            "kind": "ftp_client_entry",
            "host": entry.host,
            "port": entry.port,
            "protocol": entry.protocol.value,
            "source_file": entry.source_file,
        }
    return {
        "kind": "known_host_entry",
        "host": entry.host,
        "port": entry.port,
        "key_type": entry.key_type,
    }


def finding_to_dict(finding: Finding, zone: str) -> dict:
    return {
        "pattern": finding.pattern.value,
        "confidence": finding.confidence.value,
        "session": session_to_dict(finding.session, zone),
        "bytes_in": finding.direction_summary.bytes_in,
        "bytes_out": finding.direction_summary.bytes_out,
        "host_corroboration": [_corroboration_to_dict(e) for e in finding.host_corroboration],
        "evidence_digests": list(finding.evidence_digests),
    }


def findings_document(
    findings: Sequence[Finding],
    bundle_digest: Optional[str],
    bucket_seconds: int,
    zone: str,
    warnings: Sequence[str] = (),
) -> dict:
    """Stable JSON-serializable findings document; rendered times are in `zone`."""
    return {
        "schema": "watchtriage.findings/1",
        "bundle_manifest_digest": bundle_digest,
        "bucket_seconds": bucket_seconds,
        "finding_count": len(findings),
        "findings": [finding_to_dict(f, zone) for f in findings],
        "warnings": list(warnings),
    }


def parse_document(timeline: Timeline, bundle_digest: Optional[str], zone: str, warnings: Sequence[str]) -> dict:
    """JSON-serializable document of the three parsed sources (the `parse`
    command's output); rendered times are in `zone`."""
    report, lease_log = timeline.report, timeline.lease_log
    boot = lease_log.boot_epoch_marker
    return {
        "bundle_manifest_digest": bundle_digest,
        "usagestats": {
            "capture_time": report.capture_time.epoch,
            "events": [event_to_dict(e, zone) for e in report.events_24h],
            # An aggregate states its last use to the minute, never the second.
            "aggregates": [
                {"window": a.window.value, "package": a.package, "last_used": a.last_used.epoch,
                 "use_count": a.use_count, "precision": "minute"}
                for a in report.aggregates
            ],
        },
        "netstats": [bucket_to_dict(r) for r in timeline.records],
        "network_stack": {
            "boot_epoch_marker": boot.epoch if boot is not None else None,
            "leases": [
                {"at": l.at.epoch, "interface": l.interface, "private_ip": l.private_ip,
                 "event_kind": l.event_kind.value, "network_id": l.network_id}
                for l in lease_log.leases
            ],
        },
        "warnings": list(warnings),
    }
