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
from operator import attrgetter, itemgetter
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
from .document import Records
from .evidence import SourceKind, Timestamp, json_field, json_list, load_json
from .host_artifacts import FtpServerEntry, KnownHostEntry
from .timetable import TimeTable

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


_AT_EPOCH = attrgetter("at.epoch")


def _in_windows(epochs: Sequence[int], items: Sequence, windows: Sequence[Sequence[int]]) -> list:
    """The `items` at the ascending `epochs` that fall inside any of the
    disjoint, ascending windows [start, end)."""
    out = []
    for start, end in windows:
        out += items[bisect_left(epochs, start):bisect_left(epochs, end)]
    return out


def match_sessions(timeline: Timeline) -> list[AppNetworkSession]:
    """Partition traffic buckets into app-network sessions.

    An app event joins a bucket when its time falls within [st, st+duration),
    and the packages of a bucket's events are its matched set, which depends
    on the bucket's start alone. Buckets that matched nothing form runs per
    network: a bucket joins the run of the last such bucket on its network
    when that one starts at the same time or exactly one duration earlier,
    and a run at a single start is one session per bucket. The buckets of
    one start that matched packages are one session over all their
    networks, instead of attributing the same events to several networks at
    once, and it continues the session one duration earlier when the last
    bucket with one of its networks and its matched set starts there.

    Every input bucket lands in exactly one session, so byte totals over all
    sessions equal the input totals. Assigned IPs attach via lease SSID
    equality, falling back to time containment only when the session is not
    flagged with the several-networks ambiguity.
    """
    duration = timeline.bucket_duration
    records = timeline.records
    if not records:
        return []
    events = sorted(timeline.report.events_24h, key=_AT_EPOCH)
    event_epochs = list(map(_AT_EPOCH, events))
    event_packages = [e.package for e in events]
    starts = [rec.st.epoch for rec in records]
    networks = [rec.network_id for rec in records]
    traffic = [rec.has_traffic() for rec in records]
    matched = [
        frozenset(event_packages[bisect_left(event_epochs, st):bisect_left(event_epochs, st + duration)])
        for st in starts
    ]

    # One sweep in (start, network) order: the runs of unmatched buckets, the
    # matched ones by start, and the starts where several networks carried traffic.
    keys = list(zip(starts, networks))
    unmatched_runs: list[list[int]] = []
    tails: dict[str, list] = {}  # network -> [start, run] of its last bucket that matched nothing
    by_start: dict[int, list[int]] = {}  # start -> its buckets that matched packages, ascending
    ambiguous_starts = set()
    busy = (None, None)  # (start, network) of the last bucket with traffic
    for i in sorted(range(len(records)), key=keys.__getitem__):
        st, network = key = keys[i]
        if matched[i]:
            by_start.setdefault(st, []).append(i)
        elif (tail := tails.get(network)) is not None and st - tail[0] in (0, duration):
            tail[0] = st
            tail[1].append(i)
        else:
            unmatched_runs.append(run := [i])
            tails[network] = [st, run]
        if traffic[i]:
            if busy[0] == st and busy[1] != network:
                ambiguous_starts.add(st)
            busy = key

    # Groups keep sweep order. The final sort orders them; only runs split at
    # a single start tie there, and those stay in index order.
    groups: list[list[int]] = []
    for run in unmatched_runs:
        if starts[run[0]] == starts[run[-1]]:
            groups += ([i] for i in run)
        else:
            groups.append(run)
    track_starts: dict[tuple, int] = {}  # (network, matched set) -> start of its last bucket
    group_at: dict[int, list[int]] = {}  # start -> the group of its buckets
    for st, block in by_start.items():
        packages, group = matched[block[0]], None
        for i in block:
            track = networks[i], packages
            if track_starts.get(track) == st - duration:
                group = group_at[st - duration]
            track_starts[track] = st
        if group is None:
            groups.append(group := [])
        group += block
        group_at[st] = group

    aggregate_epochs = sorted(a.last_used.epoch for a in timeline.report.aggregates)
    lease_log = timeline.lease_log
    boot = lease_log.boot_epoch_marker
    leases = sorted(lease_log.leases, key=_AT_EPOCH)
    leases_by_network: dict[Optional[str], list[int]] = {}
    for k, lease in enumerate(leases):
        leases_by_network.setdefault(lease.network_id, []).append(k)
    unnamed = leases_by_network.pop(None, [])  # the SSID-less leases
    unnamed_epochs = [leases[k].at.epoch for k in unnamed]

    keyed = []
    for members in groups:
        group_starts = list(map(starts.__getitem__, members))  # ascending
        span_start, span_end = group_starts[0], group_starts[-1] + duration
        windows: list[list[int]] = []  # the buckets' [st, st + duration), joined where they meet
        for st in group_starts:
            if windows and st <= windows[-1][1]:
                windows[-1][1] = st + duration
            else:
                windows.append([st, st + duration])
        # Every record of a group matched the same packages, so every event
        # in its buckets belongs to the session.
        pkgs = tuple(sorted(matched[members[0]]))
        app_events = tuple(_in_windows(event_epochs, events, windows))

        flags = set()
        if not ambiguous_starts.isdisjoint(group_starts):
            flags.add(AmbiguityFlag.MULTI_NETWORK_SAME_BUCKET)
        if not app_events:
            has_traffic = any(map(traffic.__getitem__, members))
            agg_in_span = bisect_left(aggregate_epochs, span_start) < bisect_left(aggregate_epochs, span_end)
            if has_traffic or agg_in_span:
                flags.add(AmbiguityFlag.USAGE_EVIDENCE_EXPIRED)
        if boot is not None and span_start < boot.epoch:
            flags.add(AmbiguityFlag.LEASE_LOG_REBOOTED)

        # Leases attach by SSID equality, and an SSID-less one by time
        # containment, which is unsound when several networks share the hour.
        session_networks = tuple(sorted(set(map(networks.__getitem__, members))))
        chosen = [k for net in session_networks for k in leases_by_network.get(net, ())]
        if unnamed and AmbiguityFlag.MULTI_NETWORK_SAME_BUCKET not in flags:
            chosen += _in_windows(unnamed_epochs, unnamed, windows)
        resolved = tuple(map(leases.__getitem__, sorted(chosen)))

        buckets = tuple(map(records.__getitem__, members))
        session = AppNetworkSession(pkgs, app_events, buckets, resolved, frozenset(flags))
        keyed.append(((span_start, session_networks, pkgs), session))

    keyed.sort(key=itemgetter(0))  # the order of start_epoch, network_ids and packages
    return [session for _, session in keyed]


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
    return _first_pattern(packages, summary, _split_markers(rules))


def _split_markers(rules: Sequence[PatternRule]) -> list[tuple[PatternRule, frozenset, tuple]]:
    """Each rule with its exact markers as one set and its glob markers. A
    marker with no `*`, `?` or `[` matches, under `fnmatchcase`, only the
    package it names, so a set test stands for its matches."""
    split = []
    for rule in rules:
        globs = tuple(m for m in rule.package_markers if "*" in m or "?" in m or "[" in m)
        split.append((rule, frozenset(rule.package_markers).difference(globs), globs))
    return split


def _first_pattern(packages: Sequence[str], summary: DirectionSummary, split_rules) -> Optional[FindingPattern]:
    """`match_pattern` over rules split by `_split_markers`."""
    for rule, exact, globs in split_rules:
        if summary.total < rule.min_bytes or not _bias_satisfied(rule.direction_bias, summary):
            continue
        if (
            not rule.package_markers
            or not exact.isdisjoint(packages)
            or (globs and any(fnmatch.fnmatchcase(p, g) for p in packages for g in globs))
        ):
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
    split_rules = _split_markers(rules)
    for session in sessions:
        summary = grade_volume(session)
        pattern = _first_pattern(session.packages, summary, split_rules)
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


def event_records(events: Sequence[UsageEvent], times: TimeTable) -> Records:
    """The JSON form of usage events; each time is rendered by `times`, the document's table."""
    stamps, packages, event_types = zip(*events) if events else ((),) * 3
    ats = [s.epoch for s in stamps]
    columns = ats, list(map(times.__getitem__, ats)), packages, event_types
    return Records(("at", "rendered", "package", "event_type"), columns)


def bucket_records(buckets: Sequence[NetUsageRecord]) -> Records:
    """The JSON form of traffic buckets."""
    networks, starts, rb, rp, tb, tp, _ = zip(*buckets) if buckets else ((),) * 7
    return Records(("network_id", "st", "rb", "rp", "tb", "tp"), (networks, [s.epoch for s in starts], rb, rp, tb, tp))


def session_to_dict(session: AppNetworkSession, times: TimeTable) -> dict:
    """JSON form of a session; each time is rendered by `times`, the document's table."""
    start = session.app_start
    return {
        "packages": list(session.packages),
        "network_ids": list(session.network_ids),
        "app_start": start.epoch if start else None,
        "app_start_rendered": times[start.epoch] if start else None,
        "app_events": event_records(session.app_events, times),
        "buckets": bucket_records(session.buckets),
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


def finding_to_dict(finding: Finding, times: TimeTable) -> dict:
    """JSON form of a finding; each time is rendered by `times`, the document's table."""
    return {
        "pattern": finding.pattern.value,
        "confidence": finding.confidence.value,
        "session": session_to_dict(finding.session, times),
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
    times = TimeTable(zone, [e.at for f in findings for e in f.session.app_events])
    return {
        "schema": "watchtriage.findings/1",
        "bundle_manifest_digest": bundle_digest,
        "bucket_seconds": bucket_seconds,
        "finding_count": len(findings),
        "findings": [finding_to_dict(f, times) for f in findings],
        "warnings": list(warnings),
    }


def parse_document(timeline: Timeline, bundle_digest: Optional[str], zone: str, warnings: Sequence[str]) -> dict:
    """JSON-serializable document of the three parsed sources (the `parse`
    command's output); rendered times are in `zone`."""
    report, lease_log = timeline.report, timeline.lease_log
    boot = lease_log.boot_epoch_marker
    times = TimeTable(zone, [e.at for e in report.events_24h])
    windows, packages, last_used, use_counts = zip(*report.aggregates) if report.aggregates else ((),) * 4
    # An aggregate states its last use to the minute, never the second.
    aggregates = Records(("window", "package", "last_used", "use_count", "precision"), (
        [w.value for w in windows], packages, [s.epoch for s in last_used], use_counts, ["minute"] * len(windows)))
    return {
        "bundle_manifest_digest": bundle_digest,
        "usagestats": {
            "capture_time": report.capture_time.epoch,
            "events": event_records(report.events_24h, times),
            "aggregates": aggregates,
        },
        "netstats": bucket_records(timeline.records),
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
