"""Ground-truth crime scenarios rendered as synthetic dumps and host artifacts.

A Scenario is the authoritative record of what happened on the watch: app
sessions, Wi-Fi sessions with byte totals and assigned IPs, reboots, and
what the paired PC kept. Renderers turn it into the canonical fixture
grammar (docs/fixture-grammar.md); `oracle_findings` computes the expected
correlation output directly from the ground truth, without going through
the parsers, so the full pipeline can be checked against it.

Rendering honors the source services' retention semantics: usage events only
within 24 hours of the capture time (older sessions appear in aggregates
alone), netstats buckets conserve byte totals exactly, and the lease log
contains nothing from before the last reboot.
"""

from __future__ import annotations

import base64
import ipaddress
import random
import re
import struct
from bisect import bisect_left
from pathlib import Path
from typing import NamedTuple, Optional, Sequence, get_type_hints

from .correlate import (
    DEFAULT_RULES,
    AmbiguityFlag,
    Confidence,
    DirectionSummary,
    Finding,
    PatternRule,
    _first_pattern,
    _split_markers,
    finding_to_dict,
)
from .evidence import DEFAULT_DISPLAY_ZONE, MAX_EPOCH, json_field, json_list, load_json, zone_name
from .timetable import TimeTable

USAGE_WINDOW_SECONDS = 24 * 3600
AGGREGATE_WINDOWS = (("week", 7 * 86400), ("month", 30 * 86400), ("year", 365 * 86400))
_WHITESPACE = re.compile(r"\s")  # what str.isspace() takes
_SURROGATE = re.compile("[\ud800-\udfff]")  # what UTF-8 cannot encode


class AppSession(NamedTuple):
    package: str
    start: int
    end: int


class WifiSession(NamedTuple):
    ssid: str
    start: int
    end: int
    bytes_in: int
    bytes_out: int
    assigned_ip: str


class HostArtifactSpec(NamedTuple):
    kind: str  # "recentservers" | "known_hosts"
    host: str
    port: int
    protocol: str = "ftp"  # recentservers only


class Scenario(NamedTuple):
    capture_time: int
    app_sessions: tuple[AppSession, ...] = ()
    wifi_sessions: tuple[WifiSession, ...] = ()
    reboots: tuple[int, ...] = ()
    host_side: tuple[HostArtifactSpec, ...] = ()
    display_zone: str = DEFAULT_DISPLAY_ZONE
    leases_carry_ssid: bool = True


def validate(s: Scenario):
    """Raise ValueError naming the first violated invariant."""
    if not 0 <= s.capture_time <= MAX_EPOCH:
        raise ValueError(f"capture_time must be between 0 and {MAX_EPOCH}, got {s.capture_time}")
    zone_name(s.display_zone)
    for i, a in enumerate(s.app_sessions):
        if not a.package:
            raise ValueError(f"app_sessions[{i}]: package must be non-empty")
        if _WHITESPACE.search(a.package) or _SURROGATE.search(a.package):
            raise ValueError(f"app_sessions[{i}]: package {a.package!r} must hold no whitespace or lone surrogate")
        if not a.start < a.end:
            raise ValueError(f"app_sessions[{i}]: start must precede end")
        if a.end > s.capture_time:
            raise ValueError(f"app_sessions[{i}]: ends after capture_time")
        if a.start < 0:
            raise ValueError(f"app_sessions[{i}]: start must be >= 0")
    for i, w in enumerate(s.wifi_sessions):
        if '"' in w.ssid or "\n" in w.ssid or _SURROGATE.search(w.ssid):
            raise ValueError(f"wifi_sessions[{i}]: ssid {w.ssid!r} must hold no '\"', line break or lone surrogate")
        if not w.start < w.end:
            raise ValueError(f"wifi_sessions[{i}]: start must precede end")
        if w.end > s.capture_time:
            raise ValueError(f"wifi_sessions[{i}]: ends after capture_time")
        if w.start < 0:
            raise ValueError(f"wifi_sessions[{i}]: start must be >= 0")
        if w.bytes_in < 0 or w.bytes_out < 0:
            raise ValueError(f"wifi_sessions[{i}]: byte counts must be >= 0")
        try:
            ipaddress.IPv4Address(w.assigned_ip)
        except ipaddress.AddressValueError:
            raise ValueError(f"wifi_sessions[{i}]: assigned_ip {w.assigned_ip!r} is not valid IPv4")
    for i, h in enumerate(s.host_side):
        if h.kind not in ("recentservers", "known_hosts"):
            raise ValueError(f"host_side[{i}]: unknown artifact kind {h.kind!r}")
        if not 1 <= h.port <= 65535:
            raise ValueError(f"host_side[{i}]: port out of range")
        # A known_hosts line splits at whitespace and ','; XML and UTF-8
        # carry no control character or lone surrogate.
        if not h.host.isprintable() or "," in h.host or _WHITESPACE.search(h.host):
            raise ValueError(f"host_side[{i}]: host {h.host!r} must be printable, with no whitespace or ','")


def last_reboot_before_capture(s: Scenario) -> Optional[int]:
    past = [r for r in s.reboots if r <= s.capture_time]
    return max(past) if past else None


def _split_bytes(total: int, overlaps: Sequence[int]) -> list[int]:
    # Proportional split with exact conservation (cumulative flooring).
    span = sum(overlaps)
    out, acc, cum = [], 0, 0
    for o in overlaps:
        cum += o
        target = total * cum // span
        out.append(target - acc)
        acc = target
    return out


def _packets(nbytes: int) -> int:
    return (nbytes + 1399) // 1400


def bucketize_session(w: WifiSession, duration: int = 3600) -> list[tuple[int, int, int, int, int]]:
    """Split one Wi-Fi session into (st, rb, rp, tb, tp) bucket rows."""
    sts = []
    st = (w.start // duration) * duration
    while st < w.end:
        sts.append(st)
        st += duration
    overlaps = [min(w.end, st + duration) - max(w.start, st) for st in sts]
    rbs = _split_bytes(w.bytes_in, overlaps)
    tbs = _split_bytes(w.bytes_out, overlaps)
    return [(st, rb, _packets(rb), tb, _packets(tb)) for st, rb, tb in zip(sts, rbs, tbs)]


def ground_truth_records(s: Scenario, duration: int = 3600) -> list[tuple[str, int, int, int, int, int]]:
    """Merged (ssid, st, rb, rp, tb, tp) rows, one per (ssid, st)."""
    merged: dict[tuple[str, int], list[int]] = {}  # in first-seen order
    for w in s.wifi_sessions:
        for st, rb, rp, tb, tp in bucketize_session(w, duration):
            row = merged.setdefault((w.ssid, st), [0, 0, 0, 0])
            row[0] += rb
            row[1] += rp
            row[2] += tb
            row[3] += tp
    return [(ssid, st, *row) for (ssid, st), row in merged.items()]


def ground_truth_events(s: Scenario) -> list[tuple[str, str, int]]:
    """(package, event_type, epoch) rows inside the 24h detail window."""
    window_start = s.capture_time - USAGE_WINDOW_SECONDS
    out = []
    for a in s.app_sessions:
        for event_type, t in (("ACTIVITY_RESUMED", a.start), ("ACTIVITY_PAUSED", a.end)):
            if window_start <= t <= s.capture_time:
                out.append((a.package, event_type, t))
    out.sort(key=lambda e: e[2])
    return out


def ground_truth_aggregates(s: Scenario) -> list[tuple[str, str, int, int]]:
    """(window, package, last_used_minute, use_count) rows per window."""
    out = []
    packages = dict.fromkeys(a.package for a in s.app_sessions)  # in first-seen order
    for window, secs in AGGREGATE_WINDOWS:
        stats: dict[str, tuple[int, int]] = {}  # package -> (last end, count)
        for a in s.app_sessions:
            if a.end >= s.capture_time - secs:
                last, count = stats.get(a.package, (a.end, 0))
                stats[a.package] = (max(last, a.end), count + 1)
        for pkg in packages:
            if pkg in stats:
                last, count = stats[pkg]
                out.append((window, pkg, last - last % 60, count))
    return out


def ground_truth_leases(s: Scenario) -> list[tuple[int, str, Optional[str]]]:
    """(epoch, ip, ssid-or-None) rows surviving the last reboot."""
    boot = last_reboot_before_capture(s)
    out = []
    for w in s.wifi_sessions:
        if boot is not None and w.start < boot:
            continue
        out.append((w.start, w.assigned_ip, w.ssid if s.leases_carry_ssid else None))
    out.sort(key=lambda l: l[0])
    return out


def render_dumps(s: Scenario, duration: int = 3600) -> tuple[str, str, str]:
    """Render (usagestats, netstats, network_stack) fixture texts."""
    validate(s)
    times = TimeTable(s.display_zone)  # `times[t][:19]` is `Timestamp(t).wall(zone)`

    # usagestats
    lines = ["DUMP OF SERVICE usagestats:"]
    lines.append(f'  capture-time="{times[s.capture_time][:19]}"')
    lines.append("  Last 24 hour events:")
    for pkg, event_type, t in ground_truth_events(s):
        lines.append(f'    time="{times[t][:19]}" type={event_type} package={pkg}')
    aggregates = ground_truth_aggregates(s)
    for window, _secs in AGGREGATE_WINDOWS:
        rows = [a for a in aggregates if a[0] == window]
        if not rows:
            continue
        lines.append(f"  {window.capitalize()}ly stats:")
        for _w, pkg, last_minute, count in rows:
            lines.append(
                f'    package={pkg} lastTimeUsed="{times[last_minute][:16]}" totalCount={count}'
            )
    usagestats = "\n".join(lines) + "\n"

    # netstats
    lines = ["DUMP OF SERVICE netstats:", "  Xt stats:"]
    rows_by_ssid: dict[str, list[str]] = {}  # in first-seen order
    for ssid, st, rb, rp, tb, tp in ground_truth_records(s, duration):
        rows_by_ssid.setdefault(ssid, []).append(f"        st={st} rb={rb} rp={rp} tb={tb} tp={tp}")
    for ssid, rows in rows_by_ssid.items():
        lines.append(f'    ident=[{{type=WIFI, networkId="{ssid}"}}]')
        lines.append(f"      NetworkStatsHistory: bucketDuration={duration}")
        lines.extend(rows)
    netstats = "\n".join(lines) + "\n"

    # network_stack
    lines = ["DUMP OF SERVICE network_stack:"]
    boot = last_reboot_before_capture(s)
    if boot is not None:
        lines.append(f'  bootTime="{times[boot][:19]}"')
    for at, ip, ssid in ground_truth_leases(s):
        ssid_part = f' ssid="{ssid}"' if ssid is not None else ""
        lines.append(f'  time="{times[at][:19]}" iface=wlan0 event=DHCP_ACK ip={ip}{ssid_part}')
    network_stack = "\n".join(lines) + "\n"

    return usagestats, netstats, network_stack


def _ssh_key_blob(host: str, port: int) -> str:
    # Deterministic, wire-format-correct ed25519 public key blob.
    import hashlib

    key = hashlib.sha256(f"{host}:{port}".encode()).digest()
    algo = b"ssh-ed25519"
    blob = struct.pack(">I", len(algo)) + algo + struct.pack(">I", len(key)) + key
    return base64.b64encode(blob).decode()


def render_host_artifacts(s: Scenario) -> tuple[str, str]:
    """Render (recentservers-style XML, known_hosts text) for host_side."""
    validate(s)
    protocol_codes = {"ftp": "0", "sftp": "1", "ftps": "3"}
    xml_lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<FileZilla3 version="3.66.4" platform="windows">',
        "  <RecentServers>",
    ]
    for h in s.host_side:
        if h.kind != "recentservers":
            continue
        code = protocol_codes.get(h.protocol, h.protocol)
        xml_lines.extend(
            [
                "    <Server>",
                f"      <Host>{h.host.replace('&', '&amp;').replace('<', '&lt;').replace('>', '&gt;')}</Host>",
                f"      <Port>{h.port}</Port>",
                f"      <Protocol>{code}</Protocol>",
                "      <Type>0</Type>",
                "      <Logontype>0</Logontype>",
                "    </Server>",
            ]
        )
    xml_lines.extend(["  </RecentServers>", "</FileZilla3>"])
    filezilla_xml = "\n".join(xml_lines) + "\n"

    kh_lines = []
    for h in s.host_side:
        if h.kind != "known_hosts":
            continue
        pattern = h.host if h.port == 22 else f"[{h.host}]:{h.port}"
        kh_lines.append(f"{pattern} ssh-ed25519 {_ssh_key_blob(h.host, h.port)}")
    known_hosts = ("\n".join(kh_lines) + "\n") if kh_lines else ""
    return filezilla_xml, known_hosts


# --- Oracle ----------------------------------------------------------------
#
# Expected findings computed straight from the scenario's ground truth.
# This deliberately re-derives the session semantics with a different
# algorithm from the correlator's (connected components of the graph whose
# edges are the `joinable` row pairs) so it can stand as an independent
# check of it. A row's work is a lookup, not a scan of every row or event:
# a bucket's events are a bisected slice of the time-sorted events, a row's
# possible neighbours are looked up by (network, start) and by start, and
# expired usage is one bisect into the sorted last-used minutes. Only the
# lease loop still visits every lease for every session.


def oracle_findings(
    s: Scenario,
    rules: Sequence[PatternRule] = DEFAULT_RULES,
    duration: int = 3600,
) -> list[tuple]:
    """Expected finding fingerprints for a scenario (sorted)."""
    validate(s)
    records = ground_truth_records(s, duration)
    events = ground_truth_events(s)
    aggregates = ground_truth_aggregates(s)
    leases = ground_truth_leases(s)
    boot = last_reboot_before_capture(s)
    n = len(records)
    event_times = [t for _pkg, _typ, t in events]  # ascending

    def in_bucket(t: int, st: int) -> bool:
        return st <= t < st + duration

    def bucket_events(st: int) -> list[tuple[str, str, int]]:
        # The events in [st, st + duration): a slice of the time-sorted events.
        return events[bisect_left(event_times, st):bisect_left(event_times, st + duration)]

    matched = [frozenset(pkg for pkg, _typ, _t in bucket_events(st)) for _ssid, st, *_ in records]

    def joinable(i: int, j: int) -> bool:
        if matched[i] != matched[j]:
            return False
        same_net = records[i][0] == records[j][0]
        contiguous = abs(records[i][1] - records[j][1]) == duration
        shared_start = records[i][1] == records[j][1]
        return (same_net and contiguous) or (shared_start and bool(matched[i]))

    # joinable(i, j) needs the same network one duration apart or a shared
    # start, so the rows at (ssid, st - duration), (ssid, st + duration) and
    # st are every row that can join the row at (ssid, st).
    row_at = {(ssid, st): i for i, (ssid, st, *_) in enumerate(records)}  # one row per (ssid, st)
    rows_at_start: dict[int, list[int]] = {}
    for i, (_ssid, st, *_) in enumerate(records):
        rows_at_start.setdefault(st, []).append(i)

    def candidates(i: int) -> list[int]:
        ssid, st = records[i][0], records[i][1]
        apart = [row_at[key] for key in ((ssid, st - duration), (ssid, st + duration)) if key in row_at]
        return apart + rows_at_start[st]

    adjacent = [[j for j in candidates(i) if j != i and joinable(i, j)] for i in range(n)]
    groups: list[list[int]] = []
    seen = [False] * n
    for root in range(n):
        if not seen[root]:
            seen[root] = True
            group, stack = [], [root]
            while stack:
                i = stack.pop()
                group.append(i)
                for j in adjacent[i]:
                    if not seen[j]:
                        seen[j] = True
                        stack.append(j)
            groups.append(group)

    by_start: dict[int, set[str]] = {}
    for ssid, st, rb, rp, tb, tp in records:
        if rb + rp + tb + tp > 0:
            by_start.setdefault(st, set()).add(ssid)
    multi_starts = {st for st, nets in by_start.items() if len(nets) >= 2}
    last_used = sorted(last for _w, _p, last, _c in aggregates)
    split_rules = _split_markers(rules)  # once per call, as corroborate does

    fingerprints = []
    for group in groups:
        rows = sorted(group, key=lambda i: (records[i][1], records[i][0]))
        buckets = [records[i] for i in rows]
        pkgs = tuple(sorted(matched[group[0]]))
        span_start = min(b[1] for b in buckets)
        span_end = max(b[1] for b in buckets) + duration

        flags = set()
        if any(b[1] in multi_starts for b in buckets):
            flags.add(AmbiguityFlag.MULTI_NETWORK_SAME_BUCKET)
        # Every bucket of the group holds events of exactly `pkgs`, so the
        # group has usage events if and only if it has packages.
        if not pkgs:
            has_traffic = any(sum(b[2:]) > 0 for b in buckets)
            k = bisect_left(last_used, span_start)
            agg_in_span = k < len(last_used) and last_used[k] < span_end
            if has_traffic or agg_in_span:
                flags.add(AmbiguityFlag.USAGE_EVIDENCE_EXPIRED)
        if boot is not None and span_start < boot:
            flags.add(AmbiguityFlag.LEASE_LOG_REBOOTED)

        networks = {b[0] for b in buckets}
        resolved = set()
        for at, ip, ssid in leases:
            if ssid is not None:
                if ssid in networks:
                    resolved.add(ip)
            elif AmbiguityFlag.MULTI_NETWORK_SAME_BUCKET not in flags:
                if any(in_bucket(at, b[1]) for b in buckets):
                    resolved.add(ip)

        bytes_in = sum(b[2] for b in buckets)
        bytes_out = sum(b[4] for b in buckets)
        summary = DirectionSummary(bytes_in, bytes_out)
        pattern = _first_pattern(pkgs, summary, split_rules)
        if pattern is None:
            continue

        corroboration = sorted(
            ("ftp_client" if h.kind == "recentservers" else "known_host", h.host, h.port)
            for h in s.host_side
            if h.host in resolved
        )
        if corroboration:
            confidence = Confidence.CORROBORATED
        elif flags & {AmbiguityFlag.MULTI_NETWORK_SAME_BUCKET, AmbiguityFlag.USAGE_EVIDENCE_EXPIRED}:
            confidence = Confidence.AMBIGUOUS
        else:
            confidence = Confidence.CONSISTENT

        fingerprints.append(
            (
                pattern.value,
                confidence.value,
                tuple(sorted(f.value for f in flags)),
                pkgs,
                bytes_in,
                bytes_out,
                tuple(sorted((b[0], b[1], b[2], b[3], b[4], b[5]) for b in buckets)),
                tuple(sorted(resolved)),
                tuple(corroboration),
            )
        )
    fingerprints.sort()
    return fingerprints


def finding_fingerprint(finding: Finding) -> tuple:
    """Canonical comparable form of a correlator finding (matches the oracle),
    read from its JSON form; no rendered time enters it."""
    f = finding_to_dict(finding, TimeTable("UTC"))
    sess = f["session"]
    corroboration = sorted(
        ("ftp_client" if c["kind"] == "ftp_client_entry" else "known_host", c["host"], c["port"])
        for c in f["host_corroboration"]
    )
    return (
        f["pattern"],
        f["confidence"],
        tuple(sess["ambiguity_flags"]),
        tuple(sess["packages"]),
        f["bytes_in"],
        f["bytes_out"],
        tuple(sorted((b["network_id"], b["st"], b["rb"], b["rp"], b["tb"], b["tp"]) for b in sess["buckets"])),
        tuple(sess["resolved_ips"]),
        tuple(corroboration),
    )


# --- Presets mirroring the three field scenarios ----------------------------

_KST = "Asia/Seoul"

FTP_PACKAGE = "com.corproxy.files"
SFTP_PACKAGE = "net.xnano.android.sshserver"
CAMERA_PACKAGE = "com.view.ppcs"


def preset_ftp_file_server() -> Scenario:
    """Watch ran an FTP server; the PC pulled ~47 MB over KT_GiGA_5G_EFB7."""
    return Scenario(
        capture_time=1683766560,  # 2023-05-11 09:56 KST
        app_sessions=(
            AppSession(FTP_PACKAGE, 1683735256, 1683737560),  # 01:14:16 - 01:52:40
        ),
        wifi_sessions=(
            WifiSession("KT_GiGA_5G_EFB7", 1683735270, 1683737400, 47_185_920, 1_048_576, "172.30.1.76"),
            # unattributed background sync, below any reporting threshold
            WifiSession("KT_GiGA_5G_EFB7", 1683761400, 1683762300, 2_607_104, 301_568, "172.30.1.76"),
        ),
        host_side=(HostArtifactSpec("recentservers", "172.30.1.76", 2221, "ftp"),),
        display_zone=_KST,
    )


def preset_sftp_server() -> Scenario:
    """Sideloaded SSH server on the watch; PC connected over outgoingowl."""
    return Scenario(
        capture_time=1683809100,  # 2023-05-11 21:45 KST
        app_sessions=(
            AppSession(SFTP_PACKAGE, 1683807006, 1683808680),  # 21:10:06 - 21:38:00
        ),
        wifi_sessions=(
            WifiSession("outgoingowl", 1683807015, 1683808560, 58_327_040, 2_097_152, "192.162.35.52"),
        ),
        host_side=(HostArtifactSpec("known_hosts", "192.162.35.52", 2222),),
        display_zone=_KST,
    )


def preset_hidden_camera() -> Scenario:
    """Camera control app: one in-window use plus an older traffic-only hour."""
    return Scenario(
        capture_time=1683637200,  # 2023-05-09 22:00 KST
        app_sessions=(
            AppSession(CAMERA_PACKAGE, 1683547440, 1683550560),  # May 8 21:04 - 21:56, expired
            AppSession(CAMERA_PACKAGE, 1683608361, 1683609610),  # May 9 13:59:21 - 14:20:10
        ),
        wifi_sessions=(
            WifiSession("F818026FNMEN", 1683547500, 1683550500, 524_288, 125_829_120, "192.168.4.2"),
            WifiSession("F818026FNMEN", 1683608370, 1683609570, 204_800, 31_092_736, "192.168.4.2"),
        ),
        display_zone=_KST,
    )


def preset_case_study() -> Scenario:
    """All three behaviors on one watch, dumped 2023-05-11 21:45 KST."""
    return Scenario(
        capture_time=1683809100,
        app_sessions=(
            AppSession(FTP_PACKAGE, 1683735256, 1683737560),
            AppSession(SFTP_PACKAGE, 1683807006, 1683808680),
            AppSession(CAMERA_PACKAGE, 1683608361, 1683609610),  # expired at this capture
        ),
        wifi_sessions=(
            WifiSession("KT_GiGA_5G_EFB7", 1683735270, 1683737400, 47_185_920, 1_048_576, "172.30.1.76"),
            WifiSession("outgoingowl", 1683807015, 1683808560, 58_327_040, 2_097_152, "192.162.35.52"),
            WifiSession("F818026FNMEN", 1683608370, 1683609570, 204_800, 31_092_736, "192.168.4.2"),
        ),
        host_side=(
            HostArtifactSpec("recentservers", "172.30.1.76", 2221, "ftp"),
            HostArtifactSpec("known_hosts", "192.162.35.52", 2222),
        ),
        display_zone=_KST,
    )


def preset_same_start_ambiguity() -> Scenario:
    """Two SSIDs carry traffic in one bucket start covering one app event."""
    return Scenario(
        capture_time=1683809100,
        app_sessions=(
            AppSession(FTP_PACKAGE, 1683804600, 1683805800),  # 20:30 - 20:50
        ),
        wifi_sessions=(
            WifiSession("KT_GiGA_5G_EFB7", 1683804300, 1683806100, 25_165_824, 1_048_576, "172.30.1.76"),
            WifiSession("outgoingowl", 1683804480, 1683805920, 18_874_368, 524_288, "192.168.0.7"),
        ),
        host_side=(HostArtifactSpec("recentservers", "172.30.1.76", 2221, "ftp"),),
        display_zone=_KST,
        leases_carry_ssid=False,  # leases attributable by time alone, which is unsound here
    )


PRESETS = {
    "ftp": preset_ftp_file_server,
    "sftp": preset_sftp_server,
    "camera": preset_hidden_camera,
    "case-study": preset_case_study,
    "ambiguous": preset_same_start_ambiguity,
}


# --- Randomized generation ---------------------------------------------------

_PACKAGE_POOL = (
    FTP_PACKAGE,
    SFTP_PACKAGE,
    CAMERA_PACKAGE,
    "com.google.android.wearable.healthservices",
    "com.samsung.android.watch.weather",
    "com.spotify.wear",
    "com.example.notes",
    "com.fitness.tracker",
    "org.chat.relay",
    "com.maps.lite",
)

_SSID_POOL = (
    "KT_GiGA_5G_EFB7",
    "outgoingowl",
    "F818026FNMEN",
    "CoffeeBeanGuest",
    "iptime2G",
    "OfficeNet-Sec",
    "SK_WiFiGIGA1",
    "U+NetA1B2",
)

_BASE_CAPTURE = 1683809100  # 2023-05-11 21:45 KST
# Bounds of a random scenario: at most this many apps and networks, every
# session inside the span before the capture.
_MAX_APPS = 8
_MAX_NETWORKS = 8
_SPAN_HOURS = 72


def random_scenario(seed: int) -> Scenario:
    """Seeded, bounds-limited random scenario for round-trip and oracle tests."""
    rng = random.Random(seed)
    capture = _BASE_CAPTURE
    horizon = capture - _SPAN_HOURS * 3600

    packages = rng.sample(_PACKAGE_POOL, rng.randint(0, _MAX_APPS))
    app_sessions = []
    for pkg in packages:
        for _ in range(rng.randint(1, 2)):
            start = rng.randrange(horizon, capture - 120)
            end = min(capture, start + rng.randrange(60, 7200))
            app_sessions.append(AppSession(pkg, start, end))

    ssids = rng.sample(_SSID_POOL, rng.randint(1, _MAX_NETWORKS))
    wifi_sessions = []
    for ssid in ssids:
        ip = f"192.168.{rng.randrange(0, 32)}.{rng.randrange(2, 250)}"
        for _ in range(rng.randint(1, 2)):
            start = rng.randrange(horizon, capture - 300)
            end = min(capture, start + rng.randrange(300, 10800))
            profile = rng.random()
            if profile < 0.2:
                bytes_in, bytes_out = 0, 0
            elif profile < 0.5:
                bytes_in = rng.randrange(0, 5_000_000)
                bytes_out = rng.randrange(0, 5_000_000)
            else:
                bytes_in = rng.randrange(0, 150_000_000)
                bytes_out = rng.randrange(0, 150_000_000)
            wifi_sessions.append(WifiSession(ssid, start, end, bytes_in, bytes_out, ip))

    reboots = []
    roll = rng.random()
    if roll < 0.1:
        reboots = sorted(rng.randrange(horizon, capture) for _ in range(2))
    elif roll < 0.45:
        reboots = [rng.randrange(horizon, capture)]

    host_side = []
    for w in rng.sample(wifi_sessions, min(len(wifi_sessions), 2)):
        if rng.random() < 0.5:
            kind = rng.choice(("recentservers", "known_hosts"))
            port = rng.choice((21, 22, 2221, 2222, 8021))
            host_side.append(HostArtifactSpec(kind, w.assigned_ip, port, rng.choice(("ftp", "sftp"))))
    if rng.random() < 0.3:
        host_side.append(HostArtifactSpec("recentservers", "10.9.8.7", 21, "ftp"))

    return Scenario(
        capture_time=capture,
        app_sessions=tuple(app_sessions),
        wifi_sessions=tuple(wifi_sessions),
        reboots=tuple(reboots),
        host_side=tuple(host_side),
        display_zone=_KST,
        leases_carry_ssid=rng.random() < 0.7,
    )


# --- Scenario file I/O -------------------------------------------------------


def scenario_to_dict(s: Scenario) -> dict:
    """The scenario as a JSON object in field order, each record an object."""
    doc = s._asdict()
    for key in ("app_sessions", "wifi_sessions", "host_side"):
        doc[key] = [r._asdict() for r in doc[key]]
    return doc


def _records(cls, data: dict, key: str) -> tuple:
    """The `cls` records the JSON objects in `data[key]` hold, each field of
    the JSON type its annotation names; an absent field takes its default."""
    types = get_type_hints(cls)  # the classes, not PEP 563's strings
    return tuple(
        cls(**{name: json_field(obj, name, types[name])
               for name in cls._fields if name in obj or name not in cls._field_defaults})
        for obj in json_list(data, key, dict)
    )


def scenario_from_dict(data: dict) -> Scenario:
    s = Scenario(
        capture_time=json_field(data, "capture_time", int),
        app_sessions=_records(AppSession, data, "app_sessions"),
        wifi_sessions=_records(WifiSession, data, "wifi_sessions"),
        reboots=json_list(data, "reboots", int),
        host_side=_records(HostArtifactSpec, data, "host_side"),
        display_zone=json_field(data, "display_zone", str, DEFAULT_DISPLAY_ZONE),
        leases_carry_ssid=json_field(data, "leases_carry_ssid", bool, True),
    )
    validate(s)
    return s


def load_scenario(path: Path) -> Scenario:
    return load_json(path, "scenario", scenario_from_dict)
