"""Investigator-facing report rendering.

`render_report` builds the `watchtriage.report/1` JSON document once, with
each finding in `correlate.finding_to_dict`'s form, and the markdown report
is rendered from that document alone, so the two can never drift and a
finding is shown by one function. Reports are deterministic: identical
findings and bundle produce byte-identical output (no generation
timestamps), every timestamp carries an explicit zone offset, and every
finding block cites at least one evidence item digest.
"""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple, Sequence

from .correlate import AmbiguityFlag, Finding, Timeline, finding_to_dict
from .evidence import EvidenceBundle, RenderedTimes, SourceKind, one_line

LIMITATION_NOTES = {
    AmbiguityFlag.USAGE_EVIDENCE_EXPIRED: (
        "24-hour precision decay: app usage detail is retained for only 24 hours "
        "before the dump; older activity survives only as coarse last-used "
        "aggregates, so these sessions carry traffic without a second-precision "
        "app event."
    ),
    AmbiguityFlag.MULTI_NETWORK_SAME_BUCKET: (
        "same-hour network ambiguity: traffic accounting is hourly, and several "
        "networks carried traffic in one bucket start; lease-to-network "
        "attribution by time alone was withheld for these sessions."
    ),
    AmbiguityFlag.LEASE_LOG_REBOOTED: (
        "lease log volatility: the DHCP lease log does not survive a reboot, so "
        "IP corroboration is unavailable for sessions predating the boot marker."
    ),
}


class ReportDocument(NamedTuple):
    """The report JSON document; the markdown is rendered from it."""

    data: dict

    @property
    def timeline_rows(self) -> list[dict]:
        return self.data["timeline"]

    def to_markdown(self) -> str:
        data = self.data
        zone = data["display_zone"]
        times = RenderedTimes(zone)
        lines = ["# Smartwatch exfiltration triage report", ""]
        lines.append(f"Bundle: `{one_line(data['bundle_manifest_digest'])}`  ")
        lines.append(f"Display zone: {zone}")
        lines.append("")
        lines.append(f"## Findings ({data['finding_count']})")
        lines.append("")
        if not data["findings"]:
            lines.append("No detections: no session met any pattern rule or volume threshold.")
            lines.append("")
        for i, f in enumerate(data["findings"], 1):
            sess = f["session"]
            lines.append(f"### {i}. {f['pattern']} ({f['confidence']})")
            lines.append("")
            packages = one_line(", ".join(sess["packages"]))
            lines.append(f"- Packages: {packages or '(no in-window app evidence)'}")
            lines.append(f"- App start: {sess['app_start_rendered'] or 'unknown (usage detail expired)'}")
            lines.append(f"- Networks: {one_line(', '.join(sess['network_ids']))}")
            buckets = ", ".join(f"{b['st']} ({times[b['st']]})" for b in sess["buckets"])
            lines.append(f"- Bucket starts: {buckets}")
            lines.append(f"- Bytes in / out: {f['bytes_in']:,} / {f['bytes_out']:,}")
            lines.append(f"- Resolved private IPs: {', '.join(sess['resolved_ips']) or 'none'}")
            parts = [
                f"{c['protocol']} client entry {c['host']}:{c['port']} ({c['source_file']})"
                if c["kind"] == "ftp_client_entry"
                else f"known_hosts entry {c['host']}:{c['port']}"
                for c in f["host_corroboration"]
            ]
            lines.append(f"- Host corroboration: {'; '.join(parts) or 'none'}")
            lines.append(f"- Ambiguity flags: {', '.join(sess['ambiguity_flags']) or 'none'}")
            digests = ", ".join(f"`{one_line(d)}`" for d in f["evidence_digests"])
            lines.append(f"- Evidence: {digests}")
            lines.append("")
        if data["timeline"]:
            lines.append("## Timeline")
            lines.append("")
            lines.append("| Time | Source | Event |")
            lines.append("| --- | --- | --- |")
            # Event text quotes evidence (an SSID, say): with its line breaks
            # and "|" escaped, it stays in its cell.
            for row in data["timeline"]:
                event = one_line(row["event"]).replace("|", "\\|")
                lines.append(f"| {row['time']} | {row['source']} | {event} |")
            lines.append("")
        lines.append("## Limitations")
        lines.append("")
        for note in data["limitations"] or ["none observed in this bundle"]:
            lines.append(f"- {note}")
        lines.append("")
        if data["warnings"]:
            lines.append("## Warnings")
            lines.append("")
            for w in data["warnings"]:
                lines.append(f"- {one_line(w)}")
            lines.append("")
        return "\n".join(lines)


def attach_evidence_digests(
    findings: Sequence[Finding],
    bundle: EvidenceBundle,
    host_items: Sequence = (),
) -> list[Finding]:
    """Fill each finding's evidence citations from the bundle's items.

    Buckets cite the netstats item, app events the usagestats item, resolved
    IPs the network_stack item, and host corroboration the digests of the
    PC-side files. Every finding references traffic, so every finding ends up
    citing at least one item.
    """
    by_kind: dict[SourceKind, list[str]] = {}
    for item in bundle.items:
        by_kind.setdefault(item.source_kind, []).append(item.raw_bytes_digest)
    for item in host_items:
        by_kind.setdefault(item.source_kind, []).append(item.raw_bytes_digest)

    out = []
    for f in findings:
        digests: list[str] = []
        digests.extend(by_kind.get(SourceKind.NETSTATS, ()))
        if f.session.app_events:
            digests.extend(by_kind.get(SourceKind.USAGESTATS, ()))
        if f.session.resolved_leases:
            digests.extend(by_kind.get(SourceKind.NETWORK_STACK, ()))
        if f.host_corroboration:
            for kind in (SourceKind.RECENTSERVERS_XML, SourceKind.FILEZILLA_XML, SourceKind.KNOWN_HOSTS):
                digests.extend(by_kind.get(kind, ()))
        if not digests:
            raise ValueError(
                "cannot cite evidence: bundle has no netstats item yet findings reference traffic"
            )
        out.append(f._replace(evidence_digests=tuple(dict.fromkeys(digests))))  # dedupe, keep order
    return out


def render_report(
    findings: Sequence[Finding],
    bundle: EvidenceBundle,
    timeline: Timeline,
    display_zone: str,
    warnings: Sequence[str] = (),
) -> ReportDocument:
    """The report document for findings that already cite their evidence
    (attach_evidence_digests); rendered times are in `display_zone`, and
    each instant is rendered once for the whole document."""
    # Every source event once, ascending; ties keep source order. Traffic
    # buckets are anchored at their window close (st + duration), so an app
    # start inside a bucket precedes the traffic covering it. A close is
    # rendered at its row's first lookup, in source order, so the first
    # one out of range raises, as when each row built its instant.
    events, lease_events = timeline.report.events_24h, timeline.lease_log.leases
    times = RenderedTimes(display_zone, [*(ev.at for ev in events), *(lease.at for lease in lease_events)])
    usage, traffic, leases = SourceKind.USAGESTATS.value, SourceKind.NETSTATS.value, SourceKind.NETWORK_STACK.value
    rows = []
    for ev in events:
        epoch = ev.at.epoch
        rows.append((epoch, {"time": times[epoch], "source": usage, "event": f"{ev.event_type} {ev.package}"}))
    duration = timeline.bucket_duration
    for rec in timeline.records:
        st = rec.st.epoch
        close = st + duration
        text = f"traffic bucket {rec.network_id} st={st} rb={rec.rb} tb={rec.tb}"
        rows.append((close, {"time": times[close], "source": traffic, "event": text}))
    for lease in lease_events:
        epoch = lease.at.epoch
        ssid = f" ssid={lease.network_id}" if lease.network_id else ""
        text = f"{lease.event_kind.value} {lease.interface} ip={lease.private_ip}{ssid}"
        rows.append((epoch, {"time": times[epoch], "source": leases, "event": text}))
    rows.sort(key=itemgetter(0))

    finding_dicts = [finding_to_dict(f, times) for f in findings]
    flags = sorted({flag for f in finding_dicts for flag in f["session"]["ambiguity_flags"]})
    return ReportDocument(
        {
            "schema": "watchtriage.report/1",
            "bundle_manifest_digest": bundle.bundle_manifest_digest,
            "display_zone": display_zone,
            "finding_count": len(finding_dicts),
            "findings": finding_dicts,
            "timeline": [row for _, row in rows],
            "limitations": [LIMITATION_NOTES[AmbiguityFlag(flag)] for flag in flags],
            "warnings": list(warnings),
        }
    )
