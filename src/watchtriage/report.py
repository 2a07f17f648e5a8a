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

from dataclasses import dataclass, replace
from typing import Sequence

from .correlate import AmbiguityFlag, Finding, Timeline, finding_to_dict
from .evidence import EvidenceBundle, SourceKind, Timestamp

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


class ReportError(Exception):
    pass


@dataclass(frozen=True)
class ReportDocument:
    """The report JSON document; the markdown is rendered from it."""

    data: dict

    @property
    def timeline_rows(self) -> list[dict]:
        return self.data["timeline"]

    def to_markdown(self) -> str:
        data = self.data
        zone = data["display_zone"]
        lines = ["# Smartwatch exfiltration triage report", ""]
        lines.append(f"Bundle: `{data['bundle_manifest_digest']}`  ")
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
            lines.append(f"- Packages: {', '.join(sess['packages']) or '(no in-window app evidence)'}")
            lines.append(f"- App start: {sess['app_start_rendered'] or 'unknown (usage detail expired)'}")
            lines.append(f"- Networks: {', '.join(sess['network_ids'])}")
            buckets = ", ".join(f"{b['st']} ({Timestamp(b['st']).render(zone)})" for b in sess["buckets"])
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
            digests = ", ".join(f"`{d}`" for d in f["evidence_digests"])
            lines.append(f"- Evidence: {digests}")
            lines.append("")
        if data["timeline"]:
            lines.append("## Timeline")
            lines.append("")
            lines.append("| Time | Source | Event |")
            lines.append("| --- | --- | --- |")
            for row in data["timeline"]:
                lines.append(f"| {row['time']} | {row['source']} | {row['event']} |")
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
                lines.append(f"- {w}")
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
            raise ReportError(
                "cannot cite evidence: bundle has no netstats item yet findings reference traffic"
            )
        out.append(replace(f, evidence_digests=tuple(dict.fromkeys(digests))))  # dedupe, keep order
    return out


def render_report(
    findings: Sequence[Finding],
    bundle: EvidenceBundle,
    timeline: Timeline,
    display_zone: str,
    warnings: Sequence[str] = (),
) -> ReportDocument:
    """The report document for findings that already cite their evidence
    (attach_evidence_digests); rendered times are in `display_zone`."""
    # Every source event once, ascending; ties keep source order. Traffic
    # buckets are anchored at their window close (st + duration), so an app
    # start inside a bucket precedes the traffic covering it.
    rows = [(ev.at, SourceKind.USAGESTATS, f"{ev.event_type} {ev.package}") for ev in timeline.report.events_24h]
    for rec in timeline.records:
        text = f"traffic bucket {rec.network_id} st={rec.st.epoch} rb={rec.rb} tb={rec.tb}"
        rows.append((Timestamp(rec.st.epoch + timeline.bucket_duration), SourceKind.NETSTATS, text))
    for lease in timeline.lease_log.leases:
        ssid = f" ssid={lease.network_id}" if lease.network_id else ""
        text = f"{lease.event_kind.value} {lease.interface} ip={lease.private_ip}{ssid}"
        rows.append((lease.at, SourceKind.NETWORK_STACK, text))
    rows.sort(key=lambda row: row[0].epoch)

    finding_dicts = [finding_to_dict(f, display_zone) for f in findings]
    flags = sorted({flag for f in finding_dicts for flag in f["session"]["ambiguity_flags"]})
    return ReportDocument(
        {
            "schema": "watchtriage.report/1",
            "bundle_manifest_digest": bundle.bundle_manifest_digest,
            "display_zone": display_zone,
            "finding_count": len(finding_dicts),
            "findings": finding_dicts,
            "timeline": [
                {"time": at.render(display_zone), "source": kind.value, "event": text} for at, kind, text in rows
            ],
            "limitations": [LIMITATION_NOTES[AmbiguityFlag(flag)] for flag in flags],
            "warnings": list(warnings),
        }
    )
