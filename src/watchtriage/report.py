"""Investigator-facing report rendering.

`render_report` gathers a report's records once: its findings, and its
timeline rows as the columns of one `evidence.Records` list. Both
forms are written from those same records: the `watchtriage.report/1` JSON
document, with each finding in `correlate.finding_to_dict`'s form, and the
markdown, which shows no app event and so builds no finding dict. The
tests pin that the two agree. Reports are deterministic: identical
findings and bundle produce byte-identical output (no generation
timestamps), every timestamp carries an explicit zone offset, and every
finding block cites at least one evidence item digest.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .correlate import AmbiguityFlag, Finding, Timeline, finding_to_dict
from .evidence import EvidenceBundle, Records, RenderedTimes, SourceKind, one_line
from .host_artifacts import FtpServerEntry

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
    """A report: its findings, with the rendered times they show, and the
    rest of its JSON document, timeline rows included; both the document
    (`data`) and the markdown are written from these."""

    head: dict
    findings: Sequence[Finding]
    times: RenderedTimes

    @property
    def data(self) -> dict:
        """The `watchtriage.report/1` document."""
        return {**self.head, "findings": [finding_to_dict(f, self.times) for f in self.findings]}

    @property
    def timeline_rows(self) -> Records:
        return self.head["timeline"]

    def to_markdown(self) -> str:
        head, times = self.head, self.times
        lines = ["# Smartwatch exfiltration triage report", ""]
        lines.append(f"Bundle: `{one_line(head['bundle_manifest_digest'])}`  ")
        lines.append(f"Display zone: {head['display_zone']}")
        lines.append("")
        lines.append(f"## Findings ({head['finding_count']})")
        lines.append("")
        if not self.findings:
            lines.append("No detections: no session met any pattern rule or volume threshold.")
            lines.append("")
        for i, f in enumerate(self.findings, 1):
            sess = f.session
            start = sess.app_start
            lines.append(f"### {i}. {f.pattern.value} ({f.confidence.value})")
            lines.append("")
            packages = one_line(", ".join(sess.packages))
            lines.append(f"- Packages: {packages or '(no in-window app evidence)'}")
            lines.append(f"- App start: {times[start.epoch] if start else 'unknown (usage detail expired)'}")
            lines.append(f"- Networks: {one_line(', '.join(sess.network_ids))}")
            buckets = ", ".join(f"{b.st.epoch} ({times[b.st.epoch]})" for b in sess.buckets)
            lines.append(f"- Bucket starts: {buckets}")
            lines.append(f"- Bytes in / out: {f.direction_summary.bytes_in:,} / {f.direction_summary.bytes_out:,}")
            ips = sorted({lease.private_ip for lease in sess.resolved_leases})
            lines.append(f"- Resolved private IPs: {', '.join(ips) or 'none'}")
            parts = [
                f"{c.protocol.value} client entry {c.host}:{c.port} ({c.source_file})"
                if isinstance(c, FtpServerEntry)
                else f"known_hosts entry {c.host}:{c.port}"
                for c in f.host_corroboration
            ]
            lines.append(f"- Host corroboration: {'; '.join(parts) or 'none'}")
            flags = sorted(flag.value for flag in sess.ambiguity_flags)
            lines.append(f"- Ambiguity flags: {', '.join(flags) or 'none'}")
            digests = ", ".join(f"`{one_line(d)}`" for d in f.evidence_digests)
            lines.append(f"- Evidence: {digests}")
            lines.append("")
        if head["timeline"]:
            lines.append("## Timeline")
            lines.append("")
            lines.append("| Time | Source | Event |")
            lines.append("| --- | --- | --- |")
            # Event text quotes evidence (an SSID, say): with its line breaks
            # and "|" escaped, it stays in its cell.
            rendered, sources, cells = head["timeline"].columns
            lines += map("| {} | {} | {} |".format, rendered, sources, (one_line(c).replace("|", "\\|") for c in cells))
            lines.append("")
        lines.append("## Limitations")
        lines.append("")
        for note in head["limitations"] or ["none observed in this bundle"]:
            lines.append(f"- {note}")
        lines.append("")
        if head["warnings"]:
            lines.append("## Warnings")
            lines.append("")
            for w in head["warnings"]:
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
    """The report of findings that already cite their evidence
    (attach_evidence_digests); rendered times are in `display_zone`, and
    each instant is rendered once for the whole report."""
    # Every source event once, ascending; ties keep source order. Traffic
    # buckets are anchored at their window close (st + duration), so an app
    # start inside a bucket precedes the traffic covering it. Instants are
    # rendered in source order, so the first close out of range raises, as
    # when each row built its instant.
    events, records, lease_events = timeline.report.events_24h, timeline.records, timeline.lease_log.leases
    times = RenderedTimes(display_zone, [*(ev.at for ev in events), *(lease.at for lease in lease_events)])
    usage, traffic, leases = SourceKind.USAGESTATS.value, SourceKind.NETSTATS.value, SourceKind.NETWORK_STACK.value
    duration = timeline.bucket_duration
    epochs = [*(ev.at.epoch for ev in events), *(rec.st.epoch + duration for rec in records),
              *(lease.at.epoch for lease in lease_events)]
    rendered = list(map(times.__getitem__, epochs))
    sources = [usage] * len(events) + [traffic] * len(records) + [leases] * len(lease_events)
    texts = [f"{ev.event_type} {ev.package}" for ev in events]
    texts += [f"traffic bucket {rec.network_id} st={rec.st.epoch} rb={rec.rb} tb={rec.tb}" for rec in records]
    for lease in lease_events:
        ssid = f" ssid={lease.network_id}" if lease.network_id else ""
        texts.append(f"{lease.event_kind.value} {lease.interface} ip={lease.private_ip}{ssid}")
    order = sorted(range(len(epochs)), key=epochs.__getitem__)
    rows = [list(map(column.__getitem__, order)) for column in (rendered, sources, texts)]

    flags = sorted({flag.value for f in findings for flag in f.session.ambiguity_flags})
    head = {
        "schema": "watchtriage.report/1",
        "bundle_manifest_digest": bundle.bundle_manifest_digest,
        "display_zone": display_zone,
        "finding_count": len(findings),
        "timeline": Records(("time", "source", "event"), rows),
        "limitations": [LIMITATION_NOTES[AmbiguityFlag(flag)] for flag in flags],
        "warnings": list(warnings),
    }
    return ReportDocument(head, tuple(findings), times)
