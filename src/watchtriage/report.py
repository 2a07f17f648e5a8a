"""Investigator-facing report rendering.

One internal document model feeds both the markdown and the JSON output so
the two can never drift. Reports are deterministic: identical findings and
bundle produce byte-identical output (no generation timestamps), every
timestamp carries an explicit zone offset, and every finding block cites at
least one evidence item digest.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .correlate import AmbiguityFlag, Finding, Timeline, finding_to_dict
from .evidence import EvidenceBundle, SourceKind
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


class ReportError(Exception):
    pass


@dataclass(frozen=True)
class ReportDocument:
    bundle_ref: str
    findings: tuple[Finding, ...]
    timeline_rows: tuple[tuple[str, str, str], ...]  # (rendered time, source, description)
    limitations: tuple[str, ...]
    display_zone: str
    warnings: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "schema": "watchtriage.report/1",
            "bundle_manifest_digest": self.bundle_ref,
            "display_zone": self.display_zone,
            "finding_count": len(self.findings),
            "findings": [finding_to_dict(f, self.display_zone) for f in self.findings],
            "timeline": [
                {"time": t, "source": s, "event": d} for t, s, d in self.timeline_rows
            ],
            "limitations": list(self.limitations),
            "warnings": list(self.warnings),
        }

    def to_markdown(self) -> str:
        lines = ["# Smartwatch exfiltration triage report", ""]
        lines.append(f"Bundle: `{self.bundle_ref}`  ")
        lines.append(f"Display zone: {self.display_zone}")
        lines.append("")
        lines.append(f"## Findings ({len(self.findings)})")
        lines.append("")
        if not self.findings:
            lines.append("No detections: no session met any pattern rule or volume threshold.")
            lines.append("")
        for i, f in enumerate(self.findings, 1):
            sess = f.session
            lines.append(f"### {i}. {f.pattern.value} ({f.confidence.value})")
            lines.append("")
            lines.append(f"- Packages: {', '.join(sess.packages) or '(no in-window app evidence)'}")
            start = sess.app_start
            lines.append(f"- App start: {start.render(self.display_zone) if start else 'unknown (usage detail expired)'}")
            lines.append(f"- Networks: {', '.join(sess.network_ids)}")
            buckets = ", ".join(f"{b.st.epoch} ({b.st.render(self.display_zone)})" for b in sess.buckets)
            lines.append(f"- Bucket starts: {buckets}")
            lines.append(
                f"- Bytes in / out: {f.direction_summary.bytes_in:,} / {f.direction_summary.bytes_out:,}"
            )
            ips = sorted({ip for ip, _ in sess.resolved_ips})
            lines.append(f"- Resolved private IPs: {', '.join(ips) or 'none'}")
            if f.host_corroboration:
                parts = []
                for entry in f.host_corroboration:
                    if isinstance(entry, FtpServerEntry):
                        parts.append(f"{entry.protocol.value} client entry {entry.host}:{entry.port} ({entry.source_file})")
                    else:
                        parts.append(f"known_hosts entry {entry.host}:{entry.port}")
                lines.append(f"- Host corroboration: {'; '.join(parts)}")
            else:
                lines.append("- Host corroboration: none")
            flags = sorted(fl.value for fl in sess.ambiguity_flags)
            lines.append(f"- Ambiguity flags: {', '.join(flags) or 'none'}")
            digests = ", ".join(f"`{d}`" for d in f.evidence_digests)
            lines.append(f"- Evidence: {digests}")
            lines.append("")
        if self.timeline_rows:
            lines.append("## Timeline")
            lines.append("")
            lines.append("| Time | Source | Event |")
            lines.append("| --- | --- | --- |")
            for t, src, desc in self.timeline_rows:
                lines.append(f"| {t} | {src} | {desc} |")
            lines.append("")
        lines.append("## Limitations")
        lines.append("")
        if self.limitations:
            for note in self.limitations:
                lines.append(f"- {note}")
        else:
            lines.append("- none observed in this bundle")
        lines.append("")
        if self.warnings:
            lines.append("## Warnings")
            lines.append("")
            for w in self.warnings:
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
        if f.session.resolved_ips:
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
    host_items: Sequence = (),
    warnings: Sequence[str] = (),
) -> ReportDocument:
    """Build the report document; findings gain digests if they lack them."""
    if any(not f.evidence_digests for f in findings):
        findings = attach_evidence_digests(findings, bundle, host_items)

    rows = [(e.at.render(display_zone), e.source_kind.value, e.description) for e in timeline.entries]

    flag_classes: list[AmbiguityFlag] = []
    for f in findings:
        for flag in sorted(f.session.ambiguity_flags, key=lambda fl: fl.value):
            if flag not in flag_classes:
                flag_classes.append(flag)
    limitations = tuple(LIMITATION_NOTES[fl] for fl in sorted(flag_classes, key=lambda fl: fl.value))

    return ReportDocument(
        bundle_ref=bundle.bundle_manifest_digest,
        findings=tuple(findings),
        timeline_rows=tuple(rows),
        limitations=limitations,
        display_zone=display_zone,
        warnings=tuple(warnings),
    )
