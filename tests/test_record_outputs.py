"""The output documents written from records against the dict builders
they replace.

`correlate.findings_document`, `correlate.parse_document` and
`report.render_report` hand the writer each repeated record (app event,
traffic bucket, aggregate, lease, timeline row) as a column of a `Records`
list, and the markdown report is rendered from the findings and the
timeline rows. The `reference_*` functions below are the dict builders and
the dict-walking markdown renderer they replace, kept verbatim; every
document must equal the stdlib's indented dump of its reference, and the
markdown the reference's, byte for byte.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from watchtriage import simulator
from watchtriage.correlate import (
    AmbiguityFlag, FindingPattern, PatternRule, corroborate, findings_document, match_sessions, parse_document,
    read_timeline,
)
from watchtriage.evidence import (
    EvidenceItem, RenderedTimes, SourceKind, Timestamp, document_text, one_line, seal_bundle,
)
from watchtriage.host_artifacts import (
    FtpServerEntry, KnownHostEntry, TransferProtocol, parse_filezilla, parse_known_hosts,
)
from watchtriage.report import LIMITATION_NOTES, attach_evidence_digests, render_report


# --- The dict builders the records replace -----------------------------------

def reference_events_to_dicts(events, times):
    return [
        {"at": e.at.epoch, "rendered": times[e.at.epoch], "package": e.package, "event_type": e.event_type}
        for e in events
    ]


def reference_bucket_to_dict(b):
    return {"network_id": b.network_id, "st": b.st.epoch, "rb": b.rb, "rp": b.rp, "tb": b.tb, "tp": b.tp}


def reference_session_to_dict(session, times):
    start = session.app_start
    return {
        "packages": list(session.packages),
        "network_ids": list(session.network_ids),
        "app_start": start.epoch if start else None,
        "app_start_rendered": times[start.epoch] if start else None,
        "app_events": reference_events_to_dicts(session.app_events, times),
        "buckets": [reference_bucket_to_dict(b) for b in session.buckets],
        "resolved_ips": sorted({lease.private_ip for lease in session.resolved_leases}),
        "ambiguity_flags": sorted(f.value for f in session.ambiguity_flags),
    }


def reference_corroboration_to_dict(entry):
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


def reference_finding_to_dict(finding, times):
    return {
        "pattern": finding.pattern.value,
        "confidence": finding.confidence.value,
        "session": reference_session_to_dict(finding.session, times),
        "bytes_in": finding.direction_summary.bytes_in,
        "bytes_out": finding.direction_summary.bytes_out,
        "host_corroboration": [reference_corroboration_to_dict(e) for e in finding.host_corroboration],
        "evidence_digests": list(finding.evidence_digests),
    }


def reference_findings_document(findings, bundle_digest, bucket_seconds, zone, warnings=()):
    times = RenderedTimes(zone, [e.at for f in findings for e in f.session.app_events])
    return {
        "schema": "watchtriage.findings/1",
        "bundle_manifest_digest": bundle_digest,
        "bucket_seconds": bucket_seconds,
        "finding_count": len(findings),
        "findings": [reference_finding_to_dict(f, times) for f in findings],
        "warnings": list(warnings),
    }


def reference_parse_document(timeline, bundle_digest, zone, warnings):
    report, lease_log = timeline.report, timeline.lease_log
    boot = lease_log.boot_epoch_marker
    times = RenderedTimes(zone, [e.at for e in report.events_24h])
    return {
        "bundle_manifest_digest": bundle_digest,
        "usagestats": {
            "capture_time": report.capture_time.epoch,
            "events": reference_events_to_dicts(report.events_24h, times),
            "aggregates": [
                {"window": a.window.value, "package": a.package, "last_used": a.last_used.epoch,
                 "use_count": a.use_count, "precision": "minute"}
                for a in report.aggregates
            ],
        },
        "netstats": [reference_bucket_to_dict(r) for r in timeline.records],
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


def reference_render_report(findings, bundle, timeline, display_zone, warnings=()):
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
    rows.sort(key=lambda row: row[0])

    finding_dicts = [reference_finding_to_dict(f, times) for f in findings]
    flags = sorted({flag for f in finding_dicts for flag in f["session"]["ambiguity_flags"]})
    return {
        "schema": "watchtriage.report/1",
        "bundle_manifest_digest": bundle.bundle_manifest_digest,
        "display_zone": display_zone,
        "finding_count": len(finding_dicts),
        "findings": finding_dicts,
        "timeline": [row for _, row in rows],
        "limitations": [LIMITATION_NOTES[AmbiguityFlag(flag)] for flag in flags],
        "warnings": list(warnings),
    }


def reference_to_markdown(data):
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


# --- Inputs -------------------------------------------------------------------

def stdlib_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def sealed(texts, capture, zone):
    kinds = (SourceKind.USAGESTATS, SourceKind.NETSTATS, SourceKind.NETWORK_STACK)
    return seal_bundle([(kind.value, kind, text.encode(), capture) for kind, text in zip(kinds, texts)],
                       "synthetic", zone)


def scenario_case(scenario):
    """A generated bundle with its PC-side artifacts, as `generate` writes them."""
    bundle = sealed(simulator.render_dumps(scenario), scenario.capture_time, scenario.display_zone)
    ftp, known, items = [], [], []
    if scenario.host_side:
        filezilla_xml, known_hosts = simulator.render_host_artifacts(scenario)
        ftp = parse_filezilla(filezilla_xml)[0]
        known = parse_known_hosts(known_hosts)[0]
        at = Timestamp(scenario.capture_time)
        items = [EvidenceItem.from_bytes(SourceKind.RECENTSERVERS_XML, filezilla_xml.encode(), at, "pc"),
                 EvidenceItem.from_bytes(SourceKind.KNOWN_HOSTS, known_hosts.encode(), at, "pc")]
    return bundle, ftp, known, items, ()


def scaled_scenario():
    path = Path(__file__).resolve().parent.parent / "bench" / "scenarios.py"
    spec = importlib.util.spec_from_file_location("bench_scenarios", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.scaled_scenario(1)


# Evidence strings that the writer must encode and the markdown escape.
HOSTILE = ('com.a"b\\c', "카페|5G\nGuest", "cr\rlf\r\n", "\x00\x1b\x1f\x7f", " \U0001f600é",
           "%s %% |%d|", "tab\there")


def hostile_case(texts=HOSTILE):
    """JSON-lines dumps whose packages, event types, SSIDs and interfaces,
    and PC-side entries whose key type and source file, are `texts`: by
    default they hold control characters, non-ASCII text, quotes,
    backslashes, "|", "%" and line breaks."""
    capture = 1683809100
    st = capture - 4 * 3600
    usage = [{"record": "event", "at": st + 60 * i, "package": text, "event_type": f"RESUMED{text}"}
             for i, text in enumerate(texts)]
    usage += [{"record": "event", "at": capture - 90_000, "package": texts[-1], "event_type": "OLD"},
              {"record": "aggregate", "window": "week", "package": texts[-1], "last_used": st, "use_count": 3}]
    net = [{"network_id": ssid, "st": st + 3600 * (i % 3), "rb": 20_000_000 + i, "rp": 1, "tb": 5, "tp": 1}
           for i, ssid in enumerate(texts)]
    leases = [{"record": "boot", "at": st - 3600}]
    leases += [{"record": "lease", "at": st + 10 + i, "interface": ssid, "private_ip": f"10.0.0.{i + 2}",
                "network_id": ssid if i % 2 else None} for i, ssid in enumerate(texts)]
    texts = ["".join(json.dumps(row) + "\n" for row in rows) for rows in (usage, net, leases)]
    bundle = sealed(texts, capture, "UTC")
    ftp = [FtpServerEntry("10.0.0.3", 21, TransferProtocol.FTP, texts[-1])]
    known = [KnownHostEntry("10.0.0.2", 22, texts[0]), KnownHostEntry("10.0.0.4", 2222, texts[-1])]
    rules = (PatternRule(FindingPattern.FTP_SERVER_EXFIL, (texts[0], "*|*")),
             PatternRule(FindingPattern.UNCLASSIFIED_TRANSFER, (), min_bytes=1))
    return bundle, ftp, known, [], rules


CASES = {
    **{f"preset-{name}": (lambda make=make: scenario_case(make())) for name, make in sorted(simulator.PRESETS.items())},
    **{f"seed{seed}": (lambda seed=seed: scenario_case(simulator.random_scenario(seed))) for seed in range(0, 200, 5)},
    "scaled": lambda: scenario_case(scaled_scenario()),
    "hostile": hostile_case,
    # Each character the markdown escapes, alone in an otherwise plain dump.
    **{f"hostile-{name}": (lambda text=text: hostile_case(("plain", text, "also plain")))
       for name, text in (("lf", "Cafe\nGuest"), ("cr", "Cafe\rGuest"), ("pipe", "Cafe|Guest"))},
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_documents_and_markdown_equal_the_dict_builders(case):
    bundle, ftp, known, items, rules = CASES[case]()
    timeline, warnings = read_timeline(bundle)
    findings = corroborate(match_sessions(timeline), ftp, known, *(rules,) if rules else ())
    findings = attach_evidence_digests(findings, bundle, items)
    digest, duration = bundle.bundle_manifest_digest, timeline.bucket_duration
    if case == "hostile":
        assert len(findings) >= 3 and any(f.host_corroboration for f in findings) and warnings

    for zone in (bundle.display_zone, "America/New_York"):
        assert document_text(findings_document(findings, digest, duration, zone, warnings)) == \
            stdlib_text(reference_findings_document(findings, digest, duration, zone, warnings)), zone
        assert document_text(parse_document(timeline, digest, zone, warnings)) == \
            stdlib_text(reference_parse_document(timeline, digest, zone, warnings)), zone
        doc = render_report(findings, bundle, timeline, zone, warnings)
        reference = reference_render_report(findings, bundle, timeline, zone, warnings)
        assert document_text(doc.data) == stdlib_text(reference), zone
        assert doc.to_markdown() == reference_to_markdown(reference), zone
        assert len(doc.timeline_rows) == len(reference["timeline"])
        assert list(doc.timeline_rows) == reference["timeline"]
