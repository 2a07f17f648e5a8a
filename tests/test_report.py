import json
import re

import pytest

from watchtriage import simulator
from watchtriage.correlate import corroborate, findings_document, match_sessions, read_timeline
from watchtriage.evidence import EvidenceItem, SourceKind, Timestamp, document_text, seal_bundle
from watchtriage.report import attach_evidence_digests, render_report
from tests.conftest import run_pipeline


def bundle_for(scenario):
    texts = simulator.render_dumps(scenario)
    kinds = (SourceKind.USAGESTATS, SourceKind.NETSTATS, SourceKind.NETWORK_STACK)
    captured = [(kind.value, kind, text.encode(), scenario.capture_time) for kind, text in zip(kinds, texts)]
    return seal_bundle(captured, "synthetic", scenario.display_zone)


def render_for(scenario, display_zone=None):
    result = run_pipeline(scenario)
    bundle = bundle_for(scenario)
    findings = attach_evidence_digests(result["findings"], bundle)
    doc = render_report(findings, bundle, result["timeline"], display_zone or scenario.display_zone)
    return doc, result, bundle


class TestReportRendering:
    def test_markdown_is_deterministic(self):
        scenario = simulator.preset_case_study()
        md1 = render_for(scenario)[0].to_markdown()
        md2 = render_for(scenario)[0].to_markdown()
        assert md1 == md2

    def test_every_finding_cites_at_least_one_item_digest(self):
        scenario = simulator.preset_case_study()
        doc, _result, bundle = render_for(scenario)
        digests = {i.raw_bytes_digest for i in bundle.items}
        for finding in doc.data["findings"]:
            assert finding["evidence_digests"]
            assert set(finding["evidence_digests"]) <= digests

    def test_corroborated_finding_cites_lease_and_known_hosts_evidence(self):
        scenario = simulator.preset_sftp_server()
        result = run_pipeline(scenario)
        bundle = bundle_for(scenario)
        _, known_hosts = simulator.render_host_artifacts(scenario)
        host_item = EvidenceItem.from_bytes(
            SourceKind.KNOWN_HOSTS, known_hosts.encode(), Timestamp(scenario.capture_time), "pc"
        )
        by_kind = {i.source_kind: i.raw_bytes_digest for i in bundle.items}
        findings = attach_evidence_digests(result["findings"], bundle, [host_item])
        f = findings[0]
        assert by_kind[SourceKind.NETSTATS] in f.evidence_digests
        assert by_kind[SourceKind.NETWORK_STACK] in f.evidence_digests
        assert by_kind[SourceKind.USAGESTATS] in f.evidence_digests
        assert host_item.raw_bytes_digest in f.evidence_digests

    def test_all_timestamps_carry_zone_designator(self):
        scenario = simulator.preset_case_study()
        doc, _, _ = render_for(scenario)
        md = doc.to_markdown()
        for line in md.splitlines():
            for m in re.finditer(r"\d{4}-\d{2}-\d{2} \d{2}:\d{2}:\d{2}", line):
                tail = line[m.end():m.end() + 7]
                assert re.match(r" [+-]\d{2}:\d{2}", tail), line

    def test_expired_flag_produces_24h_precision_note_exactly_once(self):
        scenario = simulator.preset_hidden_camera()
        doc, _, _ = render_for(scenario)
        md = doc.to_markdown()
        assert md.count("24-hour precision decay") == 1

    def test_flag_classes_listed_exactly_once_each(self):
        scenario = simulator.preset_same_start_ambiguity()
        doc, _, _ = render_for(scenario)
        limitations = doc.data["limitations"]
        assert sum("same-hour network ambiguity" in note for note in limitations) == 1
        # flag class absent from findings is absent from the appendix
        assert not any("24-hour precision" in note for note in limitations)

    def test_zero_findings_notes_no_detections(self):
        scenario = simulator.Scenario(capture_time=1683809100)
        doc, _, _ = render_for(scenario)
        md = doc.to_markdown()
        assert "No detections" in md
        assert "## Limitations" in md

    def test_display_zone_rezones_rendered_timestamps(self):
        doc, _, _ = render_for(simulator.preset_ftp_file_server(), display_zone="UTC")
        md = doc.to_markdown()
        # 2023-05-11 01:14:16 KST == 2023-05-10 16:14:16 UTC
        assert "2023-05-10 16:14:16 +00:00" in md
        assert "+09:00" not in md
        data = doc.data
        assert data["findings"][0]["session"]["app_start_rendered"] == "2023-05-10 16:14:16 +00:00"

    def test_json_and_markdown_share_one_model(self):
        scenario = simulator.preset_case_study()
        doc, _, _ = render_for(scenario)
        data = doc.data
        assert data["finding_count"] == len(data["findings"])
        md = doc.to_markdown()
        for f in data["findings"]:
            assert f["pattern"] in md
        assert data["bundle_manifest_digest"] in md

    def test_pipe_in_evidence_text_stays_in_its_timeline_cell(self):
        # A suspect names their own hotspot; a "|" in its SSID must not open a
        # fourth cell in a three-column markdown table.
        base = simulator.preset_case_study()
        wifi = (base.wifi_sessions[0]._replace(ssid="Cafe|Guest"), *base.wifi_sessions[1:])
        doc, _, _ = render_for(base._replace(wifi_sessions=wifi))
        table = doc.to_markdown().split("## Timeline\n\n", 1)[1].split("\n\n", 1)[0]
        rows = table.split("\n")
        assert sum("Cafe\\|Guest" in row for row in rows) >= 2  # a traffic bucket and a lease
        assert [row for row in rows if len(re.findall(r"(?<!\\)\|", row)) != 4] == []
        assert sum("Cafe|Guest" in row["event"] for row in doc.timeline_rows) >= 2
        assert "Cafe|Guest" in document_text(doc.data)

    def test_line_breaks_in_evidence_text_stay_on_their_markdown_line(self):
        # The JSON-lines dumps take any string as a network id or package; a
        # line break in one must not split a table row or a finding's line.
        capture = 1683809100
        st = capture - 7200
        dumps = (
            [{"record": "event", "at": st + 60, "package": "com.example\rrelay", "event_type": "ACTIVITY_RESUMED"}],
            [{"network_id": "Cafe\nGuest", "st": st, "rb": 20_000_000, "rp": 1, "tb": 1, "tp": 1}],
            [{"record": "lease", "at": st + 10, "private_ip": "10.0.0.2", "network_id": "Cafe\nGuest"}],
        )
        kinds = (SourceKind.USAGESTATS, SourceKind.NETSTATS, SourceKind.NETWORK_STACK)
        captured = [(kind.value, kind, "".join(json.dumps(row) + "\n" for row in rows).encode(), capture)
                    for kind, rows in zip(kinds, dumps)]
        bundle = seal_bundle(captured, "synthetic", "UTC")
        timeline, warnings = read_timeline(bundle)
        findings = attach_evidence_digests(corroborate(match_sessions(timeline)), bundle)
        doc = render_report(findings, bundle, timeline, "UTC", warnings)
        md = doc.to_markdown()
        assert "- Packages: com.example\\rrelay\n" in md
        assert "- Networks: Cafe\\nGuest\n" in md
        table = md.split("## Timeline\n\n", 1)[1].split("\n\n", 1)[0]
        rows = table.split("\n")
        assert len(rows) == 2 + 3  # header, rule, and one row per event
        assert all(row.startswith("| ") and row.endswith(" |") and "\r" not in row for row in rows)
        assert sum("Cafe\\nGuest" in row for row in rows) == 2  # the traffic bucket and the lease
        assert sum("Cafe\nGuest" in row["event"] for row in doc.timeline_rows) == 2
        assert doc.data["findings"][0]["session"]["packages"] == ["com.example\rrelay"]

    def test_line_breaks_in_warnings_and_digests_stay_on_their_markdown_line(self):
        # A warning quotes its dump line or a package name, and the digests
        # are manifest strings the report never checks: a line break in any
        # of them must not start a new markdown line.
        capture = 1683809100
        st = capture - 7200
        usage = "".join(json.dumps(row) + "\n" for row in (
            {"record": "event", "at": st + 60, "package": "com.example", "event_type": "ACTIVITY_RESUMED"},
            {"record": "event", "at": capture - 90_000, "package": "a\nb", "event_type": "ACTIVITY_RESUMED"},
        ))
        netstats = f'networkId="home"\nst={st} rb=20000000 rp=1 tb=1 tp=1\njunk\rmore | x\n'
        network_stack = json.dumps({"record": "lease", "at": st + 10, "private_ip": "10.0.0.2"}) + "\n"
        kinds = (SourceKind.USAGESTATS, SourceKind.NETSTATS, SourceKind.NETWORK_STACK)
        captured = [(kind.value, kind, text.encode(), capture)
                    for kind, text in zip(kinds, (usage, netstats, network_stack))]
        bundle = seal_bundle(captured, "synthetic", "UTC")._replace(bundle_manifest_digest="feed\r\nbeef")
        timeline, warnings = read_timeline(bundle)
        findings = [f._replace(evidence_digests=("ab\ncd", "ef\rgh"))
                    for f in attach_evidence_digests(corroborate(match_sessions(timeline)), bundle)]
        doc = render_report(findings, bundle, timeline, "UTC", warnings)
        md = doc.to_markdown()
        assert "\r" not in md
        assert "Bundle: `feed\\r\\nbeef`  \n" in md
        assert "- Evidence: `ab\\ncd`, `ef\\rgh`\n" in md
        assert "- netstats: line 3: unrecognized: junk\\rmore | x\n" in md
        assert "- usagestats: event for a\\nb at 2023-05-10 11:45:00 +00:00 lies outside" in md
        assert [line for line in md.split("\n") if line.startswith("b at ")] == []
        assert doc.data["bundle_manifest_digest"] == "feed\r\nbeef"
        assert doc.data["findings"][0]["evidence_digests"] == ["ab\ncd", "ef\rgh"]
        assert "netstats: line 3: unrecognized: junk\rmore | x" in doc.data["warnings"]
        assert any(w.startswith("usagestats: event for a\nb at ") for w in doc.data["warnings"])

    def test_bundle_without_citable_items_is_an_error(self):
        scenario = simulator.preset_ftp_file_server()
        result = run_pipeline(scenario)
        captured = [("cpu_abi", SourceKind.GETPROP, b"armeabi-v7a\n", scenario.capture_time)]
        bundle = seal_bundle(captured, "synthetic", scenario.display_zone)
        with pytest.raises(ValueError, match="cannot cite evidence"):
            attach_evidence_digests(result["findings"], bundle)


def test_findings_document_schema_fields():
    scenario = simulator.preset_ftp_file_server()
    result = run_pipeline(scenario)
    doc = findings_document(result["findings"], "abc123", 3600, scenario.display_zone, result["warnings"])
    assert doc["schema"] == "watchtriage.findings/1"
    assert doc["finding_count"] == 1
    finding = doc["findings"][0]
    assert finding["pattern"] == "ftp_server_exfil"
    assert finding["session"]["app_start_rendered"].startswith("2023-05-11 01:14:16")
    assert finding["bytes_in"] == 47_185_920
