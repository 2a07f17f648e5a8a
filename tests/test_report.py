import re

import pytest

from watchtriage import simulator
from watchtriage.correlate import findings_document
from watchtriage.evidence import EvidenceItem, SourceKind, Timestamp, seal_bundle
from watchtriage.report import ReportError, attach_evidence_digests, render_report
from tests.conftest import run_pipeline


def bundle_for(scenario):
    texts = simulator.render_dumps(scenario)
    kinds = (SourceKind.USAGESTATS, SourceKind.NETSTATS, SourceKind.NETWORK_STACK)
    items, payloads = [], {}
    for kind, text in zip(kinds, texts):
        item = EvidenceItem.from_bytes(
            kind, text.encode(), Timestamp(scenario.capture_time), "synthetic"
        )
        items.append(item)
        payloads[item.key()] = text.encode()
    return seal_bundle(items, payloads=payloads)


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

    def test_bundle_without_citable_items_is_an_error(self):
        scenario = simulator.preset_ftp_file_server()
        result = run_pipeline(scenario)
        item = EvidenceItem.from_bytes(
            SourceKind.GETPROP, b"armeabi-v7a\n", Timestamp(scenario.capture_time), "synthetic"
        )
        bundle = seal_bundle([item])
        with pytest.raises(ReportError):
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
